/* The neurohash block chain in C, bit-equal to the Python stage functions.
 *
 * chain(padded, key, t) hashes every 128-byte block of a padded message
 * as hashing._chain does: the running key is expanded into its 151
 * sub-keys (keyschedule.subkey_stream, assign_subkeys), the block runs
 * through the input, hidden and output layers (network.hash_block), and
 * the block digest is XORed into the running key. It returns one bytes
 * object, as hashing._chain does: each block digest as four big-endian
 * 32-bit words, then the final running key, 16 * (blocks + 1) bytes.
 * chain_many(padded, blocks, keys, t) hashes n messages of `blocks`
 * padded blocks each, given one after the other, under their n keys,
 * and returns their n final running keys, 16 * n bytes: message i's are
 * chain(padded_i, key_i, t)[-16:], as hashing._chain_many has them. It
 * chains the messages two at a time, their two key schedules walked side
 * by side as two lane pairs, and a run of equal keys expands its first
 * block's schedule once. Both fill their new bytes object with the GIL
 * released, which is safe because nothing else holds a reference to it
 * yet, so threads hash in parallel.
 *
 * Every floating-point result is the one the Python code computes: sums
 * accumulate in ascending index order from the first product with the
 * bias added last, and mod1 is Python's x % 1.0. The map runs on two
 * lanes at a time (map_step): the two key orbits form one pair, and a
 * layer's neurons form pairs that advance together, one step each per
 * turn of the t loop. A lane step has no data-dependent branch for the
 * processor to mispredict: comparison masks pick the numerator and the
 * divisor of the branch chaosmap.map_layer takes, and one division
 * follows. The unpicked differences are computed and discarded, so each
 * lane performs map_layer's binary64 operations on the same operands and
 * rounds to the same result. The upper clamp is applied to both halves
 * of the map; in the lower half the quotient never exceeds 1.0
 * (chaosmap's docstring proves it), so there it changes nothing. The
 * digests match only if the compiler rounds every operation to binary64
 * on its own: build with -ffp-contract=off, and never with -ffast-math
 * or -mfma (ckernel.FLAGS). The check below refuses targets that
 * evaluate doubles in a wider format. The lanes are a GCC vector
 * extension, which gcc and clang compile to SSE2 on x86-64 and to NEON
 * on arm64.
 *
 * The map's domain checks are left out. The chain cannot leave the
 * domain: every parameter comes out of derive_param's clamp, every seed
 * out of clamp_seed's, and every map input out of % 1.0 or a map step.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double arithmetic must be evaluated in binary64"
#endif

#define Q_MIN (1.0 / 1048576.0)           /* 2^-20 */
#define Q_MAX (0.5 - 1.0 / 1048576.0)
#define SEED_MIN (1.0 / 4294967296.0)     /* 2^-32 */
#define SEED_MAX (1.0 - 1.0 / 4294967296.0)
#define SUBKEY_COUNT 151
#define BLOCK_BYTES 128
#define KEY_BYTES 16

/* Python's x % 1.0 for 0 <= x < 2^63, which every sum here is (at most 9
 * non-negative terms, none above 1). The cast truncates to floor(x),
 * an integer no larger than x and so a double too, and x minus it is x's
 * fractional bits, which a double holds exactly: no rounding occurs, and
 * an integer x gives +0.0, as Python does. */
static double
mod1(double x)
{
    return x - (double)(int64_t)x;
}

static double
quantize_word(uint32_t word)
{
    return word / 4294967296.0;
}

static double
derive_param(double u)
{
    double q = u / 2.0;
    if (q < Q_MIN)
        return Q_MIN;
    if (q > Q_MAX)
        return Q_MAX;
    return q;
}

static double
clamp_seed(double x)
{
    if (x < SEED_MIN)
        return SEED_MIN;
    if (x > SEED_MAX)
        return SEED_MAX;
    return x;
}

/* Two doubles, one map lane each, and the lane mask a comparison of
 * two of them gives: all ones where it holds, all zeros where not. */
typedef double lanes __attribute__((vector_size(16)));
typedef __typeof__((lanes){0.0, 0.0} < (lanes){0.0, 0.0}) mask;

/* yes in the lanes where m holds, no in the others */
static lanes
pick(mask m, lanes yes, lanes no)
{
    return (lanes)((m & (mask)yes) | (~m & (mask)no));
}

/* One map step in each lane; half = 0.5 - q and top = 1.0 - q, as
 * map_layer has them. The masks pick the numerator of the lane's branch
 * (x, x - q, top - x or 1 - x) and its divisor: half where q <= x < top
 * (x < top holds wherever x < q does, so that band is below ^ inner),
 * q elsewhere. The clamp tests the operands, which leaves the compare
 * off the division's path: num > div exactly when the quotient exceeds
 * 1.0 before rounding, and since rounding is monotone the rounded
 * quotient is then >= 1.0, which the clamp makes 1.0; otherwise it is
 * <= 1.0 and the clamp does nothing. */
static lanes
map_step(lanes x, lanes q, lanes half, lanes top)
{
    const lanes one = {1.0, 1.0}, mid = {0.5, 0.5};
    mask below = x < q, lower = x < mid, inner = x < top;
    lanes num = pick(lower, pick(below, x, x - q),
                     pick(inner, top - x, one - x));
    lanes div = pick(below ^ inner, half, q);
    return pick(num > div, one, num / div);
}

/* The map applied t times to each of the 2 * pairs values at x, in
 * place: every turn of the t loop steps every pair. */
static void
map_pairs(double *x, int pairs, double q, long long t)
{
    const lanes qs = {q, q}, half = 0.5 - qs, top = 1.0 - qs;
    lanes v[4];                   /* a layer has at most 8 neurons */

    for (int p = 0; p < pairs; p++)
        v[p] = (lanes){x[2 * p], x[2 * p + 1]};
    for (long long i = 0; i < t; i++)
        for (int p = 0; p < pairs; p++)
            v[p] = map_step(v[p], qs, half, top);
    for (int p = 0; p < pairs; p++) {
        x[2 * p] = v[p][0];
        x[2 * p + 1] = v[p][1];
    }
}

static uint32_t
load_word(const unsigned char *p)
{
    return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16
           | (uint32_t)p[2] << 8 | (uint32_t)p[3];
}

static void
store_word(unsigned char *p, uint32_t word)
{
    p[0] = (unsigned char)(word >> 24);
    p[1] = (unsigned char)(word >> 16);
    p[2] = (unsigned char)(word >> 8);
    p[3] = (unsigned char)word;
}

/* Inlined wherever it is called, so that a constant count of keys or
 * messages unrolls its loops and the lanes stay in registers: with a
 * count known only at run time they live on the stack, and every map step
 * of the key schedule waits for a store and a load. */
#define UNROLLED static inline __attribute__((always_inline))

/* keyschedule.subkey_stream for each of `keys` (1 or 2) running keys:
 * key m's orbit a in lane 0 and orbit b in lane 1 of pair m, walked side
 * by side as orbit_sums walks them, the pairs stepped together as
 * map_pairs steps a layer's */
UNROLLED void
subkey_stream(uint32_t (*k)[4], int keys, long long t,
              double (*s)[SUBKEY_COUNT])
{
    lanes x[2], q[2], half[2], top[2];

    for (int m = 0; m < keys; m++) {
        x[m] = (lanes){clamp_seed(quantize_word(k[m][0])),
                       clamp_seed(quantize_word(k[m][2]))};
        q[m] = (lanes){derive_param(quantize_word(k[m][1])),
                       derive_param(quantize_word(k[m][3]))};
        half[m] = 0.5 - q[m];
        top[m] = 1.0 - q[m];
    }
    for (long long i = 0; i < t; i++)
        for (int m = 0; m < keys; m++)
            x[m] = map_step(x[m], q[m], half[m], top[m]);
    for (int j = 0; j < SUBKEY_COUNT; j++) {
        if (j > 0)
            for (int m = 0; m < keys; m++)
                x[m] = map_step(x[m], q[m], half[m], top[m]);
        for (int m = 0; m < keys; m++)
            s[m][j] = mod1(x[m][0] + x[m][1]);
    }
}

/* A neuron's pre-activation: the weighted sum of its fan_in inputs plus
 * its bias, mod 1 */
static double
weigh(const double *x, const double *w, int fan_in, double bias)
{
    double s = w[0] * x[0];
    for (int i = 1; i < fan_in; i++)
        s = s + w[i] * x[i];
    return mod1(s + bias);
}

/* network.hash_block under the sub-keys s, as sliced by assign_subkeys */
static void
hash_block(const unsigned char *block, const double s[SUBKEY_COUNT],
           long long t, uint32_t digest[4])
{
    double p[32], c[8], d[8], h[4];

    for (int i = 0; i < 32; i++)
        p[i] = quantize_word(load_word(block + 4 * i));
    /* input neuron j reads p[4j .. 4j+3] with weights s[4j .. 4j+3] */
    for (int j = 0; j < 8; j++)
        c[j] = weigh(p + 4 * j, s + 4 * j, 4, s[32 + j]);
    map_pairs(c, 4, derive_param(s[40]), t);
    for (int j = 0; j < 8; j++)
        d[j] = weigh(c, s + 41 + 8 * j, 8, s[105 + j]);
    map_pairs(d, 4, derive_param(s[113]), 1);
    for (int j = 0; j < 4; j++)
        h[j] = weigh(d, s + 114 + 8 * j, 8, s[146 + j]);
    map_pairs(h, 2, derive_param(s[150]), t);
    for (int j = 0; j < 4; j++) {
        double w = h[j] * 4294967296.0;
        digest[j] = w < 4294967296.0 ? (uint32_t)w : 0xFFFFFFFFu;
    }
}

/* The first block's key schedule of the latest key chain_many expanded,
 * so that a run of equal keys is expanded once per call */
struct first_schedule {
    int held;
    uint32_t key[4];
    double s[SUBKEY_COUNT];
};

static int
same_key(const uint32_t a[4], const uint32_t b[4])
{
    return a[0] == b[0] && a[1] == b[1] && a[2] == b[2] && a[3] == b[3];
}

/* The first block's schedules of the `keys` (1 or 2) keys k into s: a key
 * that `first` holds is copied from it, the others are expanded side by
 * side (two equal ones once), and the last key's schedule is held next. */
static void
first_subkey_stream(uint32_t (*k)[4], int keys, long long t,
                    double (*s)[SUBKEY_COUNT], struct first_schedule *first)
{
    int lo = 0, hi = keys;        /* the keys k[lo .. hi-1] to expand */

    if (first->held && same_key(k[0], first->key)) {
        memcpy(s[0], first->s, sizeof first->s);
        lo = 1;
    }
    if (keys == 2 && first->held && same_key(k[1], first->key)) {
        memcpy(s[1], first->s, sizeof first->s);
        hi = 1;
    }
    if (hi - lo == 2 && !same_key(k[0], k[1]))
        subkey_stream(k, 2, t, s);
    else if (lo < hi) {
        subkey_stream(k + lo, 1, t, s + lo);
        if (hi - lo == 2)         /* two equal keys */
            memcpy(s[1], s[0], sizeof s[0]);
    }
    if (hi == keys && lo < hi) {
        memcpy(first->key, k[keys - 1], sizeof first->key);
        memcpy(first->s, s[keys - 1], sizeof first->s);
        first->held = 1;
    }
}

/* The chains of `keys` (1 or 2) messages of `blocks` padded blocks each,
 * stored one after the other in raw, from their running keys in `running`,
 * which end as their final keys. The two key schedules of a block are
 * expanded side by side; the first block's go through `first` when it is
 * not NULL. When `digests` is not NULL (one message), each block digest
 * goes there as four big-endian words. Touches no Python object. */
UNROLLED void
chain_words(const unsigned char *raw, Py_ssize_t blocks, uint32_t (*running)[4],
            int keys, long long t, struct first_schedule *first,
            unsigned char *digests)
{
    uint32_t digest[4];
    double s[2][SUBKEY_COUNT];

    for (Py_ssize_t n = 0; n < blocks; n++) {
        if (n == 0 && first != NULL)
            first_subkey_stream(running, keys, t, s, first);
        else
            subkey_stream(running, keys, t, s);
        for (int m = 0; m < keys; m++) {
            hash_block(raw + (m * blocks + n) * BLOCK_BYTES, s[m], t, digest);
            for (int i = 0; i < 4; i++) {
                if (digests != NULL)
                    store_word(digests + KEY_BYTES * n + 4 * i, digest[i]);
                running[m][i] ^= digest[i];
            }
        }
    }
}

static void
load_key(const unsigned char *p, uint32_t key[4])
{
    for (int i = 0; i < 4; i++)
        key[i] = load_word(p + 4 * i);
}

static void
store_key(unsigned char *p, const uint32_t key[4])
{
    for (int i = 0; i < 4; i++)
        store_word(p + 4 * i, key[i]);
}

static PyObject *
chain(PyObject *module, PyObject *args)
{
    Py_buffer padded, key;
    long long t;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*y*L:chain", &padded, &key, &t))
        return NULL;
    if (padded.len == 0 || padded.len % BLOCK_BYTES != 0
            || key.len != KEY_BYTES || t < 1)
        PyErr_SetString(PyExc_ValueError,
                        "expected padded blocks, a 16-byte key and t >= 1");
    else {
        Py_ssize_t blocks = padded.len / BLOCK_BYTES;
        result = PyBytes_FromStringAndSize(NULL, KEY_BYTES * (blocks + 1));
        if (result != NULL) {
            unsigned char *out = (unsigned char *)PyBytes_AS_STRING(result);
            uint32_t running[1][4];
            Py_BEGIN_ALLOW_THREADS
            load_key(key.buf, running[0]);
            chain_words(padded.buf, blocks, running, 1, t, NULL, out);
            store_key(out + KEY_BYTES * blocks, running[0]);
            Py_END_ALLOW_THREADS
        }
    }
    PyBuffer_Release(&padded);
    PyBuffer_Release(&key);
    return result;
}

static PyObject *
chain_many(PyObject *module, PyObject *args)
{
    Py_buffer padded, keys;
    Py_ssize_t blocks;
    long long t;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*ny*L:chain_many", &padded, &blocks, &keys, &t))
        return NULL;
    Py_ssize_t n = keys.len / KEY_BYTES;
    if (blocks < 1 || n == 0 || keys.len % KEY_BYTES != 0 || t < 1
            || padded.len % BLOCK_BYTES != 0
            || padded.len / BLOCK_BYTES / blocks != n
            || padded.len / BLOCK_BYTES % blocks != 0)
        PyErr_SetString(PyExc_ValueError,
                        "expected n messages of `blocks` padded blocks each, "
                        "n 16-byte keys and t >= 1");
    else {
        result = PyBytes_FromStringAndSize(NULL, KEY_BYTES * n);
        if (result != NULL) {
            const unsigned char *raw = padded.buf, *key = keys.buf;
            unsigned char *out = (unsigned char *)PyBytes_AS_STRING(result);
            struct first_schedule first = {0};
            Py_BEGIN_ALLOW_THREADS
            for (Py_ssize_t i = 0; i < n; i += 2) {
                uint32_t running[2][4];
                int pair = n - i < 2 ? 1 : 2;
                const unsigned char *messages = raw + BLOCK_BYTES * blocks * i;
                for (int m = 0; m < pair; m++)
                    load_key(key + KEY_BYTES * (i + m), running[m]);
                if (pair == 2)
                    chain_words(messages, blocks, running, 2, t, &first, NULL);
                else
                    chain_words(messages, blocks, running, 1, t, &first, NULL);
                for (int m = 0; m < pair; m++)
                    store_key(out + KEY_BYTES * (i + m), running[m]);
            }
            Py_END_ALLOW_THREADS
        }
    }
    PyBuffer_Release(&padded);
    PyBuffer_Release(&keys);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"chain", chain, METH_VARARGS,
     "chain(padded, key, t) -> every block digest, then the final key"},
    {"chain_many", chain_many, METH_VARARGS,
     "chain_many(padded, blocks, keys, t) -> each message's final key"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The neurohash block chain, bit-equal to hashing._chain and _chain_many.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
