/* The neurohash block chain in C, bit-equal to the Python stage functions.
 *
 * chain(padded, key, t) hashes every 128-byte block of a padded message
 * as hashing._chain does: the running key is expanded into its 151
 * sub-keys (keyschedule.subkey_stream, assign_subkeys), the block runs
 * through the input, hidden and output layers (network.hash_block), and
 * the block digest is XORed into the running key. It returns one bytes
 * object, as hashing._chain does: each block digest as four big-endian
 * 32-bit words, then the final running key, 16 * (blocks + 1) bytes.
 * The block loop fills that new object with the GIL released, which is
 * safe because nothing else holds a reference to it yet, so threads hash
 * in parallel.
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

/* keyschedule.subkey_stream: orbit a in lane 0 and orbit b in lane 1,
 * walked side by side as orbit_sums walks them */
static void
subkey_stream(const uint32_t k[4], long long t, double s[SUBKEY_COUNT])
{
    lanes x = {clamp_seed(quantize_word(k[0])), clamp_seed(quantize_word(k[2]))};
    lanes q = {derive_param(quantize_word(k[1])),
               derive_param(quantize_word(k[3]))};
    lanes half = 0.5 - q, top = 1.0 - q;

    for (long long i = 0; i < t; i++)
        x = map_step(x, q, half, top);
    s[0] = mod1(x[0] + x[1]);
    for (int j = 1; j < SUBKEY_COUNT; j++) {
        x = map_step(x, q, half, top);
        s[j] = mod1(x[0] + x[1]);
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

/* Every block digest of `blocks` padded blocks from the running key, then
 * the final running key, into out: 16 * (blocks + 1) big-endian bytes.
 * Touches no Python object. */
static void
chain_words(const unsigned char *raw, Py_ssize_t blocks,
            const unsigned char *key, long long t, unsigned char *out)
{
    uint32_t running[4], digest[4];
    double s[SUBKEY_COUNT];

    for (int i = 0; i < 4; i++)
        running[i] = load_word(key + 4 * i);
    for (Py_ssize_t n = 0; n < blocks; n++) {
        subkey_stream(running, t, s);
        hash_block(raw + n * BLOCK_BYTES, s, t, digest);
        for (int i = 0; i < 4; i++) {
            store_word(out + KEY_BYTES * n + 4 * i, digest[i]);
            running[i] ^= digest[i];
        }
    }
    for (int i = 0; i < 4; i++)
        store_word(out + KEY_BYTES * blocks + 4 * i, running[i]);
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
            Py_BEGIN_ALLOW_THREADS
            chain_words(padded.buf, blocks, key.buf, t, out);
            Py_END_ALLOW_THREADS
        }
    }
    PyBuffer_Release(&padded);
    PyBuffer_Release(&key);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"chain", chain, METH_VARARGS,
     "chain(padded, key, t) -> every block digest, then the final key"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The neurohash block chain, bit-equal to hashing._chain.", -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
