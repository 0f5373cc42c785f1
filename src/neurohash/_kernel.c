/* The neurohash block chain in C, bit-equal to the Python stage functions.
 *
 * chain(padded, blocks, keys, t) hashes n messages of `blocks` padded
 * blocks each, given one after the other, under their n keys, as
 * hashing._chain does, and returns their n final running keys, 16 * n
 * bytes. One function, chain_step, is the chain's step, as in the
 * paper's multi-block mode and hashing.chain_step: the running key is
 * expanded into its 151 sub-keys (keyschedule.subkey_stream,
 * assign_subkeys), the 128-byte block runs through the input, hidden and
 * output layers (network.hash_block), and the block digest is XORed into
 * the running key. chain_batch steps the messages a group at a time,
 * 2 * LANES messages (8 on 4 lanes, 4 on 2): their key schedules are
 * walked side by side, and their blocks are hashed in lockstep, each
 * layer's neurons of all the group's messages stepped in one t loop.
 * Each message after the last full group is stepped alone, by the same
 * code, which walks the key schedules under the input layer (chain_step's
 * comment says how). Each thread keeps the first-block schedules it
 * walked last across chain calls (struct key_cache), under the key and t
 * they were expanded from: a message whose first-block key is held, or a
 * group whose keys all are, copies them and skips the key walk, so
 * messages under a key in recent use, as when many are signed under one
 * secret key, cost their layers alone. Later blocks never touch the
 * cache. chain fills its new bytes object with the GIL released, which
 * is safe because nothing else holds a reference to it yet, so threads
 * hash in parallel.
 *
 * Every floating-point result is the one the Python code computes. A
 * block's work runs on vectors of lanes, a GCC vector extension, but for
 * the quantized input words, the three derive_param calls and the digest
 * extract. The map (map_step) steps the two key orbits of a key side by
 * side, and a layer's neurons together, one step each per turn of the t
 * loop. Each step of the key walk emits the sub-keys of LANES keys at
 * once, their orbits a plus their orbits b, mod 1 (emit). The weighted
 * sums take a layer's neurons as lanes (weigh): each lane takes its first
 * product, adds the others in ascending index order and then its bias,
 * the operations of network's sums in their order. mod1, which both use,
 * finds floor(x) by rounding x through 2^52 and subtracts it; that is
 * exact, as Python's x % 1.0 is, so the two give the same double. A lane
 * step has no data-dependent branch
 * for the processor to mispredict: comparison masks pick the numerator
 * and the divisor of the branch chaosmap.map_layer takes, and one
 * division follows. The unpicked differences are computed and discarded,
 * so each lane performs map_layer's binary64 operations on the same
 * operands and rounds to the same result. The upper clamp is applied to
 * both halves of the map; in the lower half the quotient never exceeds
 * 1.0 (chaosmap's docstring proves it), so there it changes nothing.
 *
 * The lane code is written once, at the end of this file, and compiled
 * once per width by including the file in itself. On 2 lanes (SSE2 on
 * x86-64, NEON on arm64) a key's two orbits form one pair, a group's 4
 * keys 4 pairs, and one message's layers of 8, 8 and 4 neurons 4, 4 and
 * 2 pairs. On x86-64 it is compiled again on 4 lanes inside functions
 * built for AVX2, the only place the 4-lane type is used (without AVX it
 * is several times slower than 2 lanes): a group's 8 key schedules form
 * 4 quads of (a, b, a', b'), one key fills a quad with a copy of itself,
 * and each message's layers form 2, 2 and 1 quads. Each width compiles
 * one chain function, chain_batch_2 and chain_batch_4. When the module
 * loads, __builtin_cpu_supports picks the widest width the processor
 * steps, and LANES tells which; _chain_pairs runs 2 lanes on any host,
 * for the tests. AVX2 brings no fused multiply-add.
 *
 * The digests match only if the compiler rounds every operation to
 * binary64 on its own: build with -ffp-contract=off, and never with
 * -ffast-math, -mfma or -march=native (ckernel.FLAGS). The check below
 * refuses targets that evaluate doubles in a wider format.
 *
 * The map's domain checks are left out. The chain cannot leave the
 * domain: every parameter comes out of derive_param's clamp, every seed
 * out of clamp_seed's, and every map input out of % 1.0 or a map step.
 */

#ifndef LANES

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

/* Inlined wherever it is called, so that the count of keys or messages
 * (1 or GROUP) is a constant. For one message the loops unroll and the
 * lanes stay in registers: with a count known only at run time they lived
 * on the stack, and every map step of the key schedule waited for a store
 * and a load. A group's lanes outnumber the registers; their loads and
 * stores overlap with the other vectors' steps. */
#define UNROLLED static inline __attribute__((always_inline))

/* Where chain_step keeps sub-key j of a schedule: each layer's weights
 * transposed, weight i of neuron k of a layer of n neurons at [n * i + k]
 * of the layer's weights, so that a vector of them holds weight i of
 * LANES neurons; the biases and the three q's where the stream has them.
 * The held schedules keep this order too. */
UNROLLED int
subkey_slot(int j)
{
    if (j < 32)                           /* 8 input neurons, 4 weights each */
        return 8 * (j % 4) + j / 4;
    if (j >= 41 && j < 105)               /* 8 hidden neurons, 8 weights each */
        return 41 + 8 * ((j - 41) % 8) + (j - 41) / 8;
    if (j >= 114 && j < 146)              /* 4 output neurons, 8 weights each */
        return 114 + 4 * ((j - 114) % 8) + (j - 114) / 8;
    return j;
}

/* First-block key schedules held across chain calls, each under the
 * running key and t it was expanded from (t too: a call may take any t).
 * Each thread has one cache per width, thread_cache in the lane code,
 * about 10 KB each: chain runs with the GIL released, and _chain_pairs
 * never reads a schedule that chain held. CACHED covers the 4 keys of the
 * `short` workload with room to spare. */
#define CACHED 8                          /* schedules held, replaced round robin */

struct key_cache {
    struct held {
        uint32_t key[4];
        long long t;
        double s[SUBKEY_COUNT];
    } held[CACHED];
    int count, next;                      /* entries in use, the one replaced next */
    Py_ssize_t hits, misses;              /* first blocks copied, first blocks walked */
};

/* The schedule `cache` holds for key at t, or NULL */
UNROLLED const double *
find_held(const struct key_cache *cache, const uint32_t key[4], long long t)
{
    for (int e = 0; e < cache->count; e++)
        if (cache->held[e].t == t
                && memcmp(cache->held[e].key, key, sizeof cache->held[e].key) == 0)
            return cache->held[e].s;
    return NULL;
}

/* Hold the walked schedules s[m] of the `keys` keys k at t that `cache`
 * lacks, each key once. copy_held has just missed, so a lone key is known
 * to be missing and is not looked up again. */
UNROLLED void
hold(struct key_cache *cache, uint32_t (*k)[4], int keys, long long t,
     double (*s)[SUBKEY_COUNT])
{
    for (int m = 0; m < keys; m++) {
        if (keys > 1 && find_held(cache, k[m], t) != NULL)
            continue;
        struct held *entry = &cache->held[cache->next];
        memcpy(entry->key, k[m], sizeof entry->key);
        entry->t = t;
        memcpy(entry->s, s[m], sizeof entry->s);
        cache->next = (cache->next + 1) % CACHED;
        if (cache->count < CACHED)
            cache->count++;
    }
}

/* Key schedule steps per turn of the input layer (2 measured faster than
 * 1 or 3 for one message) */
#define KEY_STEPS 2

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

/* The lane code below #else, once per width: its names get the width as
 * a suffix (map_step_2, chain_batch_4), and LANE_FN marks its functions */
#define WIDE(name) WIDE_(name, LANES)
#define WIDE_(name, width) WIDE__(name, width)
#define WIDE__(name, width) name##_##width
#define lanes WIDE(lanes)
#define mask WIDE(mask)
#define pick WIDE(pick)
#define mod1 WIDE(mod1)
#define emit WIDE(emit)
#define weigh WIDE(weigh)
#define dense WIDE(dense)
#define copy_held WIDE(copy_held)
#define map_step WIDE(map_step)
#define key_walk WIDE(key_walk)
#define walk_start WIDE(walk_start)
#define walk_step WIDE(walk_step)
#define walk_to WIDE(walk_to)
#define step_layer WIDE(step_layer)
#define chain_step WIDE(chain_step)
#define chain_batch WIDE(chain_batch)
#define thread_cache WIDE(thread_cache)

#define LANES 2
#define LANE_FN
#include "_kernel.c"
#undef LANES
#undef LANE_FN

#if defined(__x86_64__)
#define LANES 4
#define LANE_FN __attribute__((target("avx2")))
#include "_kernel.c"
#undef LANES
#undef LANE_FN
#endif

/* chain's lanes, set once when the module loads */
typedef __typeof__(chain_batch_2) batch_fn;
static batch_fn *host_batch = chain_batch_2;

/* chain, its messages hashed by `batch` with `cache`, the calling
 * thread's cache on those lanes, looked up once a call by the caller:
 * taken inside chain_batch, gcc repeated the thread-local lookup at
 * every use */
static PyObject *
chain_with(PyObject *args, batch_fn *batch, struct key_cache *cache)
{
    Py_buffer padded, keys;
    Py_ssize_t blocks;
    long long t;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*ny*L:chain", &padded, &blocks, &keys, &t))
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
            unsigned char *out = (unsigned char *)PyBytes_AS_STRING(result);
            Py_BEGIN_ALLOW_THREADS
            batch(padded.buf, blocks, keys.buf, n, t, out, cache);
            Py_END_ALLOW_THREADS
        }
    }
    PyBuffer_Release(&padded);
    PyBuffer_Release(&keys);
    return result;
}

/* The calling thread's cache on chain's lanes */
static struct key_cache *
host_cache(void)
{
#if defined(__x86_64__)
    if (host_batch == chain_batch_4)
        return &thread_cache_4;
#endif
    return &thread_cache_2;
}

static PyObject *
chain(PyObject *module, PyObject *args)
{
    return chain_with(args, host_batch, host_cache());
}

/* chain on 2 lanes whatever the processor, so that the tests reach both
 * widths on an AVX2 host */
static PyObject *
chain_pairs(PyObject *module, PyObject *args)
{
    return chain_with(args, chain_batch_2, &thread_cache_2);
}

static PyObject *
cache_info(PyObject *module, PyObject *unused)
{
    const struct key_cache *cache = host_cache();
    return Py_BuildValue("(nnii)", cache->hits, cache->misses, CACHED, cache->count);
}

static PyObject *
cache_clear(PyObject *module, PyObject *unused)
{
    memset(&thread_cache_2, 0, sizeof thread_cache_2);
#if defined(__x86_64__)
    memset(&thread_cache_4, 0, sizeof thread_cache_4);
#endif
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"chain", chain, METH_VARARGS,
     "chain(padded, blocks, keys, t) -> each message's final key"},
    {"_chain_pairs", chain_pairs, METH_VARARGS,
     "chain on 2 lanes, for the tests"},
    {"cache_info", cache_info, METH_NOARGS,
     "cache_info() -> (hits, misses, maxsize, currsize) of the first-block\n"
     "key schedules chain holds for the calling thread: first blocks copied\n"
     "from the cache, first blocks walked, and schedules it holds at most\n"
     "and now"},
    {"cache_clear", cache_clear, METH_NOARGS,
     "cache_clear() empties the calling thread's caches and zeroes their counts"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The neurohash block chain, bit-equal to hashing._chain.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    int width = 2;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        host_batch = chain_batch_4;
        width = 4;
    }
#endif
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddIntConstant(module, "LANES", width) < 0)
        Py_CLEAR(module);
    return module;
}

#else /* LANES: the lane code, on vectors of LANES doubles */

/* LANES doubles, one map lane each, and the lane mask a comparison of
 * two of them gives: all ones where it holds, all zeros where not */
typedef double lanes __attribute__((vector_size(8 * LANES)));
typedef __typeof__((lanes){0} < (lanes){0}) mask;

/* Messages chain hashes together: their key orbits, two a key, fill 4
 * vectors on either width. A group of 4 on quads held only 2, and its
 * key walk and 4-quad output layer waited on the latency of their steps:
 * 8 took 10-14% less time a message (1024 messages at t = 50, one CPU).
 * On pairs 8 took 2-4% less on blocks that walk their keys and slightly
 * more on groups that copy their schedules, so pairs keep 4. */
#define GROUP (2 * LANES)

/* yes in the lanes where m holds, no in the others */
LANE_FN static lanes
pick(mask m, lanes yes, lanes no)
{
    return (lanes)((m & (mask)yes) | (~m & (mask)no));
}

/* Python's x % 1.0 in each lane, for 0 <= x < 2^51, which every sum here
 * is (a weighted sum is below 9, a sub-key's at most 2.0). Adding and
 * subtracting 2^52 rounds x to its nearest integer r, exactly; floor(x)
 * is r, or r - 1 where r > x, and x minus floor(x) is x's fractional
 * bits, which a double holds exactly: no rounding occurs, and an integer
 * x gives +0.0, as Python does. It needs round-to-nearest and the two
 * operations on 2^52 kept apart, as ckernel.FLAGS keep them; a build
 * that folded them would fail the self-check. */
LANE_FN static lanes
mod1(lanes x)
{
    const lanes zero = {0}, one = zero + 1.0, big = zero + 4503599627370496.0;
    lanes r = (x + big) - big;
    return x - pick(r > x, r - one, r);
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
LANE_FN static lanes
map_step(lanes x, lanes q, lanes half, lanes top)
{
    const lanes zero = {0}, one = zero + 1.0, mid = zero + 0.5;
    mask below = x < q, lower = x < mid, inner = x < top;
    lanes num = pick(lower, pick(below, x, x - q),
                     pick(inner, top - x, one - x));
    lanes div = pick(below ^ inner, half, q);
    return pick(num > div, one, num / div);
}

/* Whether `cache` holds the schedule of each of the `keys` keys k at t;
 * if it does, that schedule is copied into each s[m]. Either way the
 * keys' first blocks are counted, as copied or as to be walked. */
LANE_FN UNROLLED int
copy_held(struct key_cache *cache, uint32_t (*k)[4], int keys, long long t,
          double (*s)[SUBKEY_COUNT])
{
    const double *found[GROUP];

    for (int m = 0; m < keys; m++)
        if ((found[m] = find_held(cache, k[m], t)) == NULL) {
            cache->misses += keys;
            return 0;
        }
    for (int m = 0; m < keys; m++)
        memcpy(s[m], found[m], sizeof s[m]);
    cache->hits += keys;
    return 1;
}

/* The vectors that hold `keys` keys' orbits: 4 for a group */
#define KEY_VECTORS(keys) ((2 * (keys) + LANES - 1) / LANES)

/* keyschedule.subkey_stream for `keys` (1 or GROUP) running keys, walked
 * in stages, so that the walk can run under the input layer:
 * key m's orbit a and orbit b in two adjacent lanes, LANES / 2 keys to a
 * vector, walked side by side as orbit_sums walks them, the vectors
 * stepped together as step_layer steps a layer's. One key on 4 lanes
 * fills its quad with a copy of itself, and only lane 0 of its sub-keys
 * is stored.
 * `next` is the index of the next sub-key. */
struct key_walk {
    lanes x[KEY_VECTORS(GROUP)], q[KEY_VECTORS(GROUP)];
    lanes half[KEY_VECTORS(GROUP)], top[KEY_VECTORS(GROUP)];
    int next;
};

/* Decode the keys k and walk their orbits t - 1 steps: the next step
 * gives sub-key 0 */
LANE_FN UNROLLED void
walk_start(struct key_walk *w, uint32_t (*k)[4], int keys, long long t)
{
    double seed[2 * GROUP], param[2 * GROUP];
    int vectors = KEY_VECTORS(keys);

    for (int m = 0; m < vectors * LANES / 2; m++) {
        const uint32_t *key = k[m < keys ? m : 0];
        seed[2 * m] = clamp_seed(quantize_word(key[0]));
        param[2 * m] = derive_param(quantize_word(key[1]));
        seed[2 * m + 1] = clamp_seed(quantize_word(key[2]));
        param[2 * m + 1] = derive_param(quantize_word(key[3]));
    }
    for (int v = 0; v < vectors; v++) {
        memcpy(&w->x[v], seed + LANES * v, sizeof w->x[v]);
        memcpy(&w->q[v], param + LANES * v, sizeof w->q[v]);
        w->half[v] = 0.5 - w->q[v];
        w->top[v] = 1.0 - w->q[v];
    }
    for (long long i = 1; i < t; i++)
        for (int v = 0; v < vectors; v++)
            w->x[v] = map_step(w->x[v], w->q[v], w->half[v], w->top[v]);
    w->next = 0;
}

/* The sub-keys of the keys of two key vectors, u's and v's, whose lanes
 * hold orbit a and orbit b of a key in turn: one vector of their orbits
 * a and one of their orbits b, added and taken mod 1. Lane 2i holds u's
 * key i, lane 2i + 1 v's key i. Written as initializers, the two vectors
 * compile to one unpack each; built by lane stores in a loop, they took
 * six shuffles each under gcc 12 */
LANE_FN UNROLLED lanes
emit(lanes u, lanes v)
{
#if LANES == 2
    lanes a = {u[0], v[0]}, b = {u[1], v[1]};
#else
    lanes a = {u[0], v[0], u[2], v[2]}, b = {u[1], v[1], u[3], v[3]};
#endif
    return mod1(a + b);
}

/* Step every orbit once, then emit sub-key w->next of each key into its
 * slot in s: key vectors 2i and 2i + 1 give LANES keys' sub-keys at
 * once, and one key's vector is paired with itself */
LANE_FN UNROLLED void
walk_step(struct key_walk *w, int keys, double (*s)[SUBKEY_COUNT])
{
    enum { PER = LANES / 2 };  /* keys per vector */
    int vectors = KEY_VECTORS(keys), slot = subkey_slot(w->next);

    for (int v = 0; v < vectors; v++)
        w->x[v] = map_step(w->x[v], w->q[v], w->half[v], w->top[v]);
    for (int v = 0; v < vectors; v += 2) {
        /* lane 2i: key i of vector v, lane 2i + 1: key i of vector v + 1;
         * written out, as a loop over the lanes was not unrolled at -O2 */
        lanes sub = emit(w->x[v], w->x[v + 1 < vectors ? v + 1 : v]);
        int m = PER * v;
        s[m][slot] = sub[0];
        if (keys > 1) {
            s[m + PER][slot] = sub[1];
#if LANES == 4
            s[m + 1][slot] = sub[2];
            s[m + 3][slot] = sub[3];
#endif
        }
    }
    w->next++;
}

/* Walk on until sub-key end - 1 is emitted */
LANE_FN UNROLLED void
walk_to(struct key_walk *w, int keys, int end, double (*s)[SUBKEY_COUNT])
{
    while (w->next < end)
        walk_step(w, keys, s);
}

/* The map applied t times to the `neurons` neurons of a layer of each of
 * `msgs` messages, in place: message m's are x[neurons * m ...], under
 * its own q[m]. Every turn of the t loop steps every vector of every
 * message, so their dependency chains overlap. When `w` is not NULL, each
 * turn also walks the messages' key schedules KEY_STEPS sub-keys on into
 * s, until they are done: more chains that overlap the layer's. */
LANE_FN UNROLLED void
step_layer(double *x, int msgs, int neurons, const double *q, long long t,
           struct key_walk *w, double (*s)[SUBKEY_COUNT])
{
    lanes v[GROUP][8 / LANES], qs[GROUP], half[GROUP], top[GROUP]; /* 8 neurons at most */
    int vectors = neurons / LANES;

    for (int m = 0; m < msgs; m++) {
        qs[m] = (lanes){0} + q[m];
        half[m] = 0.5 - qs[m];
        top[m] = 1.0 - qs[m];
        for (int p = 0; p < vectors; p++)
            memcpy(&v[m][p], x + neurons * m + LANES * p, sizeof v[m][p]);
    }
    for (long long i = 0; i < t; i++) {
        for (int m = 0; m < msgs; m++)
            for (int p = 0; p < vectors; p++)
                v[m][p] = map_step(v[m][p], qs[m], half[m], top[m]);
        if (w != NULL)
            for (int j = 0; j < KEY_STEPS && w->next < SUBKEY_COUNT; j++)
                walk_step(w, msgs, s);
    }
    for (int m = 0; m < msgs; m++)
        for (int p = 0; p < vectors; p++)
            memcpy(x + neurons * m + LANES * p, &v[m][p], sizeof v[m][p]);
}

/* mod1 of LANES neurons' weighted sums plus biases, into out: each lane
 * takes its first product, adds the others in ascending index order and
 * then its bias, as network's pre-activations do. Input i of the neurons
 * is x[i], their weights i are at w + stride * i and their biases at
 * bias. */
LANE_FN UNROLLED void
weigh(double *out, const lanes *x, int fan_in, const double *w, int stride,
      const double *bias)
{
    lanes wi, b, sum;

    memcpy(&wi, w, sizeof wi);
    sum = wi * x[0];
    for (int i = 1; i < fan_in; i++) {
        memcpy(&wi, w + stride * i, sizeof wi);
        sum = sum + wi * x[i];
    }
    memcpy(&b, bias, sizeof b);
    sum = mod1(sum + b);
    memcpy(out, &sum, sizeof sum);
}

/* The pre-activations of a fully connected layer of `neurons` neurons
 * into out, from the 8 signals at in, each given to every lane: the
 * weights at w as subkey_slot keeps them, the biases at bias */
LANE_FN UNROLLED void
dense(double *out, const double *in, int neurons, const double *w, const double *bias)
{
    lanes x[8];

    /* written as initializers, each a broadcast from memory: as
     * (lanes){0} + in[i] each cost an add as well */
    for (int i = 0; i < 8; i++) {
#if LANES == 2
        x[i] = (lanes){in[i], in[i]};
#else
        x[i] = (lanes){in[i], in[i], in[i], in[i]};
#endif
    }
    for (int v = 0; v < neurons / LANES; v++)
        weigh(out + LANES * v, x, 8, w + LANES * v, neurons, bias + LANES * v);
}

/* hashing.chain_step for each of `msgs` (1 or GROUP, 2 * LANES)
 * messages: block n of message m, at message[m], hashed as
 * network.hash_block under the schedule of its running key k[m], as
 * sliced by assign_subkeys, and the block digest XORed into k[m]. When
 * `cache` is not NULL (block 0), the schedules are copied from it if it
 * holds them all, and otherwise the walked ones are held there, under
 * the keys they were expanded from, before the XOR changes those keys.
 * Each layer steps all the messages' neurons together, each message
 * under its own layer q. The schedules are walked to s[40], all that the
 * input layer reads, and the rest under that layer's t loop, KEY_STEPS a
 * turn, and after it if any is left: a key's walk and a layer's vectors
 * are each bound by the latency of their steps, so the two overlap, and
 * a group's 4 key vectors overlap with one another. */
LANE_FN UNROLLED void
chain_step(const unsigned char **message, Py_ssize_t n, uint32_t (*k)[4], int msgs,
           long long t, struct key_cache *cache)
{
    double s[GROUP][SUBKEY_COUNT], c[GROUP * 8], d[GROUP * 8], h[GROUP * 4], q[GROUP];
    struct key_walk w;
    int walk = cache == NULL || !copy_held(cache, k, msgs, t, s);

    if (walk) {
        walk_start(&w, k, msgs, t);
        walk_to(&w, msgs, 41, s);
    }
    for (int m = 0; m < msgs; m++) {
        double p[32];
        for (int i = 0; i < 32; i++)
            p[i] = quantize_word(load_word(message[m] + BLOCK_BYTES * n + 4 * i));
        /* input neuron j reads p[4j .. 4j+3]; x[i] is input i of LANES
         * neurons, gathered by initializers: loaded as vectors from words
         * stored one at a time in that order, they waited for the stores
         * (on an AVX2 Xeon a copied block took 26 ns a message more) */
        for (int v = 0; v < 8 / LANES; v++) {
            const double *r = p + 4 * LANES * v;
#if LANES == 2
            lanes x[4] = {{r[0], r[4]}, {r[1], r[5]}, {r[2], r[6]}, {r[3], r[7]}};
#else
            lanes x[4] = {{r[0], r[4], r[8], r[12]}, {r[1], r[5], r[9], r[13]},
                          {r[2], r[6], r[10], r[14]}, {r[3], r[7], r[11], r[15]}};
#endif
            weigh(c + 8 * m + LANES * v, x, 4, s[m] + LANES * v, 8, s[m] + 32 + LANES * v);
        }
        q[m] = derive_param(s[m][40]);
    }
    /* two calls, so that the input loop is compiled with the walk beside
     * it and without: one call with walk ? &w : NULL took 3% longer a
     * message on a cache hit and 4% on a miss */
    if (walk) {
        step_layer(c, msgs, 8, q, t, &w, s);
        walk_to(&w, msgs, SUBKEY_COUNT, s);
        if (cache != NULL)
            hold(cache, k, msgs, t, s);
    } else
        step_layer(c, msgs, 8, q, t, NULL, s);
    for (int m = 0; m < msgs; m++) {
        dense(d + 8 * m, c + 8 * m, 8, s[m] + 41, s[m] + 105);
        q[m] = derive_param(s[m][113]);
    }
    step_layer(d, msgs, 8, q, 1, NULL, s);
    for (int m = 0; m < msgs; m++) {
        dense(h + 4 * m, d + 8 * m, 4, s[m] + 114, s[m] + 146);
        q[m] = derive_param(s[m][150]);
    }
    step_layer(h, msgs, 4, q, t, NULL, s);
    for (int m = 0; m < msgs; m++)
        for (int j = 0; j < 4; j++) {
            double x = h[4 * m + j] * 4294967296.0;
            k[m][j] ^= x < 4294967296.0 ? (uint32_t)x : 0xFFFFFFFFu;
        }
}

/* This thread's first-block schedules on this width */
static _Thread_local struct key_cache thread_cache;

/* chain's work: the n messages of `blocks` padded blocks each at raw,
 * under the n keys at key, into their n final keys at out. Each full
 * group of GROUP messages, 8 on quads and 4 on pairs, goes through
 * chain_step together, block by block, and each message after the last
 * full group alone, up to GROUP - 1 of them; the first block of each
 * looks its schedules up in `cache`, the calling thread's thread_cache.
 * Touches no Python object. */
LANE_FN static void
chain_batch(const unsigned char *raw, Py_ssize_t blocks, const unsigned char *key,
            Py_ssize_t n, long long t, unsigned char *out, struct key_cache *cache)
{
    int msgs;

    for (Py_ssize_t i = 0; i < n; i += msgs) {
        const unsigned char *message[GROUP];
        uint32_t running[GROUP][4];
        msgs = n - i < GROUP ? 1 : GROUP;
        for (int m = 0; m < msgs; m++) {
            message[m] = raw + BLOCK_BYTES * blocks * (i + m);
            load_key(key + KEY_BYTES * (i + m), running[m]);
        }
        for (Py_ssize_t b = 0; b < blocks; b++)
            if (msgs == GROUP)
                chain_step(message, b, running, GROUP, t, b == 0 ? cache : NULL);
            else
                chain_step(message, b, running, 1, t, b == 0 ? cache : NULL);
        for (int m = 0; m < msgs; m++)
            store_key(out + KEY_BYTES * (i + m), running[m]);
    }
}

#undef KEY_VECTORS
#undef GROUP

#endif /* LANES */
