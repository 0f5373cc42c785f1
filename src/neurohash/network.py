"""Three-layer keyed network mapping one 1024-bit block to 128 bits.

The input layer condenses 32 quantized words into 8 signals (4 inputs
per neuron, t map iterations), the hidden layer mixes 8 into 8 with a
single map application, and the output layer compresses 8 into 4 with t
iterations again. Weighted sums accumulate in ascending index order,
the bias is added last, and one mod1 brings the pre-activation back
into the map's domain. Digest words are the top 32 bits of each output
signal.

Within a layer the neurons are independent. `parallel=True` evaluates
each layer in lockstep: every neuron takes map step k before any neuron
takes step k+1, the schedule the critical-path operation counts model.
It composes single map steps where the sequential path runs the inlined
iteration, and both give bit-identical digests.
"""

from .chaosmap import map_iter, map_step, mod1
from .keyschedule import SubKeys, quantize_word

__all__ = [
    "BLOCK_WORDS",
    "DIGEST_WORDS",
    "input_layer",
    "hidden_layer",
    "output_layer",
    "extract_digest",
    "hash_block",
]

BLOCK_WORDS = 32
DIGEST_WORDS = 4


def check_block(words) -> tuple:
    words = tuple(words)
    if len(words) != BLOCK_WORDS:
        raise ValueError("block must be exactly %d words" % BLOCK_WORDS)
    for w in words:
        if not isinstance(w, int) or not 0 <= w <= 0xFFFFFFFF:
            raise ValueError("block words must be 32-bit integers")
    return words


def _preactivation(inputs, weights, bias: float) -> float:
    s = 0.0
    for i in range(len(weights)):
        s += weights[i] * inputs[i]
    s += bias
    return mod1(s)


def _activate(pre, q: float, t: int, parallel: bool) -> tuple:
    if t < 1:
        raise ValueError("iteration count must be >= 1")
    if not parallel:
        return tuple([map_iter(x, q, t) for x in pre])
    for _ in range(t):
        pre = [map_step(x, q) for x in pre]
    return tuple(pre)


def input_layer(p, w0, b0, q0: float, t: int, parallel: bool = False) -> tuple:
    """Condense 32 quantized inputs into 8 signals (t iterations each)."""
    pre = [_preactivation(p[4 * j:4 * j + 4], w0[4 * j:4 * j + 4], b0[j])
           for j in range(8)]
    return _activate(pre, q0, t, parallel)


def hidden_layer(c, w1, b1, q1: float, parallel: bool = False) -> tuple:
    """Mix 8 signals into 8; the map is applied exactly once."""
    pre = [_preactivation(c, w1[j], b1[j]) for j in range(8)]
    return _activate(pre, q1, 1, parallel)


def output_layer(d, w2, b2, q2: float, t: int, parallel: bool = False) -> tuple:
    """Compress 8 signals into 4 (t iterations each)."""
    pre = [_preactivation(d, w2[j], b2[j]) for j in range(4)]
    return _activate(pre, q2, t, parallel)


def extract_digest(h) -> tuple:
    """Top 32 bits of each output signal; 1.0 clamps to 0xFFFFFFFF."""
    words = []
    for x in h:
        w = int(x * 4294967296.0)
        if w > 0xFFFFFFFF:
            w = 0xFFFFFFFF
        words.append(w)
    return tuple(words)


def hash_block(block, keys: SubKeys, t: int, parallel: bool = False) -> tuple:
    """Hash one 32-word block under an expanded key; 4-word digest."""
    block = check_block(block)
    p = tuple(quantize_word(w) for w in block)
    c = input_layer(p, keys.w0, keys.b0, keys.q0, t, parallel)
    d = hidden_layer(c, keys.w1, keys.b1, keys.q1, parallel)
    h = output_layer(d, keys.w2, keys.b2, keys.q2, t, parallel)
    return extract_digest(h)
