"""Three-layer keyed network mapping one 1024-bit block to 128 bits.

The input layer condenses 32 quantized words into 8 signals (4 inputs
per neuron, t map iterations), the hidden layer mixes 8 into 8 with a
single map application, and the output layer compresses 8 into 4 with t
iterations again. Weighted sums accumulate in ascending index order,
the bias is added last, and one mod1 (written out as s % 1.0)
brings the pre-activation back into the map's domain. The sums start
from the first product rather than from 0.0; every term is
non-negative, and 0.0 + a == a for those, so the result is the same.
Digest words are the top 32 bits of each output signal.

Within a layer the neurons are independent. One map_layer call runs
each neuron's map to completion, and it is the layer's only check of q
and t. opcount walks each neuron's map one map_step at a time and
checks its digest against hash_block on every call. These functions
are the reference for the compiled chain (ckernel), which hashing runs
in their place once it has passed its self-check.
"""

from .chaosmap import map_layer
from .keyschedule import SubKeys, quantize_word

__all__ = [
    "BLOCK_WORDS",
    "input_layer",
    "hidden_layer",
    "output_layer",
    "extract_digest",
    "hash_block",
]

BLOCK_WORDS = 32


def check_block(words) -> tuple:
    words = tuple(words)
    if len(words) != BLOCK_WORDS:
        raise ValueError("block must be exactly %d words" % BLOCK_WORDS)
    for w in words:
        # an int, not a bool, by __class__: type() in hash_block tests t
        if w.__class__ is not int or not 0 <= w <= 0xFFFFFFFF:
            raise ValueError("block words must be 32-bit integers")
    return words


def _activate(pre, q: float, t: int) -> tuple:
    signals = map_layer(pre, q, t)
    # map_layer, which must accept t = 0, has refused a non-int or
    # negative t; check_iterations would test t's type again per layer
    if t < 1:
        raise ValueError("iteration count must be >= 1")
    return signals


def _input_preactivation(p, w0, b0) -> list:
    """mod1 of each input neuron's weighted sum plus bias."""
    pre = []
    for j, bias in enumerate(b0):
        i = 4 * j
        s = (w0[i] * p[i] + w0[i + 1] * p[i + 1] + w0[i + 2] * p[i + 2]
             + w0[i + 3] * p[i + 3] + bias)
        pre.append(s % 1.0)
    return pre


def _dense_preactivation(x, w, b) -> list:
    """Fully connected 8-input layer: one neuron per (row, bias) pair."""
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    pre = []
    for (w0, w1, w2, w3, w4, w5, w6, w7), bias in zip(w, b):
        s = (w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3
             + w4 * x4 + w5 * x5 + w6 * x6 + w7 * x7 + bias)
        pre.append(s % 1.0)
    return pre


def input_layer(p, w0, b0, q0: float, t: int) -> tuple:
    """Condense 32 quantized inputs into 8 signals (t iterations each)."""
    return _activate(_input_preactivation(p, w0, b0), q0, t)


def hidden_layer(c, w1, b1, q1: float) -> tuple:
    """Mix 8 signals into 8; the map is applied exactly once."""
    return _activate(_dense_preactivation(c, w1, b1), q1, 1)


def output_layer(d, w2, b2, q2: float, t: int) -> tuple:
    """Compress 8 signals into 4 (t iterations each)."""
    return _activate(_dense_preactivation(d, w2, b2), q2, t)


def extract_digest(h) -> tuple:
    """Top 32 bits of each output signal; 1.0 clamps to 0xFFFFFFFF."""
    words = []
    for x in h:
        w = int(x * 4294967296.0)
        if w > 0xFFFFFFFF:
            w = 0xFFFFFFFF
        words.append(w)
    return tuple(words)


def hash_block(block, keys: SubKeys, t: int) -> tuple:
    """Hash one 32-word block under an expanded key; 4-word digest."""
    block = check_block(block)
    p = list(map(quantize_word, block))
    c = input_layer(p, keys.w0, keys.b0, keys.q0, t)
    d = hidden_layer(c, keys.w1, keys.b1, keys.q1)
    h = output_layer(d, keys.w2, keys.b2, keys.q2, t)
    return extract_digest(h)
