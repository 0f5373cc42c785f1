"""Expansion of a 128-bit key into the 151 network sub-keys.

The one reader of a key: key_from_hex parses 32 hex digits, check_key
holds the 16-byte length, and orbit_starts is the one decode of the
four big-endian 32-bit words K0..K3: K0/K2 seed two map orbits, K1/K3
set their parameters. The orbits are advanced t steps before emission;
subkey_stream emits SUBKEY_COUNT = 151 sub-keys, sub-key j being
mod1(X0(j) + X1(j)) where X(j) sits j steps further along its orbit
(chaosmap.orbit_sums walks both). They fill, in order: 32 input
weights, 8 input biases, 1 input parameter, 64 hidden weights, 8
hidden biases, 1 hidden parameter, 32 output weights, 4 output biases,
1 output parameter.
"""

import functools
import struct
from dataclasses import dataclass

from .chaosmap import Q_MAX, Q_MIN, check_count, check_index, orbit_sums

__all__ = [
    "KEY_BYTES",
    "SUBKEY_COUNT",
    "SubKeys",
    "key_from_hex",
    "check_key",
    "check_iterations",
    "flip_key_bit",
    "quantize_word",
    "derive_param",
    "clamp_seed",
    "orbit_starts",
    "subkey_stream",
    "assign_subkeys",
    "expand_key",
]

KEY_BYTES = 16
SUBKEY_COUNT = 151

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_SEED_MIN = 2.0 ** -32
_SEED_MAX = 1.0 - 2.0 ** -32


@dataclass(frozen=True)
class SubKeys:
    """Key material for the three layers: weights, biases, parameters."""

    w0: tuple          # 32 input-layer weights
    b0: tuple          # 8 input-layer biases
    q0: float
    w1: tuple          # 8 rows of 8 hidden-layer weights
    b1: tuple          # 8 hidden-layer biases
    q1: float
    w2: tuple          # 4 rows of 8 output-layer weights
    b2: tuple          # 4 output-layer biases
    q2: float


def key_from_hex(text: str) -> bytes:
    """Parse exactly 32 hex digits, with no whitespace, as a key."""
    # bytes.fromhex alone would skip whitespace and return a short key
    if len(text) != 2 * KEY_BYTES or not _HEX_DIGITS.issuperset(text):
        raise ValueError("expected exactly 32 hex digits with no whitespace")
    return check_key(bytes.fromhex(text))


def check_key(key: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_BYTES:
        raise ValueError("key must be exactly 16 bytes")
    return bytes(key)


def check_iterations(t) -> int:
    """A hashing iteration count: an int (not a bool), 1 <= t < 2**63."""
    # the compiled chain counts t in a long long; both chains take this range
    if check_count(t, 1, "iteration count") >= 2 ** 63:
        raise ValueError("iteration count must be < 2**63")
    return t


def flip_key_bit(key: bytes, index: int) -> bytes:
    """Flip bit `index` of the key, MSB of byte 0 being bit 0."""
    check_index(index, 8 * KEY_BYTES, "key bit index")
    out = bytearray(check_key(key))
    out[index // 8] ^= 0x80 >> (index % 8)
    return bytes(out)


def quantize_word(word: int) -> float:
    """32-bit word to a fraction in [0, 1 - 2^-32]; exact division."""
    return word / 4294967296.0


def derive_param(u: float) -> float:
    """Map a unit value onto the valid parameter range (half then clamp)."""
    q = u / 2.0
    if q < Q_MIN:
        return Q_MIN
    if q > Q_MAX:
        return Q_MAX
    return q


def clamp_seed(x: float) -> float:
    # x = 0 is a fixed point of the map; nudge quantized zeros off it
    if x < _SEED_MIN:
        return _SEED_MIN
    if x > _SEED_MAX:
        return _SEED_MAX
    return x


def orbit_starts(words) -> tuple:
    """Key words K0..K3 to the orbit starts (xa, qa, xb, qb).

    Evaluated in the order K0, K1, K2, K3; opcount pairs each clamp with
    the value it replaced in that order.
    """
    k0, k1, k2, k3 = words
    return (clamp_seed(quantize_word(k0)), derive_param(quantize_word(k1)),
            clamp_seed(quantize_word(k2)), derive_param(quantize_word(k3)))


def subkey_stream(key: bytes, t: int) -> list:
    """Emit the SUBKEY_COUNT sub-keys from the two key-seeded orbits.

    orbit_sums walks both orbits once, side by side, which is bit-equal
    to restarting map_iter at depth t + j for every j (the composition
    law) at a fraction of the work.
    """
    words = struct.unpack(">4I", check_key(key))
    check_iterations(t)
    return orbit_sums(*orbit_starts(words), t, SUBKEY_COUNT)


def assign_subkeys(stream) -> SubKeys:
    """Slice a 151-element sub-key stream into the layer bundles."""
    stream = tuple(stream)
    if len(stream) != SUBKEY_COUNT:
        raise ValueError(
            "expected %d sub-keys, got %d" % (SUBKEY_COUNT, len(stream))
        )
    return SubKeys(
        w0=stream[0:32],
        b0=stream[32:40],
        q0=derive_param(stream[40]),
        w1=(stream[41:49], stream[49:57], stream[57:65], stream[65:73],
            stream[73:81], stream[81:89], stream[89:97], stream[97:105]),
        b1=stream[105:113],
        q1=derive_param(stream[113]),
        w2=(stream[114:122], stream[122:130], stream[130:138],
            stream[138:146]),
        b2=stream[146:150],
        q2=derive_param(stream[150]),
    )


# typed: True == 1, and a bool t must miss the cache to reach the t check
@functools.lru_cache(maxsize=256, typed=True)
def _expand_key_cached(key: bytes, t: int) -> SubKeys:
    return assign_subkeys(subkey_stream(key, t))


def expand_key(key: bytes, t: int) -> SubKeys:
    """Full schedule: stream 151 sub-keys and assign them to the layers.

    Pure function of (key, t); results are cached since the sweeps and
    collision experiments re-expand the same user key many times.
    """
    return _expand_key_cached(check_key(key), t)
