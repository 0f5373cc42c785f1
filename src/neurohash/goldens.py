"""Golden hash vectors: frozen (key, message, t, digest) records.

One record per line, ASCII: `key_hex,message_hex,t,digest_hex`. The
default vector set is generated deterministically (fixed edge cases
plus seeded-random records), so regenerating the file must reproduce
it byte for byte on any platform honoring the binary64 contract.
"""

import random
import struct

from .hashing import Message, format_digest, hash_message, parse_digest
from .keyschedule import _HEX_DIGITS, check_iterations, key_from_hex

__all__ = [
    "SAMPLE_SENTENCE",
    "SAMPLE_KEY",
    "default_vectors",
    "format_vectors",
    "write_vectors",
    "read_vectors",
    "verify_vectors",
]

# A 130-character sample sentence (1040 bits), long enough to span two
# padded blocks, used across the sensitivity experiments and tests.
SAMPLE_SENTENCE = (
    "Cellular neural networks (CNN) chaotic secure communication is a new "
    "secure communication scheme based on chaotic synchronization."
)
SAMPLE_KEY = b"0123456789abcdef"

_RANDOM_SEED = 0x60D5EED
_SMALL_T = {6: 1, 11: 7}  # record index -> reduced iteration count


def default_vectors():
    """The 20 canonical records as (key, message_bytes, t, digest)."""
    cases = [
        (bytes(range(16)), b"", 50),
        (bytes(range(16)), b"\x00", 50),
        (SAMPLE_KEY, b"abc", 50),
        (SAMPLE_KEY, SAMPLE_SENTENCE.encode("ascii"), 50),
        (bytes(range(16)), struct.pack(">32I", *range(32)), 50),
    ]
    rng = random.Random(_RANDOM_SEED)
    for i in range(15):
        key = rng.randbytes(16)
        message = rng.randbytes(rng.randrange(0, 301))
        cases.append((key, message, _SMALL_T.get(i, 50)))
    return [
        (key, data, t, hash_message(Message(data), key, t))
        for key, data, t in cases
    ]


def format_vectors(vectors) -> str:
    lines = [
        "%s,%s,%d,%s" % (key.hex(), data.hex(), t, format_digest(digest))
        for key, data, t, digest in vectors
    ]
    return "\n".join(lines) + "\n"


def write_vectors(path) -> int:
    vectors = default_vectors()
    with open(path, "w", newline="") as handle:
        handle.write(format_vectors(vectors))
    return len(vectors)


def read_vectors(path):
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            key_hex, message_hex, t, digest_hex = line.split(",")
            # stricter than bytes.fromhex (skips spaces) and int() ("+5_0")
            if len(message_hex) % 2 or not _HEX_DIGITS.issuperset(message_hex):
                raise ValueError("message field must be hex digits, two per byte")
            if not (t.isascii() and t.isdigit()):
                raise ValueError("t field must be ASCII decimal digits")
            records.append((
                key_from_hex(key_hex),
                bytes.fromhex(message_hex),
                check_iterations(int(t)),
                parse_digest(digest_hex),
            ))
    return records


def verify_vectors(path):
    """Recompute every record; returns (total, list of failing indices)."""
    records = read_vectors(path)
    failures = [
        i for i, (key, data, t, digest) in enumerate(records)
        if hash_message(Message(data), key, t) != digest
    ]
    return len(records), failures
