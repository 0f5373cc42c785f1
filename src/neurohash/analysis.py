"""Sensitivity sweeps, collision experiments, and CSV reporting.

The sensitivity metric is the hamming distance ratio between two
digests: popcount of their XOR divided by 128. Sweeps flip one input
bit at a time (message bits of the first block, or key bits), rehash,
and record the ratio per flip. The birthday experiment hashes many
distinct random 1024-bit messages, two blocks each once padded,
truncates the digests to a small width, and compares observed
colliding pairs with the birthday-bound expectation. All randomized
experiments take an explicit seed and record it in their report.

The sweeps and the birthday experiment hash thousands of independent
messages, each flipped message or key rehashed whole, in one loop on
the calling thread, in batches of about 64 KiB: one chain call per
batch, whose messages the compiled chain hashes a group at a time
(_kernel.c's header comment says how). Each batch's padded bytes are
written straight into one buffer: the padded message repeated, each
flip XORed into its own copy in place, or each birthday value followed
by the marker block. The digests stay the chain's bytes, 16 a message:
a sweep takes each ratio as the popcount of the XOR of two 128-bit
ints, the float hdr gives, and the birthday experiment reads each
digest's top word from them.
"""

import csv
import random
import struct
from dataclasses import dataclass, fields

from .chaosmap import check_count
from .hashing import (
    BLOCK_BITS,
    Message,
    _BLOCK_BYTES,
    _hash_many,
    _pad_bytes,
    check_message,
)
from .keyschedule import KEY_BYTES, check_iterations, check_key, flip_key_bit

__all__ = [
    "HdrReport",
    "BirthdayReport",
    "hdr",
    "message_sensitivity_sweep",
    "key_sensitivity_sweep",
    "birthday_experiment",
    "emit_csv",
]


@dataclass(frozen=True)
class HdrReport:
    """Per-flip hamming distance ratios plus summary statistics."""

    per_flip: tuple  # ((bit_index, hdr), ...)
    mean: float
    min: float
    max: float


@dataclass(frozen=True)
class BirthdayReport:
    truncation_width: int
    trials: int
    collisions_observed: int
    collisions_expected: float
    seed: int


def hdr(a, b) -> float:
    """Hamming distance ratio between two 4-word digests."""
    distance = 0
    for x, y in zip(a, b):
        distance += (x ^ y).bit_count()
    return distance / 128.0


# a batch ends once its padded messages reach this many bytes
_BATCH_BYTES = 1 << 16
# the second padded block of every 1024-bit message, as pad writes it
_MARKER_BLOCK = _pad_bytes(Message(bytes(_BLOCK_BYTES)))[_BLOCK_BYTES:]


def _hash_all(count: int, size: int, t: int, batch) -> bytes:
    """The digests of `count` jobs, in order, as chain returns them: each
    job's final running key, 16 bytes.

    Every job's padded bytes are `size` bytes long. The jobs are hashed
    in batches of the fewest jobs whose padded bytes reach _BATCH_BYTES,
    and batch(start, stop) builds the padded bytes and the keys of jobs
    start to stop - 1, called once per batch, in order, so the jobs are
    never held whole. Each batch is one `_hash_many` call, looked up when
    the batch runs, so a wrapper installed on this module applies here
    too.
    """
    per = -(-_BATCH_BYTES // size)
    finals = []
    for start in range(0, count, per):
        padded, keys = batch(start, min(start + per, count))
        finals.append(_hash_many(padded, size // _BLOCK_BYTES, keys, t))
    return b"".join(finals)


def _report(indices, finals: bytes) -> HdrReport:
    """Hdr of each flip's digest against the unflipped baseline, the
    first of `finals`, taken on 128-bit ints: the floats hdr gives."""
    baseline = int.from_bytes(finals[:16], "big")
    ratios = [(baseline ^ int.from_bytes(finals[i:i + 16], "big")).bit_count() / 128.0
              for i in range(16, len(finals), 16)]
    return HdrReport(
        per_flip=tuple(zip(indices, ratios)),
        mean=sum(ratios) / len(ratios),
        min=min(ratios),
        max=max(ratios),
    )


def message_sensitivity_sweep(message: Message, key: bytes, t: int) -> HdrReport:
    """Hdr of each single-bit flip among the first block's message bits.

    Covers min(1024, message length) bit positions, each exactly once.
    """
    check_message(message)
    if message.nbits == 0:
        raise ValueError("message must be non-empty")
    key = check_key(key)
    check_iterations(t)
    indices = range(min(BLOCK_BITS, message.nbits))
    padded = _pad_bytes(message)
    size = len(padded)

    def batch(start, stop):
        # job 0 is the padded message, job j its copy with bit j - 1 flipped
        buffer = bytearray(padded) * (stop - start)
        for job in range(max(start, 1), stop):
            buffer[(job - start) * size + (job - 1) // 8] ^= 0x80 >> (job - 1) % 8
        return bytes(buffer), key * (stop - start)
    return _report(indices, _hash_all(1 + len(indices), size, t, batch))


def key_sensitivity_sweep(message: Message, key: bytes, t: int) -> HdrReport:
    """Hdr of each of the 128 single-bit key flips."""
    check_message(message)
    key = check_key(key)
    check_iterations(t)
    indices = range(8 * KEY_BYTES)
    padded = _pad_bytes(message)
    keys = key + b"".join(flip_key_bit(key, i) for i in indices)

    def batch(start, stop):
        return padded * (stop - start), keys[16 * start:16 * stop]
    return _report(indices, _hash_all(1 + len(indices), len(padded), t, batch))


def birthday_experiment(
    width: int, trials: int, key: bytes, t: int, seed: int
) -> BirthdayReport:
    """Count truncated-digest collisions among random 1024-bit messages.

    Hashes `trials` distinct random 1024-bit messages, two blocks each
    once padded, keeps the top `width` digest bits, and counts colliding
    unordered pairs against the birthday expectation
    trials*(trials-1)/2 / 2^width.
    """
    if check_count(width, 8, "truncation width") > 32:
        raise ValueError("truncation width must be in [8, 32]")
    check_count(trials, 2, "trials")
    key = check_key(key)
    check_iterations(t)
    rng = random.Random(seed)
    seen = set()

    def batch(start, stop):
        buffer = bytearray()
        while len(seen) < stop:
            value = rng.getrandbits(BLOCK_BITS)
            if value not in seen:
                seen.add(value)
                buffer += value.to_bytes(_BLOCK_BYTES, "big")
                buffer += _MARKER_BLOCK
        return bytes(buffer), key * (stop - start)

    finals = _hash_all(trials, 2 * _BLOCK_BYTES, t, batch)
    buckets = {}
    for (word,) in struct.iter_unpack(">I12x", finals):   # each digest's word 0
        top = word >> (32 - width)
        buckets[top] = buckets.get(top, 0) + 1
    observed = sum(c * (c - 1) // 2 for c in buckets.values())
    return BirthdayReport(
        truncation_width=width,
        trials=trials,
        collisions_observed=observed,
        collisions_expected=trials * (trials - 1) / 2 / 2.0 ** width,
        seed=seed,
    )


def emit_csv(report, destination) -> None:
    """Write a report as CSV; destination is a path or a text file."""
    if hasattr(destination, "write"):
        _write_csv(report, destination)
    else:
        with open(destination, "w", newline="") as handle:
            _write_csv(report, handle)


def _write_csv(report, handle) -> None:
    writer = csv.writer(handle)
    if isinstance(report, HdrReport):
        writer.writerow(["bit_index", "hdr"])
        # the csv module writes a float as its repr, an int as its str
        writer.writerows(report.per_flip)
    else:
        # scalar fields only; structured extras stay on the dataclass
        names = [
            f.name for f in fields(report)
            if isinstance(getattr(report, f.name), (int, float, str))
        ]
        writer.writerow(names)
        writer.writerow([getattr(report, n) for n in names])
