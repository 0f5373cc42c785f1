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
the calling thread. They build each message's padded bytes directly (a
flip is one XOR into a copy of the padded message) and hand them to
the chain in batches of about 64 KiB: one chain call per batch, whose
messages the compiled chain hashes together (_kernel.c's header comment
says how).
"""

import csv
import random
import struct
from dataclasses import dataclass, fields
from itertools import islice

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


def _hash_all(jobs, size: int, t: int) -> list:
    """Digest of each (padded bytes, key) job, in order; every job's
    padded bytes are `size` bytes long.

    `jobs` is consumed in order and hashed in batches of the fewest jobs
    whose padded bytes reach _BATCH_BYTES, so a generator of jobs is
    never held whole. Each batch is one `_hash_many` call, looked up when
    the batch runs, so a wrapper installed on this module applies here
    too.
    """
    jobs = iter(jobs)
    digests = []
    while batch := list(islice(jobs, -(-_BATCH_BYTES // size))):
        padded, keys = zip(*batch)
        finals = _hash_many(b"".join(padded), size // _BLOCK_BYTES, b"".join(keys), t)
        digests.extend(struct.iter_unpack(">4I", finals))
    return digests


def _report(indices, digests) -> HdrReport:
    """Hdr of each flip's digest against the unflipped baseline, digests[0]."""
    baseline, *flipped = digests
    ratios = [hdr(baseline, digest) for digest in flipped]
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

    def jobs():
        yield padded, key
        for i in indices:
            flipped = bytearray(padded)
            flipped[i // 8] ^= 0x80 >> (i % 8)
            yield flipped, key
    return _report(indices, _hash_all(jobs(), len(padded), t))


def key_sensitivity_sweep(message: Message, key: bytes, t: int) -> HdrReport:
    """Hdr of each of the 128 single-bit key flips."""
    check_message(message)
    key = check_key(key)
    check_iterations(t)
    indices = range(8 * KEY_BYTES)
    padded = _pad_bytes(message)
    jobs = [(padded, key)] + [(padded, flip_key_bit(key, i)) for i in indices]
    return _report(indices, _hash_all(jobs, len(padded), t))


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

    def jobs():
        seen = set()
        while len(seen) < trials:
            value = rng.getrandbits(BLOCK_BITS)
            if value not in seen:
                seen.add(value)
                yield value.to_bytes(_BLOCK_BYTES, "big") + _MARKER_BLOCK, key

    buckets = {}
    for digest in _hash_all(jobs(), 2 * _BLOCK_BYTES, t):
        top = digest[0] >> (32 - width)
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
        for index, ratio in report.per_flip:
            writer.writerow([index, repr(ratio)])
    else:
        # scalar fields only; structured extras stay on the dataclass
        names = [
            f.name for f in fields(report)
            if isinstance(getattr(report, f.name), (int, float, str))
        ]
        writer.writerow(names)
        writer.writerow([getattr(report, n) for n in names])
