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
by the marker block, joined from each value's 128 bytes. The digests
stay the chain's bytes, 16 a message: a sweep counts the bits in which
each digest differs from the baseline's, 64 bits at a time, and takes
the ratio from a 129-entry table of c / 128, the floats hdr gives; the
birthday experiment reads each digest's top word from them. A sweep's
CSV rows take their ratio text from the same table's reprs, which is
what the csv module writes; any other row goes through the csv module.
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
# the hdr of c differing digest bits, c = 0..128: the floats hdr gives
_RATIOS = [c / 128.0 for c in range(129)]
# the CSV text of each nonzero ratio, its repr, as the csv module writes it
_RATIO_TEXT = {ratio: repr(ratio) for ratio in _RATIOS[1:]}


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
    first of `finals`: the popcount of the XOR of their two 64-bit
    halves, looked up in _RATIOS, so the floats hdr gives."""
    digests = struct.iter_unpack(">QQ", finals)
    base_hi, base_lo = next(digests)
    ratios = [_RATIOS[(base_hi ^ hi).bit_count() + (base_lo ^ lo).bit_count()]
              for hi, lo in digests]
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
    seen = set()   # each value's 128 bytes, one to one with the 1024-bit ints

    def batch(start, stop):
        values = []
        while len(seen) < stop:
            value = rng.getrandbits(BLOCK_BITS).to_bytes(_BLOCK_BYTES, "big")
            if value not in seen:
                seen.add(value)
                values.append(value)
        return _MARKER_BLOCK.join(values + [b""]), key * (stop - start)

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


class _Lines(list):
    """A list that a csv writer appends its lines to."""

    write = list.append


def _write_csv(report, handle) -> None:
    if isinstance(report, HdrReport):
        handle.write(_hdr_csv(report.per_flip))
        return
    writer = csv.writer(handle)
    # scalar fields only; structured extras stay on the dataclass
    names = [
        f.name for f in fields(report)
        if isinstance(getattr(report, f.name), (int, float, str))
    ]
    writer.writerow(names)
    writer.writerow([getattr(report, n) for n in names])


def _hdr_csv(rows) -> str:
    """The text a csv writer writes for the header and `rows`.

    The csv module writes an int as its str and a float as its repr, so
    a sweep's row, an int and a ratio of _RATIO_TEXT, is written from
    that table. Every other row goes through the csv module in its
    place: 0.0 and -0.0, a bool, an int ratio (1 == 1.0 as a key), any
    other float; a row that is not a pair sends every row through it.
    """
    lines = _Lines()
    writer = csv.writer(lines)
    writer.writerow(["bit_index", "hdr"])
    text_of = _RATIO_TEXT.get
    try:
        for i, ratio in rows:
            if type(i) is int and type(ratio) is float and (text := text_of(ratio)):
                lines.append(f"{i},{text}\r\n")
            else:
                writer.writerow((i, ratio))
    except (TypeError, ValueError):
        del lines[1:]
        writer.writerows(rows)
    return "".join(lines)
