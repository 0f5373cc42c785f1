import csv
import functools
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurohash
from neurohash import analysis, ckernel, hashing
from neurohash.analysis import (
    BirthdayReport,
    HdrReport,
    birthday_experiment,
    emit_csv,
    hdr,
    key_sensitivity_sweep,
    message_sensitivity_sweep,
)
from neurohash.goldens import SAMPLE_KEY, SAMPLE_SENTENCE
from neurohash.hashing import (
    BLOCK_BITS,
    Message,
    bytes_to_digest,
    digest_to_bytes,
    hash_message,
    parse_digest,
)
from oracles import hash_message_ref

SEED = 66017
KEY = bytes(range(16))


def test_hdr_extremes():
    d = (0x12345678, 0x9ABCDEF0, 0x0F0F0F0F, 0xF0F0F0F0)
    comp = tuple(w ^ 0xFFFFFFFF for w in d)
    assert hdr(d, d) == 0.0
    assert hdr(d, comp) == 1.0


def test_hdr_published_digest_pair():
    # two example digest strings; 70 differing bits of 128, computed
    # independently with int.bit_count before freezing
    a = parse_digest("DF461FA76AC4D5330DF97BD58FC96DAF")
    b = parse_digest("F776C1409C826B7A542FC70965282ED9")
    assert hdr(a, b) == 70 / 128
    assert 0.45 <= hdr(a, b) <= 0.56


def test_hdr_symmetry_and_mask_property():
    rng = random.Random(SEED)
    for _ in range(100):
        a = tuple(rng.getrandbits(32) for _ in range(4))
        mask = tuple(rng.getrandbits(32) for _ in range(4))
        b = tuple(x ^ m for x, m in zip(a, mask))
        assert hdr(a, b) == hdr(b, a)
        assert hdr(a, b) == sum(m.bit_count() for m in mask) / 128


def _small_message():
    return Message(b"sweep target !!")    # 120 bits, single block


def test_message_sweep_shape_and_determinism():
    m = _small_message()
    rep = message_sensitivity_sweep(m, KEY, 1)
    indices = [i for i, _ in rep.per_flip]
    assert indices == list(range(120))    # shorter than 1024: only real bits
    assert rep.mean == sum(h for _, h in rep.per_flip) / len(rep.per_flip)
    assert rep.min == min(h for _, h in rep.per_flip)
    assert rep.max == max(h for _, h in rep.per_flip)
    again = message_sensitivity_sweep(m, KEY, 1)
    assert again == rep


def test_message_sweep_covers_first_block_only():
    m = Message(SAMPLE_SENTENCE.encode("ascii"))   # 1040 bits
    rep = message_sensitivity_sweep(m, SAMPLE_KEY, 1)
    assert [i for i, _ in rep.per_flip] == list(range(1024))


def test_flip_twice_restores_baseline():
    m = _small_message()
    assert m.flip(17).flip(17) == m


def test_message_sweep_rejects_empty():
    with pytest.raises(ValueError):
        message_sensitivity_sweep(Message(b""), KEY, 1)


def test_message_sweep_holds_few_copies_of_the_message(monkeypatch):
    # bound, fixed before measuring: a peak below 64 message sizes, where
    # building all 1024 flipped copies first would need about 1024; the
    # hash is a stub, so only what the sweep itself holds is counted
    m = Message(bytes(range(256)) * 64)                 # 16 KiB
    bound = 64 * len(m.data)
    monkeypatch.setattr(analysis, "_hash_many",
                        lambda padded, blocks, keys, t: bytes(len(keys)))
    tracemalloc.start()
    try:
        report = message_sensitivity_sweep(m, KEY, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.per_flip) == BLOCK_BITS
    assert peak < bound


def test_key_sweep_shape():
    m = _small_message()
    rep = key_sensitivity_sweep(m, KEY, 1)
    assert [i for i, _ in rep.per_flip] == list(range(128))
    assert key_sensitivity_sweep(m, KEY, 1) == rep
    assert rep.min > 0.0                  # every key bit matters


def _run_fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(neurohash.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    return result.stdout


HEAVY = ["multiprocessing", "concurrent.futures", "pickle", "signal", "numpy"]
HARNESS = ["neurohash.analysis", "neurohash.opcount", "neurohash.goldens"]
# the harness's own imports: its reports are dataclasses, and dataclasses
# imports inspect
OFF_THE_HASH_PATH = HARNESS + ["dataclasses", "inspect", "csv", "neurohash.cli"]


def test_import_loads_no_heavy_modules():
    # importing the package must not pay for pickling, signals, process
    # pools or numpy, nor hashing through it for the harness: each public
    # name loads its module on first access
    code = """
import sys
import neurohash
print([name for name in sys.modules if name.startswith("neurohash.")])
neurohash.hash_message(neurohash.Message(b"abc"), bytes(16), 50)
print([name for name in %r if name in sys.modules])
print(neurohash.hdr is sys.modules["neurohash.analysis"].hdr)
""" % (HEAVY + OFF_THE_HASH_PATH)
    assert _run_fresh(code).split("\n") == ["[]", "[]", "True", ""]


def test_cli_hash_leaves_the_harness_unloaded(tmp_path):
    path = tmp_path / "message.bin"
    path.write_bytes(b"abc")
    code = """
import sys
from neurohash import cli
cli.main(["hash", %r, "--key-hex", %r])
print([name for name in %r if name in sys.modules])
""" % (str(path), KEY.hex(), HARNESS)
    digest = hashing.format_digest(hash_message(Message(b"abc"), KEY, 50))
    assert _run_fresh(code).split("\n") == [digest, "[]", ""]


def test_no_threads_left_running():
    # a fresh interpreter, so threads started by other tests do not count:
    # hashing and the experiments run on the calling thread alone
    code = """
import threading
from neurohash.analysis import (
    birthday_experiment, key_sensitivity_sweep, message_sensitivity_sweep)
from neurohash.hashing import Message, hash_message
started = []
real_start = threading.Thread.start

def start(thread):
    started.append(thread)
    real_start(thread)

threading.Thread.start = start
key = bytes(range(16))
hash_message(Message(b"threads?"), key, 1)
message_sensitivity_sweep(Message(b"ab"), key, 1)
key_sensitivity_sweep(Message(b"ab"), key, 1)
birthday_experiment(8, 16, key, 1, seed=0)
print(len(started), threading.active_count())
"""
    assert _run_fresh(code).split() == ["0", "1"]


def test_birthday_expected_formula():
    rep = birthday_experiment(16, 1000, KEY, 1, seed=0)
    assert rep.collisions_expected == 1000 * 999 / 2 / 2**16
    assert abs(rep.collisions_expected - 7.62) < 0.01
    assert rep.truncation_width == 16
    assert rep.trials == 1000
    assert rep.seed == 0


def test_birthday_two_trials():
    rep = birthday_experiment(8, 2, KEY, 1, seed=3)
    assert rep.collisions_expected == 2.0 ** -8
    assert rep.collisions_observed in (0, 1)


def test_birthday_determinism():
    a = birthday_experiment(12, 200, KEY, 1, seed=5)
    b = birthday_experiment(12, 200, KEY, 1, seed=5)
    assert a == b
    assert birthday_experiment(12, 200, KEY, 1, seed=6) != a


def test_birthday_validation():
    with pytest.raises(ValueError):
        birthday_experiment(7, 100, KEY, 1, seed=0)
    with pytest.raises(ValueError):
        birthday_experiment(33, 100, KEY, 1, seed=0)
    with pytest.raises(ValueError):
        birthday_experiment(16, 1, KEY, 1, seed=0)


def test_emit_csv_hdr_round_trip():
    m = _small_message()
    rep = message_sensitivity_sweep(m, KEY, 1)
    buf = io.StringIO()
    emit_csv(rep, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["bit_index", "hdr"]
    assert len(rows) == 1 + len(rep.per_flip)
    parsed = tuple((int(i), float(h)) for i, h in rows[1:])
    assert parsed == rep.per_flip


def test_emit_csv_empty_report():
    empty = HdrReport(per_flip=(), mean=0.0, min=0.0, max=0.0)
    buf = io.StringIO()
    emit_csv(empty, buf)
    assert buf.getvalue().strip() == "bit_index,hdr"


def _csv_writer_text(report) -> str:
    """What csv.writer writes for an HdrReport: the header, then its rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["bit_index", "hdr"])
    writer.writerows(report.per_flip)
    return buf.getvalue()


# every ratio a sweep can report, then the floats and ints equal to one of
# them or to each other as dict keys but written otherwise
TABLE_RATIOS = [c / 128 for c in range(129)]
RATIOS = st.one_of(
    st.sampled_from(TABLE_RATIOS),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0, 1, True, False]),
    st.floats(),
)
INDICES = st.one_of(st.integers(-2**70, 2**70), st.integers(0, 1023), st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(INDICES, RATIOS), max_size=40))
@example(rows=[])
@example(rows=[(0, 0.5), (1, -0.0), (2, 0.0), (3, 1), (4, 1.0), (True, 0.5),
               (5, True), (6, math.nan), (7, 1 / 3), ("a,b", 0.5), (1.5, 0.5)])
@example(rows=[(0, 0.5), (1, 0.25, "x"), ("a,b",), (2, 0.75)])  # not all pairs
def test_emit_csv_writes_what_csv_writer_writes(rows):
    # the table rows and every other row, in order, as csv.writer writes
    # them, for any report
    report = HdrReport(per_flip=tuple(rows), mean=0.0, min=0.0, max=0.0)
    assert _csv_text(report) == _csv_writer_text(report)


def test_emit_csv_birthday_to_path(tmp_path):
    rep = birthday_experiment(12, 50, KEY, 1, seed=1)
    path = tmp_path / "birthday.csv"
    emit_csv(rep, str(path))
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["truncation_width", "trials", "collisions_observed",
                       "collisions_expected", "seed"]
    assert rows[1] == ["12", "50", str(rep.collisions_observed),
                       str(rep.collisions_expected), "1"]


def test_emit_csv_unwritable_destination(tmp_path):
    rep = BirthdayReport(16, 2, 0, 2.0 ** -16, 0)
    with pytest.raises(OSError):
        emit_csv(rep, str(tmp_path / "missing_dir" / "x.csv"))


# --- the experiments against an in-process loop ----------------------------


def _expected_sweep(message, key, t, flipped):
    """HdrReport of an in-process loop over the flipped (message, key) jobs."""
    baseline = hash_message(message, key, t)
    ratios = [hdr(baseline, hash_message(m, k, t)) for m, k in flipped]
    return HdrReport(
        per_flip=tuple(enumerate(ratios)),
        mean=sum(ratios) / len(ratios),
        min=min(ratios),
        max=max(ratios),
    )


def _expected_message_sweep(message, key, t):
    flipped = [(message.flip(i), key) for i in range(min(BLOCK_BITS, message.nbits))]
    return _expected_sweep(message, key, t, flipped)


def _expected_key_sweep(message, key, t):
    flipped = [(message, analysis.flip_key_bit(key, i)) for i in range(128)]
    return _expected_sweep(message, key, t, flipped)


def _distinct_draws(trials, seed):
    """The first `trials` distinct 1024-bit values random.Random(seed) draws."""
    rng = random.Random(seed)
    values = []
    while len(values) < trials:
        value = rng.getrandbits(BLOCK_BITS)
        if value not in values:
            values.append(value)
    return values


def _expected_birthday(width, values, key, t, seed):
    """BirthdayReport of an in-process loop over the drawn values."""
    buckets = {}
    for value in values:
        top = hash_message(Message.from_int(value, BLOCK_BITS), key, t)[0] >> (32 - width)
        buckets[top] = buckets.get(top, 0) + 1
    trials = len(values)
    return BirthdayReport(width, trials, sum(c * (c - 1) // 2 for c in buckets.values()),
                          trials * (trials - 1) / 2 / 2.0 ** width, seed)


@pytest.mark.parametrize("call, error", [
    (lambda: message_sensitivity_sweep(_small_message(), KEY, 0), ValueError),
    (lambda: message_sensitivity_sweep(_small_message(), KEY, 1.5), TypeError),
    (lambda: message_sensitivity_sweep(_small_message(), bytes(15), 1), ValueError),
    (lambda: message_sensitivity_sweep(b"sweep target", KEY, 1), TypeError),
    (lambda: key_sensitivity_sweep(_small_message(), KEY, "50"), TypeError),
    (lambda: key_sensitivity_sweep(_small_message(), KEY[:8], 1), ValueError),
    (lambda: key_sensitivity_sweep(bytearray(b"ab"), KEY, 1), TypeError),
    (lambda: birthday_experiment(8, 20, KEY, 0, seed=0), ValueError),
    (lambda: birthday_experiment(8, 20, KEY, 2.0, seed=0), TypeError),
    (lambda: birthday_experiment(8, 20, "key", 1, seed=0), ValueError),
    (lambda: birthday_experiment(16.0, 20, KEY, 1, seed=0), TypeError),
    (lambda: birthday_experiment(True, 20, KEY, 1, seed=0), TypeError),
    (lambda: birthday_experiment(8, 20.5, KEY, 1, seed=0), TypeError),
    (lambda: birthday_experiment(8, True, KEY, 1, seed=0), TypeError),
])
def test_bad_input_raises_before_any_fork(monkeypatch, call, error):
    # Nothing forks any more; the name is kept so the 14 test ids stay stable.
    def hash_many(*args):
        raise AssertionError("a batch was hashed before the input was checked")

    monkeypatch.setattr(analysis, "_hash_many", hash_many)
    with pytest.raises(error):
        call()


def _failing_on(message, errors, batches=None):
    """_hash_many that raises errors[i] on a batch holding `message` with
    bit i flipped (the first such flip of the batch), and hashes no batch
    at all: it returns zero digests. Each batch's key count goes to
    `batches` when given."""
    targets = {hashing._pad_bytes(message.flip(bad)): error
               for bad, error in errors.items()}

    def failing(padded, blocks, keys, t):
        if batches is not None:
            batches.append(len(keys) // 16)
        size = 128 * blocks
        for start in range(0, len(padded), size):
            if padded[start:start + size] in targets:
                raise targets[padded[start:start + size]]
        return bytes(len(keys))
    return failing


# 121 jobs in one batch: the baseline, then flips 0..119, so flip i is job i + 1


@pytest.mark.parametrize("flip, error, raised", [
    (100, ValueError("failed late"), ValueError),      # job 101 of 121
    (3, ValueError("failed early"), ValueError),       # job 4
    (100, SystemExit("exit late"), SystemExit),        # not only Exception
])
def test_the_failing_call_raises_its_own_exception(monkeypatch, flip, error, raised):
    # the failing batch's own exception object is raised, and no thread is
    # left behind
    monkeypatch.setattr(analysis, "_hash_many",
                        _failing_on(_small_message(), {flip: error}))
    threads = threading.active_count()
    with pytest.raises(raised) as info:
        message_sensitivity_sweep(_small_message(), KEY, 1)
    assert info.value is error
    assert threading.active_count() == threads


# 4095 bytes pad to 32 blocks, so a 64 KiB batch holds 16 jobs: flip 3 is
# job 4, in batch 0; flip 50 is job 51, in batch 3; flip 100 is job 101,
# in batch 6
LONG_MESSAGE = Message((bytes(range(256)) * 16)[:4095])


@pytest.mark.parametrize("flips, first", [
    ((3, 50, 100), 3),          # three batches fail: batch 0's error
    ((50, 100), 50),            # two batches fail: batch 3's error
])
def test_the_first_failing_job_raises(monkeypatch, flips, first):
    errors = {flip: ValueError(flip) for flip in flips}
    batches = []
    monkeypatch.setattr(analysis, "_hash_many", _failing_on(LONG_MESSAGE, errors, batches))
    with pytest.raises(ValueError) as info:
        message_sensitivity_sweep(LONG_MESSAGE, KEY, 1)
    assert info.value is errors[first]
    # the batches ran in order, and none after the failing one
    assert batches == [16] * ((first + 1) // 16 + 1)


@pytest.mark.parametrize("callers", [2, 3])
def test_concurrent_callers_get_in_process_reports(callers):
    # a caller fans the experiments out over its own threads (the compiled
    # chain releases the GIL): every thread's reports equal an in-process
    # loop of hash_message
    m = _small_message()
    expected = (_expected_message_sweep(m, KEY, 1), _expected_key_sweep(m, KEY, 1),
                _expected_birthday(8, _distinct_draws(50, 4), KEY, 1, 4))
    reports = [None] * callers

    def run(i):
        reports[i] = (message_sensitivity_sweep(m, KEY, 1),
                      key_sensitivity_sweep(m, KEY, 1),
                      birthday_experiment(8, 50, KEY, 1, seed=4))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [expected] * callers


def test_sweeps_under_a_wrapped_hash_many(monkeypatch):
    # a wrapper on the batch call sees every job; each experiment's report
    # equals an in-process loop of hash_message
    jobs = []

    @functools.wraps(hashing._hash_many)
    def wrapper(padded, blocks, keys, t):
        jobs.append(len(keys) // 16)
        return hashing._hash_many(padded, blocks, keys, t)

    monkeypatch.setattr(analysis, "_hash_many", wrapper)
    m = _small_message()
    assert message_sensitivity_sweep(m, KEY, 1) == _expected_message_sweep(m, KEY, 1)
    assert key_sensitivity_sweep(m, KEY, 1) == _expected_key_sweep(m, KEY, 1)
    assert (birthday_experiment(8, 50, KEY, 1, seed=4)
            == _expected_birthday(8, _distinct_draws(50, 4), KEY, 1, 4))
    # every job of the message sweep, of the key sweep and of birthday
    assert sum(jobs) == 121 + 129 + 50


def test_hash_all_cuts_batches_at_64_kib(monkeypatch):
    # 300 two-block jobs: batches of 256 and 44 jobs, each built once, in
    # order; the digests are those of hash_message, in order, 16 bytes each
    messages = [Message(bytes([i % 256, i // 256]) * 64) for i in range(300)]
    keys = [bytes([i % 7]) * 16 for i in range(len(messages))]
    padded = [hashing._pad_bytes(m) for m in messages]
    built, batches = [], []

    def batch(start, stop):
        built.append((start, stop))
        return b"".join(padded[start:stop]), b"".join(keys[start:stop])

    def recording(padded, blocks, keys, t):
        batches.append((blocks, len(keys) // 16, len(padded)))
        return hashing._hash_many(padded, blocks, keys, t)

    monkeypatch.setattr(analysis, "_hash_many", recording)
    assert analysis._hash_all(300, 256, 1, batch) == b"".join(
        digest_to_bytes(hash_message(m, k, 1)) for m, k in zip(messages, keys))
    assert built == [(0, 256), (256, 300)]
    assert batches == [(2, 256, 65536), (2, 44, 44 * 256)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(digests=st.lists(st.binary(min_size=16, max_size=16), min_size=2, max_size=20))
@example(digests=[bytes(16), bytes(16)])
@example(digests=[bytes(16), b"\xff" * 16, bytes(range(16))])
@example(digests=[bytes(range(16)), bytes(range(16, 24)) + bytes(range(8, 16))])  # high half
@example(digests=[bytes(range(16)), bytes(range(8)) + bytes(range(24, 32))])  # low half
@example(digests=[bytes(range(16)), bytes(range(16))])  # equal: ratio 0.0
def test_report_ratios_equal_hdr(digests):
    # _report's ratios, from the popcounts of both 64-bit halves, are
    # hdr's floats on the 4-word digests, and their mean sums them in the
    # same order
    words = [bytes_to_digest(digest) for digest in digests]
    ratios = [hdr(words[0], word) for word in words[1:]]
    report = analysis._report(range(len(ratios)), b"".join(digests))
    assert report == HdrReport(tuple(enumerate(ratios)), sum(ratios) / len(ratios),
                               min(ratios), max(ratios))


def _captured_jobs(monkeypatch):
    """Every (padded bytes, key) job the experiments hand the batch call;
    the digests it returns are zeros."""
    jobs = []

    def capture(padded, blocks, keys, t):
        size = 128 * blocks
        for i in range(len(keys) // 16):
            jobs.append((padded[i * size:(i + 1) * size], keys[16 * i:16 * (i + 1)]))
        return bytes(len(keys))

    monkeypatch.setattr(analysis, "_hash_many", capture)
    return jobs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(nbits=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       trials=st.integers(2, 40))
@example(nbits=1, seed=1, trials=2)
@example(nbits=1023, seed=2, trials=3)
@example(nbits=1024, seed=3, trials=40)
@example(nbits=2049, seed=4, trials=5)
def test_the_experiments_pad_as_pad_bytes(nbits, seed, trials):
    # the padded bytes built directly: each flip XORed into a copy of the
    # padded message, one padded message for every key, and a birthday
    # value's 128 bytes followed by the marker block
    with pytest.MonkeyPatch.context() as monkeypatch:
        jobs = _captured_jobs(monkeypatch)
        message = _random_message(nbits, seed)
        message_sensitivity_sweep(message, KEY, 1)
        flips = range(min(BLOCK_BITS, nbits))
        assert jobs == [(hashing._pad_bytes(message), KEY)] + [
            (hashing._pad_bytes(message.flip(i)), KEY) for i in flips]
        jobs.clear()
        key_sensitivity_sweep(message, KEY, 1)
        keys = [KEY] + [analysis.flip_key_bit(KEY, i) for i in range(128)]
        assert jobs == [(hashing._pad_bytes(message), key) for key in keys]
        jobs.clear()
        birthday_experiment(8, trials, KEY, 1, seed)
    assert jobs == [(hashing._pad_bytes(Message.from_int(value, BLOCK_BITS)), KEY)
                    for value in _distinct_draws(trials, seed)]


def test_birthday_skips_repeated_draws(monkeypatch):
    # 1024-bit draws never repeat by chance, so a stand-in for random.Random
    # repeats two: draw 2 repeats draw 1, inside the first batch of 256
    # jobs, and draw 258 repeats draw 100 of that batch while the second
    # batch is built; each repeat is skipped, and the 300 distinct values
    # are hashed in the order they were first drawn
    rng = random.Random(SEED)
    distinct = [rng.getrandbits(BLOCK_BITS) for _ in range(300)]
    draws = distinct[:2] + [distinct[1]] + distinct[2:257] + [distinct[100]] + distinct[257:]

    class Repeating:
        def __init__(self, seed):
            self.draws = iter(draws)

        def getrandbits(self, k):
            assert k == BLOCK_BITS
            return next(self.draws)

    monkeypatch.setattr(analysis.random, "Random", Repeating)
    expected = _expected_birthday(8, distinct, KEY, 1, SEED)
    assert birthday_experiment(8, 300, KEY, 1, SEED) == expected
    jobs = _captured_jobs(monkeypatch)
    birthday_experiment(8, 300, KEY, 1, SEED)
    assert jobs == [(hashing._pad_bytes(Message.from_int(value, BLOCK_BITS)), KEY)
                    for value in distinct]


@pytest.mark.parametrize("seed, observed", [(1, 8), (2, 9)])
def test_birthday_reports_frozen(monkeypatch, seed, observed):
    # frozen from the per-message hash_message loop, before the batches;
    # on the chain that loaded, then on the Python chain
    expected = BirthdayReport(16, 1000, observed, 1000 * 999 / 2 / 2 ** 16, seed)
    assert birthday_experiment(16, 1000, KEY, 50, seed) == expected
    monkeypatch.setattr(ckernel, "load", lambda: None)
    assert birthday_experiment(16, 1000, KEY, 50, seed) == expected


# --- frozen sweep reports ----------------------------------------------------

DATA = os.path.join(os.path.dirname(__file__), "data")

# emit_csv text of both sweeps, frozen from the per-flip rehash of the
# Python stage functions (hash_message(message.flip(i), key, t) per flip)
FROZEN_SWEEP_SHA256 = {
    "one block, 237 bits, t=2": (
        "3b5f84d30b933218c3b7a21c8fa0740ab42dc9f8704cbd6ec917af91a04b105a",
        "72a7e4cc34586b0f54f01fc61ec37dfa4c2dfd023fba532736e9f85e393a21ee",
    ),
    "three blocks, 2400 bits, t=2": (
        "f4a3da1715fc1629a5c27cfa13f44ff681de47f5c4238bd0818df33531e8cf0a",
        "97633c6b0fcf7759cb7dd3edb105f63a795e543cb680f4515d6f717f49a345a6",
    ),
}
FROZEN_SWEEP_INPUTS = {
    "one block, 237 bits, t=2": (
        Message(b"non-aligned message under test", 237), bytes(range(16)), 2),
    "three blocks, 2400 bits, t=2": (
        Message(bytes((7 * i + 3) % 256 for i in range(300))),
        bytes(range(100, 116)), 2),
}


def _csv_text(report) -> str:
    buf = io.StringIO(newline="")
    emit_csv(report, buf)
    return buf.getvalue()


def test_sample_sweep_csv_frozen():
    # the same files the CLI's `sensitivity` writes for the sample sentence
    m = Message(SAMPLE_SENTENCE.encode("ascii"))
    for name, sweep in (("message", message_sensitivity_sweep),
                        ("key", key_sensitivity_sweep)):
        path = os.path.join(DATA, "sample_sensitivity", "%s_sensitivity.csv" % name)
        with open(path, newline="") as handle:
            assert _csv_text(sweep(m, SAMPLE_KEY, 50)) == handle.read(), name


@pytest.mark.parametrize("case", sorted(FROZEN_SWEEP_SHA256))
def test_sweep_csv_frozen(case):
    message, key, t = FROZEN_SWEEP_INPUTS[case]
    texts = (_csv_text(message_sensitivity_sweep(message, key, t)),
             _csv_text(key_sensitivity_sweep(message, key, t)))
    digests = tuple(hashlib.sha256(text.encode("ascii")).hexdigest() for text in texts)
    assert digests == FROZEN_SWEEP_SHA256[case]


def _random_message(nbits, seed):
    return Message.from_int(random.Random(seed).getrandbits(nbits), nbits)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(nbits=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       key=st.binary(min_size=16, max_size=16), t=st.integers(1, 3))
@example(nbits=1, seed=1, key=KEY, t=1)
@example(nbits=31, seed=2, key=SAMPLE_KEY, t=2)
@example(nbits=32, seed=3, key=bytes(16), t=3)
@example(nbits=127, seed=4, key=KEY, t=1)
@example(nbits=128, seed=5, key=SAMPLE_KEY, t=2)
@example(nbits=1023, seed=6, key=bytes(16), t=3)
@example(nbits=1024, seed=7, key=KEY, t=1)
@example(nbits=1025, seed=8, key=SAMPLE_KEY, t=2)
@example(nbits=2048, seed=9, key=b"\xff" * 16, t=3)
def test_message_sweep_equals_per_flip_rehash(nbits, seed, key, t):
    message = _random_message(nbits, seed)
    indices = range(min(BLOCK_BITS, nbits))
    expected = _expected_sweep(message, key, t, [(message.flip(i), key) for i in indices])
    assert message_sensitivity_sweep(message, key, t) == expected


@settings(max_examples=4, deadline=None, derandomize=True)
@given(nbits=st.integers(1, 2100), seed=st.integers(0, 2**32 - 1),
       key=st.binary(min_size=16, max_size=16), t=st.integers(1, 3),
       picks=st.lists(st.integers(0, 1023), min_size=1, max_size=3))
@example(nbits=1, seed=1, key=KEY, t=1, picks=[0])
@example(nbits=31, seed=2, key=SAMPLE_KEY, t=2, picks=[30])
@example(nbits=32, seed=3, key=bytes(16), t=3, picks=[31])
@example(nbits=127, seed=4, key=KEY, t=1, picks=[96, 126])
@example(nbits=128, seed=5, key=SAMPLE_KEY, t=2, picks=[0, 127])
@example(nbits=1023, seed=6, key=bytes(16), t=3, picks=[1022])
@example(nbits=1024, seed=7, key=KEY, t=1, picks=[895, 896, 1023])
@example(nbits=1025, seed=8, key=SAMPLE_KEY, t=2, picks=[512, 1023])
@example(nbits=2048, seed=9, key=b"\xff" * 16, t=3, picks=[0, 1023])
def test_message_sweep_matches_oracle(nbits, seed, key, t, picks):
    # the oracle is slow: it checks the baseline and a few picked flips
    message = _random_message(nbits, seed)
    report = message_sensitivity_sweep(message, key, t)
    bits = [message.bit(j) for j in range(nbits)]
    baseline = hash_message_ref(bits, key, t)
    for i in {pick % len(report.per_flip) for pick in picks}:
        bits[i] ^= 1
        assert report.per_flip[i] == (i, hdr(baseline, hash_message_ref(bits, key, t)))
        bits[i] ^= 1
