import csv
import functools
import io
import multiprocessing
import os
import random
import subprocess
import sys
import threading

import pytest

import neurohash
from neurohash import analysis
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
from neurohash.hashing import BLOCK_BITS, Message, hash_message, parse_digest

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


def test_import_loads_no_heavy_modules():
    # the fan-out imports pickle and signal only once it forks; importing
    # the package must not pay for them, for process pools or for numpy
    heavy = ["multiprocessing", "concurrent.futures", "pickle", "signal", "numpy"]
    code = """
import sys
import neurohash
print([name for name in %r if name in sys.modules])
""" % heavy
    assert _run_fresh(code).strip() == "[]"


def test_no_threads_left_running():
    # a fresh interpreter, so threads started by other tests do not count
    code = """
import threading
from neurohash.analysis import (
    birthday_experiment, key_sensitivity_sweep, message_sensitivity_sweep)
from neurohash.hashing import Message, hash_message
key = bytes(range(16))
hash_message(Message(b"threads?"), key, 1)
message_sensitivity_sweep(Message(b"ab"), key, 1)
key_sensitivity_sweep(Message(b"ab"), key, 1)
birthday_experiment(8, 16, key, 1, seed=0)
print(threading.active_count())
"""
    assert _run_fresh(code).strip() == "1"


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


def test_emit_csv_birthday_to_path(tmp_path):
    rep = birthday_experiment(12, 50, KEY, 1, seed=1)
    path = tmp_path / "birthday.csv"
    emit_csv(rep, str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["truncation_width", "trials", "collisions_observed",
                       "collisions_expected", "seed"]
    assert rows[1] == ["12", "50", str(rep.collisions_observed),
                       str(rep.collisions_expected), "1"]


def test_emit_csv_unwritable_destination(tmp_path):
    rep = BirthdayReport(16, 2, 0, 2.0 ** -16, 0)
    with pytest.raises(OSError):
        emit_csv(rep, str(tmp_path / "missing_dir" / "x.csv"))


# --- fan-out over worker processes ------------------------------------------


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


def _expected_birthday(width, trials, key, t, seed):
    rng = random.Random(seed)
    values = []
    while len(values) < trials:
        value = rng.getrandbits(BLOCK_BITS)
        if value not in values:
            values.append(value)
    buckets = {}
    for value in values:
        top = hash_message(Message.from_int(value, BLOCK_BITS), key, t)[0] >> (32 - width)
        buckets[top] = buckets.get(top, 0) + 1
    return BirthdayReport(width, trials, sum(c * (c - 1) // 2 for c in buckets.values()),
                          trials * (trials - 1) / 2 / 2.0 ** width, seed)


@pytest.fixture
def forks(monkeypatch):
    """Count the processes the fan-out forks (counted in the parent)."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


def _assert_nothing_left(threads_before):
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):     # no child, running or zombie
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("cpus", [2, 3])
def test_fan_out_reports_equal_in_process_loop(monkeypatch, forks, cpus):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    m = _small_message()                  # 121 jobs: uneven for 2 and 3 CPUs
    assert message_sensitivity_sweep(m, KEY, 1) == _expected_message_sweep(m, KEY, 1)
    assert key_sensitivity_sweep(m, KEY, 1) == _expected_key_sweep(m, KEY, 1)
    assert (birthday_experiment(8, 50, KEY, 1, seed=4)
            == _expected_birthday(8, 50, KEY, 1, 4))
    assert len(forks) == 3 * (cpus - 1)
    _assert_nothing_left(threads)


def test_fan_out_fewer_jobs_than_cpus(monkeypatch, forks):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 8)
    m = Message(b"\xc0", 2)                # baseline plus 2 flips: 3 jobs
    assert message_sensitivity_sweep(m, KEY, 1) == _expected_message_sweep(m, KEY, 1)
    assert len(forks) == 2


def test_fan_out_single_job_starts_no_process(monkeypatch, forks):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
    m = _small_message()
    assert analysis._hash_all([(m, KEY)], 1) == [hash_message(m, KEY, 1)]
    assert forks == []


def test_one_cpu_starts_no_process(monkeypatch, forks):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)
    m = _small_message()
    assert message_sensitivity_sweep(m, KEY, 1) == _expected_message_sweep(m, KEY, 1)
    assert birthday_experiment(8, 20, KEY, 1, seed=2) == _expected_birthday(8, 20, KEY, 1, 2)
    assert forks == []


def test_no_process_while_other_threads_run(monkeypatch, forks):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        m = _small_message()
        assert key_sensitivity_sweep(m, KEY, 1) == _expected_key_sweep(m, KEY, 1)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []


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
])
def test_bad_input_raises_before_any_fork(monkeypatch, forks, call, error):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    with pytest.raises(error):
        call()
    assert forks == []


def _failing_on(bad, error):
    @functools.wraps(hash_message)
    def wrapper(message, key, t):
        if message == bad:
            raise error
        return hash_message(message, key, t)
    return wrapper


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


@pytest.mark.parametrize("flip, error, raised", [
    (100, ValueError("failed in a worker"), ValueError),   # a worker's chunk
    (3, ValueError("failed in the parent"), ValueError),   # the parent's chunk
    (100, _Unpicklable(), RuntimeError),                   # lost on the way back
])
def test_failure_reaps_every_worker(monkeypatch, forks, flip, error, raised):
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
    m = _small_message()
    monkeypatch.setattr(analysis, "hash_message", _failing_on(m.flip(flip), error))
    threads = threading.active_count()
    with pytest.raises(raised):
        message_sensitivity_sweep(m, KEY, 1)
    assert len(forks) == 2
    _assert_nothing_left(threads)


def test_sweeps_under_a_wrapped_hash_message(monkeypatch):
    # the traced benchmark pass swaps hash_message for a wrapper like this
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    calls = []

    @functools.wraps(hash_message)
    def wrapper(*args, **kwargs):
        calls.append(1)                   # in the parent's memory only
        return hash_message(*args, **kwargs)

    monkeypatch.setattr(analysis, "hash_message", wrapper)
    m = _small_message()
    assert message_sensitivity_sweep(m, KEY, 1) == _expected_message_sweep(m, KEY, 1)
    assert key_sensitivity_sweep(m, KEY, 1) == _expected_key_sweep(m, KEY, 1)
    assert (birthday_experiment(8, 50, KEY, 1, seed=4)
            == _expected_birthday(8, 50, KEY, 1, 4))
    assert len(calls) == 121 // 2 + 129 // 2 + 50 // 2    # chunk 0 of each
