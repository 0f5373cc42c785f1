import csv
import io
import os
import random
import subprocess
import sys

import pytest

import neurohash
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
from neurohash.hashing import Message, parse_digest

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


def test_no_threads_left_running():
    # a fresh interpreter, so threads started by other tests do not count
    code = """
import threading
from neurohash.analysis import (
    birthday_experiment, key_sensitivity_sweep, message_sensitivity_sweep)
from neurohash.hashing import Message, hash_message
key = bytes(range(16))
hash_message(Message(b"threads?"), key, 1, parallel=True)
message_sensitivity_sweep(Message(b"ab"), key, 1)
key_sensitivity_sweep(Message(b"ab"), key, 1)
birthday_experiment(8, 16, key, 1, seed=0)
print(threading.active_count())
"""
    src = os.path.dirname(os.path.dirname(neurohash.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


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
