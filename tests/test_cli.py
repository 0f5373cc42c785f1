import csv
import io
import os

import pytest

from neurohash.cli import main
from neurohash.goldens import SAMPLE_SENTENCE
from neurohash.hashing import Message, format_digest, hash_message
from neurohash.opcount import count_operations

KEY_HEX = "000102030405060708090a0b0c0d0e0f"
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_vectors.csv")


def run(argv, stdin=b""):
    import sys

    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        return main(argv)
    finally:
        sys.stdin = old


def test_hash_file(tmp_path, capsys):
    path = tmp_path / "msg.bin"
    path.write_bytes(b"abc")
    assert run(["hash", str(path), "--key-hex", KEY_HEX]) == 0
    out = capsys.readouterr().out.strip()
    assert out == format_digest(hash_message(Message(b"abc"), bytes(range(16)), 50))


def test_hash_stdin(capsys):
    assert run(["hash", "--key-ascii", "0123456789abcdef"],
               stdin=SAMPLE_SENTENCE.encode("ascii")) == 0
    assert capsys.readouterr().out.strip() == "523132B93E1FAF348109BD07EC722CD1"


def test_hash_empty_stdin(capsys):
    assert run(["hash", "--key-hex", KEY_HEX], stdin=b"") == 0
    expected = format_digest(hash_message(Message(b""), bytes(range(16)), 50))
    assert capsys.readouterr().out.strip() == expected


def test_hash_out_file(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(b"abc")
    dst = tmp_path / "digest.txt"
    assert run(["hash", str(src), "--key-hex", KEY_HEX, "--out", str(dst)]) == 0
    expected = format_digest(hash_message(Message(b"abc"), bytes(range(16)), 50))
    assert dst.read_text().strip() == expected


def test_small_t_requires_flag(tmp_path, capsys):
    path = tmp_path / "m"
    path.write_bytes(b"x")
    assert run(["hash", str(path), "--key-hex", KEY_HEX, "--t", "5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unsafe-small-t" in err
    assert run(["hash", str(path), "--key-hex", KEY_HEX,
                "--t", "5", "--unsafe-small-t"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == format_digest(hash_message(Message(b"x"), bytes(range(16)), 5))


def test_zero_t_rejected(tmp_path, capsys):
    path = tmp_path / "m"
    path.write_bytes(b"x")
    assert run(["hash", str(path), "--key-hex", KEY_HEX,
                "--t", "0", "--unsafe-small-t"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_t_of_2_to_the_63_rejected(tmp_path, capsys):
    # such a hash would never finish: refused at once with exit code 2
    path = tmp_path / "m"
    path.write_bytes(b"x")
    assert run(["hash", str(path), "--key-hex", KEY_HEX,
                "--t", "9223372036854775808"]) == 2
    assert capsys.readouterr().err == \
        "neurohash: error: iteration count must be < 2**63\n"


def test_malformed_key(tmp_path, capsys):
    path = tmp_path / "m"
    path.write_bytes(b"x")
    assert run(["hash", str(path), "--key-hex", "nope"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert run(["hash", str(path), "--key-ascii", "short"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_unreadable_input(capsys):
    assert run(["hash", "/no/such/file", "--key-hex", KEY_HEX]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_key_required():
    with pytest.raises(SystemExit) as exc:
        run(["hash"])
    assert exc.value.code == 2


def test_goldens_takes_no_t(tmp_path, capsys):
    # the golden file is fixed, so an iteration count would be ignored
    with pytest.raises(SystemExit) as exc:
        run(["goldens", "--key-hex", KEY_HEX, "--t", "3",
             "--out", str(tmp_path / "g.csv")])
    assert exc.value.code == 2
    assert "--t" in capsys.readouterr().err


def test_sensitivity_writes_csvs(tmp_path, capsys):
    src = tmp_path / "m"
    src.write_bytes(b"avalanche subject")
    out_dir = tmp_path / "reports"
    assert run(["sensitivity", str(src), "--key-hex", KEY_HEX,
                "--t", "1", "--unsafe-small-t", "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("message ")
    with (out_dir / "message_sensitivity.csv").open(newline="") as f:
        msg_rows = list(csv.reader(f))
    with (out_dir / "key_sensitivity.csv").open(newline="") as f:
        key_rows = list(csv.reader(f))
    assert msg_rows[0] == ["bit_index", "hdr"]
    assert len(msg_rows) == 1 + 8 * len(b"avalanche subject")
    assert len(key_rows) == 1 + 128


def test_birthday_csv_stdout(capsys):
    assert run(["birthday", "--key-hex", KEY_HEX, "--t", "1",
                "--unsafe-small-t", "--width", "12", "--trials", "50",
                "--seed", "9"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:3] == ["truncation_width", "trials", "collisions_observed"]
    assert rows[1][0] == "12" and rows[1][1] == "50"


def test_birthday_out_writes_the_stdout_csv(tmp_path, capsys):
    argv = ["birthday", "--key-hex", KEY_HEX, "--t", "1", "--unsafe-small-t",
            "--width", "12", "--trials", "50", "--seed", "9"]
    assert run(argv) == 0
    stdout_csv = capsys.readouterr().out
    path = tmp_path / "birthday.csv"
    assert run(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == stdout_csv.encode()
    row = dict(zip(*csv.reader(io.StringIO(stdout_csv))))
    summary = "observed=%s expected=%.4f seed=9 -> %s\n" % (
        row["collisions_observed"], float(row["collisions_expected"]), path)
    assert capsys.readouterr().out == summary


def test_birthday_bad_width(capsys):
    assert run(["birthday", "--key-hex", KEY_HEX, "--width", "4"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_opcount_matches_library(capsys):
    assert run(["opcount", "--key-hex", KEY_HEX]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    rep = count_operations(50, bytes(range(16)))
    assert int(out["mul_div"]) == rep.mul_div
    assert int(out["add_sub"]) == rep.add_sub
    assert int(out["critical_path_mul_div"]) == rep.critical_path_mul_div
    assert int(out["critical_path_add_sub"]) == rep.critical_path_add_sub


def test_opcount_out_writes_csv(tmp_path, capsys):
    dst = tmp_path / "op.csv"
    assert run(["opcount", "--key-hex", KEY_HEX, "--out", str(dst)]) == 0
    assert capsys.readouterr().out == (
        "mul_div 1181\nadd_sub 2257\n"
        "critical_path_mul_div 254\ncritical_path_add_sub 238\n")
    # the csv module ends each row with \r\n
    assert dst.read_bytes() == (
        b"mul_div,add_sub,critical_path_mul_div,critical_path_add_sub\r\n"
        b"1181,2257,254,238\r\n")


def test_goldens_regenerates_frozen_file(tmp_path, capsys):
    dst = tmp_path / "golden_vectors.csv"
    assert run(["goldens", "--out", str(dst)]) == 0
    assert "wrote 20 vectors" in capsys.readouterr().out
    with open(GOLDEN_PATH, "rb") as handle:
        assert dst.read_bytes() == handle.read()


@pytest.mark.parametrize("key_option", [
    ["--key-hex", KEY_HEX],
    ["--key-ascii", "0123456789abcdef"],
])
def test_goldens_takes_no_key(tmp_path, capsys, key_option):
    # the golden file is fixed, so a key would be ignored
    dst = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        run(["goldens", *key_option, "--out", str(dst)])
    assert exc.value.code == 2
    assert key_option[0] in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("key_hex", [
    " " * 32,
    "00 01 02 03 04 05 06 07 08 09 0a",
    KEY_HEX[:16] + "\t" + KEY_HEX[17:],
])
def test_hex_key_with_whitespace_refused(tmp_path, capsys, key_hex):
    assert len(key_hex) == 32
    path = tmp_path / "m"
    path.write_bytes(b"x")
    assert run(["hash", str(path), "--key-hex", key_hex]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "32 hex digits" in captured.err


def test_sensitivity_refusal_leaves_no_out_dir(tmp_path, capsys):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    out_dir = tmp_path / "reports"
    assert run(["sensitivity", str(src), "--key-hex", KEY_HEX,
                "--t", "1", "--unsafe-small-t", "--out", str(out_dir)]) == 2
    assert "non-empty" in capsys.readouterr().err
    assert not out_dir.exists()
