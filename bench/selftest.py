"""Self-tests of the benchmark itself (not of neurohash).

Usage: python3 bench/selftest.py

Checks that inputs are a pure function of the seed, that tracing leaves
digests unchanged, that span self times nest, that a wrong reference is
counted as a failure, that window times carry the host-speed correction,
that missing functions are reported rather than raised, that pool work
attributes to the span that submitted it, that the metric names agree
with BENCHMARK.json, and that the benchmark fails without printing a
result when the program is absent. Takes about 10 s.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from neurohash import analysis, hashing  # noqa: E402

WORK = os.path.join(run.WORK, "selftest-%d" % os.getpid())
SMALL_BULK = 4096


def _spec(workload, max_ops=None):
    spec = workloads.prepare(workload, 3, os.path.join(WORK, workload),
                             bulk_bytes=SMALL_BULK)
    spec["ops"] = spec["ops"][:max_ops]
    return spec


def _loop(spec, recorder=None):
    runs = workloads.operations(spec)
    if recorder is None:
        return workloads.closed_loop(spec, runs, 0, max_ops=len(runs))
    with recorder.active():
        return workloads.closed_loop(spec, runs, 0, max_ops=len(runs))


def check_inputs_deterministic():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 11, bulk_bytes=SMALL_BULK)
        assert first == workloads.generate(workload, 11, bulk_bytes=SMALL_BULK), workload
        assert first != workloads.generate(workload, 12, bulk_bytes=SMALL_BULK), workload


def check_tracing_keeps_digests():
    messages = workloads.generate("short", 5)[:64]

    def digests():
        return [hashing.hash_message(hashing.Message(data), key, workloads.T)
                for key, data in messages]

    untraced = digests()
    with spans.Recorder().active():
        traced = digests()
    assert traced == untraced
    for workload in ("bulk", "short"):
        spec = _spec(workload, 32)
        assert _loop(spec)["failed"] == 0, workload
        assert _loop(spec, spans.Recorder())["failed"] == 0, workload


def check_self_times_nest():
    for workload in ("bulk", "short"):
        recorder = spans.Recorder()
        _loop(_spec(workload, 32), recorder)
        own = spans.self_times(recorder.spans)
        child_self = {}
        for sid, parent, *_ in recorder.spans:
            if parent:
                child_self[parent] = child_self.get(parent, 0.0) + own[sid]
        assert recorder.spans, workload
        for sid, _, name, _, _, t0, t1, _ in recorder.spans:
            assert own[sid] >= 0.0, (workload, name)
            assert child_self.get(sid, 0.0) <= t1 - t0, (workload, name)


def check_wrong_reference_fails():
    for workload in ("bulk", "short"):
        spec = _spec(workload, 8)
        op = spec["ops"][0]
        if workload == "short":
            op["expect"][0] ^= 1
        else:
            expect = op["commands"][0]["expect"]
            path = next(iter(expect))
            expect[path] = "0" * 32 + "\n"
        result = _loop(spec)
        assert result["attempted"] == len(spec["ops"]), workload
        assert result["failed"] == 1, (workload, result["failed"])


def check_host_correction():
    assert hostspeed.factor(hostspeed.REFERENCE_S) == 1.0
    for _, _, corrected, _, wall, probe in _loop(_spec("short", 4000))["windows"]:
        assert abs(corrected - wall * hostspeed.REFERENCE_S / probe) <= 1e-9 * corrected


def check_absent_reported():
    with spans._patched([("hashing", "no_such_function")], None) as absent:
        assert absent == ["hashing.no_such_function"]
    recorder = spans.Recorder()
    with recorder.active():
        hashing.hash_message(hashing.Message(b"abc"), bytes(16), workloads.T)
    metrics, absent = spans.summarize(recorder, 1)
    assert "cli.main" in absent and "hashing.pad" not in absent
    assert metrics["cli.main.calls"] == 0 and metrics["hashing.pad.calls"] == 1


def check_pool_attribution():
    recorder = spans.Recorder()
    with recorder.active():
        analysis.birthday_experiment(8, 16, bytes(16), workloads.T, 0, workers=4)
    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record[2], []).append(record)
    (experiment,) = by_name["analysis.birthday_experiment"]
    hashes = by_name["hashing.hash_message"]
    assert len(hashes) == 16
    assert all(h[1] == experiment[0] and h[3] == "analysis" for h in hashes)
    assert any(h[4] != threading.get_ident() for h in hashes)


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == dict(spans.metric_units(), **{run.OVERHEAD_METRIC: "ratio"})
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)


def check_fails_without_program():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


CHECKS = [value for name, value in sorted(globals().items())
          if name.startswith("check_")]


def main():
    failed = 0
    try:
        for check in CHECKS:
            try:
                check()
                print("PASS", check.__name__)
            except AssertionError as exc:
                failed += 1
                print("FAIL", check.__name__, exc)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
