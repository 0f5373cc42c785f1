"""neurohash benchmark: one workload, timed from outside, every output checked.

Usage (from the repository root):

    python3 bench/run.py --workload {bulk,short,experiments} --seed N \
        --seconds S --trace {0,1}

Steps: check the golden vectors (the correctness gate), make the
workload's inputs from the seed and their reference outputs on the
sequential library path, time `setup_s` in fresh interpreters, then run
the workload in a worker process (bench/worker.py) and print every
metric by name with its unit. Times are corrected for the host's speed
(bench/hostspeed.py); the uncorrected figures are printed alongside. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, measured in a traced pass that also reports its own
overhead against an untraced pass on the same seed.

The load generator is a single client thread in a closed loop. The
program runs its own thread pools (at the time of writing, 8 neuron
threads for `hash` and 4 sweep workers for `sensitivity` and `birthday`)
on however many cores the host has; the environment lines say how many.

Exits 0 when every output was correct, 1 when one was not, and 2 without
a result when the program or its golden vectors are missing or the gate
fails.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(ROOT, "tests", "data", "golden_vectors.csv")
WORK = os.path.join(ROOT, ".bench_work")

TIME_LIMIT_S = 170.0
SETUP_RUNS = 12
# Fresh interpreter: import the package, then the first digest of an empty
# message. Timed inside the child, so interpreter start-up is excluded;
# the host-speed probe then runs in the same process.
SETUP_CODE = """
import time
t0 = time.perf_counter()
from neurohash.hashing import Message, hash_message
hash_message(Message(b""), bytes(16), 50)
elapsed = time.perf_counter() - t0
import hostspeed
print(repr(elapsed), repr(hostspeed.probe_seconds()))
"""

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_kib_s": "KiB/s",
    "messages_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
OVERHEAD_METRIC = "trace.overhead_ratio"


def fail(message):
    print("bench: error: %s" % message, file=sys.stderr)
    sys.exit(2)


def environment():
    """Interpreter, core count, CPU model and commit, read without running git."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git": _git_short_hash(),
    }


def _git_short_hash():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head[:7]
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()[:7]
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line[:7]
    except OSError:
        pass
    return "unknown"


def child_env(*paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *paths] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_samples(count, deadline):
    """(wall, probe) seconds of `count` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT,
            env=child_env(HERE), capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        wall, probe = done.stdout.split()
        samples.append((float(wall), float(probe)))
    return samples


def run_worker(spec, workdir, deadline):
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        cwd=ROOT, env=child_env(), check=True,
        timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path) as handle:
        return json.load(handle)


def tail_latency(latencies):
    """(percentile, value): the 99th, or the highest percentile with at
    least ten samples beyond it, or the median when there are under 20."""
    n = len(latencies)
    p = min(99, 100 * (n - 10) // n) if n >= 20 else 50
    if p == 50:
        return p, statistics.median(latencies)
    return p, statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def window_rates(windows, busy=2):
    """Median latency and rates over windows, from busy time field `busy`.

    `latency_ms` takes the mean latency within each window: on a host whose
    speed flips every few milliseconds, single latencies are bimodal and
    their median jumps between the modes, while a window's mean moves only
    with the share of slow time.
    """
    return {
        "latency_ms": statistics.median(w[busy] / w[3] for w in windows) * 1e3,
        "throughput_kib_s": statistics.median(w[0] / 1024 / w[busy] for w in windows),
        "messages_per_s": statistics.median(w[1] / w[busy] for w in windows),
    }


def end_to_end(result, setup):
    """Every time corrected for host speed (see hostspeed)."""
    run = result["untraced"]
    return dict(
        window_rates(run["windows"]),
        latency_p99_ms=tail_latency(run["latencies"])[1] * 1e3,
        peak_rss_mib=result["peak_rss_mib"],
        setup_s=statistics.median(
            wall * hostspeed.factor(probe) for wall, probe in setup),
    )


def overhead(result):
    """Traced over untraced busy time per byte of work, minus one."""
    untraced = result["untraced"]
    traced = result["traced"]
    return ((traced["busy"] / traced["bytes"])
            / (untraced["busy"] / untraced["bytes"]) - 1.0)


def describe(name, run):
    latencies = run["latencies"]
    line = ("%s: ops=%d failed=%d error_rate=%.6g windows=%d"
            % (name, run["attempted"], run["failed"],
               run["failed"] / run["attempted"], len(run["windows"])))
    if latencies:
        p, tail = tail_latency(latencies)
        line += (" latency samples=%d of %d p%d=%.6g ms"
                 % (len(latencies), run["completed"], p, tail * 1e3))
    for command, times in sorted(run["commands"].items()):
        line += " %s_wall_s=%.6g" % (command, statistics.median(times))
    if run["windows"]:
        raw = window_rates(run["windows"], busy=4)
        line += (" | uncorrected: latency_ms=%.6g throughput_kib_s=%.6g "
                 "messages_per_s=%.6g probe_ms=%.4g (reference %.4g)"
                 % (raw["latency_ms"], raw["throughput_kib_s"], raw["messages_per_s"],
                    statistics.median(w[5] for w in run["windows"]) * 1e3,
                    hostspeed.REFERENCE_S * 1e3))
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "short", "experiments"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "neurohash", "__init__.py")):
        fail("no neurohash package under %s" % SRC)
    if not os.path.isfile(GOLDENS):
        fail("golden vectors missing: %s" % GOLDENS)
    sys.path.insert(0, SRC)
    from neurohash.goldens import verify_vectors
    import workloads

    env = environment()
    print("environment: python=%s nproc=%s cpu=%r git=%s"
          % (env["python"], env["nproc"], env["cpu"], env["git"]))
    print("load: 1 client thread, closed loop; the program's own thread pools "
          "share the %s cores" % env["nproc"])

    total, failures = verify_vectors(GOLDENS)
    if failures:
        fail("golden vectors %s of %d do not reproduce" % (failures, total))
    print("gate: %d golden vectors reproduce" % total)

    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        spec = workloads.prepare(args.workload, args.seed, workdir)
        spec["seconds"] = args.seconds
        spec["trace"] = bool(args.trace)
        if args.trace:
            result = run_worker(spec, workdir, deadline)
        else:
            # half the set-ups before the workload and half after, so the
            # median spans the run; the first one only warms the byte-code cache
            setup = setup_samples(1 + SETUP_RUNS // 2, deadline)[1:]
            result = run_worker(spec, workdir, deadline)
            setup += setup_samples(SETUP_RUNS - len(setup), deadline)
    except subprocess.SubprocessError as exc:
        fail("benchmark process failed: %s" % exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it

    passes = [name for name in ("untraced", "traced", "counted") if name in result]
    for name in passes:
        print(describe(name, result[name]))
        if not result[name]["windows"]:
            print("bench: error: no operation of the %s pass returned" % name,
                  file=sys.stderr)
            return 1
    attempted = sum(result[name]["attempted"] for name in passes)
    failed = sum(result[name]["failed"] for name in passes)
    if args.trace:
        import spans
        units = dict(spans.metric_units(), **{OVERHEAD_METRIC: "ratio"})
        values = dict(result["layers"], **{OVERHEAD_METRIC: overhead(result)})
        print("tracing overhead: %.4g (traced over untraced busy time per "
              "byte hashed, minus one)" % values[OVERHEAD_METRIC])
        print("absent (not found or never called): %s"
              % (", ".join(result["absent"]) or "none"))
    else:
        units = END_TO_END_UNITS
        values = end_to_end(result, setup)
        print("setup: %d fresh interpreters, uncorrected median %.6g s"
              % (len(setup), statistics.median(wall for wall, _ in setup)))
    for name in units:
        print("metric %s = %.6g %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
