"""The three benchmark workloads: seeded inputs, reference outputs, timed loop.

Every input is a pure function of (workload, seed). References are
computed once per seed, before timing, on the sequential library path
(`parallel=False`, one sweep worker); the timed operations go through
the public entry points `neurohash.cli.main(argv)` and
`neurohash.hashing.hash_message` with their default flags.

Workloads (t = 50 throughout):

* bulk -- `neurohash hash FILE` on random 1 MiB files. The quadratic
  padding, the per-block re-keying (every chained block misses the key
  cache) and the CLI's default neuron thread pool dominate.
* short -- `hash_message` on 0-300 byte messages (the golden-vector size
  range, 1-3 blocks) under a pool of 4 keys. Per-call overhead and the
  key-cache hit on every first block dominate; padding is negligible.
* experiments -- one `sensitivity` run on the sample sentence plus one
  `birthday --width 16 --trials 1000` run per operation: thousands of
  independent 2-block hashes behind the analysis thread pools.
"""

import array
import contextlib
import io
import os
import random
import time
import traceback

import hostspeed
from neurohash import cli, hashing
from neurohash.analysis import (
    birthday_experiment,
    emit_csv,
    key_sensitivity_sweep,
    message_sensitivity_sweep,
)
from neurohash.goldens import SAMPLE_SENTENCE

WORKLOADS = ("bulk", "short", "experiments")

T = 50
KEY_BYTES = 16
BULK_BYTES = 1 << 20
BULK_FILES = 2
# Enough distinct messages that one pass over the pool leaves thousands of
# running keys between two uses of the same message: far more than the
# program's 256-entry key cache, so cycling the pool adds no cache hits.
SHORT_MESSAGES = 4096
SHORT_KEYS = 4
SHORT_MAX_BYTES = 300
EXPERIMENT_KEYS = 4
BIRTHDAY_WIDTH = 16
BIRTHDAY_TRIALS = 1000
BIRTHDAY_MESSAGE_BYTES = 128  # one 1024-bit message per trial

LATENCY_SAMPLES = 10000  # leaves 100 samples beyond the 99th percentile
WINDOW_S = 1.0


def generate(workload, seed, bulk_bytes=BULK_BYTES):
    """Raw inputs of one workload; the same (workload, seed) gives the same inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "bulk":
        return [(rng.randbytes(KEY_BYTES), rng.randbytes(bulk_bytes))
                for _ in range(BULK_FILES)]
    if workload == "short":
        keys = [rng.randbytes(KEY_BYTES) for _ in range(SHORT_KEYS)]
        return [(rng.choice(keys), rng.randbytes(rng.randrange(SHORT_MAX_BYTES + 1)))
                for _ in range(SHORT_MESSAGES)]
    if workload == "experiments":
        return [(rng.randbytes(KEY_BYTES), rng.randrange(1 << 32))
                for _ in range(EXPERIMENT_KEYS)]
    raise ValueError("unknown workload %r" % workload)


def _csv_text(report) -> str:
    buffer = io.StringIO()
    emit_csv(report, buffer)
    return buffer.getvalue()


def prepare(workload, seed, workdir, bulk_bytes=BULK_BYTES):
    """Write the input files and return the operations with their references.

    The result is JSON-serialisable. A library operation carries key, data
    and expected digest; a CLI operation carries one or more commands, each
    with its argv and the exact text every output file must hold.
    """
    os.makedirs(workdir, exist_ok=True)
    ops = []
    if workload == "bulk":
        for i, (key, data) in enumerate(generate(workload, seed, bulk_bytes)):
            path = os.path.join(workdir, "bulk-%d.bin" % i)
            out = os.path.join(workdir, "bulk-%d.digest" % i)
            with open(path, "wb") as handle:
                handle.write(data)
            digest = hashing.hash_message(hashing.Message(data), key, T)
            ops.append({
                "commands": [{
                    "name": "hash",
                    "argv": ["hash", path, "--key-hex", key.hex(), "--out", out],
                    "expect": {out: hashing.format_digest(digest) + "\n"},
                }],
                "bytes": len(data),
                "messages": 1,
            })
    elif workload == "short":
        for key, data in generate(workload, seed):
            ops.append({
                "key": key.hex(),
                "data": data.hex(),
                "expect": list(hashing.hash_message(hashing.Message(data), key, T)),
                "bytes": len(data),
                "messages": 1,
            })
    elif workload == "experiments":
        sentence = SAMPLE_SENTENCE.encode("ascii")
        path = os.path.join(workdir, "sentence.txt")
        with open(path, "wb") as handle:
            handle.write(sentence)
        message = hashing.Message(sentence)
        # nominal hash_message calls: each sweep's baseline plus one per flip
        sweep_messages = (1 + min(1024, message.nbits)) + (1 + 8 * KEY_BYTES)
        for i, (key, birthday_seed) in enumerate(generate(workload, seed)):
            out_dir = os.path.join(workdir, "sensitivity-%d" % i)
            out_csv = os.path.join(workdir, "birthday-%d.csv" % i)
            ops.append({
                "commands": [{
                    "name": "sensitivity",
                    "argv": ["sensitivity", path, "--key-hex", key.hex(),
                             "--out", out_dir],
                    "expect": {
                        os.path.join(out_dir, "message_sensitivity.csv"):
                            _csv_text(message_sensitivity_sweep(message, key, T)),
                        os.path.join(out_dir, "key_sensitivity.csv"):
                            _csv_text(key_sensitivity_sweep(message, key, T)),
                    },
                }, {
                    "name": "birthday",
                    "argv": ["birthday", "--key-hex", key.hex(),
                             "--width", str(BIRTHDAY_WIDTH),
                             "--trials", str(BIRTHDAY_TRIALS),
                             "--seed", str(birthday_seed), "--out", out_csv],
                    "expect": {out_csv: _csv_text(birthday_experiment(
                        BIRTHDAY_WIDTH, BIRTHDAY_TRIALS, key, T, birthday_seed))},
                }],
                "bytes": (sweep_messages * len(sentence)
                          + BIRTHDAY_TRIALS * BIRTHDAY_MESSAGE_BYTES),
                "messages": sweep_messages + BIRTHDAY_TRIALS,
            })
    else:
        raise ValueError("unknown workload %r" % workload)
    return {"workload": workload, "seed": seed, "ops": ops}


def _library_op(op):
    key = bytes.fromhex(op["key"])
    data = bytes.fromhex(op["data"])
    expect = tuple(op["expect"])

    def run():
        # timed: one library call, Message construction included
        t0 = time.perf_counter()
        digest = hashing.hash_message(hashing.Message(data), key, T)
        elapsed = time.perf_counter() - t0
        return digest == expect, {"hash_message": elapsed}

    return run


def _cli_op(op):
    commands = op["commands"]

    def run():
        ok = True
        times = {}
        for command in commands:
            for path in command["expect"]:
                if os.path.exists(path):
                    os.remove(path)  # a stale file must not pass the check
            # timed: one in-process CLI invocation, the attribute looked up
            # at call time so that a traced run sees the wrapped entry point
            t0 = time.perf_counter()
            status = cli.main(command["argv"])
            times[command["name"]] = time.perf_counter() - t0
            ok = ok and status == 0
            for path, text in command["expect"].items():
                try:
                    with open(path, newline="") as handle:
                        ok = ok and handle.read() == text
                except OSError:
                    ok = False
        return ok, times

    return run


def operations(spec):
    """Callables for the timed loop, one per prepared operation.

    Each returns (output correct, {command name: seconds}).
    """
    build = _library_op if spec["workload"] == "short" else _cli_op
    return [build(op) for op in spec["ops"]]


def _another(attempted, start, seconds, max_ops):
    if attempted == 0:
        return True
    if max_ops is not None:
        return attempted < max_ops
    elapsed = time.perf_counter() - start
    return elapsed * (attempted + 1) / attempted <= seconds


def closed_loop(spec, runs, seconds, max_ops=None):
    """One client, one operation at a time, cycling the prepared operations.

    Starts another operation while, at the mean pace so far, it would end
    within `seconds` (at least one operation), or runs exactly `max_ops`
    operations when given. Only the program's work is timed: deleting
    stale outputs and comparing against the references are not.

    Consecutive operations are summed into windows of at least WINDOW_S
    busy seconds, so that rates and latency can be taken as medians over
    windows: a host that changes speed for part of the run then moves them
    only if it does so for more than half the windows. The host-speed
    probe runs before the first window and after each one, and every time
    of a window is corrected by the probes on either side (see hostspeed).
    Memory stays flat however many operations run, so the worker's peak
    RSS does not grow with the program's speed: latencies are kept as a
    uniform reservoir sample of LATENCY_SAMPLES, for the tail.
    """
    ops = spec["ops"]
    attempted = 0
    failed = 0
    completed = 0  # operations that returned, failed checks included
    sample = array.array("d", [0.0]) * LATENCY_SAMPLES
    sample_window = array.array("l", [0]) * LATENCY_SAMPLES
    pick = random.Random(0).randrange
    commands = {}  # per-command wall times, only for multi-command operations
    # (bytes, messages, corrected busy s, operations, wall busy s, probe s)
    windows = []
    factors = []  # host correction of each window, the last partial one included
    window = [0, 0, 0.0, 0]
    probe = hostspeed.probe_seconds()

    def close_window():
        nonlocal probe
        after = hostspeed.probe_seconds()
        factors.append(hostspeed.factor(probe, after))
        bytes_, messages, busy, count = window
        windows.append((bytes_, messages, busy * factors[-1], count, busy,
                        (probe + after) / 2))
        probe = after
        window[:] = [0, 0, 0.0, 0]

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        while _another(attempted, start, seconds, max_ops):
            i = attempted % len(ops)
            attempted += 1
            try:
                ok, times = runs[i]()
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if not ok:
                failed += 1
            latency = sum(times.values())
            slot = completed if completed < LATENCY_SAMPLES else pick(completed + 1)
            if slot < LATENCY_SAMPLES:
                sample[slot] = latency
                sample_window[slot] = len(windows)
            completed += 1
            if len(times) > 1:
                for name, elapsed in times.items():
                    commands.setdefault(name, []).append(elapsed)
            window[0] += ops[i]["bytes"]
            window[1] += ops[i]["messages"]
            window[2] += latency
            window[3] += 1
            if window[2] >= WINDOW_S:
                close_window()
            captured.seek(0)
            captured.truncate()  # the CLI's report lines are not kept
    if window[3]:
        # the trailing partial window counts only when it is the whole run,
        # but its operations may be in the latency sample, so it gets a factor
        whole_run = not windows
        close_window()
        if not whole_run:
            windows.pop()
    kept = min(completed, LATENCY_SAMPLES)
    return {
        "attempted": attempted,
        "failed": failed,
        "completed": completed,
        "latencies": [sample[k] * factors[sample_window[k]] for k in range(kept)],
        "commands": commands,
        "windows": windows,
        "busy": sum(w[2] for w in windows),
        "bytes": sum(w[0] for w in windows),
    }
