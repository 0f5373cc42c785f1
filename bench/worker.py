"""Runs one workload's timed passes in a process of its own.

Usage: python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the prepared operations (see workloads.prepare), the run
length and whether to trace. The process imports neurohash, runs the
passes and writes RESULT; its peak RSS is the workload's alone, since
inputs and references were made by the parent process.

Untraced: one closed-loop pass of the full run length.
Traced: a counting pass of a fixed number of operations, for the
chaotic-map call counts, then an untraced pass and a traced pass of half
the run length each over the same operations.
"""

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

# operations in the counting pass: every short message once (so the four
# cold first-block keys weigh little), one file or one experiment round
COUNT_OPS = {"bulk": 1, "short": workloads.SHORT_MESSAGES, "experiments": 1}


def run(spec):
    runs = workloads.operations(spec)
    seconds = spec["seconds"]
    if not spec["trace"]:
        result = workloads.closed_loop(spec, runs, seconds)
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"untraced": result, "peak_rss_mib": peak}
    # counting first, from a cold key cache, so the counts repeat exactly
    with spans.counting() as counts:
        counted = workloads.closed_loop(spec, runs, 0, max_ops=COUNT_OPS[spec["workload"]])
    untraced = workloads.closed_loop(spec, runs, seconds / 2)
    recorder = spans.Recorder()
    with recorder.active():
        traced = workloads.closed_loop(spec, runs, seconds / 2)
    layer_metrics, absent = spans.summarize(recorder, traced["attempted"])
    for name, total in counts.items():
        layer_metrics[name + ".calls"] = total / counted["attempted"]
    return {
        "untraced": untraced,
        "traced": traced,
        "counted": counted,
        "layers": layer_metrics,
        "absent": absent,
    }


def main(argv):
    spec_path, result_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
