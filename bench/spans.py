"""Spans and call counts around neurohash's module boundaries, applied from outside.

Each traced function is replaced, in every neurohash module that holds a
reference to it (for example `hashing.hash_message` is also reached as
`cli.hash_message` and `analysis.hash_message`), by a wrapper that records
one span per call: name, calling module, thread, parent span, start, end
and, where waiting matters, the caller thread's CPU time. Work submitted to
a `ThreadPoolExecutor` inherits the submitting thread's current span as
its parent, so spans on the CLI's neuron pool and the analysis worker pool
attribute to the span that caused them. Spans stay in memory until
`summarize` turns them into per-operation figures.

A function that no longer exists, or that the run never called, is listed
as absent instead of raising, so refactors of the program do not break the
traced run.
"""

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (layer, function, record caller-thread CPU time for waiting)
SPANS = (
    ("cli", "main", False),
    ("analysis", "message_sensitivity_sweep", True),
    ("analysis", "key_sensitivity_sweep", True),
    ("analysis", "birthday_experiment", True),
    ("analysis", "emit_csv", False),
    ("hashing", "hash_message", False),
    ("hashing", "pad", False),
    ("hashing", "chain_step", False),
    ("keyschedule", "expand_key", False),
    ("keyschedule", "subkey_stream", False),
    ("network", "hash_block", False),
    ("network", "input_layer", True),
    ("network", "hidden_layer", True),
    ("network", "output_layer", True),
    ("network", "extract_digest", False),
)
_WAITS = frozenset("%s.%s" % (layer, func) for layer, func, waits in SPANS if waits)
# counted in a pass of their own: they run millions of times per operation
COUNTS = (("chaosmap", "map_iter"), ("chaosmap", "map_step"))

EXPERIMENTS = ("analysis.message_sensitivity_sweep",
               "analysis.key_sensitivity_sweep",
               "analysis.birthday_experiment")


def span_names():
    return ["%s.%s" % (layer, func) for layer, func, _ in SPANS]


def metric_units():
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for layer, func, waits in SPANS:
        name = "%s.%s" % (layer, func)
        units[name + ".calls"] = "count/op"
        units[name + ".self_s"] = "s/op"
        if waits and layer == "network":
            units[name + ".wait_s"] = "s/op"
    units["analysis.hash_message.calls"] = "count/op"
    units["analysis.hash_message.busy_s"] = "s/op"
    units["analysis.pool_wait_s"] = "s/op"
    units["keyschedule.cache_hit_ratio"] = "ratio"
    for layer, func in COUNTS:
        units["%s.%s.calls" % (layer, func)] = "count/op"
    return units


@contextlib.contextmanager
def _patched(targets, make_wrapper):
    """Swap each (layer, function) for make_wrapper(name, original, via).

    `via` names the module whose reference was replaced. Yields the names
    of targets that do not exist; every reference is restored on exit.
    """
    modules = [(name.rpartition(".")[2], module)
               for name, module in list(sys.modules.items())
               if module is not None
               and (name == "neurohash" or name.startswith("neurohash."))]
    swapped = []
    absent = []
    try:
        for layer, func in targets:
            name = "%s.%s" % (layer, func)
            original = getattr(sys.modules.get("neurohash." + layer), func, None)
            if not callable(original):
                absent.append(name)
                continue
            for via, module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, make_wrapper(name, original, via))
                        swapped.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(swapped):
            setattr(module, attr, original)


class Recorder:
    """Collects spans from every thread while `active()` is entered."""

    def __init__(self):
        # (span id, parent id or 0, name, via, thread, start, end, thread CPU or None)
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn, via):
        waits = name in _WAITS
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        perf_counter = time.perf_counter
        thread_time = time.thread_time
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            cpu0 = thread_time() if waits else 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                cpu = thread_time() - cpu0 if waits else None
                stack.pop()
                spans.append((sid, parent, name, via, get_ident(), t0, t1, cpu))

        return wrapper

    @contextlib.contextmanager
    def _propagating(self):
        """Make pool tasks inherit the submitting thread's current span."""
        original = ThreadPoolExecutor.submit
        stack_of = self._stack

        def submit(pool, fn, /, *args, **kwargs):
            stack = stack_of()
            if not stack:
                return original(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def task(*a, **k):
                inner = stack_of()
                inner.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    inner.pop()

            return original(pool, task, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        try:
            yield
        finally:
            ThreadPoolExecutor.submit = original

    @contextlib.contextmanager
    def active(self):
        targets = [(layer, func) for layer, func, _ in SPANS]
        with self._propagating(), _patched(targets, self._wrap) as absent:
            self.absent = absent
            yield self


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Children on other threads may overlap one another, so their union is
    subtracted, not their sum.
    """
    children = defaultdict(list)
    for sid, parent, _, _, _, t0, t1, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _, _, _, _, t0, t1, _ in spans}


def summarize(recorder, ops):
    """Per-operation figures from a traced pass of `ops` operations."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wait_s = defaultdict(float)
    busy = 0.0
    busy_calls = 0
    own = self_times(recorder.spans)
    for sid, _, name, via, _, t0, t1, cpu in recorder.spans:
        calls[name] += 1
        self_s[name] += own[sid]
        if cpu is not None:
            wait_s[name] += (t1 - t0) - cpu
        if name == "hashing.hash_message" and via == "analysis":
            busy += t1 - t0
            busy_calls += 1
    units = metric_units()
    metrics = {}
    for name in span_names():
        metrics[name + ".calls"] = calls[name] / ops
        metrics[name + ".self_s"] = self_s[name] / ops
        if name + ".wait_s" in units:
            metrics[name + ".wait_s"] = wait_s[name] / ops
    metrics["analysis.hash_message.calls"] = busy_calls / ops
    metrics["analysis.hash_message.busy_s"] = busy / ops
    metrics["analysis.pool_wait_s"] = sum(wait_s[name] for name in EXPERIMENTS) / ops
    lookups = calls["keyschedule.expand_key"]
    metrics["keyschedule.cache_hit_ratio"] = (
        1.0 - calls["keyschedule.subkey_stream"] / lookups if lookups else 0.0)
    absent = sorted(set(recorder.absent)
                    | {name for name in span_names() if not calls[name]})
    return metrics, absent


@contextlib.contextmanager
def counting():
    """Count calls of the COUNTS functions into the yielded dict, filled on exit.

    `itertools.count` advances atomically under the interpreter lock, so
    calls from the neuron and sweep pools are not lost.
    """
    counters = defaultdict(list)
    totals = {}

    def wrap(name, fn, via):
        counter = itertools.count()
        counters[name].append(counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    with _patched(COUNTS, wrap):
        try:
            yield totals
        finally:
            # next() returns the number of steps taken before it
            for layer, func in COUNTS:
                name = "%s.%s" % (layer, func)
                totals[name] = sum(next(c) for c in counters[name])
