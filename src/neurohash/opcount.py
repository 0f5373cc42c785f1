"""Arithmetic operation counts for one block hash, taken from the hash.

count_operations runs the production stage functions on tracked floats,
which hold the identical binary64 values plus the (mul/div, add/sub)
counts of their deepest dependency chain. Every multiplication/division
and addition/subtraction whose result is used is counted once, in the
pipeline stage that computed it; comparisons are free, mod 1 is one
subtraction. Each key orbit and each neuron walks its own map_step
calls. A chain depends only on the data flow, not on the order the
steps run in, so the critical path reported, the deepest chain reaching
any digest word, models all neurons of a layer and both key-generator
orbits running concurrently. The instrumented digest is checked against
hash_block on every run so the accounting cannot drift. The key is read
through keyschedule.orbit_starts, on tracked key words.
"""

import struct
from dataclasses import dataclass

from .chaosmap import check_count, map_step, mod1
from .keyschedule import SUBKEY_COUNT, assign_subkeys
from .keyschedule import check_key, expand_key, orbit_starts, quantize_word
from .network import _dense_preactivation, _input_preactivation, check_block
from .network import extract_digest, hash_block

__all__ = [
    "StageOps",
    "OpCountReport",
    "count_operations",
    "DEFAULT_COUNT_KEY",
    "DEFAULT_COUNT_BLOCK",
]

# Fixed instrumentation inputs: a recognizable test-pattern key/block.
DEFAULT_COUNT_KEY = bytes(range(16))
DEFAULT_COUNT_BLOCK = tuple(range(32))


@dataclass(frozen=True)
class StageOps:
    mul: int = 0
    div: int = 0
    add: int = 0
    sub: int = 0

    @property
    def mul_div(self) -> int:
        return self.mul + self.div

    @property
    def add_sub(self) -> int:
        return self.add + self.sub


@dataclass(frozen=True)
class OpCountReport:
    """Operation totals and critical-path counts for one block hash."""

    mul_div: int
    add_sub: int
    critical_path_mul_div: int
    critical_path_add_sub: int
    stages: dict  # stage name -> StageOps


class _Tracked(float):
    """A float plus the (mul/div, add/sub) counts of its deepest chain.

    `op`, the operation that computed the value, is charged to `tally`,
    the stage that computed it, when the value is first used: a result
    that is only compared (map_step's 1 - q in a branch test) is free.
    """

    __slots__ = ("run", "m", "a", "tally", "op")

    def __new__(cls, x, run, m=0, a=0, op=None):
        self = float.__new__(cls, x)
        self.run = run
        self.m = m
        self.a = a
        self.tally = run.tally
        self.op = op
        return self

    def use(self):
        if self.op is not None:
            self.tally[self.op] += 1
            self.op = None
        return self

    def joined(self, op: str, x: float, other):
        """x = self op other: use both operands, extend the deeper chain."""
        self.use()
        m, a = self.m, self.a
        if isinstance(other, _Tracked):
            other.use()
            if (other.m + other.a, other.m) > (m + a, m):  # ties to mul/div
                m, a = other.m, other.a
        if op in ("mul", "div"):
            return _Tracked(x, self.run, m + 1, a, op)
        return _Tracked(x, self.run, m, a + 1, op)

    # the stage functions put a plain float on the left only to subtract
    def __add__(self, other):
        return self.joined("add", float.__add__(self, other), other)

    def __sub__(self, other):
        return self.joined("sub", float.__sub__(self, other), other)

    def __rsub__(self, other):
        return self.joined("sub", float.__rsub__(self, other), other)

    def __mul__(self, other):
        return self.joined("mul", float.__mul__(self, other), other)

    def __truediv__(self, other):
        return self.joined("div", float.__truediv__(self, other), other)

    # the stage functions test with < and > only
    def __lt__(self, other):
        return self.run.tested(self, float.__lt__(self, other))

    def __gt__(self, other):
        return self.run.tested(self, float.__gt__(self, other))

    # s % 1.0 is charged as the s - floor(s) it equals: one subtraction
    def __mod__(self, other):
        return self.joined("sub", float.__mod__(self, other), other)

    def __int__(self):
        # only extract_digest converts to int, the scaled digest words
        self.run.outputs.append(self.use())
        return float.__int__(self)


class _Run:
    """The per-stage tallies of one instrumented block hash."""

    def __init__(self):
        self.stages = {}
        self.tally = None
        self.passed = []    # tracked values that tested true, latest last
        self.outputs = []   # the scaled digest words

    def stage(self, name: str):
        self.tally = self.stages.setdefault(
            name, {"mul": 0, "div": 0, "add": 0, "sub": 0})

    def tested(self, x: _Tracked, hit: bool) -> bool:
        if hit:
            self.passed.append(x)
        return hit

    def kept(self, *values) -> list:
        """`values`, with each plain float a clamp returned tracked again.

        A clamp tests a tracked value, finds it past a bound and returns
        the bound as a plain float. The last values to test true are the
        ones the clamps replaced, in order; each bound takes over one's
        chain, stage and uncharged operation.
        """
        passed, self.passed = self.passed, []
        out = []
        for v in reversed(values):
            if not isinstance(v, _Tracked):
                r = passed.pop()
                v = _Tracked(v, self, r.m, r.a, r.op)
                v.tally = r.tally
                r.op = None
            out.append(v)
        return out[::-1]

    def step(self, x: _Tracked, q: _Tracked) -> _Tracked:
        y, = self.kept(map_step(x, q))
        return y

    def orbit(self, x: _Tracked, q: _Tracked, n: int) -> list:
        # x and the n points after it; the kernels work 0.5 - q and
        # 1 - q out once, the model charges them on every step
        points = [x]
        for _ in range(n):
            points.append(self.step(points[-1], q))
        return points


def count_operations(t: int, key: bytes = DEFAULT_COUNT_KEY,
                     block=DEFAULT_COUNT_BLOCK) -> OpCountReport:
    """Run one fully instrumented block hash and report the tallies.

    t = 0 is accepted so the layer weight-matrix counts can be checked
    in isolation; production callers pass the same t they hash with.
    """
    check_count(t, 0, "iteration count")
    key = check_key(key)
    block = check_block(block)
    run = _Run()

    run.stage("key_schedule")
    xa, qa, xb, qb = run.kept(*orbit_starts(
        _Tracked(k, run) for k in struct.unpack(">4I", key)))
    n = t + SUBKEY_COUNT - 1
    stream = [mod1(a + b) for a, b in
              zip(run.orbit(xa, qa, n)[t:], run.orbit(xb, qb, n)[t:])]
    keys = assign_subkeys(stream)
    # charged now: at t = 0 the map never uses q0 or q2
    q0, q1, q2 = (q.use() for q in run.kept(keys.q0, keys.q1, keys.q2))

    run.stage("block_quantize")
    p = [quantize_word(_Tracked(w, run)) for w in block]

    run.stage("input_layer")
    pre = _input_preactivation(p, keys.w0, keys.b0)
    c = [run.orbit(x, q0, t)[-1] for x in pre]

    run.stage("hidden_layer")
    pre = _dense_preactivation(c, keys.w1, keys.b1)
    d = [run.orbit(x, q1, 1)[-1] for x in pre]

    run.stage("output_layer")
    pre = _dense_preactivation(d, keys.w2, keys.b2)
    h = [run.orbit(x, q2, t)[-1] for x in pre]

    run.stage("digest_extract")
    digest = extract_digest(h)

    if t >= 1 and digest != hash_block(block, expand_key(key, t), t):
        raise RuntimeError("instrumented pipeline diverged from hash_block")

    stages = {name: StageOps(**tally) for name, tally in run.stages.items()}
    deep = max(run.outputs, key=lambda s: (s.m + s.a, s.m))
    return OpCountReport(
        mul_div=sum(s.mul_div for s in stages.values()),
        add_sub=sum(s.add_sub for s in stages.values()),
        critical_path_mul_div=deep.m,
        critical_path_add_sub=deep.a,
        stages=stages,
    )
