"""Instrumented single-block hash that tallies arithmetic operations.

Mirrors the production pipeline (key schedule plus the three layers)
with a tracked value type: every multiplication/division and
addition/subtraction is counted, per pipeline stage, and each value
carries the operation counts of its deepest dependency chain. The
critical path reported is the deepest chain reaching any digest word,
which models all neurons of a layer and both key-generator orbits
running concurrently. Comparisons (branch selection, clamping) and
floor are not arithmetic and are not counted.

The tracked values perform the identical binary64 operations as the
production code; the instrumented digest is checked against hash_block
on every run so the accounting cannot drift.
"""

import math
import struct
from dataclasses import dataclass

from .chaosmap import Q_MAX, Q_MIN
from .keyschedule import SUBKEY_COUNT, check_key, clamp_seed, expand_key
from .network import check_block, hash_block

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


class _Tally:
    __slots__ = ("mul", "div", "add", "sub")

    def __init__(self):
        self.mul = self.div = self.add = self.sub = 0

    def snapshot(self) -> StageOps:
        return StageOps(self.mul, self.div, self.add, self.sub)


class _V:
    """A float plus the (mul/div, add/sub) counts of its deepest path."""

    __slots__ = ("x", "m", "a")

    def __init__(self, x, m=0, a=0):
        self.x = x
        self.m = m
        self.a = a


def _deepest(u: _V, v: _V):
    # deepest dependency chain: max total ops, ties toward mul/div
    if (u.m + u.a, u.m) >= (v.m + v.a, v.m):
        return u.m, u.a
    return v.m, v.a


class _Ops:
    """Arithmetic on tracked values, charged to the current stage."""

    def __init__(self):
        self.tally = _Tally()
        self.stages = {}

    def stage(self, name: str):
        self.tally = self.stages.setdefault(name, _Tally())

    def mul(self, u: _V, v: _V) -> _V:
        self.tally.mul += 1
        m, a = _deepest(u, v)
        return _V(u.x * v.x, m + 1, a)

    def div(self, u: _V, v: _V) -> _V:
        self.tally.div += 1
        m, a = _deepest(u, v)
        return _V(u.x / v.x, m + 1, a)

    def add(self, u: _V, v: _V) -> _V:
        self.tally.add += 1
        m, a = _deepest(u, v)
        return _V(u.x + v.x, m, a + 1)

    def sub(self, u: _V, v: _V) -> _V:
        self.tally.sub += 1
        m, a = _deepest(u, v)
        return _V(u.x - v.x, m, a + 1)


_ONE = _V(1.0)
_HALF = _V(0.5)
_TWO = _V(2.0)
_SCALE = _V(4294967296.0)


def _map_step(ops, x: _V, q: _V) -> _V:
    if x.x < q.x:
        y = ops.div(x, q)
    elif x.x < 0.5:
        y = ops.div(ops.sub(x, q), ops.sub(_HALF, q))
    elif x.x < 1.0 - q.x:
        y = ops.div(ops.sub(ops.sub(_ONE, q), x), ops.sub(_HALF, q))
    else:
        y = ops.div(ops.sub(_ONE, x), q)
    if y.x < 0.0:
        y.x = 0.0
    elif y.x > 1.0:
        y.x = 1.0
    return y


def _map_iter(ops, x: _V, q: _V, t: int) -> _V:
    for _ in range(t):
        x = _map_step(ops, x, q)
    return x


def _mod1(ops, a: _V) -> _V:
    return ops.sub(a, _V(float(math.floor(a.x)), a.m, a.a))


def _quantize(ops, word: int) -> _V:
    return ops.div(_V(float(word)), _SCALE)


def _clamp_seed(x: _V) -> _V:
    x.x = clamp_seed(x.x)
    return x


def _derive_param(ops, u: _V) -> _V:
    q = ops.div(u, _TWO)
    if q.x < Q_MIN:
        q.x = Q_MIN
    elif q.x > Q_MAX:
        q.x = Q_MAX
    return q


def _neuron(ops, inputs, weights, bias: _V, q: _V, t: int) -> _V:
    # n-term weighted sum: n multiplications, n-1 accumulations, 1 bias add
    s = ops.mul(weights[0], inputs[0])
    for w, p in zip(weights[1:], inputs[1:]):
        s = ops.add(s, ops.mul(w, p))
    s = ops.add(s, bias)
    return _map_iter(ops, _mod1(ops, s), q, t)


def count_operations(t: int, key: bytes = DEFAULT_COUNT_KEY,
                     block=DEFAULT_COUNT_BLOCK) -> OpCountReport:
    """Run one fully instrumented block hash and report the tallies.

    t = 0 is accepted so the layer weight-matrix counts can be checked
    in isolation; production callers pass the same t they hash with.
    """
    if t < 0:
        raise ValueError("iteration count must be >= 0")
    key = check_key(key)
    block = check_block(block)
    ops = _Ops()

    # key schedule: two orbits advanced once, then stepped per sub-key
    ops.stage("key_schedule")
    k0, k1, k2, k3 = struct.unpack(">4I", key)
    qa = _derive_param(ops, _quantize(ops, k1))
    qb = _derive_param(ops, _quantize(ops, k3))
    x0 = _map_iter(ops, _clamp_seed(_quantize(ops, k0)), qa, t)
    x1 = _map_iter(ops, _clamp_seed(_quantize(ops, k2)), qb, t)
    stream = [_mod1(ops, ops.add(x0, x1))]
    for _ in range(SUBKEY_COUNT - 1):
        x0 = _map_step(ops, x0, qa)
        x1 = _map_step(ops, x1, qb)
        stream.append(_mod1(ops, ops.add(x0, x1)))
    w0 = stream[0:32]
    b0 = stream[32:40]
    q0 = _derive_param(ops, stream[40])
    w1 = [stream[41 + 8 * j:49 + 8 * j] for j in range(8)]
    b1 = stream[105:113]
    q1 = _derive_param(ops, stream[113])
    w2 = [stream[114 + 8 * j:122 + 8 * j] for j in range(4)]
    b2 = stream[146:150]
    q2 = _derive_param(ops, stream[150])

    ops.stage("block_quantize")
    p = [_quantize(ops, w) for w in block]

    ops.stage("input_layer")
    c = [_neuron(ops, p[4 * j:4 * j + 4], w0[4 * j:4 * j + 4], b0[j], q0, t)
         for j in range(8)]

    ops.stage("hidden_layer")
    d = [_neuron(ops, c, w1[j], b1[j], q1, 1) for j in range(8)]

    ops.stage("output_layer")
    h = [_neuron(ops, d, w2[j], b2[j], q2, t) for j in range(4)]

    ops.stage("digest_extract")
    scaled = [ops.mul(x, _SCALE) for x in h]
    digest = tuple(min(int(s.x), 0xFFFFFFFF) for s in scaled)

    if t >= 1 and digest != hash_block(block, expand_key(key, t), t):
        raise RuntimeError("instrumented pipeline diverged from hash_block")

    stages = {name: tally.snapshot() for name, tally in ops.stages.items()}
    total_m = sum(s.mul_div for s in stages.values())
    total_a = sum(s.add_sub for s in stages.values())
    deep_m, deep_a = max(((s.m, s.a) for s in scaled),
                         key=lambda ma: (ma[0] + ma[1], ma[0]))
    return OpCountReport(
        mul_div=total_m,
        add_sub=total_a,
        critical_path_mul_div=deep_m,
        critical_path_add_sub=deep_a,
        stages=stages,
    )
