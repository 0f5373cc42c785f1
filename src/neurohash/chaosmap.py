"""Piecewise linear chaotic map and modulo-1 arithmetic.

All signal values live in [0, 1] as IEEE-754 binary64. Determinism
contract: round-to-nearest-even, no fused multiply-add, operations
evaluated in the order written here. CPython arithmetic satisfies this
on every mainstream platform, so equal inputs give bit-equal outputs.

The map has four linear branches over [0, q), [q, 0.5), [0.5, 1-q) and
[1-q, 1], controlled by a parameter q in (0, 0.5). One caveat worth
knowing: at q = 0.25 (and only there) both branch divisors are powers
of two, every branch operation is exact, and all binary64 orbits
collapse to the fixed point 0.0 within ~28 iterations.

The map's loop is written twice. map_layer runs it for a network layer:
one call per layer checks q and t once and each neuron's input once,
then runs each neuron's t steps to completion. map_iter is a one-lane
map_layer and map_step is map_iter with t = 1, so every map kernel but
one shares that arithmetic, clamp rule and domain check. The exception
is orbit_sums, the key schedule's walk: it advances both key orbits
side by side in one loop and emits their sum mod 1 at every step, which
a single-orbit kernel cannot do without a list per orbit and a pass to
add them (its docstring has the measurement). The compiled chain
(ckernel, _kernel.c) writes the map once more, in C, as a branch-free
step on two lanes that performs the same operations on the same
operands; these kernels stay its reference.

check_count is the one rule for every count (iteration count t, orbit
length, trials, truncation width, nbits, a from_int value): an int, not
a bool, and no less than the count's minimum. check_index is the one
rule for every key bit, message bit or network input index: the same
type test, then 0 <= index < size, or IndexError.

Where the clamp to [0, 1] can fire. The kernels keep only the clamp
that can change a result, which is why they check their domain, x in
[0, 1] and Q_MIN <= q <= Q_MAX, on entry:
- The lower clamp never fires. Every numerator (x, x - q, top - x,
  1 - x) is >= 0 on its branch and every divisor (q, 0.5 - q) is > 0.
- In [0, 0.5) the upper clamp never fires either. x < q gives x / q
  <= 1, and x - q <= 0.5 - q gives fl(x - q) <= fl(0.5 - q), since
  rounding is monotone, so the quotient is <= 1.
- In [0.5, 1] it can fire. top = fl(1 - q) may round away from 1 - q
  while 0.5 - q rounds on a finer grid, so (top - 0.5) / (0.5 - q) or
  (1 - top) / q can exceed 1 by an ulp.
"""

__all__ = [
    "Q_MIN",
    "Q_MAX",
    "check_count",
    "check_index",
    "map_step",
    "map_iter",
    "map_layer",
    "orbit_sums",
    "mod1",
    "divergence_probe",
]

# Valid control-parameter range: strictly inside (0, 0.5).
Q_MIN = 2.0 ** -20
Q_MAX = 0.5 - 2.0 ** -20


def check_count(value, least: int, what: str) -> int:
    """Validate a count: an int (not a bool) that is at least `least`."""
    if type(value) is not int:
        raise TypeError(
            "%s must be an int, not %s" % (what, type(value).__name__))
    if value < least:
        raise ValueError("%s must be >= %d" % (what, least))
    return value


def check_index(index, size: int, what: str) -> int:
    """Validate an index: an int (not a bool) with 0 <= index < size."""
    if type(index) is not int:
        raise TypeError(
            "%s must be an int, not %s" % (what, type(index).__name__))
    if not 0 <= index < size:
        raise IndexError("%s out of range" % what)
    return index


def map_step(x: float, q: float) -> float:
    """One application of the four-branch map: map_iter(x, q, 1).

    Raises ValueError for x outside [0, 1] or q outside [Q_MIN, Q_MAX].
    """
    return map_iter(x, q, 1)


def map_iter(x: float, q: float, t: int) -> float:
    """The map applied t times: map_layer((x,), q, t)[0].

    Every step performs the same operations in the same order, so
    map_iter(x, q, a + b) == map_iter(map_iter(x, q, a), q, b) holds
    bitwise, and t map_step calls give map_iter(x, q, t). Raises
    ValueError for x outside [0, 1], q outside [Q_MIN, Q_MAX] or t < 0,
    and TypeError unless type(t) is int.
    """
    return map_layer((x,), q, t)[0]


def map_layer(xs, q: float, t: int) -> tuple:
    """The map applied t times to each value of xs under one q.

    Equal to tuple(map_iter(x, q, t) for x in xs), lane for lane: q and
    t are checked once, each x once, and each lane then runs its t
    steps to completion. The loop tests x < 0.5 first and clamps only
    the upper half at 1.0: on the domain checked here the other clamps
    cannot fire (see the module docstring). Raises ValueError for q
    outside [Q_MIN, Q_MAX], t < 0 or any x outside [0, 1], and
    TypeError unless type(t) is int; q and t are checked before any x.
    """
    if not Q_MIN <= q <= Q_MAX:
        raise ValueError("map parameter must be in [Q_MIN, Q_MAX]")
    steps = range(check_count(t, 0, "iteration count"))
    half = 0.5 - q
    top = 1.0 - q
    out = []
    for x in xs:
        if not 0.0 <= x <= 1.0:
            raise ValueError("map input must be in [0, 1]")
        for _ in steps:
            if x < 0.5:
                if x < q:
                    x = x / q
                else:
                    x = (x - q) / half
            else:
                if x < top:
                    x = (top - x) / half
                else:
                    x = (1.0 - x) / q
                if x > 1.0:
                    x = 1.0
        out.append(x)
    return tuple(out)


def orbit_sums(xa: float, qa: float, xb: float, qb: float, t: int,
               count: int) -> list:
    """(A(j) + B(j)) % 1.0 for j = 0 .. count - 1, walking both orbits once.

    A(j) = map_iter(xa, qa, t + j) and B(j) = map_iter(xb, qb, t + j).
    map_iter warms both orbits up t steps (and checks xa, qa, xb, qb
    and t); one loop then advances both by a step and appends their sum
    mod 1. For a sum s in [0, 2], s % 1.0 is the exact fraction
    s - floor(s), 2.0 and 1.0 giving 0.0. Every point is bit-equal to
    restarting map_iter at its depth (the composition law). count must
    be an int >= 1.

    The key schedule's 151 sub-keys run through this walk, which writes
    the map's loop a second time on purpose, both orbits' branches side
    by side in one pass. Measured on 151 points at t = 50 (CPython
    3.11.7, one CPU of a shared 2-vCPU host, CPU time, the minimum of
    600 samples of 20 calls): two single-orbit walks into lists plus a
    pass adding them mod 1 took 48.5 us, this walk 31.4 us. Earlier
    measurements of the single-orbit walk ruled out the other designs:
    stepping with map_iter(x, q, 1) calls took 4-5x as long, and one
    loop shared with map_iter through an "emit after step t" test made
    map_iter(x, q, 50) 23-34% slower.
    """
    check_count(count, 1, "orbit length")
    xa = map_iter(xa, qa, t)
    xb = map_iter(xb, qb, t)
    half_a = 0.5 - qa
    top_a = 1.0 - qa
    half_b = 0.5 - qb
    top_b = 1.0 - qb
    out = [(xa + xb) % 1.0]
    append = out.append
    for _ in range(count - 1):
        if xa < 0.5:
            if xa < qa:
                xa = xa / qa
            else:
                xa = (xa - qa) / half_a
        else:
            if xa < top_a:
                xa = (top_a - xa) / half_a
            else:
                xa = (1.0 - xa) / qa
            if xa > 1.0:
                xa = 1.0
        if xb < 0.5:
            if xb < qb:
                xb = xb / qb
            else:
                xb = (xb - qb) / half_b
        else:
            if xb < top_b:
                xb = (top_b - xb) / half_b
            else:
                xb = (1.0 - xb) / qb
            if xb > 1.0:
                xb = 1.0
        append((xa + xb) % 1.0)
    return out


def mod1(a: float) -> float:
    """Fractional part a - floor(a) for finite a >= 0; result in [0, 1).

    Exact in binary64: subtracting the integer part of a float only
    shifts significance downward, so no rounding occurs.
    """
    return a % 1.0


def divergence_probe(delta: float, q: float, t: int, trials: int, seed: int) -> float:
    """Fraction of random starts whose delta-shifted twin ends > 0.1 away.

    Draws `trials` uniform starting points x, iterates both x and
    mod1(x + delta) for t steps under q, and reports the fraction of
    pairs with |difference| > 0.1. Seeded and reproducible.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must be in [0, 1)")
    check_count(trials, 1, "trials")
    import random   # here: hashing imports this module and needs no random

    rng = random.Random(seed)
    diverged = 0
    for _ in range(trials):
        x = rng.random()
        a = map_iter(x, q, t)
        b = map_iter(mod1(x + delta), q, t)
        if abs(a - b) > 0.1:
            diverged += 1
    return diverged / trials
