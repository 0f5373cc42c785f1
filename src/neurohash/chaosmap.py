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

import math
import random

__all__ = [
    "Q_MIN",
    "Q_MAX",
    "map_step",
    "map_iter",
    "map_orbit",
    "mod1",
    "divergence_probe",
]

# Valid control-parameter range: strictly inside (0, 0.5).
Q_MIN = 2.0 ** -20
Q_MAX = 0.5 - 2.0 ** -20


def map_step(x: float, q: float) -> float:
    """One application of the four-branch map: map_iter(x, q, 1).

    Raises ValueError for x outside [0, 1] or q outside [Q_MIN, Q_MAX].
    """
    return map_iter(x, q, 1)


def map_iter(x: float, q: float, t: int) -> float:
    """The map applied t times; map_step is this loop with t = 1.

    Every step performs the same operations in the same order, so
    map_iter(x, q, a + b) == map_iter(map_iter(x, q, a), q, b) holds
    bitwise, and t map_step calls give map_iter(x, q, t). The loop tests
    x < 0.5 first and clamps only the upper half at 1.0: on the domain
    checked here the other clamps cannot fire (see the module
    docstring). Raises ValueError for x outside [0, 1], q outside
    [Q_MIN, Q_MAX] or t < 0, and TypeError unless type(t) is int.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("map input must be in [0, 1]")
    if not Q_MIN <= q <= Q_MAX:
        raise ValueError("map parameter must be in [Q_MIN, Q_MAX]")
    if type(t) is not int:
        raise TypeError(
            "iteration count must be an int, not %s" % type(t).__name__)
    if t < 0:
        raise ValueError("iteration count must be >= 0")
    half = 0.5 - q
    top = 1.0 - q
    for _ in range(t):
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
    return x


def map_orbit(x: float, q: float, t: int, count: int) -> list:
    """Orbit points map_iter(x, q, t + j) for j = 0 .. count - 1.

    One pass along the orbit with the same loop as map_iter, so every
    point is bit-equal to restarting map_iter at its depth. Same domain
    checks as map_iter, and count must be >= 1.

    The loop is a second copy of map_iter's on purpose; both alternatives
    were measured (CPython 3.11, 2-vCPU host). One shared loop with an
    "emit after step t" test made map_iter(x, q, 50) 23-34% slower
    (4.28 -> 5.25-5.75 us), and building the 151-point key orbit from
    map_iter(x, q, 1) calls took 4-5x as long (25-27 -> 113-121 us).
    """
    if count < 1:
        raise ValueError("orbit length must be >= 1")
    x = map_iter(x, q, t)
    half = 0.5 - q
    top = 1.0 - q
    out = [x]
    append = out.append
    for _ in range(count - 1):
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
        append(x)
    return out


def mod1(a: float) -> float:
    """Fractional part a - floor(a) for finite a >= 0; result in [0, 1).

    Exact in binary64: subtracting the integer part of a float only
    shifts significance downward, so no rounding occurs.
    """
    return a - math.floor(a)


def divergence_probe(delta: float, q: float, t: int, trials: int, seed: int) -> float:
    """Fraction of random starts whose delta-shifted twin ends > 0.1 away.

    Draws `trials` uniform starting points x, iterates both x and
    mod1(x + delta) for t steps under q, and reports the fraction of
    pairs with |difference| > 0.1. Seeded and reproducible.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must be in [0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    diverged = 0
    for _ in range(trials):
        x = rng.random()
        a = map_iter(x, q, t)
        b = map_iter(mod1(x + delta), q, t)
        if abs(a - b) > 0.1:
            diverged += 1
    return diverged / trials
