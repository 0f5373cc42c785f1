import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurohash.chaosmap import (
    Q_MAX,
    Q_MIN,
    divergence_probe,
    map_iter,
    map_orbit,
    map_step,
    mod1,
)
from oracles import decorrelated_band, pwlcm_many, pwlcm_once

SEED = 20210


def test_branch_values():
    # real-arithmetic branch values; binary64 rounds within 1e-12
    assert map_step(0.1, 0.25) == pytest.approx(0.4, abs=1e-12)
    assert map_step(0.4, 0.25) == pytest.approx(0.6, abs=1e-12)
    assert map_step(0.7, 0.25) == pytest.approx(0.2, abs=1e-12)
    assert map_step(0.9, 0.25) == pytest.approx(0.4, abs=1e-12)


def test_branch_endpoints():
    assert map_step(0.25, 0.25) == 0.0     # branch-2 left endpoint
    assert map_step(0.5, 0.25) == 1.0      # branch-3 left endpoint
    assert map_step(0.75, 0.25) == 1.0     # branch-4 left endpoint
    assert map_step(1.0, 0.25) == 0.0
    assert map_step(0.0, 0.25) == 0.0


def test_map_iter_examples():
    assert map_iter(0.1, 0.25, 0) == 0.1
    assert map_iter(0.1, 0.25, 2) == pytest.approx(0.6, abs=1e-12)
    assert map_iter(0.1, 0.25, 1) == map_step(0.1, 0.25)
    with pytest.raises(ValueError):
        map_iter(0.1, 0.25, -1)


def test_map_iter_composition_bitwise():
    rng = random.Random(SEED)
    for _ in range(200):
        x = rng.random()
        q = rng.uniform(Q_MIN, Q_MAX)
        a = rng.randrange(0, 60)
        b = rng.randrange(0, 60)
        whole = map_iter(x, q, a + b)
        split = map_iter(map_iter(x, q, a), q, b)
        assert whole == split


# The upper clamp fires where fl(1 - q) rounds: at q = 0.2 for x = 0.5,
# since (top - 0.5) / (0.5 - q) > 1, and at q = 0.3 for x = fl(1 - q),
# since (1 - top) / q > 1. Q_MIN, Q_MAX and 0.25 round nowhere, and a
# uniform q rounds generically (the clamp fires at 0.5 or at fl(1 - q)
# for about half of them).
CLAMP_AT_HALF = 0.2
CLAMP_AT_TOP = 0.3
PARAMS = st.one_of(
    st.sampled_from([Q_MIN, Q_MAX, 0.25, CLAMP_AT_HALF, CLAMP_AT_TOP]),
    st.randoms(use_true_random=False).map(lambda r: r.uniform(Q_MIN, Q_MAX)),
    st.floats(Q_MIN, Q_MAX),
)


@st.composite
def map_inputs(draw):
    """(x, q) with x near the branch boundaries and clamp-prone points.

    The anchors are 0, 1, q, 0.5 and fl(1 - q), each also moved one ulp
    either way; a uniform x covers the branch interiors.
    """
    q = draw(PARAMS)
    anchor = draw(st.sampled_from(["0", "1", "q", "0.5", "top", "uniform"]))
    x = {"0": 0.0, "1": 1.0, "q": q, "0.5": 0.5, "top": 1.0 - q,
         "uniform": draw(st.floats(0.0, 1.0))}[anchor]
    x = math.nextafter(x, draw(st.sampled_from([0.0, x, 1.0])))
    return x, q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(xq=map_inputs(), t=st.integers(0, 40))
@example(xq=(0.5, CLAMP_AT_HALF), t=3)
@example(xq=(1.0 - CLAMP_AT_TOP, CLAMP_AT_TOP), t=3)
def test_map_iter_matches_repeated_map_step(xq, t):
    x, q = xq
    y = x
    for _ in range(t):
        y = map_step(y, q)
    assert map_iter(x, q, t) == y == pwlcm_many(x, q, t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xq=map_inputs(), t=st.integers(0, 60), count=st.integers(1, 40))
@example(xq=(0.5, CLAMP_AT_HALF), t=0, count=3)
@example(xq=(1.0 - CLAMP_AT_TOP, CLAMP_AT_TOP), t=0, count=3)
def test_map_orbit_points_equal_map_iter(xq, t, count):
    x, q = xq
    orbit = map_orbit(x, q, t, count)
    assert orbit == [map_iter(x, q, t + j) for j in range(count)]


@pytest.mark.parametrize("kernel", [
    lambda x, q: map_iter(x, q, 5),
    lambda x, q: map_orbit(x, q, 5, 3),
    map_step,
], ids=["map_iter", "map_orbit", "map_step"])
@pytest.mark.parametrize("x, q", [
    (-2.0 ** -60, 0.3),         # x < 0
    (1.0 + 2.0 ** -52, 0.3),    # x > 1
    (0.3, 0.0),                 # q = 0: a zero divisor
    (0.3, 0.5),                 # q = 0.5: 0.5 - q is a zero divisor
    (math.nan, 0.3),
    (0.3, math.nan),
])
def test_map_kernels_reject_out_of_domain(kernel, x, q):
    with pytest.raises(ValueError):
        kernel(x, q)


@pytest.mark.parametrize("kernel", [
    lambda t: map_iter(0.3, 0.2, t),
    lambda t: map_orbit(0.3, 0.2, t, 3),
    lambda t: divergence_probe(2.0 ** -32, 0.2, t, 10, 0),
], ids=["map_iter", "map_orbit", "divergence_probe"])
@pytest.mark.parametrize("t", [True, 2.5, "5", None])
def test_map_kernels_reject_non_int_iteration_count(kernel, t):
    with pytest.raises(TypeError, match="iteration count must be an int, not "
                       + type(t).__name__):
        kernel(t)


def test_map_kernels_accept_domain_edges():
    for q in (Q_MIN, Q_MAX):
        for x in (0.0, 1.0):
            assert map_step(x, q) == pwlcm_once(x, q)
            assert map_orbit(x, q, 0, 2) == [x, map_step(x, q)]
    with pytest.raises(ValueError):
        map_orbit(0.3, 0.3, 5, 0)


def test_branch_formulas_bit_exact_on_grid():
    # direct formula evaluation selected by interval membership
    for q in (0.1, 0.123456789, 0.25, 0.375, 0.49):
        for i in range(4097):
            x = i / 4096.0
            assert map_step(x, q) == pwlcm_once(x, q)


def test_range_closure():
    rng = random.Random(SEED + 2)
    for _ in range(100_000):
        y = map_step(rng.random(), rng.uniform(Q_MIN, Q_MAX))
        assert 0.0 <= y <= 1.0


def test_symmetry_in_branch_interiors():
    # f(1-x) == f(x) in real arithmetic; binary64 within 1e-12
    rng = random.Random(SEED + 3)
    for _ in range(5000):
        q = rng.uniform(0.05, 0.45)
        side = rng.randrange(2)
        if side == 0:
            x = rng.uniform(q * 1.01, 0.5 * 0.99)   # branch 2; 1-x in branch 3
        else:
            x = rng.uniform(1e-6, q * 0.99)         # branch 1; 1-x in branch 4
        assert abs(map_step(x, q) - map_step(1.0 - x, q)) <= 1e-12


def test_mod1():
    assert mod1(0.3) == 0.3
    assert mod1(1.7) == 1.7 - 1.0
    assert mod1(1.7) == pytest.approx(0.7, abs=1e-12)
    assert mod1(3.25) == 0.25
    assert mod1(0.0) == 0.0
    assert mod1(1.0) == 0.0


def test_mod1_idempotent_and_in_range():
    rng = random.Random(SEED + 4)
    for _ in range(10_000):
        a = rng.uniform(0.0, 9.0)
        f = mod1(a)
        assert 0.0 <= f < 1.0
        assert mod1(f) == f
        assert f == a - math.floor(a)


def test_divergence_probe_zero_cases():
    assert divergence_probe(0.0, 0.3, 50, 100, SEED) == 0.0
    assert divergence_probe(2.0 ** -32, 0.25, 0, 1000, SEED) == 0.0


def test_divergence_probe_validation():
    with pytest.raises(ValueError):
        divergence_probe(-0.1, 0.3, 50, 100, SEED)
    with pytest.raises(ValueError):
        divergence_probe(1.0, 0.3, 50, 100, SEED)
    with pytest.raises(ValueError):
        divergence_probe(0.5, 0.3, 50, 0, SEED)
    # q outside [Q_MIN, Q_MAX] is refused by the map, not divided by
    for q in (0.0, 0.5):
        with pytest.raises(ValueError):
            divergence_probe(2.0 ** -32, q, 50, 10, SEED)


def test_divergence_probe_generic_parameter():
    # decorrelated orbits end as iid uniforms: P(|U-V| > 0.1) = 0.81,
    # and 1000 trials put the fraction within 4 binomial sigmas of it
    low, high = decorrelated_band(1000)
    assert low <= divergence_probe(2.0 ** -32, 0.3, 50, 1000, 0) <= high


def test_power_of_two_parameter_collapses_orbits():
    # q = 0.25 makes every branch operation exact in binary64 (both
    # divisors are powers of two), so orbits are integer dynamics mod
    # 2^53 and hit the fixed point 0.0 within ~28 steps. Frozen as a
    # regression: the probe sees identical collapsed twins everywhere.
    rng = random.Random(SEED + 5)
    for _ in range(50):
        assert map_iter(rng.random(), 0.25, 30) == 0.0
    assert divergence_probe(2.0 ** -32, 0.25, 50, 1000, 0) == 0.0
    # the collapse needs BOTH divisors dyadic: q=0.125 stays chaotic
    low, high = decorrelated_band(1000)
    assert low <= divergence_probe(2.0 ** -32, 0.125, 50, 1000, 0) <= high
