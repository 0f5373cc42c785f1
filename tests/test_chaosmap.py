import math
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurohash.chaosmap import (
    Q_MAX,
    Q_MIN,
    divergence_probe,
    map_iter,
    map_layer,
    map_step,
    mod1,
    orbit_sums,
)
from oracles import clamp_seed, decorrelated_band, fraction_mod_one
from oracles import param_from_unit, pwlcm_many, pwlcm_once, quantize
from oracles import subkey_stream_literal
from test_keyschedule import KEY_WORDS

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


def anchored_x(draw, q):
    """x near a branch boundary or clamp-prone point of the map under q.

    The anchors are 0, 1, q, 0.5 and fl(1 - q), each also moved one ulp
    either way; a uniform x covers the branch interiors.
    """
    anchor = draw(st.sampled_from(["0", "1", "q", "0.5", "top", "uniform"]))
    x = {"0": 0.0, "1": 1.0, "q": q, "0.5": 0.5, "top": 1.0 - q,
         "uniform": draw(st.floats(0.0, 1.0))}[anchor]
    return math.nextafter(x, draw(st.sampled_from([0.0, x, 1.0])))


@st.composite
def map_inputs(draw):
    """(x, q) with x near the branch boundaries and clamp-prone points."""
    q = draw(PARAMS)
    return anchored_x(draw, q), q


@st.composite
def layer_inputs(draw):
    """(xs, q): up to 10 lanes, each anchored on its own, under one q."""
    q = draw(PARAMS)
    return [anchored_x(draw, q) for _ in range(draw(st.integers(0, 10)))], q


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
@given(xsq=layer_inputs(), t=st.integers(0, 40))
@example(xsq=([0.5, 1.0 - CLAMP_AT_HALF, 0.3], CLAMP_AT_HALF), t=3)
@example(xsq=([1.0 - CLAMP_AT_TOP, 0.5], CLAMP_AT_TOP), t=3)
@example(xsq=([], 0.3), t=5)
def test_map_layer_matches_map_iter_and_oracle(xsq, t):
    xs, q = xsq
    layer = map_layer(xs, q, t)
    assert type(layer) is tuple
    assert layer == tuple(map_iter(x, q, t) for x in xs)
    assert layer == tuple(pwlcm_many(x, q, t) for x in xs)


def _orbit_sums_ref(xa, qa, xb, qb, t, count):
    # the literal f^(t+j) orbits of both seeds, summed and reduced mod 1
    return [fraction_mod_one(pwlcm_many(xa, qa, t + j)
                             + pwlcm_many(xb, qb, t + j))
            for j in range(count)]


# "map orbit" is the orbit of a seed under the map; the key schedule
# walks two of them at once, summed mod 1, through orbit_sums
@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=map_inputs(), b=map_inputs(), t=st.integers(0, 60),
       count=st.integers(1, 40))
@example(a=(0.5, CLAMP_AT_HALF), b=(0.5, CLAMP_AT_HALF), t=0, count=3)
@example(a=(1.0 - CLAMP_AT_TOP, CLAMP_AT_TOP), b=(1.0, Q_MIN), t=0, count=3)
@example(a=(0.5, 0.25), b=(0.5, 0.25), t=0, count=4)  # sums 1.0, 2.0, 0.0
def test_orbit_sums_equal_map_iter(a, b, t, count):
    (xa, qa), (xb, qb) = a, b
    sums = orbit_sums(xa, qa, xb, qb, t, count)
    assert sums == [mod1(map_iter(xa, qa, t + j) + map_iter(xb, qb, t + j))
                    for j in range(count)]
    assert sums == _orbit_sums_ref(xa, qa, xb, qb, t, count)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(words=st.lists(KEY_WORDS, min_size=4, max_size=4),
       count=st.integers(1, 40), t=st.integers(0, 60))
def test_orbit_sums_match_literal_subkey_stream(words, count, t):
    # the seeds and parameters as the oracle derives them from the key,
    # and t = 0, which subkey_stream refuses, too
    k0, k1, k2, k3 = words
    sums = orbit_sums(clamp_seed(quantize(k0)), param_from_unit(quantize(k1)),
                      clamp_seed(quantize(k2)), param_from_unit(quantize(k3)),
                      t, count)
    assert sums == subkey_stream_literal(struct.pack(">4I", *words), count, t)


# every kernel with its x and q as the named argument; the layer gets
# them in its first and last lane, the key walk in either orbit
DOMAIN_KERNELS = {
    "map_iter": lambda x, q: map_iter(x, q, 5),
    "map_step": map_step,
    "first_orbit": lambda x, q: orbit_sums(x, q, 0.3, 0.2, 5, 3),
    "second_orbit": lambda x, q: orbit_sums(0.3, 0.2, x, q, 5, 3),
    "map_layer_first": lambda x, q: map_layer([x, 0.3, 0.7], q, 5),
    "map_layer_last": lambda x, q: map_layer([0.3, 0.7, x], q, 5),
}


@pytest.mark.parametrize("kernel", DOMAIN_KERNELS.values(),
                         ids=DOMAIN_KERNELS.keys())
@pytest.mark.parametrize("x, q", [
    (-2.0 ** -60, 0.3),         # x < 0
    (1.0 + 2.0 ** -52, 0.3),    # x > 1
    (0.3, 0.0),                 # q = 0: a zero divisor
    (0.3, 0.5),                 # q = 0.5: 0.5 - q is a zero divisor
    (math.nan, 0.3),
    (0.3, math.nan),
])
def test_map_kernels_reject_out_of_domain(kernel, x, q):
    if 0.0 <= x <= 1.0:
        message = "map parameter must be in [Q_MIN, Q_MAX]"
    else:
        message = "map input must be in [0, 1]"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        kernel(x, q)


@pytest.mark.parametrize("kernel", [
    lambda t: map_iter(0.3, 0.2, t),
    lambda t: orbit_sums(0.3, 0.2, 0.6, 0.1, t, 3),
    lambda t: divergence_probe(2.0 ** -32, 0.2, t, 10, 0),
    lambda t: map_layer([0.3, 0.7], 0.2, t),
], ids=["map_iter", "orbit_sums", "divergence_probe", "map_layer"])
@pytest.mark.parametrize("t", [True, False, 2.5, "5", None])
def test_map_kernels_reject_non_int_iteration_count(kernel, t):
    with pytest.raises(TypeError, match="^iteration count must be an int, not "
                       + type(t).__name__ + "$"):
        kernel(t)


@pytest.mark.parametrize("kernel", [
    lambda t: map_iter(0.3, 0.2, t),
    lambda t: orbit_sums(0.3, 0.2, 0.6, 0.1, t, 3),
    lambda t: map_layer([0.3, 0.7], 0.2, t),
], ids=["map_iter", "orbit_sums", "map_layer"])
@pytest.mark.parametrize("t", [-1, -50])
def test_map_kernels_reject_negative_iteration_count(kernel, t):
    with pytest.raises(ValueError, match="^iteration count must be >= 0$"):
        kernel(t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xsq=layer_inputs(), data=st.data())
def test_map_layer_refuses_a_bad_lane_anywhere(xsq, data):
    xs, q = xsq
    bad = data.draw(st.sampled_from([-2.0 ** -60, 1.0 + 2.0 ** -52, math.nan,
                                     -math.inf, math.inf]))
    xs.insert(data.draw(st.integers(0, len(xs))), bad)
    with pytest.raises(ValueError, match=r"^map input must be in \[0, 1\]$"):
        map_layer(xs, q, data.draw(st.integers(0, 5)))


def test_map_kernels_accept_domain_edges():
    for q in (Q_MIN, Q_MAX):
        for x in (0.0, 1.0):
            assert map_step(x, q) == pwlcm_once(x, q)
            assert map_layer((x, x), q, 1) == (pwlcm_once(x, q),) * 2
            # 0.0 is the map's fixed point, so the second orbit adds nothing
            assert orbit_sums(x, q, 0.0, q, 0, 2) == [x % 1.0, map_step(x, q)]
    with pytest.raises(ValueError, match="orbit length must be >= 1"):
        orbit_sums(0.3, 0.3, 0.6, 0.1, 5, 0)


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
