import json
import os

import pytest

from neurohash.chaosmap import map_step
from neurohash.hashing import format_digest
from neurohash.keyschedule import expand_key
from neurohash.network import hash_block
from neurohash.opcount import (
    DEFAULT_COUNT_BLOCK,
    DEFAULT_COUNT_KEY,
    _Run,
    _Tracked,
    count_operations,
)
from test_chaosmap import CLAMP_AT_HALF, CLAMP_AT_TOP

REPORTS_PATH = os.path.join(os.path.dirname(__file__), "data", "opcount_reports.json")

# published single-block reference counts at t = 50
SEQ_MUL_DIV = 1088
SEQ_ADD_SUB = 1719
PAR_MUL_DIV = 203
PAR_ADD_SUB = 291


def _within_factor(a, b, factor):
    lo, hi = sorted((a, b))
    return hi <= factor * lo


def test_counts_reproducible():
    assert count_operations(50) == count_operations(50)


def test_totals_near_published_sequential_counts():
    rep = count_operations(50)
    assert _within_factor(rep.mul_div, SEQ_MUL_DIV, 1.5)
    assert _within_factor(rep.add_sub, SEQ_ADD_SUB, 1.5)


def test_critical_path_near_published_parallel_counts():
    rep = count_operations(50)
    assert _within_factor(rep.critical_path_mul_div, PAR_MUL_DIV, 2.0)
    assert _within_factor(rep.critical_path_add_sub, PAR_ADD_SUB, 2.0)
    assert rep.mul_div / rep.critical_path_mul_div >= 3.0


def test_critical_path_bounded_by_totals():
    for t in (1, 10, 50):
        rep = count_operations(t)
        assert rep.critical_path_mul_div <= rep.mul_div
        assert rep.critical_path_add_sub <= rep.add_sub


def test_layers_only_multiplications_closed_form():
    # weight-matrix multiplications: 32 + 64 + 32, independent of t
    for t in (0, 50):
        rep = count_operations(t)
        layer_muls = sum(
            rep.stages[s].mul
            for s in ("input_layer", "hidden_layer", "output_layer")
        )
        assert layer_muls == 32 + 64 + 32
    assert count_operations(0).stages["digest_extract"].mul == 4


def test_stage_totals_sum_to_report():
    rep = count_operations(50)
    assert rep.mul_div == sum(s.mul_div for s in rep.stages.values())
    assert rep.add_sub == sum(s.add_sub for s in rep.stages.values())


def test_iteration_scaling():
    # each extra iteration adds one division per keyed-stage map chain
    r10 = count_operations(10)
    r11 = count_operations(11)
    # 2 key orbits + 8 input neurons + 4 output neurons = 14 chains
    divs10 = sum(s.div for s in r10.stages.values())
    divs11 = sum(s.div for s in r11.stages.values())
    assert divs11 - divs10 == 14


def test_instrumented_pipeline_matches_hash_block():
    # count_operations self-checks internally; the frozen vector pins
    # the shared inputs so the guard actually exercises real data
    digest = hash_block(
        DEFAULT_COUNT_BLOCK, expand_key(DEFAULT_COUNT_KEY, 50), 50
    )
    assert format_digest(digest) == "1ABC267ABA9BE657E8FDBAF50726AE26"
    count_operations(50)  # raises if the instrumented digest drifts


def test_reports_match_frozen_table():
    # 108 reports written by the hand-written counting model that the
    # tracked-float run replaced: t in {0, 1, 2, 7, 50, 80}, two blocks,
    # and nine keys, among them clamped seeds (K0/K2 = 0, 0xFFFFFFFF),
    # clamped parameters (K1/K3 = 0, 0xFFFFFFFF) and dead orbits
    # (K1 = 0x80000000, K1 = K3 = 0x80000000); every field and every
    # stage must match
    with open(REPORTS_PATH) as f:
        table = json.load(f)
    assert len(table) == 108
    for entry in table:
        rep = count_operations(entry["t"], bytes.fromhex(entry["key"]),
                               entry["block"])
        got = {
            "mul_div": rep.mul_div,
            "add_sub": rep.add_sub,
            "critical_path_mul_div": rep.critical_path_mul_div,
            "critical_path_add_sub": rep.critical_path_add_sub,
            "stages": {name: vars(ops) for name, ops in rep.stages.items()},
        }
        want = {k: v for k, v in entry.items() if k not in ("key", "block", "t")}
        assert got == want, (entry["key"], entry["block"][0], entry["t"])


def test_counts_depend_on_branch_occupancy():
    a = count_operations(50, DEFAULT_COUNT_KEY)
    b = count_operations(50, b"0123456789abcdef")
    assert a.mul_div == b.mul_div          # structure is key-independent
    assert a.add_sub != b.add_sub          # branch subtractions are not


# x = 0.5 takes branch 3, (1 - q - x) / (0.5 - q), and x = fl(1 - q)
# takes branch 4, (1 - x) / q
@pytest.mark.parametrize("x, q, subs, chain", [
    (0.5, CLAMP_AT_HALF, 3, (1, 2)),
    (1.0 - CLAMP_AT_TOP, CLAMP_AT_TOP, 1, (1, 1)),
])
def test_counting_step_keeps_clamped_result(x, q, subs, chain):
    # no public input reaches a map_step clamp inside the layers, so the
    # counting step runs alone. map_step returns its bound as a plain
    # float; the counting step must give it the cost and the chain of
    # the quotient it replaced
    probe = _Run()
    probe.stage("map")
    assert type(map_step(_Tracked(x, probe), _Tracked(q, probe))) is float
    run = _Run()
    run.stage("map")
    y = run.step(_Tracked(x, run), _Tracked(q, run))
    assert y == map_step(x, q) == 1.0
    y.use()
    assert run.stages["map"] == {"mul": 0, "div": 1, "add": 0, "sub": subs}
    assert (y.m, y.a) == chain


def test_validation():
    with pytest.raises(ValueError):
        count_operations(-1)
    with pytest.raises(ValueError):
        count_operations(50, bytes(15))
    for t in (1.5, 50.0, "50", None, True):
        with pytest.raises(TypeError,
                           match="iteration count must be an int, not "
                           + type(t).__name__):
            count_operations(t)
    assert count_operations(0).critical_path_mul_div > 0
