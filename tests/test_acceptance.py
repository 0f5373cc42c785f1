"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or
on failure); `pytest -v` shows the same verdicts as test outcomes.
Criterion 7 is split: 7a checks the map core; 7b checks that a 2^-32
perturbation decorrelates within t = 50 steps at the parameters the
hash derives from the sample key, and that the dyadic parameter
q = 0.25 collapses every orbit (see that test's docstring).
Criterion 4 checks the paper's parallelism, a layer's neurons run
independently, on two paths against the scalar one: the compiled
chain, which steps a layer's neurons as lanes in lockstep, against
hashing.chain_step, which runs them one after another, on every block
digest and the final key of 1000 random (message, key) pairs (skipped
on the Python fallback, which has no compiled chain); and
count_operations, a per-lane instrumented walk that steps each neuron
through its own map_step calls, on the first block of the first 100 of
them.
"""

import math
import os
import random
import struct

import neurohash
from neurohash.analysis import (
    birthday_experiment,
    key_sensitivity_sweep,
    message_sensitivity_sweep,
)
from neurohash.chaosmap import Q_MAX, Q_MIN, divergence_probe, map_iter, map_step
from neurohash.goldens import SAMPLE_KEY, SAMPLE_SENTENCE, default_vectors, format_vectors
from neurohash.hashing import Message, chain_step, hash_message_trace, pad, unpad
from neurohash.hashing import bytes_to_digest
from neurohash.keyschedule import derive_param, expand_key, quantize_word
from neurohash.opcount import count_operations
from oracles import decorrelated_band, pwlcm_once

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_vectors.csv")
SAMPLE_MESSAGE = Message(SAMPLE_SENTENCE.encode("ascii"))


def _verdict(number, name, ok):
    print("ACCEPTANCE %s %-28s %s" % (number, name, "PASS" if ok else "FAIL"))
    return ok


def test_criterion_1_message_avalanche():
    report = message_sensitivity_sweep(SAMPLE_MESSAGE, SAMPLE_KEY, 50)
    assert len(report.per_flip) == 1024
    in_band = sum(1 for _, h in report.per_flip if 0.32 <= h <= 0.68)
    ok = 0.45 <= report.mean <= 0.55 and in_band >= 0.99 * 1024
    assert _verdict(1, "message-bit avalanche", ok), (report.mean, in_band)


def test_criterion_2_key_avalanche():
    report = key_sensitivity_sweep(SAMPLE_MESSAGE, SAMPLE_KEY, 50)
    assert len(report.per_flip) == 128
    ok = 0.45 <= report.mean <= 0.55 and report.min > 0.2
    assert _verdict(2, "key-bit avalanche", ok), (report.mean, report.min)


def test_criterion_3_chain_identity():
    rng = random.Random(3003)
    ok = True
    for _ in range(100):
        key = rng.randbytes(16)
        nbits = rng.randrange(2048, 3072)        # pads to exactly 3 blocks
        message = Message.from_int(rng.getrandbits(nbits), nbits)
        assert len(pad(message)) == 3
        final, per_block = hash_message_trace(message, key, 50)
        acc = bytes_to_digest(key)
        for digest in per_block:
            acc = tuple(a ^ b for a, b in zip(acc, digest))
        ok = ok and final == acc
    assert _verdict(3, "3-block chain identity", ok)


def test_criterion_4_parallel_fidelity():
    rng = random.Random(4004)
    pairs = []
    for _ in range(1000):
        key = rng.randbytes(16)
        nbits = rng.randrange(0, 5001)
        message = Message.from_int(
            rng.getrandbits(nbits) if nbits else 0, nbits
        )
        pairs.append((message, key))
    # lockstep lanes: hash_message_trace runs the compiled chain, which
    # steps a layer's neurons in lanes, and chain_step one neuron at a
    # time; every block digest and the final key must agree
    ok = True
    if neurohash.kernel == "c":
        for message, key in pairs:
            running, per_block = key, []
            for block in pad(message):
                digest, running = chain_step(running, block, 50)
                per_block.append(digest)
            expected = (bytes_to_digest(running), tuple(per_block))
            ok = ok and hash_message_trace(message, key, 50) == expected
    # per-lane walk: count_operations steps each neuron through its
    # own map_step calls, hash_block runs a layer as one map_layer call,
    # and count_operations raises if the digests differ
    for message, key in pairs[:100]:
        count_operations(50, key, pad(message)[0])
    assert _verdict(4, "parallel fidelity", ok)


def test_criterion_5_operation_counts():
    report = count_operations(50)
    checks = [
        report.mul_div <= 1.5 * 1088 and 1088 <= 1.5 * report.mul_div,
        report.add_sub <= 1.5 * 1719 and 1719 <= 1.5 * report.add_sub,
        report.critical_path_mul_div <= 2 * 203
        and 203 <= 2 * report.critical_path_mul_div,
        report.critical_path_add_sub <= 2 * 291
        and 291 <= 2 * report.critical_path_add_sub,
        report.mul_div / report.critical_path_mul_div >= 3.0,
    ]
    assert _verdict(5, "operation counts", all(checks)), (report, checks)


def test_criterion_6_birthday_behavior():
    expected = 1000 * 999 / 2 / 2**16
    band = (expected - 3 * math.sqrt(expected), expected + 3 * math.sqrt(expected))
    in_band = 0
    for seed in range(10):
        report = birthday_experiment(16, 1000, SAMPLE_KEY, 50, seed)
        assert report.collisions_expected == expected
        if band[0] <= report.collisions_observed <= band[1]:
            in_band += 1
    assert _verdict(6, "birthday collisions", in_band >= 9), in_band


def test_criterion_7_map_core_suite():
    rng = random.Random(7007)
    closure_ok = all(
        0.0 <= map_step(rng.random(), rng.uniform(Q_MIN, Q_MAX)) <= 1.0
        for _ in range(1_000_000)
    )
    branch_ok = all(
        map_step(i / 8192.0, q) == pwlcm_once(i / 8192.0, q)
        for q in (0.1, 0.2345678, 0.49)
        for i in range(8193)
    )
    comp_ok = True
    for _ in range(200):
        x, q = rng.random(), rng.uniform(Q_MIN, Q_MAX)
        a, b = rng.randrange(0, 50), rng.randrange(0, 50)
        comp_ok = comp_ok and (
            map_iter(x, q, a + b) == map_iter(map_iter(x, q, a), q, b)
        )
    sym_ok = True
    for _ in range(5000):
        q = rng.uniform(0.05, 0.45)
        x = rng.uniform(q * 1.01, 0.5 * 0.99)
        sym_ok = sym_ok and abs(map_step(x, q) - map_step(1.0 - x, q)) <= 1e-12
    ok = closure_ok and branch_ok and comp_ok and sym_ok
    assert _verdict("7a", "map-core suite", ok)


def test_criterion_7_divergence_probe():
    """A 2^-32 perturbation decorrelates within 50 steps; q = 0.25 collapses.

    Sensitivity: the map's invariant density is uniform, so once twin
    orbits have decorrelated they end as independent uniforms and
    P(|a - b| > 0.1) = 0.9^2 = 0.81. Over 1000 independent starts the
    probe's fraction is binomial with sigma = sqrt(0.81 * 0.19 / 1000),
    so at every parameter the hash runs under (the three layer
    parameters of the sample key's schedule and the two key-schedule
    orbit parameters from K1 and K3) it must lie in 0.81 +- 4 sigma,
    about [0.760, 0.860]. A perturbation that has not been amplified to
    full size by t = 50 leaves twins within 0.1 and falls far below it.

    Collapse: at q = 0.25 both branch divisors are powers of two, so
    every branch operation is exact (scaling by 4 shifts the exponent;
    the subtractions satisfy Sterbenz's lemma). Orbits are then exact
    integer dynamics mod 2^53 — x_k = (+-4)^k * x_0 (mod 1) — which
    reach 0.0 once 2k >= 53, i.e. within 28 steps, and f(0) = 0 holds
    them there. At t = 50 every trial compares 0.0 against 0.0, so the
    probe returns exactly 0.0 for every seed, under any faithful
    IEEE-754 arithmetic. Layer parameters come from full-mantissa
    sub-keys, so the hash meets q = 0.25 only by a 2^-53 chance; a K1 or
    K3 key word of 0x80000000 does give it, and such keys are weak.
    """
    low, high = decorrelated_band(1000)
    sub = expand_key(SAMPLE_KEY, 50)
    _, k1, _, k3 = struct.unpack(">4I", SAMPLE_KEY)
    params = [sub.q0, sub.q1, sub.q2,
              derive_param(quantize_word(k1)), derive_param(quantize_word(k3))]
    fractions = [divergence_probe(2.0 ** -32, q, 50, 1000, 0) for q in params]
    collapsed = divergence_probe(2.0 ** -32, 0.25, 50, 1000, 0)
    ok = all(low <= f <= high for f in fractions) and collapsed == 0.0
    assert _verdict("7b", "divergence + q=1/4 collapse", ok), (
        params, fractions, (low, high), collapsed)


def test_criterion_8_padding():
    rng = random.Random(8008)
    corpus = [0, 1, 1023, 1024, 1025, 2047, 2048, 1040]
    corpus += [rng.randrange(0, 4096) for _ in range(50)]
    messages = [
        Message.from_int(rng.getrandbits(n) if n else 0, n) for n in corpus
    ]
    round_trip = all(unpad(pad(m)) == m for m in messages)
    padded = {}
    injective = True
    for m in messages:
        blocks = pad(m)
        if blocks in padded and padded[blocks] != m:
            injective = False
        padded[blocks] = m
    sentence_blocks = pad(SAMPLE_MESSAGE)
    tail = sentence_blocks[1]
    # 1040 message bits, one '1' marker, then 1007 zeros
    marker_ok = len(sentence_blocks) == 2 and tail[0] & 0xFFFF == 0x8000
    zeros_ok = all(w == 0 for w in tail[1:]) and (tail[0] & 0x7FFF) == 0
    ok = round_trip and injective and marker_ok and zeros_ok
    assert _verdict(8, "padding identity/injectivity", ok)


def test_criterion_9_golden_vectors():
    with open(GOLDEN_PATH) as handle:
        frozen = handle.read()
    regenerated = format_vectors(default_vectors())
    lines = frozen.strip().splitlines()
    ok = regenerated == frozen and len(lines) == 20
    assert _verdict(9, "golden vectors", ok)
