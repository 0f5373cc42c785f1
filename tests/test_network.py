import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurohash import chaosmap, keyschedule, network
from neurohash.analysis import hdr
from neurohash.hashing import format_digest
from neurohash.keyschedule import expand_key
from neurohash.network import (
    extract_digest,
    hash_block,
    hidden_layer,
    input_layer,
    output_layer,
)
from neurohash.opcount import count_operations
from neurohash.chaosmap import map_iter, map_step, mod1
from oracles import (
    block_hash_ref,
    hidden_layer_ref,
    input_layer_ref,
    output_layer_ref,
)

SEED = 47113

# frozen reference: ascending words 0..31, key 00..0f, t = 50
ASCENDING_BLOCK_DIGEST = "1ABC267ABA9BE657E8FDBAF50726AE26"


def _rand_signals(rng, n):
    return tuple(rng.random() for _ in range(n))


def _rand_subkey_like(rng):
    w0 = _rand_signals(rng, 32)
    b0 = _rand_signals(rng, 8)
    w1 = tuple(_rand_signals(rng, 8) for _ in range(8))
    b1 = _rand_signals(rng, 8)
    w2 = tuple(_rand_signals(rng, 8) for _ in range(4))
    b2 = _rand_signals(rng, 4)
    return w0, b0, w1, b1, w2, b2


def test_input_layer_zero_weights():
    rng = random.Random(SEED)
    p = _rand_signals(rng, 32)
    beta = 0.637
    c = input_layer(p, (0.0,) * 32, (beta,) * 8, 0.31, 50)
    expect = map_iter(beta, 0.31, 50)
    assert c == (expect,) * 8


def test_input_layer_zero_inputs():
    rng = random.Random(SEED + 1)
    w0 = _rand_signals(rng, 32)
    b0 = _rand_signals(rng, 8)
    c = input_layer((0.0,) * 32, w0, b0, 0.2255, 7)
    assert c == tuple(map_iter(mod1(b), 0.2255, 7) for b in b0)


def test_hidden_layer_zero_weights():
    rng = random.Random(SEED + 2)
    b1 = _rand_signals(rng, 8)
    d = hidden_layer(_rand_signals(rng, 8), ((0.0,) * 8,) * 8, b1, 0.4)
    assert d == tuple(map_step(mod1(b), 0.4) for b in b1)


def test_hidden_layer_permutation_rows():
    rng = random.Random(SEED + 3)
    c = _rand_signals(rng, 8)   # all < 1, so mod1 is the identity
    perm = list(range(8))
    rng.shuffle(perm)
    w1 = tuple(
        tuple(1.0 if i == perm[j] else 0.0 for i in range(8)) for j in range(8)
    )
    d = hidden_layer(c, w1, (0.0,) * 8, 0.37)
    assert d == tuple(map_step(c[perm[j]], 0.37) for j in range(8))


def test_output_layer_zero_weights():
    rng = random.Random(SEED + 4)
    d = _rand_signals(rng, 8)
    beta = 0.271828
    h = output_layer(d, ((0.0,) * 8,) * 4, (beta,) * 4, 0.1717, 50)
    assert h == (map_iter(beta, 0.1717, 50),) * 4


def test_output_layer_iteration_composition():
    rng = random.Random(SEED + 5)
    d = _rand_signals(rng, 8)
    w2 = tuple(_rand_signals(rng, 8) for _ in range(4))
    b2 = _rand_signals(rng, 4)
    full = output_layer(d, w2, b2, 0.3141, 50)
    half = output_layer(d, w2, b2, 0.3141, 25)
    assert full == tuple(map_iter(x, 0.3141, 25) for x in half)


def test_layers_match_straight_line_oracle():
    rng = random.Random(SEED + 6)
    for _ in range(10):
        p = _rand_signals(rng, 32)
        w0, b0, w1, b1, w2, b2 = _rand_subkey_like(rng)
        q = rng.uniform(0.01, 0.49)
        c = input_layer(p, w0, b0, q, 50)
        assert list(c) == input_layer_ref(p, w0, b0, q, 50)
        d = hidden_layer(c, w1, b1, q)
        assert list(d) == hidden_layer_ref(c, w1, b1, q)
        h = output_layer(d, w2, b2, q, 50)
        assert list(h) == output_layer_ref(d, w2, b2, q, 50)


def test_layer_signal_closure():
    rng = random.Random(SEED + 7)
    for _ in range(20):
        p = _rand_signals(rng, 32)
        w0, b0, w1, b1, w2, b2 = _rand_subkey_like(rng)
        q = rng.uniform(0.01, 0.49)
        c = input_layer(p, w0, b0, q, 5)
        d = hidden_layer(c, w1, b1, q)
        h = output_layer(d, w2, b2, q, 5)
        for signal in (c, d, h):
            assert all(0.0 <= x <= 1.0 for x in signal)


def test_extract_digest():
    assert extract_digest([0.5, 0.0, 0.25, (2**32 - 1) / 2**32]) == \
        (0x80000000, 0x00000000, 0x40000000, 0xFFFFFFFF)
    assert extract_digest([1.0, 0.0, 0.0, 0.0])[0] == 0xFFFFFFFF


def test_extract_digest_quantize_round_trip():
    rng = random.Random(SEED + 8)
    h = [rng.random() for _ in range(4)]
    words = extract_digest(h)
    for w, x in zip(words, h):
        assert abs(w / 2**32 - x) < 2.0 ** -32


def test_hash_block_deterministic():
    keys = expand_key(bytes(range(16)), 50)
    block = tuple(range(32))
    assert hash_block(block, keys, 50) == hash_block(block, keys, 50)


def test_hash_block_frozen_vector():
    keys = expand_key(bytes(range(16)), 50)
    digest = hash_block(tuple(range(32)), keys, 50)
    assert format_digest(digest) == ASCENDING_BLOCK_DIGEST


def test_hash_block_matches_oracle():
    rng = random.Random(SEED + 9)
    for _ in range(5):
        key = rng.randbytes(16)
        block = [rng.getrandbits(32) for _ in range(32)]
        mine = hash_block(block, expand_key(key, 50), 50)
        assert mine == block_hash_ref(block, key, 50)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    key=st.binary(min_size=16, max_size=16),
    block=st.lists(st.integers(0, 0xFFFFFFFF), min_size=32, max_size=32),
    t=st.integers(1, 80),
)
@example(key=bytes(range(16)), block=list(range(32)), t=1)
def test_hash_block_matches_oracle_and_per_neuron_steps(key, block, t):
    # t = 1 gives every layer the hidden layer's single map step;
    # count_operations steps each neuron through its own map_step calls
    # and raises if its digest differs from hash_block's
    assert hash_block(block, expand_key(key, t), t) == \
        block_hash_ref(block, key, t)
    count_operations(t, key, block)


def test_hash_block_validation():
    keys = expand_key(bytes(range(16)), 50)
    with pytest.raises(ValueError):
        hash_block(tuple(range(31)), keys, 50)
    with pytest.raises(ValueError):
        hash_block((1 << 32,) + (0,) * 31, keys, 50)
    with pytest.raises(ValueError):
        hash_block([1.5] + [0] * 31, keys, 50)
    with pytest.raises(ValueError):
        hash_block(["1"] + [0] * 31, keys, 50)
    for word in (True, False):
        with pytest.raises(ValueError, match="32-bit integers"):
            hash_block((word,) + (0,) * 31, keys, 50)
    with pytest.raises(ValueError):
        hash_block(tuple(range(32)), keys, 0)
    for t in (50.0, True):
        with pytest.raises(TypeError, match="iteration count must be an int"):
            hash_block(tuple(range(32)), keys, t)


def test_hash_block_runs_one_map_layer_call_per_layer(monkeypatch):
    # each layer is one map_layer call, the only place t's type is tested:
    # a counting `type` in the modules hash_block runs sees 3 tests of t
    # (one per layer), where a map_iter call per neuron made 3 + 20
    keys = expand_key(bytes(range(16)), 50)
    t = 50
    layers = []
    real = network.map_layer

    def counting_layer(xs, q, t):
        layers.append((len(xs), q, t))
        return real(xs, q, t)

    tested = []

    def counting_type(*args):
        if len(args) == 1:
            tested.append(args[0])
        return type(*args)

    monkeypatch.setattr(network, "map_layer", counting_layer)
    for module in (network, chaosmap, keyschedule):
        monkeypatch.setattr(module, "type", counting_type, raising=False)
    digest = hash_block(tuple(range(32)), keys, t)
    assert format_digest(digest) == ASCENDING_BLOCK_DIGEST
    assert layers == [(8, keys.q0, t), (8, keys.q1, 1), (4, keys.q2, t)]
    assert tested == [t, 1, t]


def test_layers_refuse_a_bad_iteration_count():
    keys = expand_key(bytes(range(16)), 50)
    p = [0.5] * 32
    d = (0.5,) * 8
    for layer in (lambda t: input_layer(p, keys.w0, keys.b0, keys.q0, t),
                  lambda t: output_layer(d, keys.w2, keys.b2, keys.q2, t)):
        with pytest.raises(ValueError, match="iteration count must be >= 1"):
            layer(0)
        with pytest.raises(ValueError, match="iteration count must be >= "):
            layer(-1)
        for t in (True, False, 2.0, "2"):
            with pytest.raises(TypeError, match="iteration count must be an int"):
                layer(t)


def test_block_avalanche():
    # all 1024 single-bit flips of a fixed random block, fixed key
    rng = random.Random(SEED + 11)
    words = [rng.getrandbits(32) for _ in range(32)]
    keys = expand_key(bytes(range(16)), 50)
    base = hash_block(words, keys, 50)
    ratios = []
    for i in range(1024):
        flipped = list(words)
        flipped[i // 32] ^= 0x80000000 >> (i % 32)
        ratios.append(hdr(base, hash_block(flipped, keys, 50)))
    mean = sum(ratios) / len(ratios)
    assert 0.45 <= mean <= 0.55
    in_band = sum(1 for r in ratios if 0.32 <= r <= 0.68)
    assert in_band >= 0.99 * len(ratios)
