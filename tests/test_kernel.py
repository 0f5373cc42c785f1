"""The compiled chain (ckernel): bit-equal to the Python path, and guarded.

Wherever a C compiler is on PATH the suite must run the compiled chain;
the differential property then holds it to the Python stage functions
and to the independent oracle. The build tests each run a copy of the
package under tmp_path in a fresh interpreter, so its cache starts cold.
"""

import os
import platform
import random
import re
import shutil
import struct
import subprocess
import sys
import threading
import types
from importlib.machinery import EXTENSION_SUFFIXES

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurohash
from neurohash import ckernel, hashing
from neurohash.chaosmap import Q_MAX, Q_MIN, map_iter, map_step, mod1
from neurohash.goldens import read_vectors
from neurohash.hashing import (
    Message,
    bytes_to_digest,
    chain_step,
    digest_to_bytes,
    format_digest,
    hash_message,
    hash_message_trace,
    pad,
)
from neurohash.keyschedule import assign_subkeys, expand_key, orbit_starts, subkey_stream
from neurohash.network import hash_block
from oracles import bytes_to_bits, hash_message_ref

DATA = os.path.join(os.path.dirname(__file__), "data")


def _key(*words) -> bytes:
    return struct.pack(">4I", *words)


# K0 = K2 = 0x80000000: both seeds are 0.5, which the map sends to 1.0
# and then to the fixed point 0.0, so every sub-key is 0.0, every block
# digest 0 and every message digest the key itself, whatever K1 and K3
DOUBLY_DEAD = _key(0x80000000, 0x2468ACE0, 0x80000000, 0x13579BDF)
# t = 1, one block: output neuron 0's pre-activation lands just above 0.5,
# where the map returns its largest value below 1.0, and digest word 0
# saturates at 0xFFFFFFFF (found by bisecting input word 1)
SATURATED = (
    bytes.fromhex("10af3177d161e79587a766ec30e40374"),
    Message(bytes.fromhex(
        "5c90a958a3f45b8f3f98e277cb5c74272e05319ab2f14c94c7a2ea203e7d1bfb"
        "14f4733f930d6eaf4cdd2055867347217ebff206e00902c757ee05cdbabced20"
        "72e6cc3a49b64a089be4bcfcfaecbd3812bd4ace1e398f10830e07bc6b0a18e8"
        "2a3af4d4c1d3fcff5790f82e26e87555eeeacbe27d2caf826bf46c69")),
    1,
)

# The compiled map steps a key's orbit a (K0, K1) and orbit b (K2, K3) in
# two adjacent lanes. Each key below puts one lane on a branch boundary,
# or dead or clamped, beside a live lane; at t = 1 the first step's value
# enters s[0]. At x == q and x == top the map gives 0.0 and 1.0, and the
# branch on the other side of the edge 1.0 and 0.0. Both reach 0.0 a
# step later, so only s[0] = mod1(a + b) can tell them apart: there
# mod1(1.0 + b) rounds away b's low bits, which the weighted sums mostly
# lose. The EDGE_* messages below are ones where the digest shows it.

# K1 = 2 * K0: the first step of orbit a starts at x == q
ON_Q = _key(0x12345678, 0x2468ACF0, 0x3C6EF372, 0x5A827999)
# K3 = 2^33 - 2 * K2 (mod 2^32): orbit b starts at x == top = 1 - q
ON_TOP = _key(0x9E3779B9, 0x7F4A7C15, 0xDEADBEEF, 0x42A48222)
# K0 = 0x80000000: orbit a goes 0.5, 1.0, then the fixed point 0.0
A_DEAD = _key(0x80000000, 0x9E3779B9, 0x3C6EF372, 0x5A827999)
B_DEAD = _key(0x3C6EF372, 0x5A827999, 0x80000000, 0x9E3779B9)
# K1 = 0 and K3 = 0xFFFFFFFF clamp q to Q_MIN and Q_MAX
A_AT_Q_MIN = _key(0x3C6EF372, 0, 0x9E3779B9, 0x5A827999)
B_AT_Q_MAX = _key(0x9E3779B9, 0x5A827999, 0x3C6EF372, 0xFFFFFFFF)
LANE_KEYS = (ON_Q, ON_TOP, A_DEAD, B_DEAD, A_AT_Q_MIN, B_AT_Q_MAX)
# ON_Q with K3 one less, so a schedule held for ON_Q must not serve it
NEXT_TO_ON_Q = _key(0x12345678, 0x2468ACF0, 0x3C6EF372, 0x5A827998)
# ON_TOP's orbit b beside another orbit a
B_ON_TOP = _key(0x111A0F10, 0x97548264, 0xDEADBEEF, 0x42A48222)
# (key, message, lane on the edge, the other branch's value) at t = 1:
# the first block's digest changes with the branch that orbit a takes at
# x == q, or orbit b at x == top (message word 0 found by search)
EDGE_Q = (ON_Q, Message(bytes.fromhex("fa271df4") + bytes(60)), 0, 1.0)
EDGE_TOP = (B_ON_TOP, Message(bytes.fromhex("f4e0abfb") + bytes(124)), 1, 0.0)

# K0/K2 seed the orbits: 0x80000000 kills one, 0, 1 and 0xFFFFFFFF are
# one clamp class. K1/K3 set q: 0x80000000 is the dyadic q = 0.25, and
# [0, 8192] and [2^32 - 8192, 2^32 - 1] clamp to Q_MIN and Q_MAX
SEED_WORDS = st.one_of(st.sampled_from([0, 1, 0x80000000, 0xFFFFFFFF]),
                       st.integers(0, 2 ** 32 - 1))
PARAM_WORDS = st.one_of(
    st.sampled_from([0, 8192, 0x80000000, 2 ** 32 - 8192, 0xFFFFFFFF]),
    st.integers(0, 2 ** 32 - 1))
KEYS = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.tuples(SEED_WORDS, PARAM_WORDS, SEED_WORDS, PARAM_WORDS).map(
        lambda words: _key(*words)))


@st.composite
def _messages(draw):
    """0 to 3071 bits (one to three padded blocks) of zeros, ones or noise."""
    nbits = draw(st.integers(0, 3 * 1024 - 1))
    fill = draw(st.sampled_from(["zeros", "ones", "noise"]))
    value = {"zeros": 0, "ones": (1 << nbits) - 1}.get(fill)
    if value is None:
        value = draw(st.integers(0, (1 << nbits) - 1))
    return Message.from_int(value, nbits)


@pytest.fixture(autouse=True)
def cold_cache():
    """Each test starts with this thread's first-block key cache empty, so
    that its explicit examples reach the kernel's key walks."""
    kernel = ckernel.load()
    if kernel is not None:
        kernel.cache_clear()


def test_the_suite_runs_the_kernel_wherever_a_compiler_is(monkeypatch):
    if shutil.which("cc") is None:
        assert neurohash.kernel.startswith("python: ")
        return
    assert neurohash.kernel == "c"

    def python_chain(*args):
        raise AssertionError("the Python chain ran with the kernel loaded")

    monkeypatch.setattr(hashing, "_chain", python_chain)
    key, message, t = SATURATED
    digest, per_block = hash_message_trace(message, key, t)
    assert per_block[0][0] == 0xFFFFFFFF


@settings(max_examples=60, deadline=None, derandomize=True)
@given(message=_messages(), key=KEYS, t=st.integers(1, 60))
@example(message=Message(b""), key=DOUBLY_DEAD, t=1)
@example(message=Message(b"\xff" * 383), key=DOUBLY_DEAD, t=50)
@example(message=Message(bytes(200)), key=_key(0, 0x80000000, 1, 0x80000000), t=50)
@example(message=Message(b"\xff" * 128), key=_key(0x80000000, 0, 0xFFFFFFFF, 2 ** 32 - 8192), t=1)
@example(message=Message(bytes(127)), key=_key(1, 8192, 0, 0xFFFFFFFF), t=2)
@example(message=SATURATED[1], key=SATURATED[0], t=SATURATED[2])
@example(message=Message(bytes(range(200))), key=ON_Q, t=1)
@example(message=Message(bytes(range(200))), key=ON_TOP, t=1)
@example(message=Message(bytes(range(200))), key=A_DEAD, t=1)
@example(message=Message(bytes(range(200))), key=A_DEAD, t=50)
@example(message=Message(bytes(range(200))), key=B_DEAD, t=50)
@example(message=Message(bytes(range(200))), key=A_AT_Q_MIN, t=50)
@example(message=Message(bytes(range(200))), key=B_AT_Q_MAX, t=50)
@example(message=EDGE_Q[1], key=EDGE_Q[0], t=1)
@example(message=EDGE_TOP[1], key=EDGE_TOP[0], t=1)
# one message's key schedule is walked to s[40], then 2 sub-keys a turn
# under its input layer's t loop, and the rest after it: the walk ends
# after the loop (t = 1, 2, 54), on its last turn (55) or inside it (56, 120)
@example(message=Message(bytes(range(250))), key=bytes(range(16)), t=1)
@example(message=Message(bytes(range(250))), key=bytes(range(16)), t=2)
@example(message=Message(bytes(range(250))), key=bytes(range(16)), t=54)
@example(message=Message(bytes(range(250))), key=bytes(range(16)), t=55)
@example(message=Message(bytes(range(250))), key=bytes(range(16)), t=56)
@example(message=Message(bytes(range(250))), key=bytes(range(16)), t=120)
def test_kernel_equals_python_chain_and_oracle(message, key, t):
    # the compiled chain on the host's lanes and on 2 lanes, the Python
    # chain, a chain_step walk and the oracle agree; on each chain, the
    # blocks hashed in any two consecutive calls give one call's final key
    raw = hashing._pad_bytes(message)
    blocks = len(raw) // 128
    running, per_block = [key], []
    for block in pad(message):
        digest, after = chain_step(running[-1], block, t)
        running.append(after)
        per_block.append(digest)
    kernel = ckernel.load()
    chains = [hashing._chain]
    if kernel is not None:
        chains += [kernel.chain, kernel._chain_pairs]
    for chain in chains:
        if kernel is not None:
            kernel.cache_clear()        # the first block's key walk runs
        assert chain(raw, blocks, key, t) == running[-1]
        for cut in range(1, blocks):
            head = chain(raw[:128 * cut], cut, key, t)
            assert head == running[cut]
            assert chain(raw[128 * cut:], blocks - cut, head, t) == running[-1]
    assert hash_message_trace(message, key, t) == (bytes_to_digest(running[-1]),
                                                   tuple(per_block))
    bits = bytes_to_bits(message.data)[:message.nbits]
    assert hash_message_ref(bits, key, t) == bytes_to_digest(running[-1])


def test_special_keys_and_words_show_their_property():
    # the explicit examples above cover what they claim to cover
    for message in (Message(b""), Message(b"\xff" * 383)):
        for t in (1, 50):
            digest, per_block = hash_message_trace(message, DOUBLY_DEAD, t)
            assert digest == bytes_to_digest(DOUBLY_DEAD)
            assert set(per_block) == {(0, 0, 0, 0)}
    key, message, t = SATURATED
    _, (first,) = hash_message_trace(message, key, t)
    assert first[0] == 0xFFFFFFFF
    assert pad(message)[0][31] == 0x80000000      # 31 message words
    starts = {key: orbit_starts(struct.unpack(">4I", key)) for key in LANE_KEYS}
    xa, qa, _, _ = starts[ON_Q]
    assert xa == qa and map_step(xa, qa) == 0.0
    _, _, xb, qb = starts[ON_TOP]
    assert xb == 1.0 - qb and map_step(xb, qb) == 1.0
    assert starts[A_DEAD][0] == starts[B_DEAD][2] == 0.5
    assert starts[A_AT_Q_MIN][1] == Q_MIN and starts[B_AT_Q_MAX][3] == Q_MAX
    # the other lane stays live: its orbit neither dies nor saturates
    for key, lane in ((A_DEAD, 1), (B_DEAD, 0), (A_AT_Q_MIN, 1), (B_AT_Q_MAX, 0)):
        x, q = starts[key][2 * lane:2 * lane + 2]
        assert 0.0 < map_iter(x, q, 50) < 1.0
    # the EDGE_* messages tell the branches at the edge apart: with the
    # other branch's value in s[0], the first block hashes differently
    for key, message, lane, other in (EDGE_Q, EDGE_TOP):
        xa, qa, xb, qb = orbit_starts(struct.unpack(">4I", key))
        assert (xa == qa, xb == 1.0 - qb)[lane]
        edge = [map_step(xa, qa), map_step(xb, qb)]
        assert edge[lane] == 1.0 - other
        stream = subkey_stream(key, 1)
        assert stream[0] == mod1(edge[0] + edge[1])
        edge[lane] = other
        block = pad(message)[0]
        other_branch = assign_subkeys([mod1(edge[0] + edge[1]), *stream[1:]])
        assert hash_block(block, other_branch, 1) != hash_block(block, expand_key(key, 1), 1)
    # the messages of Q_GROUP step each layer under four different q
    for t in (1, 50):
        subkeys = [expand_key(key, t) for key in Q_GROUP]
        for layer in ("q0", "q1", "q2"):
            assert len({getattr(s, layer) for s in subkeys}) == 4, (t, layer)


SPECIAL_KEYS = (DOUBLY_DEAD, *LANE_KEYS, SATURATED[0])
# chain hashes four messages at a time; these keys give a group's
# messages four different q in every layer
Q_GROUP = (SATURATED[0], ON_Q, ON_TOP, B_AT_Q_MAX)
# ON_Q's running key at t = 50 after the one block of _batch's 400-bit
# message: a group of four under ON_Q ends its last message on it
AFTER_ON_Q = bytes.fromhex("dae33404c652782bf90ccda0feaac510")


@st.composite
def _batches(draw):
    """1 to 9 messages of 1 to 3 padded blocks each, and their keys: all
    equal, all distinct, or runs of one key split by another."""
    blocks = draw(st.integers(1, 3))
    n = draw(st.integers(1, 9))
    messages = []
    for _ in range(n):
        nbits = draw(st.integers(1024 * (blocks - 1), 1024 * blocks - 1))
        messages.append(Message.from_int(draw(st.integers(0, (1 << nbits) - 1)), nbits))
    keys = st.one_of(KEYS, st.sampled_from(SPECIAL_KEYS))
    mode = draw(st.sampled_from(["equal", "distinct", "runs"]))
    if mode == "equal":
        chosen = [draw(keys)] * n
    elif mode == "distinct":
        chosen = draw(st.lists(keys, min_size=n, max_size=n, unique=True))
    else:
        pool = draw(st.lists(keys, min_size=2, max_size=2, unique=True))
        chosen = [pool[i] for i in draw(st.lists(st.sampled_from([0, 1]),
                                                 min_size=n, max_size=n))]
    return blocks, messages, chosen


def _batch(blocks, sizes, keys):
    """A batch of messages of `blocks` padded blocks each, nbits from
    `sizes`, filled with a byte pattern."""
    return blocks, [Message(bytes((7 * i + size) % 256 for i in range(1 + size // 8)),
                            size) for size in sizes], list(keys)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=_batches(), t=st.integers(1, 60))
@example(batch=_batch(1, [8], [ON_Q]), t=1)
@example(batch=_batch(2, [1500] * 9, [bytes(range(16))] * 9), t=50)
@example(batch=_batch(1, [100, 200, 300, 400, 500],
                      [A_DEAD, A_DEAD, B_DEAD, A_DEAD, A_DEAD]), t=50)
@example(batch=_batch(1, [10, 20, 30, 40, 50], [ON_Q, ON_Q, ON_Q, ON_TOP, ON_TOP]), t=3)
# a run split by a key one bit away, which must not reuse the run's schedule
@example(batch=_batch(2, [1030] * 5, [ON_Q, ON_Q, NEXT_TO_ON_Q, ON_Q, ON_Q]), t=50)
@example(batch=_batch(3, [2100, 2200, 2300], [ON_TOP, ON_TOP, DOUBLY_DEAD]), t=2)
@example(batch=_batch(2, [1100, 1200, 1300, 1400], [SATURATED[0], A_AT_Q_MIN,
                                                    B_AT_Q_MAX, SATURATED[0]]), t=1)
@example(batch=(1, [SATURATED[1]] * 2, [SATURATED[0]] * 2), t=1)
# group edges: a full group, one and three messages past it, two groups
@example(batch=_batch(1, [300] * 4, Q_GROUP), t=50)
@example(batch=_batch(1, [300] * 5, [*Q_GROUP, DOUBLY_DEAD]), t=50)
@example(batch=_batch(1, range(100, 800, 100), SPECIAL_KEYS[:7]), t=50)
@example(batch=_batch(2, range(1100, 1900, 100), SPECIAL_KEYS), t=3)
# the schedule held from the first group, and a new key in each lane of the next
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 7 + [NEXT_TO_ON_Q]), t=50)
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 5 + [NEXT_TO_ON_Q] + [ON_Q] * 2), t=50)
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 4 + [NEXT_TO_ON_Q] + [ON_Q] * 3), t=50)
# the held schedule records the key it was expanded from, ON_Q, not the
# key its message's block leaves behind, which the next group is under
@example(batch=_batch(1, [100, 200, 300, 400] * 2, [ON_Q] * 4 + [AFTER_ON_Q] * 4), t=50)
# the edge keys in every lane of a group, beside other keys
@example(batch=(1, [EDGE_Q[1]] * 6, [ON_Q, ON_TOP, ON_Q, ON_Q, B_DEAD, ON_Q]), t=1)
@example(batch=(2, [EDGE_TOP[1]] * 6, [B_ON_TOP, ON_Q, B_ON_TOP, B_ON_TOP, A_DEAD,
                                      B_ON_TOP]), t=1)
# a group walks its key schedules as one message does: to s[40], then 2
# sub-keys a turn under its input layer's t loop, and the rest after it;
# the walk ends after the loop (54), on its last turn (55) or inside it
# (56, 120), for a group of fresh keys and for a second group that copies
# the first-block schedule the first group held
@example(batch=_batch(2, [1100, 1200, 1300, 1400], Q_GROUP), t=54)
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 8), t=54)
@example(batch=_batch(2, [1100, 1200, 1300, 1400], Q_GROUP), t=55)
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 8), t=55)
@example(batch=_batch(2, [1100, 1200, 1300, 1400], Q_GROUP), t=56)
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 8), t=56)
@example(batch=_batch(2, [1100, 1200, 1300, 1400], Q_GROUP), t=120)
@example(batch=_batch(2, [1100] * 8, [ON_Q] * 8), t=120)
def test_a_batch_equals_one_chain_per_message_and_oracle(batch, t):
    # each message's final key: a batch through the compiled chain on
    # the host's lanes and on 2 lanes and through the Python chain, one
    # call per message and the oracle agree
    blocks, messages, keys = batch
    padded = [hashing._pad_bytes(message) for message in messages]
    assert {len(raw) for raw in padded} == {128 * blocks}
    kernel = ckernel.load()
    chain = kernel.chain if kernel is not None else hashing._chain
    finals = b"".join(chain(raw, blocks, key, t) for raw, key in zip(padded, keys))
    chains = [hashing._chain]
    if kernel is not None:
        chains += [kernel.chain, kernel._chain_pairs]
    for chain in chains:
        if kernel is not None:
            kernel.cache_clear()        # the groups walk their first blocks
        assert chain(b"".join(padded), blocks, b"".join(keys), t) == finals
    for i, (message, key) in enumerate(zip(messages, keys)):
        bits = bytes_to_bits(message.data)[:message.nbits]
        oracle = digest_to_bytes(hash_message_ref(bits, key, t))
        assert oracle == finals[16 * i:16 * (i + 1)]


@st.composite
def _calls(draw):
    """2 to 6 chain calls of 1 to 5 messages of 1 or 2 blocks of any bytes,
    each message under one of two keys and each call at one of two t."""
    pool = draw(st.lists(KEYS, min_size=2, max_size=2, unique=True))
    ts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    calls = []
    for _ in range(draw(st.integers(2, 6))):
        blocks, n = draw(st.integers(1, 2)), draw(st.integers(1, 5))
        keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        raw = draw(st.binary(min_size=128 * blocks * n, max_size=128 * blocks * n))
        calls.append((raw, blocks, b"".join(keys), draw(st.sampled_from(ts))))
    return calls


def _group_then_singles(key, ts):
    """A group of four under key at each t in ts, then one message alone."""
    return [(bytes(range(128)) * n, 1, key * n, t) for t in ts for n in (4, 1)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(calls=_calls())
# the schedules held at one t must not serve another
@example(calls=[(bytes(128), 1, ON_Q, 1), (bytes(128), 1, ON_Q, 2)])
@example(calls=_group_then_singles(ON_Q, (50, 51)))
@example(calls=_group_then_singles(ON_TOP, (2, 1, 2)))
def test_calls_that_alternate_keys_and_t_equal_the_python_chain(calls):
    # chain's first-block cache lives across calls: each call of a
    # sequence, on the host's lanes and on 2 lanes, equals the Python chain
    if neurohash.kernel != "c":
        pytest.skip("no compiled kernel: " + neurohash.kernel)
    kernel = ckernel.load()
    expected = [hashing._chain(*call) for call in calls]
    for chain in (kernel.chain, kernel._chain_pairs):
        kernel.cache_clear()
        assert [chain(*call) for call in calls] == expected


def test_cache_info_counts_first_blocks_copied_and_walked():
    # `short`'s shape: 0-300-byte messages (1-3 blocks) under 4 keys at
    # t = 50, one hash_message each; only first blocks are counted
    if neurohash.kernel != "c":
        pytest.skip("no compiled kernel: " + neurohash.kernel)
    kernel = ckernel.load()
    assert kernel.cache_info() == (0, 0, 8, 0)
    rng = random.Random(4)
    keys = [rng.randbytes(16) for _ in range(9)]
    for i in range(24):
        hash_message(Message(rng.randbytes(rng.randrange(301))), keys[i % 4], 50)
    assert kernel.cache_info() == (20, 4, 8, 4)
    hash_message(Message(b"abc"), keys[0], 49)              # another t
    assert kernel.cache_info() == (20, 5, 8, 5)
    # a group is copied only when all four of its keys are held; when it
    # is walked, the keys not held yet are held, each once
    group = hashing._pad_bytes(Message(bytes(100))) * 4
    kernel.chain(group, 1, b"".join(keys[:4]), 50)
    assert kernel.cache_info() == (24, 5, 8, 5)
    kernel.chain(group, 1, keys[0] + keys[4] * 3, 50)
    assert kernel.cache_info() == (24, 9, 8, 6)
    # eight schedules at most, the oldest replaced first
    kernel.cache_clear()
    assert kernel.cache_info() == (0, 0, 8, 0)
    for key in keys + [keys[0], keys[8]]:
        hash_message(Message(b"abc"), key, 50)
    assert kernel.cache_info() == (1, 10, 8, 8)


def test_two_threads_hashing_under_their_own_keys_get_their_own_digests():
    # two threads chain at once, with the GIL released, each under its own
    # key, single messages and groups, and check every result. What keeps
    # them apart is that each thread's first-block cache is its own
    # (_Thread_local in _kernel.c; CI checks that the object holds TLS
    # symbols): whether the calls of two threads interleave at the moment
    # that would show a shared cache is up to the scheduler
    if neurohash.kernel != "c":
        pytest.skip("no compiled kernel: " + neurohash.kernel)
    kernel = ckernel.load()
    rng = random.Random(2)
    work = {}
    for key in (ON_Q, ON_TOP):
        calls = [(rng.randbytes(128 * n), 1, key * n, 3) for n in (1, 1, 4, 1, 4)]
        work[key] = [(call, hashing._chain(*call)) for call in calls]
    barrier = threading.Barrier(2)
    wrong = []

    def hash_in_turn(key):
        barrier.wait(timeout=60)
        for _ in range(300):
            for chain in (kernel.chain, kernel._chain_pairs):
                for call, expected in work[key]:
                    if chain(*call) != expected:
                        wrong.append(key)

    threads = [threading.Thread(target=hash_in_turn, args=(key,)) for key in work]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("args, error", [
    pytest.param((b"", 1, bytes(16), 1), ValueError, id="no-block"),
    pytest.param((bytes(127), 1, bytes(16), 1), ValueError, id="127-bytes"),
    pytest.param((bytes(129), 1, bytes(16), 1), ValueError, id="129-bytes"),
    pytest.param((bytes(128), 1, bytes(15), 1), ValueError, id="15-byte-key"),
    pytest.param((bytes(128), 1, bytes(17), 1), ValueError, id="17-byte-key"),
    pytest.param((bytes(128), 1, bytes(16), 0), ValueError, id="t-0"),
    pytest.param((bytes(128), 1, bytes(16), -1), ValueError, id="t-minus-1"),
    pytest.param(("x" * 128, 1, bytes(16), 1), TypeError, id="str-blocks"),
    pytest.param((bytes(128), 1, "x" * 16, 1), TypeError, id="str-key"),
    pytest.param((bytes(128), 1, bytes(16), 2 ** 63), OverflowError, id="t-2**63"),
    pytest.param((bytes(128), 0, bytes(16), 1), ValueError, id="many-0-blocks"),
    pytest.param((bytes(128), -1, bytes(16), 1), ValueError, id="many-minus-1-blocks"),
    pytest.param((bytes(256), 1, bytes(24), 1), ValueError, id="many-24-byte-keys"),
    pytest.param((bytes(128), 1, b"", 1), ValueError, id="many-no-key"),
    pytest.param((b"", 1, b"", 1), ValueError, id="many-nothing"),
    pytest.param((bytes(128), 1, bytes(32), 1), ValueError, id="many-too-few-blocks"),
    pytest.param((bytes(384), 1, bytes(32), 1), ValueError, id="many-too-many-blocks"),
    pytest.param((bytes(384), 2, bytes(32), 1), ValueError, id="many-3-blocks-for-2-by-2"),
    pytest.param((bytes(384), 2, bytes(16), 1), ValueError, id="many-3-blocks-for-1-by-2"),
])
def test_the_kernel_refuses_malformed_arguments(args, error):
    # the guard that keeps the block loop inside its buffers
    if neurohash.kernel != "c":
        pytest.skip("no compiled kernel: " + neurohash.kernel)
    kernel = ckernel.load()
    for chain in (kernel.chain, kernel._chain_pairs):
        with pytest.raises(error):
            chain(*args)


def test_self_check_records_are_golden_vectors_at_t_50():
    # at t = 1 a contracted build can still agree with the goldens
    golden = {(key.hex(), data.hex(), t, format_digest(digest)) for key, data, t, digest
              in read_vectors(os.path.join(DATA, "golden_vectors.csv"))}
    for key, message, digest in ckernel.SELF_CHECK:
        assert (key, message, 50, digest) in golden


def test_a_kernel_whose_batch_disagrees_fails_the_self_check():
    # the Python chain passes; a chain that swaps two lanes, repeats the
    # first lane, hashes all under the first key, gets only the third or
    # only the fourth message of the first group wrong, hashes the second
    # group, whose schedule is the held one, under the other key, or gets
    # only the last message, which is hashed alone, wrong fails
    def python(chain):
        return types.SimpleNamespace(chain=chain, cache_clear=lambda: None)

    def swapped(padded, blocks, keys, t):
        out = hashing._chain(padded, blocks, keys, t)
        return out[16:32] + out[:16] + out[32:]

    def first_lane_repeated(padded, blocks, keys, t):
        return hashing._chain(padded, blocks, keys, t)[:16] * (len(keys) // 16)

    def first_key_only(padded, blocks, keys, t):
        return hashing._chain(padded, blocks, keys[:16] * (len(keys) // 16), t)

    def third_under_first_key(padded, blocks, keys, t):
        return hashing._chain(padded, blocks, keys[:32] + keys[:16] + keys[48:], t)

    def fourth_repeats_third(padded, blocks, keys, t):
        out = hashing._chain(padded, blocks, keys, t)
        return out[:48] + out[32:48] + out[64:]

    def second_group_under_second_key(padded, blocks, keys, t):
        return hashing._chain(padded, blocks, keys[:64] + keys[16:32] * 4 + keys[128:], t)

    def last_repeats_the_one_before(padded, blocks, keys, t):
        out = hashing._chain(padded, blocks, keys, t)
        return out[:-16] + out[-32:-16]

    assert ckernel._reproduces_self_check(python(hashing._chain))
    for broken in (swapped, first_lane_repeated, first_key_only, third_under_first_key,
                   fourth_repeats_third, second_group_under_second_key,
                   last_repeats_the_one_before):
        assert not ckernel._reproduces_self_check(python(broken)), broken.__name__
    kernel = ckernel.load()
    if kernel is not None:
        assert ckernel._reproduces_self_check(kernel)


@pytest.mark.parametrize("loaded", [True, False], ids=["kernel", "fallback"])
def test_a_t_of_2_to_the_63_is_refused_before_any_chain(monkeypatch, loaded):
    # neither t would finish: both chains are stubs that record their call,
    # and whichever loaded takes every t below 2**63
    calls = []

    def stub(name):
        def chain(padded, blocks, keys, t):
            calls.append((name, t))
            return keys
        return chain

    monkeypatch.setattr(hashing, "_chain", stub("python"))
    kernel = types.SimpleNamespace(chain=stub("c")) if loaded else None
    monkeypatch.setattr(ckernel, "load", lambda: kernel)
    key = bytes(range(16))
    with pytest.raises(ValueError, match=r"^iteration count must be < 2\*\*63"):
        hash_message(Message(b"abc"), key, 2 ** 63)
    assert calls == []
    digest = hash_message(Message(b"abc"), key, 2 ** 63 - 1)
    assert digest == bytes_to_digest(key)
    assert calls == [("c" if loaded else "python", 2 ** 63 - 1)]


# --- the build, the cache and the guard, in a copy of the package ------------


def _copy_package(tmp_path, flags=None):
    """A copy of src/neurohash with no cache; FLAGS replaced when given."""
    src = tmp_path / "src"
    shutil.copytree(os.path.dirname(neurohash.__file__), src / "neurohash",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if flags is not None:
        path = src / "neurohash" / "ckernel.py"
        text, count = re.subn(r"^FLAGS = .*$", "FLAGS = %r" % (tuple(flags),),
                              path.read_text(), flags=re.M)
        assert count == 1
        path.write_text(text)
    return src


def _run(src, code, *, no_compiler=False, prefix=None) -> str:
    """Stdout of `code` in a fresh interpreter importing the copy at `src`.

    Its cache is the copy's __pycache__, or under `prefix` when given.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONPYCACHEPREFIX", None)
    if prefix is not None:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    if no_compiler:
        empty = src.parent / "empty-path"
        empty.mkdir(exist_ok=True)
        env["PATH"] = str(empty)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, env=env, cwd=str(src.parent))
    assert result.returncode == 0, result.stderr
    return result.stdout


def _cached(src) -> list:
    """Names of the kernel files in the copy's cache."""
    return sorted(p.name for p in (src / "neurohash" / "__pycache__").glob("_kernel.*"))


# the kernel's status, then the golden vectors and both sample sweeps as
# "ok" or the reason they differ from the frozen files
OUTPUTS = """
import io, os
import neurohash
from neurohash.analysis import emit_csv, key_sensitivity_sweep, message_sensitivity_sweep
from neurohash.goldens import SAMPLE_KEY, SAMPLE_SENTENCE, verify_vectors
print(neurohash.kernel)
total, failures = verify_vectors(os.path.join(%r, "golden_vectors.csv"))
print("goldens", total, failures)
message = neurohash.Message(SAMPLE_SENTENCE.encode("ascii"))
for name, sweep in (("message", message_sensitivity_sweep), ("key", key_sensitivity_sweep)):
    text = io.StringIO(newline="")
    emit_csv(sweep(message, SAMPLE_KEY, 50), text)
    with open(os.path.join(%r, "sample_sensitivity", name + "_sensitivity.csv"), newline="") as f:
        print(name, "ok" if f.read() == text.getvalue() else "differs")
""" % (DATA, DATA)
SAME_OUTPUTS = ["goldens 20 []", "message ok", "key ok"]


def _x86_linux_has(feature):
    """Whether this x86-64 Linux machine's processor has `feature`; None
    on other machines."""
    if (platform.machine().lower() not in ("x86_64", "amd64")
            or not sys.platform.startswith("linux")):
        return None
    with open("/proc/cpuinfo") as handle:
        return re.search(r"^flags\s*:.*\b%s\b" % feature, handle.read(), re.M) is not None


def _fusing_flags():
    """Flags that make the compiler fuse multiply-adds on this machine."""
    if platform.machine().lower() in ("arm64", "aarch64"):
        return ["-O2", "-ffp-contract=fast"]
    if _x86_linux_has("fma"):
        return ["-O2", "-mfma", "-ffp-contract=fast"]
    return None


def test_chain_takes_4_lanes_where_the_processor_has_avx2():
    # LANES is the width of chain's groups and single messages alike: the
    # module picks one chain function when it loads
    if neurohash.kernel != "c":
        pytest.skip("no compiled kernel: " + neurohash.kernel)
    avx2 = _x86_linux_has("avx2")
    if avx2 is None and platform.machine().lower() not in ("arm64", "aarch64"):
        pytest.skip("cannot read this processor's features")
    assert ckernel.load().LANES == (4 if avx2 else 2)


def test_a_contracted_build_fails_the_self_check(tmp_path):
    flags = _fusing_flags()
    if flags is None or shutil.which("cc") is None:
        pytest.skip("no fused multiply-add build on this machine")
    src = _copy_package(tmp_path, flags)
    status, *outputs = _run(src, OUTPUTS).splitlines()
    assert re.fullmatch(r"python: .*_kernel\.[0-9a-f]{8}\..* fails its self-check",
                        status), status
    assert outputs == SAME_OUTPUTS
    assert len(_cached(src)) == 1                 # built, then refused


def test_no_compiler_falls_back_to_identical_digests(tmp_path):
    src = _copy_package(tmp_path)
    status, *outputs = _run(src, OUTPUTS, no_compiler=True).splitlines()
    assert status == "python: no C compiler (cc) on PATH"
    assert outputs == SAME_OUTPUTS
    assert _cached(src) == []


def test_an_unwritable_cache_falls_back(tmp_path):
    src = _copy_package(tmp_path)
    (src / "neurohash" / "__pycache__").write_text("a file, not a directory")
    code = "import neurohash; print(neurohash.kernel)"
    assert _run(src, code).startswith("python: cache not writable: ")


def test_a_second_process_loads_the_cache_without_compiling(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("nothing to cache without a C compiler")
    src = _copy_package(tmp_path)
    code = "import neurohash; print(neurohash.kernel)"
    assert _run(src, code) == "c\n"
    (name,) = _cached(src)
    assert re.fullmatch(r"_kernel\.[0-9a-f]{8}\..+", name)
    assert _run(src, code, no_compiler=True) == "c\n"
    assert _cached(src) == [name]


def test_a_build_removes_the_other_builds_but_no_build_in_progress(tmp_path):
    # a build of another source or FLAGS goes; another interpreter's
    # build and another process's *.tmp stay
    if shutil.which("cc") is None:
        pytest.skip("nothing is built without a C compiler")
    src = _copy_package(tmp_path)
    prefix = tmp_path / "prefix"
    cache = prefix / (src / "neurohash").relative_to(src.anchor)
    cache.mkdir(parents=True)
    suffix = EXTENSION_SUFFIXES[0]
    stale = ["_kernel.0badf00d" + suffix]
    kept = ["_kernel.0badf00d.another-abi.so", "_kernel.feedface%s.4242.tmp" % suffix]
    for name in stale + kept:
        (cache / name).write_bytes(b"")
    assert _run(src, "import neurohash; print(neurohash.kernel)", prefix=prefix) == "c\n"
    left = sorted(p.name for p in cache.iterdir() if not p.name.endswith(".pyc"))
    (built,) = set(left) - set(kept)
    assert re.fullmatch(r"_kernel\.[0-9a-f]{8}" + re.escape(suffix), built)
    assert left == sorted([built, *kept])


def test_the_cache_follows_the_pycache_prefix(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("nothing to cache without a C compiler")
    src = _copy_package(tmp_path)
    prefix = tmp_path / "prefix"
    assert _run(src, "import neurohash; print(neurohash.kernel)", prefix=prefix) == "c\n"
    (built,) = prefix.rglob("_kernel.*")
    assert built.parent == prefix / (src / "neurohash").relative_to(src.anchor)
    assert _cached(src) == []


def test_the_kernel_releases_the_gil():
    # the calling thread counts loop turns while a helper spends about
    # 0.3 s inside the kernel hashing 6 MiB (hundreds of thousands of
    # turns). A kernel that held the GIL would let it count only in the
    # switch intervals around the call, whatever its length: a few
    # thousand turns at most
    if neurohash.kernel != "c":
        pytest.skip("no compiled kernel: " + neurohash.kernel)
    chain = ckernel.load().chain
    raw = hashing._pad_bytes(Message(bytes(range(256)) * 24576))  # 6 MiB
    turns = [0]
    turns_inside = []

    def hash_in_helper():
        before = turns[0]
        chain(raw, len(raw) // 128, bytes(16), 50)
        turns_inside.append(turns[0] - before)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        helper = threading.Thread(target=hash_in_helper)
        helper.start()
        while helper.is_alive():
            turns[0] += 1
        helper.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not helper.is_alive()
    assert turns_inside[0] > 100000, turns_inside


def test_threads_making_the_first_hash_build_once(tmp_path):
    # more threads than cores all make the process's first hash at once
    src = _copy_package(tmp_path)
    code = """
import threading
from neurohash import ckernel, hashing
builds = []
real = ckernel._build
ckernel._build = lambda path: builds.append(path) or real(path)
barrier = threading.Barrier(6)
digests = []

def first_hash():
    barrier.wait(timeout=60)
    digests.append(hashing.hash_message(hashing.Message(b"abc"), b"0123456789abcdef", 50))

threads = [threading.Thread(target=first_hash) for _ in range(6)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(not any(thread.is_alive() for thread in threads))
print(sorted(set(map(hashing.format_digest, digests))), len(digests))
print(len(builds), ckernel.status())
"""
    done, digests, builds = _run(src, code).splitlines()
    assert done == "True"
    assert digests == "['EB28C4FB8C232B3002AC6CCDC290A9C9'] 6"
    if shutil.which("cc") is not None:
        assert builds == "1 c"


HEAVY = ["multiprocessing", "concurrent.futures", "pickle", "signal", "numpy"]
# what the cached path and the path without a compiler must not import:
# the compiler call's subprocess and sysconfig (about 58 ms a process
# with no compiler before the lookup came first), and hashlib, which
# alone costs about 4 ms of start-up
BUILD_ONLY = ["subprocess", "sysconfig", "hashlib"]
# what hashing must not import: the analysis harness, the CLI and the
# dataclasses the reports use, which bring inspect, ast, dis and tokenize
# (together about two thirds of a hashing process's start-up)
OFF_THE_HASH_PATH = ["dataclasses", "inspect", "csv", "neurohash.analysis",
                     "neurohash.opcount", "neurohash.goldens", "neurohash.cli"]


def test_import_stays_light_on_a_cold_and_a_warm_cache(tmp_path):
    src = _copy_package(tmp_path)
    code = """
import sys
before = set(sys.modules)
import neurohash
from neurohash.hashing import Message, hash_message
print([name for name in %r if name in sys.modules])
hash_message(Message(b"abc"), bytes(16), 50)
print(neurohash.kernel, [name for name in %r if name in set(sys.modules) - before])
print([name for name in %r if name in set(sys.modules) - before])
""" % (HEAVY, BUILD_ONLY, OFF_THE_HASH_PATH)
    cold = _run(src, code).splitlines()
    warm = _run(src, code).splitlines()
    bare = _run(src, code, no_compiler=True, prefix=tmp_path / "cold").splitlines()
    assert cold[0] == warm[0] == bare[0] == "[]"
    assert cold[2] == warm[2] == bare[2] == "[]"
    assert bare[1] == "python: no C compiler (cc) on PATH []"
    if shutil.which("cc") is not None:
        assert warm[1] == "c []"
