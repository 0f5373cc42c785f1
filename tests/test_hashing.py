import copy
import os
import pickle
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurohash.goldens import (
    SAMPLE_KEY,
    SAMPLE_SENTENCE,
    default_vectors,
    format_vectors,
    read_vectors,
    verify_vectors,
)
from neurohash.hashing import (
    Message,
    bytes_to_digest,
    chain_step,
    digest_to_bytes,
    format_digest,
    hash_message,
    hash_message_trace,
    pad,
    parse_digest,
    unpad,
)
from neurohash.keyschedule import expand_key
from neurohash.network import hash_block
from oracles import pad_bits_ref

SEED = 59201
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_vectors.csv")


def test_message_basics():
    m = Message(b"\xf0", 4)
    assert len(m) == 4
    assert [m.bit(i) for i in range(4)] == [1, 1, 1, 1]
    assert m == Message(b"\xff", 4)          # slack bits cleared
    assert m.flip(0) == Message(b"\x70", 4)
    assert m.flip(0).flip(0) == m
    assert m.to_int() == 0b1111
    assert Message.from_int(0b1111, 4) == m
    with pytest.raises(ValueError, match="value does not fit in nbits"):
        Message.from_int(16, 4)
    assert repr(m) == "Message(f0, nbits=4)"
    assert repr(Message(b"")) == "Message('', nbits=0)"
    with pytest.raises(IndexError):
        m.bit(4)
    with pytest.raises(ValueError):
        Message(b"\x00", 9)
    for data in (5, True, [1, 2]):
        with pytest.raises(TypeError, match="a bytes-like object is required"):
            Message(data)


def test_message_pickle_and_copy_round_trip():
    for m in (Message(b"abc", 20), Message(b""), Message(SAMPLE_SENTENCE.encode())):
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert twin == m
            assert (twin.data, twin.nbits) == (m.data, m.nbits)
            with pytest.raises(AttributeError, match="cannot assign"):
                twin.nbits = 0


def test_message_copies_a_mutable_source():
    # exact bytes are immutable and kept as given; any other bytes-like
    # source is copied to bytes, so changing it cannot change the Message
    data = b"abc"
    assert Message(data).data is data
    for source in (bytearray(b"abc"), memoryview(bytearray(b"abc"))):
        m = Message(source)
        source[0] = 0x7A
        assert type(m.data) is bytes and m == Message(b"abc")
    assert type(Message(type("Sub", (bytes,), {})(b"abc")).data) is bytes


@st.composite
def _bit_string(draw):
    data = draw(st.binary(max_size=40))
    return data, draw(st.integers(0, 8 * len(data)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(string=_bit_string(), suffix=st.binary(min_size=1, max_size=8))
@example(string=(b"\xff", 4), suffix=b"\x00")
@example(string=(b"abc", 0), suffix=b"d")
def test_message_is_held_in_one_canonical_form(string, suffix):
    data, nbits = string
    m, longer = Message(data, nbits), Message(data + suffix, nbits)
    assert longer == m and hash(longer) == hash(m)
    assert len(m.data) == (nbits + 7) // 8
    slack = 8 * len(m.data) - nbits
    assert int.from_bytes(m.data, "big") & ((1 << slack) - 1) == 0
    assert [m.bit(i) for i in range(nbits)] == [
        (data[i // 8] >> (7 - i % 8)) & 1 for i in range(nbits)]
    if nbits % 8 == 0:
        assert m == Message(data[:nbits // 8])   # Message(b"abc", 0) == Message(b"")
    assert pad(longer) == pad(m)
    for twin in (pickle.loads(pickle.dumps(longer)), copy.copy(longer), copy.deepcopy(longer)):
        assert type(twin) is Message and twin == m


def test_non_message_input_is_a_type_error():
    key = bytes(16)
    for call in (hash_message, hash_message_trace):
        with pytest.raises(TypeError, match="must be a Message, not bytes"):
            call(b"abc", key, 1)
    with pytest.raises(TypeError, match="not str"):
        pad("abc")


def test_float_iteration_count_rejected_on_a_key_cache_hit():
    # expand_key's cache is typed, so 50.0 misses the entry of 50 and
    # subkey_stream's check_iterations refuses it
    m, key = Message(b"abc"), bytes(16)
    hash_message(m, key, 50)
    with pytest.raises(TypeError, match="iteration count must be an int"):
        hash_message(m, key, 50.0)


def test_message_byte_expansion_msb_first():
    m = Message(b"\x80\x01")
    assert m.bit(0) == 1
    assert m.bit(15) == 1
    assert sum(m.bit(i) for i in range(16)) == 2


def test_pad_lengths():
    assert len(pad(Message(b""))) == 1
    assert len(pad(Message(bytes(130)))) == 2          # 1040 bits
    assert len(pad(Message(bytes(128)))) == 2          # exactly one block
    assert len(pad(Message(bytes(128), 1023))) == 1
    for blocks in (pad(Message(b"")), pad(Message(bytes(130)))):
        assert all(len(b) == 32 for b in blocks)


def test_pad_bit_layout():
    # 1040-bit message: '1' marker then 1007 zeros complete block 2
    m = Message(b"\x00" * 130)
    blocks = pad(m)
    assert blocks[0] == (0,) * 32
    second = blocks[1]
    # bits 16.. of the padded tail: marker at bit offset 1040
    assert second[0] == 0x00008000
    assert second[1:] == (0,) * 31

    empty = pad(Message(b""))[0]
    assert empty[0] == 0x80000000
    assert empty[1:] == (0,) * 31


def test_unpad_inverts_pad():
    rng = random.Random(SEED)
    lengths = [0, 1, 7, 8, 1023, 1024, 1025, 2047, 2048, 5000]
    lengths += [rng.randrange(0, 4096) for _ in range(40)]
    for nbits in lengths:
        m = Message.from_int(rng.getrandbits(nbits) if nbits else 0, nbits)
        assert unpad(pad(m)) == m


def test_pad_injective():
    rng = random.Random(SEED + 1)
    messages = [Message.from_int(rng.getrandbits(n) if n else 0, n)
                for n in (0, 1, 1023, 1024, 1025, 2047, 2048)]
    messages += [Message(rng.randbytes(rng.randrange(0, 300))) for _ in range(30)]
    seen = {}
    for m in messages:
        blocks = pad(m)
        if blocks in seen:
            assert seen[blocks] == m
        seen[blocks] = m
    assert len(seen) == len(set(messages))


@st.composite
def unaligned_messages(draw):
    """Messages of 2-4 padded blocks whose length is not a whole byte."""
    nbits = 8 * draw(st.integers(128, 511)) + draw(st.integers(1, 7))
    return nbits, draw(st.integers(0, (1 << nbits) - 1))


@st.composite
def any_messages(draw):
    """Messages of 0-3000 bits, aligned or not."""
    nbits = draw(st.integers(0, 3000))
    return nbits, draw(st.integers(0, (1 << nbits) - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(message=st.one_of(unaligned_messages(), any_messages()))
@example(message=(1025, (1 << 1025) - 1))
@example(message=(2047, 1))
# the marker ORed into a partial byte or appended as a byte, next to ones
# and zeros, and the lengths around a block boundary
@example(message=(0, 0))
@example(message=(1, 1))
@example(message=(7, 0x7F))
@example(message=(8, 0xFF))
@example(message=(8, 0))
@example(message=(1016, (1 << 1016) - 1))
@example(message=(1023, (1 << 1023) - 1))
@example(message=(1023, 0))
@example(message=(1024, (1 << 1024) - 1))
@example(message=(1024, 0))
@example(message=(1025, 0))
@example(message=(2048, (1 << 2048) - 1))
def test_pad_matches_bit_list_oracle(message):
    nbits, value = message
    bits = [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)]
    blocks = pad(Message.from_int(value, nbits))
    assert blocks == tuple(pad_bits_ref(bits))
    assert unpad(blocks) == Message.from_int(value, nbits)


def test_pad_unpad_round_trip_1mib():
    data = random.Random(SEED + 3).randbytes(1 << 20)
    for nbits in (8 * len(data), 8 * len(data) - 3):
        m = Message(data, nbits)
        blocks = pad(m)
        assert len(blocks) == (nbits + 1 + 1023) // 1024
        assert unpad(blocks) == m


def test_unpad_rejects_words_outside_32_bits():
    with pytest.raises(ValueError):
        unpad(((1 << 32,) + (0,) * 31,))
    with pytest.raises(ValueError):
        unpad(((0,) * 31,))
    with pytest.raises(ValueError, match="32-bit integers"):
        unpad([(True,) + (0,) * 31])


def test_unpad_rejects_all_zero():
    with pytest.raises(ValueError):
        unpad(((0,) * 32,))
    with pytest.raises(ValueError):
        unpad(())


def test_chain_step_xor_algebra():
    rng = random.Random(SEED + 2)
    for _ in range(5):
        key = rng.randbytes(16)
        block = tuple(rng.getrandbits(32) for _ in range(32))
        digest, next_key = chain_step(key, block, 50)
        assert bytes(a ^ b for a, b in zip(next_key, key)) == digest_to_bytes(digest)
        # all-zero digest would leave the key unchanged; emulate via XOR
        assert bytes_to_digest(next_key) == tuple(
            a ^ b for a, b in zip(bytes_to_digest(key), digest)
        )


def test_single_block_message_identity():
    rng = random.Random(SEED + 3)
    key = rng.randbytes(16)
    m = Message(rng.randbytes(40))            # single padded block
    blocks = pad(m)
    assert len(blocks) == 1
    block_digest = hash_block(blocks[0], expand_key(key, 50), 50)
    expected = tuple(k ^ h for k, h in zip(bytes_to_digest(key), block_digest))
    assert hash_message(m, key, 50) == expected


def test_three_block_chain_identity():
    rng = random.Random(SEED + 4)
    key = rng.randbytes(16)
    m = Message(rng.randbytes(300))           # 2400 bits -> 3 blocks
    assert len(pad(m)) == 3
    final, per_block = hash_message_trace(m, key, 50)
    acc = bytes_to_digest(key)
    for digest in per_block:
        acc = tuple(a ^ b for a, b in zip(acc, digest))
    assert final == acc
    assert final == hash_message(m, key, 50)


def test_hash_message_deterministic_and_keyed():
    m = Message(b"determinism check")
    key = bytes(range(16))
    assert hash_message(m, key, 50) == hash_message(m, key, 50)
    assert hash_message(m, key, 50) != hash_message(m, b"0123456789abcdef", 50)
    assert hash_message(m, key, 50) != hash_message(m, key, 51)


def test_format_digest():
    words = (0xDF461FA7, 0x6AC4D533, 0x0DF97BD5, 0x8FC96DAF)
    assert format_digest(words) == "DF461FA76AC4D5330DF97BD58FC96DAF"
    assert format_digest((0, 0, 0, 0)) == "0" * 32
    # not 4 words of 32 bits, which would format to text parse_digest refuses
    for digest in ((1 << 32, 0, 0, 0), (-1, 0, 0, 0), (1, 2, 3)):
        with pytest.raises(struct.error):
            format_digest(digest)


def test_parse_format_round_trip():
    rng = random.Random(SEED + 5)
    for _ in range(50):
        digest = tuple(rng.getrandbits(32) for _ in range(4))
        assert parse_digest(format_digest(digest)) == digest
    with pytest.raises(ValueError):
        parse_digest("00")
    with pytest.raises(ValueError):
        parse_digest("G" * 32)


# 32 characters with at least one whitespace character among hex digits;
# bytes.fromhex skips whitespace, so a loose parser reads a short digest
_WHITESPACE_HEX = st.lists(
    st.sampled_from("0123456789abcdefABCDEF \t\n\r\x0b\x0c"),
    min_size=32, max_size=32,
).map("".join).filter(lambda s: not s.isalnum())


@settings(max_examples=200, deadline=None)
@given(text=_WHITESPACE_HEX)
@example(text=" " * 32)
@example(text="00 01 02 03 04 05 06 07 08 09 0a")
def test_parse_digest_refuses_whitespace(text):
    # ValueError, never struct.error from a short digest
    assert len(text) == 32
    with pytest.raises(ValueError):
        parse_digest(text)


@pytest.mark.parametrize("field", ["key", "digest"])
def test_read_vectors_refuses_whitespace(tmp_path, field):
    fields = {"key": "0" * 32, "digest": "0" * 32}
    fields[field] = "00 01 02 03 04 05 06 07 08 09 0a"
    path = tmp_path / "vectors.csv"
    path.write_text("%s,,50,%s\n" % (fields["key"], fields["digest"]))
    with pytest.raises(ValueError):
        read_vectors(str(path))


@pytest.mark.parametrize("message_hex, t", [
    ("61 62 ", "+5_0"),     # read as b"ab" at t = 50 by bytes.fromhex and int()
    ("", "+50"),
    ("", "5_0"),
    ("", " 50"),
    ("", "\uff15\uff10"),  # full-width "50"
    ("", "0"),              # no hash runs at t = 0
    ("61 62", "50"),
    ("616", "50"),
])
def test_read_vectors_refuses_loose_message_and_t(tmp_path, message_hex, t):
    path = tmp_path / "vectors.csv"
    path.write_text("%s,%s,%s,%s\n" % ("0" * 32, message_hex, t, "0" * 32),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        read_vectors(str(path))


def test_sample_sentence_is_two_blocks():
    m = Message(SAMPLE_SENTENCE.encode("ascii"))
    assert m.nbits == 1040
    assert len(pad(m)) == 2
    digest = hash_message(m, SAMPLE_KEY, 50)
    assert format_digest(digest) == "523132B93E1FAF348109BD07EC722CD1"


def test_golden_vectors_verify():
    total, failures = verify_vectors(GOLDEN_PATH)
    assert total == 20
    assert failures == []


def test_golden_vectors_regenerate_identically():
    with open(GOLDEN_PATH) as handle:
        frozen = handle.read()
    assert format_vectors(default_vectors()) == frozen


def test_golden_vectors_read_back(tmp_path):
    records = read_vectors(GOLDEN_PATH)
    assert len(records) == 20
    # blank lines, even between records, are skipped
    path = tmp_path / "vectors.csv"
    with open(GOLDEN_PATH) as handle:
        lines = handle.read().splitlines()
    path.write_text("\n".join(lines[:10] + ["", "  "] + lines[10:]) + "\n\n")
    assert read_vectors(str(path)) == records
    key, data, t, digest = records[3]
    assert key == SAMPLE_KEY
    assert data == SAMPLE_SENTENCE.encode("ascii")
    assert t == 50
    assert hash_message(Message(data), key, t) == digest
