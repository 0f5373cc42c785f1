"""Variable-length hashing: padding, block chaining, serialization.

A message is a bit string of exact length. Padding appends one '1' bit
and the fewest '0' bits reaching a multiple of 1024 (always at least
the '1'), so distinct messages never pad to the same blocks and the
original is recoverable. Blocks are hashed in a chain: each block is
hashed under the running 128-bit key, and the running key is then
XORed with the block digest. The final running key is the message
digest, i.e. key XOR (XOR of all per-block digests).

hash_message and hash_message_trace check their inputs, pad, and hand
the padded bytes to _hash_many, which runs the compiled chain (ckernel)
when it has been built and has passed its self-check, and otherwise
_chain, a loop of chain_step over the Python stage functions, which
stay the reference. The two chains share one contract:
chain(padded, blocks, keys, t) returns the final running key of each of
n messages of `blocks` padded blocks, given one after the other, under
its own key, 16 * n bytes. Hashing a message's blocks in two calls, the
second from the first's final key, gives the final key of one call.
The experiments hash their batches through _hash_many too.
"""

import struct

from . import ckernel
from .chaosmap import check_count, check_index
from .keyschedule import check_iterations, check_key, expand_key, key_from_hex
from .network import BLOCK_WORDS, check_block, hash_block

__all__ = [
    "BLOCK_BITS",
    "Message",
    "check_message",
    "pad",
    "unpad",
    "chain_step",
    "hash_message",
    "hash_message_trace",
    "format_digest",
    "parse_digest",
    "digest_to_bytes",
    "bytes_to_digest",
]

BLOCK_BITS = 32 * BLOCK_WORDS
_BLOCK_BYTES = BLOCK_BITS // 8
_BLOCK_FORMAT = ">%dI" % BLOCK_WORDS


class Message:
    """An immutable bit string; byte input expands MSB-first.

    `data` must be bytes-like, and `nbits` may be shorter than
    8 * len(data). Only the (nbits + 7) // 8 bytes that hold the string
    are kept, with the bits past nbits cleared, so equal bit strings
    compare and hash equal.

    It behaves as a frozen dataclass of (data, nbits), but is a plain
    slotted class, so that hashing never imports dataclasses: setting or
    deleting an attribute raises AttributeError, and copies and pickles
    rebuild it through __init__.
    """

    __slots__ = ("data", "nbits")
    __match_args__ = ("data", "nbits")

    def __init__(self, data: bytes = b"", nbits=None):
        if type(data) is not bytes:
            # a copy, so a mutable source cannot change the Message
            data = bytes(memoryview(data))
        if nbits is None:
            nbits = 8 * len(data)
        elif check_count(nbits, 0, "nbits") > 8 * len(data):
            raise ValueError("nbits out of range for the given bytes")
        data = data[:(nbits + 7) // 8]
        slack = -nbits % 8
        if slack:
            data = data[:-1] + bytes((data[-1] >> slack << slack,))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nbits", nbits)

    @classmethod
    def from_int(cls, value: int, nbits: int):
        """Bit string from the low nbits of value, MSB first."""
        check_count(nbits, 0, "nbits")
        if check_count(value, 0, "value") >> nbits:
            raise ValueError("value does not fit in nbits")
        nbytes = (nbits + 7) // 8
        data = (value << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
        return cls(data, nbits)

    def to_int(self) -> int:
        return int.from_bytes(self.data, "big") >> (8 * len(self.data) - self.nbits)

    def bit(self, index: int) -> int:
        check_index(index, self.nbits, "bit index")
        return (self.data[index // 8] >> (7 - index % 8)) & 1

    def flip(self, index: int) -> "Message":
        check_index(index, self.nbits, "bit index")
        out = bytearray(self.data)
        out[index // 8] ^= 0x80 >> (index % 8)
        return Message(bytes(out), self.nbits)

    def __len__(self) -> int:
        return self.nbits

    def __repr__(self) -> str:
        return "Message(%s, nbits=%d)" % (self.data.hex() or "''", self.nbits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.data == other.data and self.nbits == other.nbits

    def __hash__(self) -> int:
        return hash((self.data, self.nbits))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, (self.data, self.nbits)


def check_message(message) -> Message:
    if not isinstance(message, Message):
        raise TypeError("message must be a Message, not %s" % type(message).__name__)
    return message


def pad(message: Message) -> tuple:
    """Append '1' then minimal '0's to a 1024-bit multiple; split to blocks."""
    return _blocks(_pad_bytes(message))


def _pad_bytes(message: Message) -> bytes:
    """The padded message as bytes, a whole number of blocks.

    The '1' marker is ORed into the last, partial byte (whose bits past
    nbits Message keeps clear), or appended as a byte 0x80 when nbits is
    a whole number of bytes; zero bytes follow up to a block boundary.
    Concatenation, so the cost is linear in the message's length.
    """
    data, nbits = check_message(message).data, message.nbits
    if nbits % 8:
        data = data[:-1] + bytes((data[-1] | 0x80 >> nbits % 8,))
    else:
        data += b"\x80"
    return data + bytes(-len(data) % _BLOCK_BYTES)


def _blocks(raw: bytes) -> tuple:
    return tuple(struct.unpack_from(_BLOCK_FORMAT, raw, off)
                 for off in range(0, len(raw), _BLOCK_BYTES))


def unpad(blocks) -> Message:
    """Recover the message: strip trailing zeros, then the '1' marker."""
    blocks = [check_block(block) for block in blocks]
    raw = b"".join(struct.pack(_BLOCK_FORMAT, *block) for block in blocks)
    value = int.from_bytes(raw, "big")
    if value == 0:
        raise ValueError("padding marker missing")
    trailing = (value & -value).bit_length() - 1
    nbits = 8 * len(raw) - trailing - 1
    return Message.from_int(value >> (trailing + 1), nbits)


def chain_step(prev_key: bytes, block, t: int):
    """Hash one block under the running key; returns (digest, next key)."""
    prev_key = check_key(prev_key)
    digest = hash_block(block, expand_key(prev_key, t), t)
    return digest, _next_key(prev_key, digest)


def _next_key(prev_key: bytes, digest) -> bytes:
    """The running key after a block: XOR with the block digest."""
    a, b, c, d = digest
    value = int.from_bytes(prev_key, "big") ^ (a << 96 | b << 64 | c << 32 | d)
    return value.to_bytes(16, "big")


def _chain(padded: bytes, blocks: int, keys: bytes, t: int) -> bytes:
    """The Python chain: each message's final running key, in order.

    `padded` holds len(keys) // 16 messages of `blocks` padded blocks
    each, one after the other, and `keys` their keys.
    """
    size = blocks * _BLOCK_BYTES
    finals = []
    for i in range(len(keys) // 16):
        key = keys[16 * i:16 * (i + 1)]
        for block in _blocks(padded[i * size:(i + 1) * size]):
            key = chain_step(key, block, t)[1]
        finals.append(key)
    return b"".join(finals)


def _hash_many(padded: bytes, blocks: int, keys: bytes, t: int) -> bytes:
    """chain's bytes for checked keys and t, on the compiled chain when
    it loaded and on _chain otherwise."""
    kernel = ckernel.load()
    chain = kernel.chain if kernel is not None else _chain
    return chain(padded, blocks, keys, t)


def hash_message(message: Message, key: bytes, t: int) -> tuple:
    """Digest of an arbitrary-length message under a 128-bit key."""
    key = check_key(key)
    raw = _pad_bytes(message)
    check_iterations(t)
    return bytes_to_digest(_hash_many(raw, len(raw) // _BLOCK_BYTES, key, t))


def hash_message_trace(message: Message, key: bytes, t: int):
    """The message digest and every per-block digest, in chain order: the
    digest from one chain call, each block digest from a call on that
    block alone, the running key before it XOR the one after it."""
    digest = hash_message(message, key, t)
    key, raw = check_key(key), _pad_bytes(message)
    per_block = []
    for off in range(0, len(raw), _BLOCK_BYTES):
        after = _hash_many(raw[off:off + _BLOCK_BYTES], 1, key, t)
        per_block.append(bytes_to_digest(bytes(a ^ b for a, b in zip(key, after))))
        key = after
    return digest, tuple(per_block)


def format_digest(digest) -> str:
    """32 uppercase hex digits, word 0 first, big-endian within words."""
    return digest_to_bytes(digest).hex().upper()


def parse_digest(text: str) -> tuple:
    # a digest is the final running key, so it reads like one
    return bytes_to_digest(key_from_hex(text))


def digest_to_bytes(digest) -> bytes:
    return struct.pack(">4I", *digest)


def bytes_to_digest(raw: bytes) -> tuple:
    return struct.unpack(">4I", raw)
