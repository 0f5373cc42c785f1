"""Every count and every index in the package follows one rule.

A count (iteration count t, orbit length, trials, truncation width,
nbits, the value of Message.from_int) goes through
chaosmap.check_count: it must be an int, and a bool is not one, so
anything else raises TypeError naming the count and the type. A count
below its minimum raises ValueError "<count> must be >= <minimum>".
Both are raised before any work starts.

A bit index (a key bit or a message bit) goes through
chaosmap.check_index: the same TypeError, and IndexError
"<index> out of range" outside 0 <= index < size.
"""

import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neurohash.analysis import birthday_experiment
from neurohash.chaosmap import divergence_probe, map_iter, map_layer, orbit_sums
from neurohash.hashing import Message, hash_message
from neurohash.keyschedule import (
    check_iterations,
    expand_key,
    flip_key_bit,
    subkey_stream,
)
from neurohash.opcount import count_operations

KEY = bytes(range(16))

# entry point -> (call with the count, name of the count, its minimum)
COUNTS = {
    "map_layer": (lambda n: map_layer((0.3, 0.7), 0.2, n), "iteration count", 0),
    "map_iter": (lambda n: map_iter(0.3, 0.2, n), "iteration count", 0),
    "check_iterations": (check_iterations, "iteration count", 1),
    "subkey_stream": (lambda n: subkey_stream(KEY, n), "iteration count", 1),
    "expand_key": (lambda n: expand_key(KEY, n), "iteration count", 1),
    "hash_message": (lambda n: hash_message(Message(b"abc"), KEY, n),
                     "iteration count", 1),
    "count_operations": (lambda n: count_operations(n, KEY),
                         "iteration count", 0),
    "orbit_sums": (lambda n: orbit_sums(0.3, 0.2, 0.6, 0.1, 5, n),
                   "orbit length", 1),
    "divergence_probe": (lambda n: divergence_probe(2.0 ** -32, 0.2, 5, n, 0),
                         "trials", 1),
    "birthday_experiment width": (
        lambda n: birthday_experiment(n, 20, KEY, 1, 0), "truncation width", 8),
    "birthday_experiment trials": (
        lambda n: birthday_experiment(8, n, KEY, 1, 0), "trials", 2),
    "Message": (lambda n: Message(b"\x80", n), "nbits", 0),
    "Message.from_int": (lambda n: Message.from_int(5, n), "nbits", 0),
    "Message.from_int value": (lambda n: Message.from_int(n, 64), "value", 0),
}

NON_INTS = st.one_of(st.booleans(), st.floats(), st.text(max_size=4),
                     st.none())


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(COUNTS)), non_int=NON_INTS,
       shortfall=st.one_of(st.integers(1, 3), st.integers(1, 2 ** 70)))
# each of these was accepted before the rule was shared, and returned
# a 1-point orbit, 0.0, a Message with nbits=True, or a 3-bit Message
@example(entry="orbit_sums", non_int=True, shortfall=1)
@example(entry="divergence_probe", non_int=True, shortfall=1)
@example(entry="Message", non_int=True, shortfall=1)
@example(entry="Message.from_int", non_int=3.0, shortfall=1)
@example(entry="subkey_stream", non_int=50.0, shortfall=1)
@example(entry="count_operations", non_int=None, shortfall=1)
@example(entry="birthday_experiment width", non_int=16.0, shortfall=8)
@example(entry="birthday_experiment trials", non_int="20", shortfall=2)
@example(entry="Message.from_int value", non_int=True, shortfall=1)
def test_every_count_follows_one_rule(entry, non_int, shortfall):
    # Message(data, None) is the default length, 8 bits per byte
    assume(entry != "Message" or non_int is not None)
    call, what, least = COUNTS[entry]
    with pytest.raises(TypeError, match=re.escape(
            "%s must be an int, not %s" % (what, type(non_int).__name__))):
        call(non_int)
    with pytest.raises(ValueError,
                       match=re.escape("%s must be >= %d" % (what, least))):
        call(least - shortfall)


# entry point -> (call with the index, name of the index, its size)
INDICES = {
    "flip_key_bit": (lambda i: flip_key_bit(KEY, i), "key bit index", 128),
    "Message.bit": (lambda i: Message(b"ab").bit(i), "bit index", 16),
    "Message.flip": (lambda i: Message(b"ab").flip(i), "bit index", 16),
}


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(INDICES)),
       non_int=st.one_of(st.booleans(), st.floats(), st.text(max_size=4)),
       excess=st.one_of(st.integers(0, 3), st.integers(0, 2 ** 70)))
# the first two were accepted as index 1 before the rule was shared;
# the last leaked "indices must be integers or slices, not float"
@example(entry="flip_key_bit", non_int=True, excess=0)
@example(entry="Message.flip", non_int=True, excess=0)
@example(entry="Message.bit", non_int=1.0, excess=0)
def test_every_bit_index_follows_one_rule(entry, non_int, excess):
    call, what, size = INDICES[entry]
    with pytest.raises(TypeError, match=re.escape(
            "%s must be an int, not %s" % (what, type(non_int).__name__))):
        call(non_int)
    for index in (-1 - excess, size + excess):
        with pytest.raises(IndexError, match=re.escape("%s out of range" % what)):
            call(index)
