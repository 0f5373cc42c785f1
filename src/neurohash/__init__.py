"""Keyed 128-bit hash built from a chaotic-map neural network.

A three-layer network of piecewise-linear chaotic map neurons hashes
1024-bit blocks under key-derived weights; arbitrary-length messages
are padded, split, and chained through running-key XOR. Includes an
analysis harness for avalanche sweeps, birthday-collision experiments,
and arithmetic operation accounting.

neurohash.kernel names the block chain that hashes: "c" for the compiled
chain (ckernel), or "python: <reason>" when the Python stage functions
run it. Reading it builds or loads the compiled chain if no hash has yet.
"""

from .analysis import (
    BirthdayReport,
    HdrReport,
    birthday_experiment,
    emit_csv,
    hdr,
    key_sensitivity_sweep,
    message_sensitivity_sweep,
)
from .chaosmap import Q_MAX, Q_MIN, divergence_probe, map_iter
from .chaosmap import map_layer, map_step, mod1
from .goldens import SAMPLE_KEY, SAMPLE_SENTENCE, default_vectors, write_vectors
from .hashing import (
    Message,
    chain_step,
    format_digest,
    hash_message,
    hash_message_trace,
    pad,
    parse_digest,
    unpad,
)
from .keyschedule import (
    SubKeys,
    assign_subkeys,
    derive_param,
    expand_key,
    flip_key_bit,
    key_from_hex,
    quantize_word,
    subkey_stream,
)
from .network import (
    extract_digest,
    hash_block,
    hidden_layer,
    input_layer,
    output_layer,
)
from .opcount import OpCountReport, StageOps, count_operations

__version__ = "1.0.0"


def __getattr__(name):
    if name == "kernel":
        from .ckernel import status
        return status()
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "BirthdayReport",
    "HdrReport",
    "Message",
    "OpCountReport",
    "Q_MAX",
    "Q_MIN",
    "SAMPLE_KEY",
    "SAMPLE_SENTENCE",
    "StageOps",
    "SubKeys",
    "assign_subkeys",
    "birthday_experiment",
    "chain_step",
    "count_operations",
    "default_vectors",
    "derive_param",
    "divergence_probe",
    "emit_csv",
    "expand_key",
    "extract_digest",
    "flip_key_bit",
    "format_digest",
    "hash_block",
    "hash_message",
    "hash_message_trace",
    "hdr",
    "hidden_layer",
    "input_layer",
    "key_from_hex",
    "key_sensitivity_sweep",
    "map_iter",
    "map_layer",
    "map_step",
    "message_sensitivity_sweep",
    "mod1",
    "output_layer",
    "pad",
    "parse_digest",
    "quantize_word",
    "subkey_stream",
    "unpad",
    "write_vectors",
]
