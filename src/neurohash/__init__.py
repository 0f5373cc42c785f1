"""Keyed 128-bit hash built from a chaotic-map neural network.

A three-layer network of piecewise-linear chaotic map neurons hashes
1024-bit blocks under key-derived weights; arbitrary-length messages
are padded, split, and chained through running-key XOR. Includes an
analysis harness for avalanche sweeps, birthday-collision experiments,
and arithmetic operation accounting.

Importing the package loads none of its modules: each public name is
imported from its module on first access and then kept here, so a
caller that only hashes never loads the analysis harness.

neurohash.kernel names the block chain that hashes: "c" for the compiled
chain (ckernel), or "python: <reason>" when the Python stage functions
run it. Reading it builds or loads the compiled chain if no hash has yet.
"""

import importlib

__version__ = "1.0.0"

# each public name and the module that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("analysis", "BirthdayReport HdrReport birthday_experiment emit_csv hdr "
                     "key_sensitivity_sweep message_sensitivity_sweep"),
        ("chaosmap", "Q_MAX Q_MIN divergence_probe map_iter map_layer map_step mod1"),
        ("goldens", "SAMPLE_KEY SAMPLE_SENTENCE default_vectors write_vectors"),
        ("hashing", "Message chain_step format_digest hash_message "
                    "hash_message_trace pad parse_digest unpad"),
        ("keyschedule", "SubKeys assign_subkeys derive_param expand_key "
                        "flip_key_bit key_from_hex quantize_word subkey_stream"),
        ("network", "extract_digest hash_block hidden_layer input_layer output_layer"),
        ("opcount", "OpCountReport StageOps count_operations"),
    )
    for name in names.split()
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name == "kernel":
        from .ckernel import status
        return status()
    if name not in _SOURCES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SOURCES[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
