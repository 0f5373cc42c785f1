import importlib
import os
import subprocess
import sys

import pytest

import neurohash

# the public names as the package exported them when it imported every
# module eagerly, by the module that defines each
SURFACE = {
    "analysis": "BirthdayReport HdrReport birthday_experiment emit_csv hdr "
                "key_sensitivity_sweep message_sensitivity_sweep",
    "chaosmap": "Q_MAX Q_MIN divergence_probe map_iter map_layer map_step mod1",
    "goldens": "SAMPLE_KEY SAMPLE_SENTENCE default_vectors write_vectors",
    "hashing": "Message chain_step format_digest hash_message hash_message_trace "
               "pad parse_digest unpad",
    "keyschedule": "SubKeys assign_subkeys derive_param expand_key flip_key_bit "
                   "key_from_hex quantize_word subkey_stream",
    "network": "extract_digest hash_block hidden_layer input_layer output_layer",
    "opcount": "OpCountReport StageOps count_operations",
}


def test_every_public_name_is_its_modules_object():
    names = [(module, name) for module, names in SURFACE.items()
             for name in names.split()]
    assert neurohash.__all__ == sorted(name for _, name in names)
    for module, name in names:
        source = importlib.import_module("neurohash." + module)
        assert getattr(neurohash, name) is getattr(source, name), name
        assert vars(neurohash)[name] is getattr(source, name)   # kept once resolved


def test_star_import_and_dir_list_every_public_name():
    # a fresh interpreter, where no public name has been resolved yet
    src = os.path.dirname(os.path.dirname(neurohash.__file__))
    code = """
import neurohash
listed = set(dir(neurohash))
namespace = {}
exec("from neurohash import *", namespace)
print(sorted(set(neurohash.__all__) - listed), sorted(set(neurohash.__all__) - set(namespace)))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] []\n"


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        neurohash.no_such_name
    assert isinstance(neurohash.kernel, str)
