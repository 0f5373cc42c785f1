"""The compiled block chain: built on first use, trusted after a self-check.

_kernel.c's chain hashes a batch of padded messages as hashing._chain
does and returns the same bytes, each message's final running key (the
contract is in hashing's docstring). _kernel.c's header comment says
how it steps the messages, in groups and on vectors of lanes; the
module's LANES says how many lanes this processor steps, and a group
is 2 * LANES messages, 8 on AVX2 quads and 4 on pairs. Its
_chain_pairs runs 2 lanes, in groups of 4, on any host. On either
width its digests are bit-equal to the Python path's as long as the
compiler neither fuses a multiply and an add into one rounding nor
reorders floating-point operations. FLAGS asks for -ffp-contract=off
(clang's default, "on", fuses within an expression) and holds no
-ffast-math, -mfma or -march=native. It hashes with the GIL released,
as hashlib does, so a caller's own threads hash in parallel; the
Python fallback holds the GIL.

The first load() in a process finds the extension where CPython keeps
_kernel.c's byte code (the __pycache__ directory beside it, or its
mirror under sys.pycache_prefix), named after a CRC-32 of the source
and FLAGS. If it is missing, one compiler call builds it under a
temporary name and os.replace moves it into place, so concurrent builds
never see a partial file; the builds of other sources or FLAGS in that
directory are then deleted. The module is used only after it reproduces
SELF_CHECK, golden records at t = 50, where a contracted build goes
wrong (at t = 1 it can still agree), on the lanes this processor steps,
through a group's key walk, a group's and a message's copy of held
first-block schedules, and a message's key walk.
Otherwise load() returns None, the Python stage functions stay in
charge, and status() names the reason.
"""

import functools
import os
import sys
import threading
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import cache_from_source, module_from_spec, spec_from_file_location

__all__ = ["FLAGS", "SELF_CHECK", "load", "status"]

FLAGS = ("-O2", "-ffp-contract=off")
_COMPILER = "cc"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# functools.cache may run _load in two threads at once; they build in turn
_BUILD_LOCK = threading.Lock()

# (key hex, message hex, digest hex) at t = 50: records 2 and 12 of
# tests/data/golden_vectors.csv
SELF_CHECK = (
    ("30313233343536373839616263646566", "616263",
     "EB28C4FB8C232B3002AC6CCDC290A9C9"),
    ("43797b6cece1bfbfbc10a18bea2f1efa",
     "f00af34528b9abcef932cb8398c342fb815356deb95c7d212a56002701b763dadd24798b",
     "9ADDC70710B8E3FACE353DCA5CD21A56"),
)


def load():
    """The checked kernel module, or None while Python stays in charge."""
    return _load()[0]


def status() -> str:
    """"c", or "python: <reason>" when load() returns None."""
    return _load()[1]


@functools.cache
def _load():
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
    except OSError as exc:
        return None, "python: cannot read the kernel source: %s" % exc
    tag = zlib.crc32(source + " ".join(FLAGS).encode())
    cache = os.path.dirname(cache_from_source(_SOURCE))
    path = os.path.join(cache, "_kernel.%08x%s" % (tag, EXTENSION_SUFFIXES[0]))
    with _BUILD_LOCK:
        failure = None if os.path.exists(path) else _build(path)
    if failure:
        return None, "python: " + failure
    try:
        spec = spec_from_file_location("neurohash._kernel", path)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        return None, "python: cannot load %s: %s" % (path, exc)
    if not _reproduces_self_check(module):
        return None, "python: %s fails its self-check" % path
    return module, "c"


def _build(path: str):
    """Compile _kernel.c to `path`; None, or why it could not."""
    temporary = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(temporary, "wb"):
            pass
    except OSError as exc:
        return "cache not writable: %s" % exc
    try:
        # looked up first: without a compiler, every process comes here
        import shutil

        compiler = shutil.which(_COMPILER)
        if compiler is None:
            return "no C compiler (%s) on PATH" % _COMPILER
        import subprocess
        import sysconfig

        paths = sysconfig.get_paths()
        link = (["-bundle", "-undefined", "dynamic_lookup"]
                if sys.platform == "darwin" else ["-shared", "-fPIC"])
        command = [compiler, *FLAGS, *link, "-I", paths["include"],
                   "-I", paths["platinclude"], _SOURCE, "-o", temporary]
        try:
            result = subprocess.run(command, capture_output=True, text=True,
                                    errors="replace")
        except OSError as exc:
            return "build failed: %s" % exc
        if result.returncode != 0:
            lines = result.stderr.strip().splitlines() or ["no message"]
            return "build failed (exit %d): %s" % (result.returncode, lines[0])
        os.replace(temporary, path)
        _remove_other_builds(path)
        return None
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def _remove_other_builds(path: str) -> None:
    """Delete the kernels built beside `path` for another source or FLAGS.

    Those are the `_kernel.*` files with this interpreter's suffix. A
    `*.tmp` file is another process's build in progress and is left alone.
    """
    folder, name = os.path.split(path)
    try:
        others = os.listdir(folder)
    except OSError:
        return
    for other in others:
        if (other != name and other.startswith("_kernel.")
                and other.endswith(EXTENSION_SUFFIXES[0])):
            try:
                os.remove(os.path.join(folder, other))
            except OSError:
                pass


def _reproduces_self_check(module) -> bool:
    """Both SELF_CHECK records, A and B, through two chain calls on the
    lanes the module picked for this processor, each from an empty
    first-block cache. A group is 2 * module.LANES messages, g. The first
    batch is 2 * g + 2 messages: a group of A, B, B, A repeated to g
    messages, which walks and holds A's and B's first-block schedules, a
    group of B, A, A, B repeated, which copies them, each lane the other
    key's, then A and B each alone, also copied. The second is A, B, each
    message alone and walked. At t = 50 each walk of a block's key
    schedules, a group's and a message's alike, covers 41 sub-keys before
    its input layer, 100 under it and 10 after it. The cache is left
    empty."""
    from .hashing import Message, _pad_bytes

    padded = [_pad_bytes(Message(bytes.fromhex(message)))
              for _, message, _ in SELF_CHECK]
    keys = [bytes.fromhex(key) for key, _, _ in SELF_CHECK]
    digests = [bytes.fromhex(digest) for _, _, digest in SELF_CHECK]
    quartets = 2 * module.LANES // 4
    walked_then_copied = (0, 1, 1, 0) * quartets + (1, 0, 0, 1) * quartets + (0, 1)
    for batch in (walked_then_copied, (0, 1)):
        module.cache_clear()
        if (module.chain(b"".join(padded[i] for i in batch), 1,
                         b"".join(keys[i] for i in batch), 50)
                != b"".join(digests[i] for i in batch)):
            return False
    module.cache_clear()
    return True
