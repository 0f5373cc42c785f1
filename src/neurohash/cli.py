"""Command-line front end.

Subcommands: hash a file or stdin under a key, run the sensitivity
sweeps, run the birthday-collision experiment, print the operation
counts, and regenerate the golden-vector file. Every command but
goldens, whose content is fixed and which takes only --out, takes a
key (--key-hex or --key-ascii) and --t; iteration counts below 50 are
refused unless --unsafe-small-t is given. Each command imports the
modules it runs when it runs, so hash loads only the hash path.
"""

import argparse
import functools
import os
import sys

from .hashing import Message, format_digest, hash_message
from .keyschedule import check_iterations, check_key, key_from_hex

_PROG = "neurohash"


# built on the first main call, not at import, and kept for the later calls
# in the process: a build costs about a millisecond
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Keyed 128-bit chaotic network hash and its analysis harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=False):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--key-hex", metavar="HEX",
                           help="128-bit key as 32 hex digits")
        group.add_argument("--key-ascii", metavar="TEXT",
                           help="128-bit key as exactly 16 ASCII characters")
        p.add_argument("--t", type=int, default=50, metavar="N",
                       help="map iterations per keyed stage (default 50)")
        p.add_argument("--unsafe-small-t", action="store_true",
                       help="allow 1 <= t < 50 (testing only)")
        p.add_argument("--out", metavar="PATH",
                       help="output destination (default: stdout or cwd)")
        if with_input:
            p.add_argument("input", nargs="?", default="-", metavar="FILE",
                           help="input file ('-' or omitted: stdin)")

    p = sub.add_parser("hash", help="print the digest of a message")
    common(p, with_input=True)

    p = sub.add_parser("sensitivity",
                       help="per-bit avalanche sweeps over message and key")
    common(p, with_input=True)

    p = sub.add_parser("birthday", help="truncated-digest collision experiment")
    common(p)
    p.add_argument("--width", type=int, default=16, metavar="BITS",
                   help="truncation width in bits, 8..32 (default 16)")
    p.add_argument("--trials", type=int, default=1000, metavar="N",
                   help="number of random messages (default 1000)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="experiment seed (default 0)")

    p = sub.add_parser("opcount", help="arithmetic operation counts for one block")
    common(p)

    p = sub.add_parser("goldens", help="regenerate the golden-vector file "
                                       "(content is fixed)")
    p.add_argument("--out", metavar="PATH",
                   help="output file (default: golden_vectors.csv)")
    return parser


def _resolve_key(args) -> bytes:
    if args.key_hex is not None:
        return key_from_hex(args.key_hex)
    return check_key(args.key_ascii.encode("ascii", "strict"))


def _resolve_t(args) -> int:
    t = check_iterations(args.t)
    if t < 50 and not args.unsafe_small_t:
        raise ValueError("--t below 50 requires --unsafe-small-t")
    return t


def _read_message(path: str) -> Message:
    if path == "-":
        return Message(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return Message(handle.read())


def _cmd_hash(args) -> int:
    key = _resolve_key(args)
    t = _resolve_t(args)
    digest = hash_message(_read_message(args.input), key, t)
    line = format_digest(digest) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(line)
    else:
        sys.stdout.write(line)
    return 0


def _cmd_sensitivity(args) -> int:
    from .analysis import emit_csv, key_sensitivity_sweep, message_sensitivity_sweep
    key = _resolve_key(args)
    t = _resolve_t(args)
    message = _read_message(args.input)
    # both reports first: a refused input must not leave an empty --out
    reports = (("message", message_sensitivity_sweep(message, key, t)),
               ("key", key_sensitivity_sweep(message, key, t)))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for name, report in reports:
        path = os.path.join(out_dir, "%s_sensitivity.csv" % name)
        emit_csv(report, path)
        print("%s flips=%d mean=%.6f min=%.6f max=%.6f -> %s"
              % (name, len(report.per_flip), report.mean,
                 report.min, report.max, path))
    return 0


def _cmd_birthday(args) -> int:
    from .analysis import birthday_experiment, emit_csv
    key = _resolve_key(args)
    t = _resolve_t(args)
    report = birthday_experiment(args.width, args.trials, key, t, args.seed)
    if args.out:
        emit_csv(report, args.out)
        print("observed=%d expected=%.4f seed=%d -> %s"
              % (report.collisions_observed, report.collisions_expected,
                 report.seed, args.out))
    else:
        emit_csv(report, sys.stdout)
    return 0


def _cmd_opcount(args) -> int:
    from .analysis import emit_csv
    from .opcount import count_operations
    key = _resolve_key(args)
    t = _resolve_t(args)
    report = count_operations(t, key)
    for name in ("mul_div", "add_sub",
                 "critical_path_mul_div", "critical_path_add_sub"):
        print("%s %d" % (name, getattr(report, name)))
    if args.out:
        emit_csv(report, args.out)
    return 0


def _cmd_goldens(args) -> int:
    from .goldens import write_vectors
    path = args.out or "golden_vectors.csv"
    count = write_vectors(path)
    print("wrote %d vectors to %s" % (count, path))
    return 0


_COMMANDS = {
    "hash": _cmd_hash,
    "sensitivity": _cmd_sensitivity,
    "birthday": _cmd_birthday,
    "opcount": _cmd_opcount,
    "goldens": _cmd_goldens,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print("%s: error: %s" % (_PROG, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print("%s: error: %s" % (_PROG, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
