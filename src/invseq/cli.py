"""Command-line front end.

Six subcommands tie the package together:

    invseq count   --system 201-210 --n 7 --method rules
    invseq count   --basis 000 --n 6
    invseq list    --basis 201,210 --n 3
    invseq series  --system 201-210 --n-max 5 --format bfile
    invseq profile --system 201-210 --n 3
    invseq diagram --system 201-210 --n-max 3
    invseq verify  --check oracle-vs-rules --n-max 10

verify runs one of the named checks in ``invseq.checks`` through
``run_check`` and prints its lines after the check's name.

list prints the text ``oracle.listing_text`` builds from the oracle's
state DP when every pattern has length at most 4 and n <= 10, and
otherwise renders ``list_avoiders`` with ``core.render_listing``; both
give the same bytes.

Exit status is 0 on success and 1 when a verify check fails; an
arithmetic error inside a check, such as an inexact division, counts as
a failure.  Status 2 means the command did not run to an answer: a usage
error, an arithmetic error in any other command, or an internal error.
An internal error is any other exception (a bug, MemoryError,
RecursionError); it prints one "error: internal error: <Type>: <message>"
line on stderr, or "... <Type>" when the message is empty, and never a
traceback.

Output is deterministic: the same invocation always produces
byte-identical text, so the commands are safe to diff in CI.

series prints each count of the rules memo or the closed form with the
decimal text a per-process memo keeps for that value (``_DECIMAL``), so
a process converts each such count to text once; the oracle's counts,
which no prefix keeps, are converted on every request.  The memo is
keyed by value, not by source, because the rules memo and the closed
form hold the same 201-210 counts, so one memo converts each count once
for both.  profile prints ``profile_text``, which renders the dense
level without building a dict.

main() builds the argument parser once per process, on its first call,
and reuses it; build_parser() still returns a fresh one.

Importing this module, or building the parser, compiles no code of
``invseq.series``: the ``--method gf`` branch imports the closed form
where it calls it, and the verify checks that read series algebra import
it in their own bodies (see ``invseq.checks``), so the first such
request loads it, and count, series and list requests on a basis or the
rules, profile, diagram and the other checks never do.
"""

import argparse
import functools
import sys

from .checks import CHECKS, run_check
from .core import digit_word, render_listing, validate_pattern
from .oracle import count_sequence, list_avoiders, listing_text
from .succession import (
    emit_diagram,
    get_system,
    profile_text,
    rule_counting_sequence,
    SYSTEMS,
)


def parse_basis(text):
    """Parse a comma-separated list of pattern words, e.g. "201,210".

    The empty string is the empty basis (avoid nothing).  Each word must
    be ASCII digits and use every value from 0 up to its maximum.
    """
    if text == "":
        return ()
    basis = tuple(digit_word(token, "basis word") for token in text.split(","))
    for word in basis:
        validate_pattern(word)
    return basis


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _resolve_basis(args):
    if args.system is not None:
        return get_system(args.system).basis
    return parse_basis(args.basis)


def _counts_through(args, n_max):
    """(counting sequence 0..n_max, whether a per-process prefix holds
    its counts) for the source the flags select: the rules memo and the
    closed form keep one, the oracle none."""
    _require(n_max >= 0, "n must be nonnegative")
    if args.system is not None:
        method = args.method or "rules"
        if method == "rules":
            return rule_counting_sequence(args.system, n_max), True
        if method == "gf":
            _require(args.system == "201-210",
                     "method gf only applies to system 201-210")
            from .series import f_coefficients
            return f_coefficients(n_max), True
        return count_sequence(get_system(args.system).basis, n_max), False
    method = args.method or "oracle"
    _require(method == "oracle",
             "--basis only supports method oracle; use --system for %s" % method)
    return count_sequence(parse_basis(args.basis), n_max), False


_DECIMAL = {}       # count -> its decimal text, for counts a prefix holds


def _decimal(counts):
    """The decimal text of each count, read from _DECIMAL or added to it.

    str() of an integer depends on its value alone, so no entry can go
    stale, and the memo keeps at most the counts the prefixes keep.  No
    lock is needed: two threads may both convert a count, and the first
    text stored is kept."""
    memo = _DECIMAL
    return [memo.get(c) or memo.setdefault(c, str(c)) for c in counts]


def _cmd_count(args):
    print(_counts_through(args, args.n)[0][args.n])
    return 0


def _cmd_list(args):
    _require(args.n >= 0, "n must be nonnegative")
    basis = _resolve_basis(args)
    text = listing_text(basis, args.n)
    if text is None:  # a pattern of length 5 or more, or n > 10
        text = render_listing(list_avoiders(basis, args.n))
    sys.stdout.write(text)
    return 0


def _cmd_series(args):
    counts, kept = _counts_through(args, args.n_max)
    texts = _decimal(counts) if kept else map(str, counts)
    if args.format == "plain":
        lines = [text + "\n" for text in texts]
    else:
        sep = "," if args.format == "csv" else " "
        lines = ["%d%s%s\n" % (n, sep, text) for n, text in enumerate(texts)]
    sys.stdout.write("".join(lines))
    return 0


def _cmd_profile(args):
    _require(args.n >= 0, "n must be nonnegative")
    sys.stdout.write(profile_text(args.system, args.n))
    return 0


def _cmd_diagram(args):
    _require(args.n_max >= 0, "n-max must be nonnegative")
    sys.stdout.write(emit_diagram(args.system, args.n_max))
    return 0


def _cmd_verify(args):
    ok, lines = run_check(args.check, args.n_max)
    for line in lines:
        print("%s: %s" % (args.check, line))
    return 0 if ok else 1


def _add_source_flags(sub, with_method=True):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", choices=sorted(SYSTEMS),
                       help="one of the built-in rule systems")
    group.add_argument("--basis", help="comma-separated pattern words, "
                       "e.g. 201,210 (empty string avoids nothing)")
    if with_method:
        sub.add_argument("--method", choices=["rules", "oracle", "gf"],
                         help="rules (default with --system), oracle "
                         "(default with --basis), or gf (201-210 only)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invseq",
        description="Count and enumerate pattern-avoiding inversion sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="one term of a counting sequence")
    _add_source_flags(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("list", help="enumerate avoiders of a basis")
    _add_source_flags(p, with_method=False)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("series", help="counting sequence from 0 to n-max")
    _add_source_flags(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=["plain", "csv", "bfile"],
                   default="plain")

    p = sub.add_parser("profile", help="state census of a system at depth n")
    p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("diagram", help="generating tree as DOT")
    p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=["dot"], default="dot")

    p = sub.add_parser("verify", help="run a named cross-check")
    p.add_argument("--check", choices=sorted(CHECKS), required=True)
    p.add_argument("--n-max", type=int,
                   help="depth to check to (each check has a default)")

    return parser


_COMMANDS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "series": _cmd_series,
    "profile": _cmd_profile,
    "diagram": _cmd_diagram,
    "verify": _cmd_verify,
}


@functools.cache
def _parser():
    """The parser main() uses, built on its first call.  parse_args returns
    a fresh Namespace every time, so reuse carries nothing over."""
    return build_parser()


def _one_line(exc):
    """'<Type>: <message>' on one line, or just the type without a message."""
    message = " ".join(str(exc).split())
    return "%s: %s" % (type(exc).__name__, message) if message else type(exc).__name__


def main(argv=None):
    args = _parser().parse_args(argv)
    # Exact counts outgrow the cap Python (3.10.7 and later) puts on
    # int -> str conversion; lift it for this call only.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, MemoryError, RecursionError, ...
        print("error: internal error: %s" % _one_line(exc), file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
