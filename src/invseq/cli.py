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

series prints the counts of the rules memo or the closed form from two
kinds of route in the registry of ``invseq.prefix``: a text route per
source, ("text", the source's registry key), whose count at depth d is
the line of the source's count at d, and an index route per separator,
("index", "," or " "), whose count at d is d and the separator.  The
text route is keyed on the bound ``count`` of the source's prefix (the
system's ``RuleSystem.memo``, or ``invseq.series.f_prefix``), so it
steps cold once the source is made afresh, by a planted step say.  A
process thus converts and formats each such count once: a plain reply
joins the text route's lines, and a csv or bfile reply joins each line
of the index route with the line of the text route.  The oracle's
counts (--basis, --method oracle), which no prefix keeps, are converted
and formatted on every request and add no route.  profile prints
``profile_text``, which renders the dense level without building a
dict.

One table, ``_GRAMMAR``, holds the command line: each subcommand's
handler, help text and flags, and whether it takes the --system/--basis
pair.  build_parser() builds the argparse parser from it, and
``_PLAIN``, what the plain path reads, is derived from it at import.
main() parses a command line on one of two paths.  A plain command line
(a subcommand, then exact long flags of it, each once, as "--flag value"
with no value starting with "-") that argparse would accept is read by
``_parse`` in a few dict lookups, into a Namespace equal to the one
parse_args returns; this is the form of every request the benchmark
sends and of every README example.  Any other command line (-h, an
abbreviation, --flag=value, a repeat, a missing or unknown flag, a value
argparse rejects) goes to argparse, which prints every help, usage and
error text.  main() builds that parser on the first command line that
needs it and reuses it, so a process whose command lines are all plain
never builds one; build_parser() still returns a fresh one.

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
from operator import add

from .checks import CHECKS, run_check
from .core import digit_word, render_listing, validate_pattern
from .oracle import count_sequence, list_avoiders, listing_text
from .prefix import shared
from .succession import (
    emit_diagram,
    get_system,
    profile_text,
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


def _source(args, n_max):
    """(count, registry key) for the source the flags select, where
    count(d) is its count at depth d <= n_max.  The rules memo, under the
    system's name, and the closed form, under "f_coefficients", are
    per-process prefixes, and count is the prefix's bound ``count``,
    which reads one kept count; the oracle keeps none, so its key is None
    and count reads the counting sequence it returns."""
    if args.system is not None:
        method = args.method or "rules"
        if method == "rules":
            return get_system(args.system).memo.count, args.system
        if method == "gf":
            _require(args.system == "201-210",
                     "method gf only applies to system 201-210")
            from .series import f_prefix
            return f_prefix().count, "f_coefficients"
        return count_sequence(get_system(args.system).basis, n_max).__getitem__, None
    method = args.method or "oracle"
    _require(method == "oracle",
             "--basis only supports method oracle; use --system for %s" % method)
    return count_sequence(parse_basis(args.basis), n_max).__getitem__, None


def _text_step(d, count):
    """The text route's step: the line of the source's count at depth d."""
    return d + 1, str(count(d)) + "\n"


_SEPARATORS = {"plain": None, "csv": ",", "bfile": " "}  # by --format


def _index_step(d, sep):
    """The index route's step: depth d and the separator."""
    return d + 1, "%d%s" % (d, sep)


def _cmd_count(args):
    _require(args.n >= 0, "n must be nonnegative")
    print(_source(args, args.n)[0](args.n))
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
    n = args.n_max
    _require(n >= 0, "n-max must be nonnegative")
    sep = _SEPARATORS[args.format]
    count, key = _source(args, n)
    if key is None:
        lines = [str(count(d)) + "\n" for d in range(n + 1)]
        index = sep and ["%d%s" % (d, sep) for d in range(n + 1)]
    else:
        count(n)  # reach depth n first: the text steps only read the source
        lines = shared(("text", key), 0, _text_step, count).counts(n)
        index = sep and shared(("index", sep), 0, _index_step, sep).counts(n)
    sys.stdout.write("".join(map(add, index, lines) if index else lines))
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


def _flag(option, type=str, choices=None, required=False, default=None,
          help=None):
    """One flag of the grammar: its option and the keywords of its
    add_argument call, dest among them."""
    return option, dict(dest=option[2:].replace("-", "_"), type=type,
                        choices=choices, required=required, default=default,
                        help=help)


_SYSTEM_IDS = sorted(SYSTEMS)
_SOURCE = (  # exactly one of them, for the commands marked below
    _flag("--system", choices=_SYSTEM_IDS,
          help="one of the built-in rule systems"),
    _flag("--basis", help="comma-separated pattern words, "
          "e.g. 201,210 (empty string avoids nothing)"),
)
_METHOD = _flag("--method", choices=["rules", "oracle", "gf"],
                help="rules (default with --system), oracle "
                "(default with --basis), or gf (201-210 only)")
_SYSTEM = _flag("--system", choices=_SYSTEM_IDS, required=True)
_N = _flag("--n", int, required=True)
_N_MAX = _flag("--n-max", int, required=True)

# The command line: subcommand -> (handler, help, whether the _SOURCE
# pair comes first, the other flags in help order).
_GRAMMAR = {
    "count": (_cmd_count, "one term of a counting sequence", True,
              (_METHOD, _N)),
    "list": (_cmd_list, "enumerate avoiders of a basis", True, (_N,)),
    "series": (_cmd_series, "counting sequence from 0 to n-max", True,
               (_METHOD, _N_MAX, _flag("--format", default="plain",
                                       choices=list(_SEPARATORS)))),
    "profile": (_cmd_profile, "state census of a system at depth n", False,
                (_SYSTEM, _N)),
    "diagram": (_cmd_diagram, "generating tree as DOT", False,
                (_SYSTEM, _N_MAX, _flag("--format", choices=["dot"],
                                        default="dot"))),
    "verify": (_cmd_verify, "run a named cross-check", False,
               (_flag("--check", choices=sorted(CHECKS), required=True),
                _flag("--n-max", int, help="depth to check to "
                      "(each check has a default)"))),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invseq",
        description="Count and enumerate pattern-avoiding inversion sequences.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, source, flags) in _GRAMMAR.items():
        p = sub.add_parser(name, help=text)
        if source:
            group = p.add_mutually_exclusive_group(required=True)
            for option, keywords in _SOURCE:
                group.add_argument(option, **keywords)
        for option, keywords in flags:
            p.add_argument(option, **keywords)
    return parser


def _plain_form(name, source, flags):
    """What _parse reads for one subcommand: (dest, type, choices) by
    option, the Namespace before any flag is read, and the options it
    requires."""
    flags = _SOURCE + flags if source else flags
    return ({option: (kw["dest"], kw["type"], kw["choices"])
             for option, kw in flags},
            {"command": name, **{kw["dest"]: kw["default"] for _, kw in flags}},
            {option for option, kw in flags if kw["required"]},
            source)


_PLAIN = {name: _plain_form(name, source, flags)
          for name, (_, _, source, flags) in _GRAMMAR.items()}


def _parse(argv):
    """The Namespace parse_args(argv) returns, for a plain command line:
    a subcommand, then exact long flags of it, each at most once, as
    "--flag value" with no value starting with "-".  None for any other
    command line and for one parse_args rejects, which main() then
    hands to argparse for its help, usage or error text."""
    form = _PLAIN.get(argv[0]) if argv else None
    options = dict(zip(argv[1::2], argv[2::2]))
    if form is None or 2 * len(options) != len(argv) - 1:
        return None  # not a subcommand, a dangling flag, or a repeat
    flags, namespace, required, source = form
    values = dict(namespace)
    for option, text in options.items():
        flag = flags.get(option)
        if flag is None or text[:1] == "-":
            return None
        dest, kind, choices = flag
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= options.keys() or \
            source and ("--system" in options) == ("--basis" in options):
        return None
    return argparse.Namespace(**values)


@functools.cache
def _parser():
    """The parser main() hands a command line that _parse does not take,
    built on the first such call.  parse_args returns a fresh Namespace
    every time, so reuse carries nothing over."""
    return build_parser()


def _one_line(exc):
    """'<Type>: <message>' on one line, or just the type without a message."""
    message = " ".join(str(exc).split())
    return "%s: %s" % (type(exc).__name__, message) if message else type(exc).__name__


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = _parser().parse_args(argv)
    # Exact counts outgrow the cap Python (3.10.7 and later) puts on
    # int -> str conversion; lift it for this call only.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _GRAMMAR[args.command][0](args)
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
