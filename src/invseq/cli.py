"""Command-line front end.

Six subcommands tie the package together:

    invseq count   --system 201-210 --n 7 --method rules
    invseq count   --basis 000 --n 6
    invseq list    --basis 201,210 --n 3
    invseq series  --system 201-210 --n-max 5 --format bfile
    invseq profile --system 201-210 --n 3
    invseq diagram --system 201-210 --n-max 3
    invseq verify  --check oracle-vs-rules --n-max 10

Exit status is 0 on success, 1 when a verify check fails (an arithmetic
error inside a check, such as an inexact division, counts as a failure),
and 2 on usage errors or an arithmetic error in any other command.  Output is deterministic: the same invocation always produces
byte-identical text, so the commands are safe to diff in CI.
"""

import argparse
import itertools
import sys

from .core import (
    avoids,
    digit_word,
    render_word,
    structure_check_201_210,
    validate_pattern,
)
from .oracle import count_sequence, list_avoiders
from .series import (
    MINPOLY_A,
    MINPOLY_B,
    MINPOLY_F,
    _check_system_violation,
    _conjecture_residual,
    f_coefficients,
    ff_slice_series,
    iterate_fe,
    relation_residual,
    tf_slice_series,
    TruncatedSeries,
)
from .succession import (
    emit_diagram,
    get_system,
    rule_counting_sequence,
    state_profile,
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
    """Counting sequence 0..n_max for the source the flags select."""
    _require(n_max >= 0, "n must be nonnegative")
    if args.system is not None:
        method = args.method or "rules"
        if method == "rules":
            return rule_counting_sequence(args.system, n_max)
        if method == "gf":
            _require(args.system == "201-210",
                     "method gf only applies to system 201-210")
            return f_coefficients(n_max)
        return count_sequence(get_system(args.system).basis, n_max)
    method = args.method or "oracle"
    _require(method == "oracle",
             "--basis only supports method oracle; use --system for %s" % method)
    return count_sequence(parse_basis(args.basis), n_max)


def _cmd_count(args):
    print(_counts_through(args, args.n)[args.n])
    return 0


def _cmd_list(args):
    _require(args.n >= 0, "n must be nonnegative")
    words = list_avoiders(_resolve_basis(args), args.n)
    text = "\n".join(map(render_word, words))
    sys.stdout.write(text + "\n" if words else text)
    return 0


def _cmd_series(args):
    counts = _counts_through(args, args.n_max)
    for n, c in enumerate(counts):
        if args.format == "csv":
            print("%d,%d" % (n, c))
        elif args.format == "bfile":
            print("%d %d" % (n, c))
        else:
            print(c)
    return 0


def _cmd_profile(args):
    _require(args.n >= 0, "n must be nonnegative")
    system = get_system(args.system)
    profile = state_profile(args.system, args.n)
    for state in sorted(profile):
        print("%s %d" % (system.state_str(state), profile[state]))
    return 0


def _cmd_diagram(args):
    _require(args.n_max >= 0, "n-max must be nonnegative")
    sys.stdout.write(emit_diagram(args.system, args.n_max))
    return 0


# -- verify checks ----------------------------------------------------------
#
# Each check returns (ok, lines).  The lines always include the first
# counterexample on failure; checks that only gather evidence for open
# conjectures say so explicitly on success.

def _first_mismatch(xs, ys):
    for n, (a, b) in enumerate(zip(xs, ys)):
        if a != b:
            return n, a, b
    return None


def _verify_gf_vs_rules(n_max):
    m = _first_mismatch(f_coefficients(n_max),
                        rule_counting_sequence("201-210", n_max))
    if m:
        return False, ["FAIL at n=%d: closed form %d != rules %d" % m]
    return True, ["OK: closed form matches the rules through n=%d" % n_max]


def _verify_oracle_vs_rules(n_max):
    for system_id, system in SYSTEMS.items():
        m = _first_mismatch(count_sequence(system.basis, n_max),
                            rule_counting_sequence(system_id, n_max))
        if m:
            return False, ["FAIL for %s at n=%d: oracle %d != rules %d"
                           % ((system_id,) + m)]
    return True, ["OK: oracle matches the rules for all three systems "
                  "through n=%d" % n_max]


def _verify_minpoly(relation, series, n_max):
    residual = relation_residual(relation, series)
    if residual is not None:
        return False, ["FAIL: residual first nonzero at order %d" % residual]
    return True, ["OK: relation holds through n=%d" % n_max]


def _verify_minpoly_a(n_max):
    return _verify_minpoly(MINPOLY_A, ff_slice_series(n_max), n_max)


def _verify_minpoly_b(n_max):
    return _verify_minpoly(MINPOLY_B, tf_slice_series(n_max), n_max)


def _verify_minpoly_f(n_max):
    series = TruncatedSeries(rule_counting_sequence("201-210", n_max))
    return _verify_minpoly(MINPOLY_F, series, n_max)


def _verify_system(n_max):
    violation = _check_system_violation(n_max)
    if violation is not None:
        return False, ["FAIL: equation %s first differs at x^%d u^%d" % violation]
    return True, ["OK: all seven bivariate identities hold through n=%d" % n_max]


def _verify_structure(n_max):
    basis = get_system("201-210").basis
    for n in range(n_max + 1):
        for e in itertools.product(*[range(i + 1) for i in range(n)]):
            if structure_check_201_210(e) != avoids(e, basis):
                return False, ["FAIL at e=%s: checker %s, avoidance %s"
                               % (render_word(e), structure_check_201_210(e),
                                  avoids(e, basis))]
    return True, ["OK: checker agrees with pattern avoidance for all "
                  "inversion sequences through n=%d" % n_max]


def _verify_fe_vs_rules(n_max):
    for system_id in ("011-201", "010-100-120-210"):
        m = _first_mismatch(iterate_fe(system_id, n_max),
                            rule_counting_sequence(system_id, n_max))
        if m:
            return False, ["FAIL for %s at n=%d: iteration %d != rules %d"
                           % ((system_id,) + m)]
    return True, ["OK: functional-equation iteration matches the rules "
                  "through n=%d" % n_max]


def _verify_wilf(n_max):
    m = _first_mismatch(rule_counting_sequence("011-201", n_max),
                        rule_counting_sequence("010-100-120-210", n_max))
    if m:
        return False, ["FAIL at n=%d: 011-201 gives %d, 010-100-120-210 "
                       "gives %d" % m]
    return True, ["OK: the two systems agree through n=%d "
                  "(evidence for the conjecture, not a proof)" % n_max]


def _verify_conjecture(n_max):
    counts = count_sequence(((0, 1, 0), (1, 0, 2)), n_max)
    residual = _conjecture_residual(counts)
    if residual is not None:
        return False, ["FAIL: cubic residual first nonzero at order %d" % residual]
    return True, ["OK: conjectured cubic fits brute-force counts through "
                  "n=%d (evidence, not a proof)" % n_max]


CHECKS = {
    "gf-vs-rules": (_verify_gf_vs_rules, 60),
    "oracle-vs-rules": (_verify_oracle_vs_rules, 10),
    "minpoly-A": (_verify_minpoly_a, 200),
    "minpoly-B": (_verify_minpoly_b, 200),
    "minpoly-F": (_verify_minpoly_f, 200),
    "system-201-210": (_verify_system, 40),
    "structure-theorem": (_verify_structure, 9),
    "fe-vs-rules": (_verify_fe_vs_rules, 30),
    "wilf-011-201": (_verify_wilf, 200),
    "conjecture-010-102": (_verify_conjecture, 14),
}


def _cmd_verify(args):
    check, default_depth = CHECKS[args.check]
    n_max = args.n_max if args.n_max is not None else default_depth
    _require(n_max >= 0, "n-max must be nonnegative")
    try:
        ok, lines = check(n_max)
    except ArithmeticError as exc:
        ok, lines = False, ["FAIL: %s" % exc]
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


def main(argv=None):
    args = build_parser().parse_args(argv)
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
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
