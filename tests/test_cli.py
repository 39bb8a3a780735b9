import contextlib
import io
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from invseq import checks, cli, series
from invseq.cli import CHECKS, main, parse_basis
from invseq.oracle import count_sequence
from invseq.succession import (
    SYSTEMS,
    get_system,
    rule_counting_sequence,
    state_profile,
)

# Regression fixture: pinned values that must never drift, whatever else
# changes.  test_known_counts_fixture asserts the CLI reproduces them.
KNOWN_COUNTS = {
    ("201-210", 5): 116,
    ("201-210", 7): 3720,
    ("011-201", 5): 51,
    ("010-100-120-210", 5): 51,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- basis parsing ----------------------------------------------------------

def test_parse_basis():
    assert parse_basis("201,210") == ((2, 0, 1), (2, 1, 0))
    assert parse_basis("10") == ((1, 0),)
    assert parse_basis("") == ()


def test_parse_basis_rejects_invalid_pattern():
    with pytest.raises(ValueError, match="not an inversion pattern"):
        parse_basis("202")


def test_parse_basis_rejects_non_digits():
    with pytest.raises(ValueError, match="non-digit"):
        parse_basis("2x1")
    with pytest.raises(ValueError, match="non-digit"):
        parse_basis("201,")


# -- count ------------------------------------------------------------------

def test_count_rules(capsys):
    code, out, _ = run_cli(capsys, "count", "--system", "201-210",
                           "--n", "7", "--method", "rules")
    assert code == 0
    assert out == "3720\n"


def test_count_methods_agree(capsys):
    results = []
    for method in ("rules", "oracle", "gf"):
        code, out, _ = run_cli(capsys, "count", "--system", "201-210",
                               "--n", "6", "--method", method)
        assert code == 0
        results.append(out)
    assert results == ["632\n"] * 3


def test_count_basis_default_oracle(capsys):
    code, out, _ = run_cli(capsys, "count", "--basis", "011,201", "--n", "5")
    assert code == 0
    assert out == "51\n"


def test_count_empty_basis(capsys):
    code, out, _ = run_cli(capsys, "count", "--basis", "", "--n", "4")
    assert code == 0
    assert out == "24\n"


def test_known_counts_fixture(capsys):
    for (system_id, n), expected in KNOWN_COUNTS.items():
        code, out, _ = run_cli(capsys, "count", "--system", system_id,
                               "--n", str(n))
        assert code == 0
        assert out == "%d\n" % expected


def test_count_prints_integers_past_the_str_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "count", "--system", "201-210",
                             "--n", "5000", "--method", "gf")
    assert code == 0, err
    assert out.endswith("\n") and out[:-1].isdigit()
    assert len(out) - 1 > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# -- list -------------------------------------------------------------------

def test_list(capsys):
    code, out, _ = run_cli(capsys, "list", "--basis", "201,210", "--n", "3")
    assert code == 0
    assert out == "000\n001\n002\n010\n011\n012\n"


def test_list_via_system(capsys):
    code, out, _ = run_cli(capsys, "list", "--system", "201-210", "--n", "2")
    assert code == 0
    assert out == "00\n01\n"


@pytest.mark.parametrize("basis, n, expected", [
    ("0", 2, ""),            # no avoiders: nothing, not an empty line
    ("201,210", 0, "\n"),    # the empty word
    ("00", 11, "0,1,2,3,4,5,6,7,8,9,10\n"),
], ids=["empty", "n0", "comma-form"])
def test_list_edge_output(capsys, basis, n, expected):
    code, out, _ = run_cli(capsys, "list", "--basis", basis, "--n", str(n))
    assert (code, out) == (0, expected)


# -- deep, thin trees --------------------------------------------------------
#
# Avoiding 01 leaves one avoider per length, the all-zero word, so the walk
# is a single path as deep as n; these depths are past the default
# recursion limit.  The empty basis has n! avoiders of length n.

@pytest.mark.parametrize("argv, expected", [
    (("count", "--basis", "01", "--n", "1500"), "1\n"),
    (("list", "--basis", "01", "--n", "1200"), "0" * 1200 + "\n"),
    (("count", "--basis", "01,0123", "--n", "1400"), "1\n"),
    (("list", "--basis", "01,1012", "--n", "1300"), "0" * 1300 + "\n"),
    (("count", "--basis", "", "--n", "200"), "%d\n" % math.factorial(200)),
], ids=["count-01", "list-01", "count-01,0123", "list-01,1012", "count-empty"])
def test_deep_thin_trees(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


# -- series -----------------------------------------------------------------

def test_series_bfile(capsys):
    code, out, _ = run_cli(capsys, "series", "--system", "201-210",
                           "--n-max", "5", "--format", "bfile")
    assert code == 0
    assert out == "0 1\n1 1\n2 2\n3 6\n4 24\n5 116\n"


def test_series_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "--system", "011-201",
                           "--n-max", "5", "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,1\n2,2\n3,5\n4,15\n5,51\n"


def test_series_plain_default(capsys):
    code, out, _ = run_cli(capsys, "series", "--basis", "10", "--n-max", "4")
    assert code == 0
    assert out == "1\n1\n2\n5\n14\n"


# -- profile and diagram ----------------------------------------------------

def test_profile(capsys):
    code, out, _ = run_cli(capsys, "profile", "--system", "201-210", "--n", "3")
    assert code == 0
    assert out == ("(1,F,F) 2\n(1,T,T) 4\n(2,F,F) 2\n"
                   "(2,T,F) 1\n(2,T,T) 2\n(3,F,F) 1\n")


def _printed(rows):
    """The text print() writes for each row of fields, one call a row."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for row in rows:
            print(*row)
    return buf.getvalue()


@pytest.mark.parametrize("n", [0, 1, 12])
def test_profile_and_series_write_what_a_print_per_line_would(capsys, n):
    """profile and series build their reply and write it once; the text
    equals one print() per line of the same fields."""
    for system_id in sorted(SYSTEMS):
        state_str = get_system(system_id).state_str
        profile = state_profile(system_id, n)
        assert run_cli(capsys, "profile", "--system", system_id,
                       "--n", str(n)) == \
            (0, _printed((state_str(s), profile[s]) for s in sorted(profile)),
             "")
    sources = [(("--system", system_id), rule_counting_sequence(system_id, n))
               for system_id in sorted(SYSTEMS)]
    sources.append((("--basis", "10"), count_sequence(((1, 0),), n)))
    for source, counts in sources:
        for fmt, rows in (("plain", [(c,) for c in counts]),
                          ("csv", [("%d,%d" % nc,) for nc in enumerate(counts)]),
                          ("bfile", enumerate(counts))):
            assert run_cli(capsys, "series", *source, "--n-max", str(n),
                           "--format", fmt) == (0, _printed(rows), ""), \
                (source, fmt)


# -- the decimal text of counts ---------------------------------------------

# series, count and profile on the three systems, with the rules and the
# closed form in every format, at depths on both sides of a checkpoint
WARM_REQUESTS = [
    *[["series", "--system", system_id, *method, "--n-max", str(n),
       "--format", fmt]
      for system_id, method, sizes in (
          ("201-210", [], (5, 70, 130)),
          ("201-210", ["--method", "gf"], (6, 64, 130)),
          ("011-201", [], (4, 40)),
          ("010-100-120-210", ["--method", "rules"], (3, 40)))
      for n in sizes for fmt in ("plain", "csv", "bfile")],
    *[["count", "--system", system_id, *method, "--n", str(n)]
      for system_id, method, n in (("201-210", [], 129),
                                   ("201-210", ["--method", "gf"], 65),
                                   ("011-201", [], 41),
                                   ("010-100-120-210", [], 39))],
    *[["profile", "--system", system_id, "--n", str(n)]
      for system_id in sorted(SYSTEMS) for n in (2, 66)],
]


@pytest.mark.parametrize("seed", [0, 1])
def test_warm_replies_equal_cold_ones_in_any_order(capsys, seed, fresh_states):
    """A seeded shuffle of the requests, served in one process, prints
    what each request prints on the state of a fresh process."""
    requests = list(WARM_REQUESTS)
    random.Random(seed).shuffle(requests)
    cold = []
    for argv in requests:
        fresh_states()
        cold.append(run_cli(capsys, *argv))
    fresh_states()
    assert [run_cli(capsys, *argv) for argv in requests] == cold
    assert cli._DECIMAL
    assert all(code == 0 and out and not err for code, out, err in cold)


def test_only_prefix_sources_read_and_fill_the_text_memo(capsys, monkeypatch):
    """series reads the text of a rules or closed-form count from the
    memo; an oracle source, through --basis or --method oracle, neither
    reads nor adds to it."""
    monkeypatch.setattr(cli, "_DECIMAL", {116: "planted"})
    for argv in (["--system", "201-210"],
                 ["--system", "201-210", "--method", "gf"]):
        assert run_cli(capsys, "series", *argv, "--n-max", "5")[1] \
            .split("\n")[5] == "planted"
    monkeypatch.setattr(cli, "_DECIMAL", {116: "planted"})
    for argv in (["--basis", "201,210"],
                 ["--system", "201-210", "--method", "oracle"]):
        for fmt in ("plain", "csv", "bfile"):
            code, out, _ = run_cli(capsys, "series", *argv, "--n-max", "5",
                                   "--format", fmt)
            assert code == 0 and out.split("\n")[5].endswith("116")
    assert cli._DECIMAL == {116: "planted"}


def test_diagram(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--system", "201-210",
                           "--n-max", "3")
    assert code == 0
    assert out.startswith('digraph "201-210" {\n')
    assert '"L2 (2,F,F)" -> "L3 (1,T,T)" [mult=2];' in out
    assert out.endswith("}\n")


def test_output_is_deterministic(capsys):
    for argv in (("diagram", "--system", "010-100-120-210", "--n-max", "4"),
                 ("list", "--basis", "011,201", "--n", "7")):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0 and first[1]


# -- one parser per process -------------------------------------------------

# Each command form once, in an order where a flag left over from one
# request would change the next: the gf request just before a system gf
# does not apply to, a usage error between two good requests.
MIXED_REQUESTS = [
    ["count", "--system", "201-210", "--n", "6", "--method", "gf"],
    ["count", "--system", "011-201", "--n", "5"],
    ["list", "--basis", "201,210", "--n", "4"],
    ["series", "--basis", "10", "--n-max", "5"],
    ["series", "--system", "011-201", "--n-max", "5", "--format", "csv"],
    ["count", "--n", "3"],  # no source: argparse exits 2
    ["series", "--system", "201-210", "--n-max", "5", "--format", "bfile"],
    ["verify", "--check", "gf-vs-rules", "--n-max", "20"],
]


def replies(capsys, requests):
    out = []
    for argv in requests:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out.append((code,) + capsys.readouterr())
    return out


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    build_parser = cli.build_parser
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", build_parser)  # a fresh parser per call
        fresh = replies(capsys, MIXED_REQUESTS)
    assert [reply[0] for reply in fresh] == [0, 0, 0, 0, 0, 2, 0, 0]

    built = []

    def counted_build_parser():
        built.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    assert replies(capsys, MIXED_REQUESTS * 2) == fresh * 2
    assert len(built) == 1


# -- verify -----------------------------------------------------------------

def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "oracle-vs-rules",
                           "--n-max", "8")
    assert code == 0
    assert out.startswith("oracle-vs-rules: OK")


def test_verify_conjecture_checks_are_labeled(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "wilf-011-201",
                           "--n-max", "30")
    assert code == 0
    assert "evidence" in out
    assert "not a proof" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(n_max):
        return False, ["FAIL at n=3: forced for the test"]
    monkeypatch.setitem(CHECKS, "gf-vs-rules", (broken, 10))
    code, out, _ = run_cli(capsys, "verify", "--check", "gf-vs-rules")
    assert code == 1
    assert "FAIL at n=3" in out


def test_verify_arithmetic_error_is_a_failure(capsys, monkeypatch,
                                              fresh_states):
    """A v = 1 specialization step that drops a term makes the next
    division by v - 1 leave a remainder; verify reports that as its FAIL
    line and exit status 1, not as a traceback.  It starts from empty
    series prefixes, so that the iteration steps from x^0 and reaches the
    planted fault however warm this process is."""
    real = series._collapse_v

    def drops_a_term(slice_):
        out = real(slice_)
        out.pop()
        return out
    monkeypatch.setattr(series, "_collapse_v", drops_a_term)
    code, out, err = run_cli(capsys, "verify", "--check", "fe-vs-rules",
                             "--n-max", "5")
    assert code == 1
    assert out.startswith("fe-vs-rules: FAIL: division by v - 1 left remainder")
    assert out.count("\n") == 1
    assert err == ""


@pytest.mark.parametrize("module, name, argv", [
    (series, "f_coefficients", ["count", "--system", "201-210", "--method",
                                "gf", "--n", "5"]),
    (series, "f_coefficients", ["series", "--system", "201-210", "--method",
                                "gf", "--n-max", "5"]),
    (cli, "listing_text", ["list", "--basis", "01", "--n", "3"]),
    (cli, "list_avoiders", ["list", "--basis", "01234", "--n", "3"]),
    (cli, "profile_text", ["profile", "--system", "201-210", "--n", "3"]),
    (cli, "emit_diagram", ["diagram", "--system", "201-210", "--n-max", "2"]),
], ids=["count", "series", "list", "list-fallback", "profile", "diagram"])
def test_arithmetic_error_outside_verify_is_usage_error(capsys, monkeypatch,
                                                        module, name, argv):
    """The closed form is planted in ``invseq.series``, which the gf
    branch imports from where it calls it."""
    def inexact(*args):
        raise ArithmeticError("coefficient of x^3 is not an integer")
    monkeypatch.setattr(module, name, inexact)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: coefficient of x^3 is not an integer\n"


@pytest.mark.parametrize("exc, line", [
    (RuntimeError("planted\nfailure"), "RuntimeError: planted failure"),
    (MemoryError(), "MemoryError"),
], ids=["RuntimeError", "MemoryError"])
@pytest.mark.parametrize("module, name, argv", [
    (cli, "count_sequence", ["count", "--basis", "201,210", "--n", "5"]),
    (cli, "listing_text", ["list", "--basis", "01", "--n", "3"]),
    (cli, "list_avoiders", ["list", "--basis", "01234", "--n", "3"]),
    (checks, "rule_counting_sequence", ["verify", "--check", "gf-vs-rules",
                                        "--n-max", "5"]),
], ids=["count", "list", "list-fallback", "verify"])
def test_internal_error_is_one_line_and_exit_two(capsys, monkeypatch, module,
                                                 name, argv, exc, line):
    """Any other exception, a bug or MemoryError, is one stderr line and
    exit 2, never a traceback or exit 1 (which means a failed check)."""
    def broken(*args):
        raise exc
    monkeypatch.setattr(module, name, broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: internal error: %s\n" % line


def _bump_at(k, key=None):
    """A plant for a route that returns a sequence: add 1 to its entry
    k, on the calls whose first argument is key when key is given."""
    def plant(real):
        def planted(*args):
            out = real(*args)
            if key is None or args[0] == key:
                out = list(out)
                out[k] += 1
            return out
        return planted
    return plant


def _bump_census(real):
    """The 201-210 kernel with one more (k,F,F) state at x^5 u^2 in the
    level it steps to."""
    def planted(level):
        (a, b, c), accepted = real(level)
        if len(a) == 6:
            a = [*a[:2], a[2] + 1, *a[3:]]
        return (a, b, c), accepted
    return planted


def _bump_count(at):
    """A plant for the (k,F,F) step or the 201-210 kernel: one more in
    the count of the level at depth at, whose (k,F,F) slice has at + 1
    entries."""
    def plant(real):
        def planted(level):
            new, count = real(level)
            a = level[0] if isinstance(level, tuple) else level
            return new, count + (len(a) == at + 1)
        return planted
    return plant


B_011_201 = ((0, 1, 1), (2, 0, 1))

# check: (module or object, route the check reads, plant, depth, OK line,
# FAIL line); a series name is planted in invseq.series, from which the
# check imports it when it runs
CHECK_CASES = {
    "gf-vs-rules": (
        series, "f_coefficients", _bump_at(3), 6,
        "OK: closed form matches the rules through n=6",
        "FAIL at n=3: closed form 7 != rules 6"),
    "oracle-vs-rules": (
        checks, "count_sequence", _bump_at(5, B_011_201), 6,
        "OK: oracle matches the rules for all three systems through n=6",
        "FAIL for 011-201 at n=5: oracle 52 != rules 51"),
    "minpoly-A": (
        series, "_step_ff", _bump_count(4), 8,
        "OK: relation holds through n=8",
        "FAIL: residual first nonzero at order 4"),
    "minpoly-B": (
        series, "_step_ff", _bump_count(4), 8,
        "OK: relation holds through n=8",
        "FAIL: residual first nonzero at order 5"),
    "minpoly-F": (
        SYSTEMS["201-210"], "kernel", _bump_count(4), 8,
        "OK: relation holds through n=8",
        "FAIL: residual first nonzero at order 5"),
    "system-201-210": (
        series, "_fast_step_201_210", _bump_census, 8,
        "OK: all seven bivariate identities hold through n=8",
        "FAIL: equation A first differs at x^5 u^2"),
    "structure-theorem": (
        checks, "structure_check_201_210",
        lambda real: lambda e: real(e) != (e == (0, 1, 0)), 4,
        "OK: checker agrees with pattern avoidance for all inversion "
        "sequences through n=4",
        "FAIL at e=010: checker False, avoidance True"),
    "fe-vs-rules": (
        series, "iterate_fe", _bump_at(4, "010-100-120-210"), 6,
        "OK: functional-equation iteration matches the rules through n=6",
        "FAIL for 010-100-120-210 at n=4: iteration 16 != rules 15"),
    "wilf-011-201": (
        checks, "rule_counting_sequence", _bump_at(6, "010-100-120-210"), 8,
        "OK: the two systems agree through n=8 (evidence for the "
        "conjecture, not a proof)",
        "FAIL at n=6: 011-201 gives 189, 010-100-120-210 gives 190"),
    "conjecture-010-102": (
        checks, "count_sequence", _bump_at(5), 8,
        "OK: conjectured cubic fits brute-force counts through n=8 "
        "(evidence, not a proof)",
        "FAIL: cubic residual first nonzero at order 5"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_prints_its_ok_and_fail_lines(capsys, monkeypatch, name):
    """On the real routes each check prints its OK line; one planted
    counterexample, where the check reads the route, makes it print its
    exact FAIL line and exit 1."""
    assert CHECKS[name][1] >= 0
    module, route, plant, depth, ok_line, fail_line = CHECK_CASES[name]
    argv = ["verify", "--check", name, "--n-max", str(depth)]
    assert run_cli(capsys, *argv) == (0, "%s: %s\n" % (name, ok_line), "")
    monkeypatch.setattr(module, route, plant(getattr(module, route)))
    assert run_cli(capsys, *argv) == (1, "%s: %s\n" % (name, fail_line), "")


def test_verify_negative_depth_is_usage_error(capsys):
    assert run_cli(capsys, "verify", "--check", "gf-vs-rules",
                   "--n-max", "-1") == (2, "", "error: n-max must be nonnegative\n")


# -- usage errors -----------------------------------------------------------

def test_bad_basis_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--basis", "202", "--n", "3")
    assert code == 2
    assert "not an inversion pattern" in err


@pytest.mark.parametrize("basis", ["\u0660\u0661", "\u00b2"],
                         ids=["arabic-indic-01", "superscript-2"])
def test_non_ascii_digit_basis_is_usage_error(capsys, basis):
    code, out, err = run_cli(capsys, "count", "--basis", basis, "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: bad basis word '%s': non-digit content\n" % basis


def test_rules_need_a_system(capsys):
    code, _, err = run_cli(capsys, "count", "--basis", "201,210",
                           "--n", "3", "--method", "rules")
    assert code == 2
    assert "--system" in err


def test_gf_needs_201_210(capsys):
    code, _, err = run_cli(capsys, "series", "--system", "011-201",
                           "--n-max", "3", "--method", "gf")
    assert code == 2


def test_negative_n_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--system", "201-210", "--n", "-1")
    assert code == 2
    assert "nonnegative" in err


def test_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--check", "nope"])
    assert info.value.code == 2


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "invseq", "count", "--system", "201-210",
         "--n", "5"],
        capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == "116\n"


TOKENS = st.one_of(
    st.text(alphabet="0123", min_size=1, max_size=4),  # words, some invalid
    st.sampled_from(["", "x", "-", "-1", " 01", "0 1", "\u00b2", "01x"]),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["count", "list", "series"]),
       st.lists(TOKENS, max_size=4),
       st.booleans(),
       st.integers(min_value=-2, max_value=7))
def test_exit_status_is_zero_or_two(command, tokens, duplicate, n):
    """Any --basis text and size either works or is a usage error."""
    if duplicate and tokens:
        tokens.append(tokens[0])
    size = "--n-max" if command == "series" else "--n"
    argv = [command, "--basis", ",".join(tokens), size, str(n)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            assert exc.code == 2, argv
            assert "error:" in err.getvalue()
            return
    assert code in (0, 2), argv
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
