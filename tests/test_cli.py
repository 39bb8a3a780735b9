import contextlib
import io
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from invseq import cli, series
from invseq.cli import CHECKS, main, parse_basis

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


def test_diagram(capsys):
    code, out, _ = run_cli(capsys, "diagram", "--system", "201-210",
                           "--n-max", "3")
    assert code == 0
    assert out.startswith('digraph "201-210" {\n')
    assert '"L2 (2,F,F)" -> "L3 (1,T,T)" [mult=2];' in out
    assert out.endswith("}\n")


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "diagram", "--system", "010-100-120-210",
                    "--n-max", "4")
    second = run_cli(capsys, "diagram", "--system", "010-100-120-210",
                     "--n-max", "4")
    assert first == second


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


def test_verify_arithmetic_error_is_a_failure(capsys, monkeypatch):
    """A v = 1 specialization step that drops a term makes the next
    division by v - 1 leave a remainder; verify reports that as its FAIL
    line and exit status 1, not as a traceback."""
    real = series._collapse_v

    def drops_a_term(slice_):
        out = real(slice_)
        out.pop(max(out))
        return out
    monkeypatch.setattr(series, "_collapse_v", drops_a_term)
    code, out, err = run_cli(capsys, "verify", "--check", "fe-vs-rules",
                             "--n-max", "5")
    assert code == 1
    assert out.startswith("fe-vs-rules: FAIL: division by v - 1 left remainder")
    assert out.count("\n") == 1
    assert err == ""


@pytest.mark.parametrize("name, argv", [
    ("f_coefficients", ["count", "--system", "201-210", "--method", "gf",
                        "--n", "5"]),
    ("f_coefficients", ["series", "--system", "201-210", "--method", "gf",
                        "--n-max", "5"]),
    ("list_avoiders", ["list", "--basis", "01", "--n", "3"]),
    ("state_profile", ["profile", "--system", "201-210", "--n", "3"]),
    ("emit_diagram", ["diagram", "--system", "201-210", "--n-max", "2"]),
], ids=["count", "series", "list", "profile", "diagram"])
def test_arithmetic_error_outside_verify_is_usage_error(capsys, monkeypatch,
                                                        name, argv):
    def inexact(*args):
        raise ArithmeticError("coefficient of x^3 is not an integer")
    monkeypatch.setattr(cli, name, inexact)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: coefficient of x^3 is not an integer\n"


def test_all_checks_have_defaults():
    for name, (_, default_depth) in CHECKS.items():
        assert default_depth >= 0, name


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
