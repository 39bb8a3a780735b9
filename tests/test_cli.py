import contextlib
import io
import math
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from invseq import checks, cli, series
from invseq.cli import CHECKS, main, parse_basis
from invseq.oracle import count_sequence
from invseq.prefix import _STATES
from invseq.succession import (
    SYSTEMS,
    get_system,
    rule_counting_sequence,
    state_profile,
)
from verify_faults import FAULTS

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


# -- the source of a count or series ------------------------------------------

SERIES_201_210 = "1\n1\n2\n6\n24\n116\n"
SERIES_WILF = "1\n1\n2\n5\n15\n51\n"
GF_ONLY = "error: method gf only applies to system 201-210\n"


def _basis_only(method):
    return "error: --basis only supports method oracle; use --system for %s\n" % method


# (source flags, --method or None) -> (exit code, series stdout, stderr)
SOURCES = {
    (("--system", "201-210"), None): (0, SERIES_201_210, ""),
    (("--system", "201-210"), "rules"): (0, SERIES_201_210, ""),
    (("--system", "201-210"), "gf"): (0, SERIES_201_210, ""),
    (("--system", "201-210"), "oracle"): (0, SERIES_201_210, ""),
    (("--system", "011-201"), None): (0, SERIES_WILF, ""),
    (("--system", "011-201"), "rules"): (0, SERIES_WILF, ""),
    (("--system", "011-201"), "gf"): (2, "", GF_ONLY),
    (("--system", "011-201"), "oracle"): (0, SERIES_WILF, ""),
    (("--system", "010-100-120-210"), None): (0, SERIES_WILF, ""),
    (("--system", "010-100-120-210"), "rules"): (0, SERIES_WILF, ""),
    (("--system", "010-100-120-210"), "gf"): (2, "", GF_ONLY),
    (("--system", "010-100-120-210"), "oracle"): (0, SERIES_WILF, ""),
    (("--basis", "201,210"), None): (0, SERIES_201_210, ""),
    (("--basis", "201,210"), "rules"): (2, "", _basis_only("rules")),
    (("--basis", "201,210"), "gf"): (2, "", _basis_only("gf")),
    (("--basis", "201,210"), "oracle"): (0, SERIES_201_210, ""),
    # the method is checked before the basis is parsed
    (("--basis", "2x1"), "gf"): (2, "", _basis_only("gf")),
}


@pytest.mark.parametrize("command", ["count", "series"])
@pytest.mark.parametrize("source, method", sorted(SOURCES, key=str))
def test_count_and_series_sources(capsys, command, source, method):
    """Every source of count and series at n = 5: the same lines from the
    rules, the closed form and the oracle, and one error line on stderr,
    with exit status 2, for a method the source does not support."""
    code, series, err = SOURCES[source, method]
    size = ("--n", "5") if command == "count" else ("--n-max", "5")
    argv = (command,) + source + size + (("--method", method) if method else ())
    out = series.splitlines(True)[-1] if command == "count" and series else series
    assert run_cli(capsys, *argv) == (code, out, err)


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


# -- the text of counts -----------------------------------------------------

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

TEXT_KEYS = {("text", "201-210"), ("text", "f_coefficients"),
             ("text", "011-201"), ("text", "010-100-120-210")}
INDEX_KEYS = {("index", ","), ("index", " ")}


def _route_keys():
    """The text and index keys in the registry."""
    return {key for key in _STATES
            if isinstance(key, tuple) and key[0] in ("text", "index")}


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
    assert _route_keys() == TEXT_KEYS | INDEX_KEYS
    assert all(code == 0 and out and not err for code, out, err in cold)


# the four sources a per-process prefix keeps: flags, and the route that
# gives the reference counts
KEPT_SOURCES = {
    "201-210": (["--system", "201-210"],
                lambda n: rule_counting_sequence("201-210", n)),
    "gf": (["--system", "201-210", "--method", "gf"], series.f_coefficients),
    "011-201": (["--system", "011-201"],
                lambda n: rule_counting_sequence("011-201", n)),
    "010-100-120-210": (["--system", "010-100-120-210", "--method", "rules"],
                        lambda n: rule_counting_sequence("010-100-120-210",
                                                         n)),
}
SEPARATORS = {"plain": None, "csv": ",", "bfile": " "}


def _reference(counts, fmt):
    """The series reply for counts in a format, built with str."""
    sep = SEPARATORS[fmt]
    index = ["%d%s" % (d, sep) if sep else "" for d in range(len(counts))]
    return "".join(i + str(c) + "\n" for i, c in zip(index, counts))


def _served(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(KEPT_SOURCES)),
                          st.sampled_from(sorted(SEPARATORS)),
                          st.integers(min_value=0, max_value=150)),
                min_size=1, max_size=8))
def test_text_routes_print_the_reference_bytes(requests):
    """Any sequence of series requests on the kept sources, served in one
    process from no text or index route, prints for each request what
    str, the format's index and its separator make of the source's
    counts."""
    counts = {name: through(150)
              for name, (_, through) in KEPT_SOURCES.items()}
    for key in _route_keys():
        del _STATES[key]
    for name, fmt, n in requests:
        argv = ["series", *KEPT_SOURCES[name][0], "--n-max", str(n),
                "--format", fmt]
        assert _served(argv) == _reference(counts[name][:n + 1], fmt), argv


def _bump_every_count(real):
    """A kernel whose every count is one more."""
    def planted(level):
        new, count = real(level)
        return new, count + 1
    return planted


def _bump_f3(real):
    """The closed form's step with f_3 one more."""
    def planted(level):
        new, f = real(level)
        return new, f + (level[0] == 3)
    return planted


@pytest.mark.parametrize("owner, name, plant, argv", [
    (SYSTEMS["011-201"], "kernel", _bump_every_count,
     ["series", "--system", "011-201", "--n-max", "20", "--format", "csv"]),
    (series, "_f_step", _bump_f3,
     ["series", "--system", "201-210", "--method", "gf", "--n-max", "20"]),
], ids=["kernel", "closed-form"])
def test_text_is_keyed_on_its_source(capsys, monkeypatch, fresh_states,
                                     owner, name, plant, argv):
    """A step planted in a source after a warm series request makes the
    source afresh, and with it the text route that reads it: the next
    reply is the one a fresh process prints, with no reset."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, plant(real))
    cold = run_cli(capsys, *argv)
    monkeypatch.setattr(owner, name, real)
    fresh_states()
    warm = run_cli(capsys, *argv)
    assert warm[0] == cold[0] == 0 and warm != cold
    monkeypatch.setattr(owner, name, plant(real))
    assert run_cli(capsys, *argv) == cold


def test_only_kept_sources_read_and_fill_the_text_routes(capsys,
                                                         fresh_states):
    """series prints a rules or closed-form count from the line its text
    route holds, in every format; an oracle source, through --basis or
    --method oracle, adds no text or index route."""
    for argv, key in ((["--system", "201-210"], ("text", "201-210")),
                      (["--system", "201-210", "--method", "gf"],
                       ("text", "f_coefficients"))):
        run_cli(capsys, "series", *argv, "--n-max", "5")
        route = _STATES[key]
        lines, level, checkpoints = route._memo
        route._memo = [*lines[:5], "planted\n"], level, checkpoints
        for fmt, line in (("plain", "planted"), ("csv", "5,planted"),
                          ("bfile", "5 planted")):
            assert run_cli(capsys, "series", *argv, "--n-max", "5",
                           "--format", fmt)[1].split("\n")[5] == line
    fresh_states()
    for argv in (["--basis", "201,210"],
                 ["--system", "201-210", "--method", "oracle"]):
        for fmt in ("plain", "csv", "bfile"):
            code, out, _ = run_cli(capsys, "series", *argv, "--n-max", "5",
                                   "--format", fmt)
            assert code == 0 and out.split("\n")[5].endswith("116")
    assert not _route_keys()


def test_the_text_routes_keep_one_line_list_each(capsys, fresh_states):
    """After series to 700 on 201-210, by rules and by the closed form, in
    every format, the registry keeps one line list per source and one
    index list per separator, and their lines take about the size of
    the text: one str per line, with no copy kept per format."""
    for method in ([], ["--method", "gf"]):
        for fmt in ("plain", "csv", "bfile"):
            assert run_cli(capsys, "series", "--system", "201-210", *method,
                           "--n-max", "700", "--format", fmt)[0] == 0
    plain = _reference(rule_counting_sequence("201-210", 700), "plain")
    keys = {("text", "201-210"), ("text", "f_coefficients")} | INDEX_KEYS
    assert _route_keys() == keys
    lines = [line for key in keys for line in _STATES[key].counts(700)]
    assert all(type(line) is str for line in lines)
    assert len(lines) == 4 * 701
    assert sum(map(sys.getsizeof, lines)) <= \
        1.2 * (2 * len(plain) + 60 * len(lines))


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


# -- parsing: the plain path and argparse ------------------------------------

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
USAGE_ERROR = ["count", "--n", "3"]


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
    """Plain requests build no parser, and reply as argparse alone
    would; the usage error builds it once per process."""
    build_parser = cli.build_parser
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", lambda argv: None)  # argparse reads all
        m.setattr(cli, "_parser", build_parser)  # a fresh parser per call
        fresh = replies(capsys, MIXED_REQUESTS)
    assert [reply[0] for reply in fresh] == [0, 0, 0, 0, 0, 2, 0, 0]
    assert fresh[5][2].endswith("invseq count: error: one of the arguments "
                                "--system --basis is required\n")

    built = []

    def counted_build_parser():
        built.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    plain = [argv for argv in MIXED_REQUESTS if argv != USAGE_ERROR]
    assert replies(capsys, plain) == [reply for argv, reply
                                      in zip(MIXED_REQUESTS, fresh)
                                      if argv != USAGE_ERROR]
    assert built == []
    assert replies(capsys, MIXED_REQUESTS * 2) == fresh * 2
    assert len(built) == 1


PARSER = cli.build_parser()
AWKWARD = ["--", "-1", "", "x", "nope", "+7", " 7", "7_0", "\u0663"]
OPTIONS = sorted({option for _, _, _, flags in cli._GRAMMAR.values()
                  for option, _ in flags + cli._SOURCE})


def argparse_vars(argv):
    """vars() of what argparse returns for argv, or None where it exits
    (help, usage or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def valid_values(keywords):
    if keywords["choices"]:
        return st.sampled_from(keywords["choices"])
    if keywords["type"] is int:
        return st.integers(0, 999).map(str)
    return st.text("0123,", max_size=7)


@st.composite
def command_lines(draw, perturb):
    """A subcommand of the grammar with its required flags, some of its
    optional ones and one source where it takes one, in random order,
    each with a valid value; with perturb, some values awkward and a
    few of: a repeat, an abbreviation, --flag=value, a flag of another
    subcommand, a missing flag, both sources, -h and a dangling flag."""
    name = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    _, _, source, flags = cli._GRAMMAR[name]
    chosen = [flag for flag in flags
              if flag[1]["required"] or draw(st.booleans())]
    if source:
        chosen.append(draw(st.sampled_from(cli._SOURCE)))
    values = [st.sampled_from(AWKWARD)
              if perturb and draw(st.integers(0, 3)) == 0
              else valid_values(kw) for _, kw in chosen]
    pairs = draw(st.permutations(
        [[option, draw(value)] for (option, _), value in zip(chosen, values)]))
    kinds = draw(st.lists(st.sampled_from(
        ["repeat", "abbreviate", "equals", "foreign", "missing", "both",
         "help", "dangling"]), max_size=3)) if perturb else []
    for kind in kinds:
        at = draw(st.integers(0, len(pairs)))
        pair = pairs[at] if at < len(pairs) and len(pairs[at]) == 2 else None
        if kind == "repeat" and pair:
            pairs.insert(draw(st.integers(0, len(pairs))), list(pair))
        elif kind == "abbreviate" and pair and len(pair[0]) > 3:
            pair[0] = pair[0][:draw(st.integers(3, len(pair[0]) - 1))]
        elif kind == "equals" and pair:
            pairs[at] = ["%s=%s" % tuple(pair)]
        elif kind == "foreign":
            pairs.insert(at, [draw(st.sampled_from(OPTIONS)), "1"])
        elif kind == "missing" and pair:
            del pairs[at]
        elif kind == "both" and source:
            pairs.insert(at, [draw(st.sampled_from(cli._SOURCE))[0], "10"])
        elif kind == "help":
            pairs.insert(at, [draw(st.sampled_from(["-h", "--help"]))])
        elif kind == "dangling":
            pairs.append([draw(st.sampled_from(OPTIONS))])
    return [name] + [token for pair in pairs for token in pair]


@settings(max_examples=600, deadline=None)
@given(command_lines(perturb=True))
def test_plain_parse_equals_argparse(argv):
    """Where _parse returns a Namespace, argparse returns an equal one;
    where argparse exits, _parse has returned None."""
    parsed = cli._parse(argv)
    if parsed is not None:
        assert vars(parsed) == argparse_vars(argv), argv


@settings(max_examples=200, deadline=None)
@given(command_lines(perturb=False))
def test_every_plain_command_line_is_parsed_without_argparse(argv):
    parsed = cli._parse(argv)
    assert parsed is not None, argv
    assert vars(parsed) == argparse_vars(argv)


HELP = pathlib.Path(__file__).with_name("cli_help.txt")


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11), (3, 12)),
                    reason="argparse of Python 3.13 wraps usage lines "
                    "differently")
def test_help_text(capsys, monkeypatch):
    """invseq -h and <command> -h print what cli_help.txt holds after
    their "$" line, at 80 columns, and exit 0."""
    monkeypatch.setenv("COLUMNS", "80")
    pinned = re.split(r"^(?=\$ invseq)", HELP.read_text(), flags=re.M)[1:]
    assert len(pinned) == 1 + len(cli._GRAMMAR)
    for example in pinned:
        command, _, text = example.partition("\n")
        with pytest.raises(SystemExit) as info:
            main(command.split()[2:])
        assert info.value.code == 0
        assert capsys.readouterr() == (text, ""), command


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
    (series, "_f_step", ["count", "--system", "201-210", "--method",
                         "gf", "--n", "5"]),
    (series, "_f_step", ["series", "--system", "201-210", "--method",
                         "gf", "--n-max", "5"]),
    (cli, "listing_text", ["list", "--basis", "01", "--n", "3"]),
    (cli, "list_avoiders", ["list", "--basis", "01234", "--n", "3"]),
    (cli, "profile_text", ["profile", "--system", "201-210", "--n", "3"]),
    (cli, "emit_diagram", ["diagram", "--system", "201-210", "--n-max", "2"]),
], ids=["count", "series", "list", "list-fallback", "profile", "diagram"])
def test_arithmetic_error_outside_verify_is_usage_error(capsys, monkeypatch,
                                                        module, name, argv):
    """The step of the closed form is planted in ``invseq.series``, whose
    prefix (``f_prefix``) the gf branch imports where it reads it, so
    the prefix is made afresh and steps the planted step."""
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


@pytest.mark.parametrize("name, fault", [
    pytest.param(name, fault, id=name if i == 0 else "%s:%s" % (name,
                                                                fault[1]))
    for name, (_, _, faults) in FAULTS.items()
    for i, fault in enumerate(faults)])
def test_every_check_prints_its_ok_and_fail_lines(name, fault, capsys,
                                                  monkeypatch, fresh_states):
    """From an empty registry, ``invseq verify`` at the fault's warm
    depth prints the check's OK line and exits 0.  The fault, planted in
    the slot the check reads with no reset, makes it print the FAIL line
    of a cold run at the fault's depth and exit 1, and so does a cold run
    with the registry emptied; restoring the real slot restores the OK
    line.  The id is the check, and the planted slot after it from the
    check's second fault on."""
    namespace, key, plant, warm, depth, fail = fault

    def verify(n):
        return run_cli(capsys, "verify", "--check", name, "--n-max", str(n))
    ok = (0, "%s: %s\n" % (name, FAULTS[name][0] % warm), "")
    failed = (1, "%s: %s\n" % (name, fail), "")
    real = namespace[key]
    assert verify(warm) == ok
    monkeypatch.setitem(namespace, key, plant(real))
    assert verify(depth) == failed
    fresh_states()
    assert verify(depth) == failed
    monkeypatch.setitem(namespace, key, real)
    assert verify(warm) == ok


def test_verify_negative_depth_is_usage_error(capsys):
    assert run_cli(capsys, "verify", "--check", "gf-vs-rules",
                   "--n-max", "-1") == (2, "", "error: n-max must be nonnegative\n")


@pytest.mark.parametrize("source", [("--system", "201-210"), ("--basis", "000")],
                         ids=["system", "basis"])
def test_series_negative_depth_is_usage_error(capsys, source):
    assert run_cli(capsys, "series", *source, "--n-max", "-1") == (
        2, "", "error: n-max must be nonnegative\n")


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
