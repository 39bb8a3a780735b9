"""Acceptance gate: every release criterion, timed against its budget.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
captured output of a failure).  Checks marked as conjecture evidence
gather exactly that: agreement below a cutoff, no proof claimed.
"""

import time

from invseq.checks import _ff_slice_prefix, run_check
from invseq.oracle import count_avoiders, count_sequence
from invseq.series import (
    CUBIC_010_102,
    f_coefficients,
    relation_residual,
)
from invseq.succession import count_via_rules, emit_diagram, rule_counting_sequence

SEQ_201_210 = [1, 1, 2, 6, 24, 116, 632, 3720, 23072, 148528, 983072]

B_201_210 = ((2, 0, 1), (2, 1, 0))
B_011_201 = ((0, 1, 1), (2, 0, 1))
B_QUAD = ((0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0))
B_10 = ((1, 0),)
B_010_102 = ((0, 1, 0), (1, 0, 2))


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, ok, elapsed, budget, text):
    window = ", budget %ds" % budget if budget else ""
    print("criterion %02d %s (%.2fs%s): %s"
          % (num, "PASS" if ok else "FAIL", elapsed, window, text))


def test_criterion_01_counting_sequence_reproduction():
    with Timer() as t:
        got = [count_via_rules("201-210", n) for n in range(11)]
    ok = got == SEQ_201_210
    report(1, ok, t.elapsed, 1, "rules reproduce the pinned series for n <= 10")
    assert ok, got
    assert t.elapsed < 1


def test_criterion_02_closed_form_agreement():
    with Timer() as t:
        ok, lines = run_check("gf-vs-rules", 1000)
    report(2, ok, t.elapsed, 30, "closed form matches rules for n <= 1000")
    assert ok, lines
    assert t.elapsed < 30


def test_criterion_03_minimal_polynomial_residuals():
    with Timer() as t_f:
        r_f = run_check("minpoly-F", 200)
    with Timer() as t_a:
        r_a = run_check("minpoly-A", 200)
    with Timer() as t_b:
        r_b = run_check("minpoly-B", 200)
    ok = r_f[0] and r_a[0] and r_b[0]
    report(3, ok, t_f.elapsed + t_a.elapsed + t_b.elapsed, 10,
           "quadratic, Catalan, and quartic residuals all vanish to N=200")
    assert ok, (r_f, r_a, r_b)
    for t in (t_f, t_a, t_b):
        assert t.elapsed < 10


def test_criterion_04_bivariate_system():
    with Timer() as t:
        ok, lines = run_check("system-201-210", 40)
    report(4, ok, t.elapsed, 30,
           "defining equations and cleared polynomials hold to x^40")
    assert ok, lines
    assert t.elapsed < 30


def test_criterion_05_oracle_equivalence():
    with Timer() as t:
        checks = [
            count_sequence(B_201_210, 11) == rule_counting_sequence("201-210", 11),
            count_sequence(B_011_201, 11) == rule_counting_sequence("011-201", 11),
            count_sequence(B_QUAD, 11) ==
            rule_counting_sequence("010-100-120-210", 11),
            count_sequence(B_201_210, 11) == f_coefficients(11),
            count_sequence(B_10, 11) == _ff_slice_prefix().counts(11),
            relation_residual(CUBIC_010_102,
                              count_sequence(B_010_102, 11)) is None,
        ]
    ok = all(checks)
    report(5, ok, t.elapsed, None,
           "oracle matches rules and series on all five bases for n <= 11")
    assert ok, checks


def test_criterion_06_corrected_count():
    with Timer() as t:
        oracle_51 = count_avoiders(B_011_201, 5)
        rules_51 = count_via_rules("011-201", 5)
    ok = oracle_51 == 51 and rules_51 == 51
    report(6, ok, t.elapsed, None, "|I_5(011,201)| = 51 by oracle and rules")
    assert ok, (oracle_51, rules_51)


def test_criterion_07_wilf_equivalence_conjecture_evidence():
    with Timer() as t:
        ok, lines = run_check("wilf-011-201", 200)
    report(7, ok, t.elapsed, 60,
           "both systems agree for n <= 200 (conjecture evidence, not a proof)")
    assert ok, lines
    assert t.elapsed < 60


def test_criterion_08_functional_equation_consistency():
    # iterate_fe raises on any nonzero divided-difference remainder, which
    # run_check reports as a FAIL line, so a pass also certifies exact
    # division throughout
    with Timer() as t:
        ok, lines = run_check("fe-vs-rules", 30)
    report(8, ok, t.elapsed, 60,
           "functional-equation iteration matches rules to n=30")
    assert ok, lines
    assert t.elapsed < 60


def test_criterion_09_cubic_conjecture_evidence():
    with Timer() as t:
        ok, lines = run_check("conjecture-010-102", 14)
    report(9, ok, t.elapsed, 300,
           "cubic fits brute-force counts to n=14 (conjecture evidence, "
           "not a proof)")
    assert ok, lines
    assert t.elapsed < 300


def test_criterion_10_structure_theorem_exhaustive():
    with Timer() as t:
        ok, lines = run_check("structure-theorem", 9)
    report(10, ok, t.elapsed, 60,
           "characterization matches avoidance for all sequences of "
           "length <= 9")
    assert ok, lines
    assert t.elapsed < 60


def test_criterion_11_diagram_reproduction():
    with Timer() as t:
        text = emit_diagram("201-210", 3)
        counts = {}
        for line in text.splitlines():
            line = line.strip()
            if line.startswith('"L3') and "count=" in line:
                label = line.split('label="')[1].split('"')[0]
                counts[label] = int(line.split("count=")[1].split("]")[0])
    expected = {"(3,F,F)": 1, "(2,F,F)": 2, "(1,F,F)": 2,
                "(2,T,T)": 2, "(1,T,T)": 4, "(2,T,F)": 1}
    accepted = sum(c for label, c in counts.items() if label.endswith("F)"))
    ok = counts == expected and accepted == 6
    report(11, ok, t.elapsed, None,
           "depth-3 diagram stats match the reference tree, 6 accepted states")
    assert counts == expected, counts
    assert accepted == 6
