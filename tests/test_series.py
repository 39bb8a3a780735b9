from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invseq import series
from invseq.series import (
    _check_system_violation,
    _conjecture_residual,
    check_system_201_210,
    CUBIC_010_102,
    f_coefficients,
    ff_slice_series,
    format_series,
    iterate_fe,
    MINPOLY_A,
    MINPOLY_B,
    MINPOLY_F,
    phi,
    PolyRelation,
    relation_residual,
    series_sqrt,
    tf_slice_series,
    TruncatedSeries,
    verify_conjecture_010_102,
)
from invseq.oracle import count_sequence
from invseq.succession import profile_slices_201_210, rule_counting_sequence

SEQ_201_210 = [1, 1, 2, 6, 24, 116, 632, 3720, 23072, 148528, 983072]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
TF_SLICE = [0, 0, 0, 1, 10, 74, 500, 3291, 21642, 143666, 966276]
SEQ_2INT = [1, 1, 2, 5, 15, 51, 189, 746, 3091]


# -- TruncatedSeries arithmetic ---------------------------------------------

def test_construction_pads_and_truncates():
    s = TruncatedSeries([1, 2, 3], 5)
    assert s.coefficients == [1, 2, 3, 0, 0, 0]
    assert TruncatedSeries([1, 2, 3], 1).coefficients == [1, 2]


def test_arithmetic_truncates_to_shorter_operand():
    a = TruncatedSeries([1, 1, 1], 8)
    b = TruncatedSeries([1, 1], 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_multiplication():
    t = TruncatedSeries([1, 2, 3], 5)
    assert (t * t).coefficients == [1, 4, 10, 12, 9, 0]


def test_division_round_trips():
    num = TruncatedSeries([1, 0, 2, 5], 10)
    den = TruncatedSeries([2, -3, 1], 10)
    assert ((num / den) * den).coefficients == num.coefficients


def test_division_produces_fractions():
    q = TruncatedSeries([1], 3) / TruncatedSeries([2], 3)
    assert q.coefficients == [Fraction(1, 2), 0, 0, 0]


def test_division_needs_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([1], 3) / TruncatedSeries([0, 1], 3)


def test_scalar_mixing():
    x = TruncatedSeries([0, 1], 4)
    s = 2 - x - x * x
    assert s.coefficients == [2, -1, -1, 0, 0]


def test_first_nonzero():
    assert TruncatedSeries([0, 0, 7], 4).first_nonzero() == 2
    assert TruncatedSeries([0, 0, 0], 2).first_nonzero() is None


def test_format_series():
    assert format_series(TruncatedSeries([1, 1, 2, 6], 3)) == \
        "1 + x + 2*x^2 + 6*x^3 + O(x^4)"
    assert format_series(TruncatedSeries([1, -4, -8], 2)) == \
        "1 - 4*x - 8*x^2 + O(x^3)"
    assert format_series(TruncatedSeries([0, 0], 1)) == "O(x^2)"


# -- square roots -----------------------------------------------------------

def test_sqrt_pinned():
    r = series_sqrt(TruncatedSeries([1, -8], 5))
    assert r.coefficients == [1, -4, -8, -32, -160, -896]
    assert series_sqrt(TruncatedSeries([1], 4)).coefficients == [1, 0, 0, 0, 0]
    assert series_sqrt(TruncatedSeries([1, 2, 1], 4)).coefficients == \
        [1, 1, 0, 0, 0]


def test_sqrt_needs_unit_constant():
    with pytest.raises(ValueError):
        series_sqrt(TruncatedSeries([4, 1], 3))
    with pytest.raises(ValueError):
        series_sqrt(TruncatedSeries([0, 1], 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=14))
def test_sqrt_squares_back(tail):
    s = TruncatedSeries([1] + tail)
    r = series_sqrt(s)
    assert (r * r).coefficients == s.coefficients


# -- the closed form --------------------------------------------------------

def test_f_coefficients_pinned():
    assert f_coefficients(7) == [1, 1, 2, 6, 24, 116, 632, 3720]
    f = f_coefficients(10)
    assert f == SEQ_201_210
    assert f[0] == 1


def test_f_coefficients_match_series_algebra():
    """The integer recurrences against the closed form evaluated with
    TruncatedSeries and series_sqrt."""
    for n in list(range(8)) + [300]:
        root = series_sqrt(TruncatedSeries([1, -8], n))
        x = TruncatedSeries([0, 1], n)
        f = (2 - x - x * root) / TruncatedSeries([2, -4, 4], n)
        assert f_coefficients(n) == f.coefficients, n


def test_f_coefficients_match_rules_to_60():
    assert f_coefficients(60) == rule_counting_sequence("201-210", 60)


# -- slice series and minimal polynomials -----------------------------------

def test_slice_series_pinned():
    assert ff_slice_series(10).coefficients == CATALAN
    assert tf_slice_series(10).coefficients == TF_SLICE


def test_ff_slice_counts_avoiders_of_10():
    assert ff_slice_series(10).coefficients == count_sequence(((1, 0),), 10)


def test_relation_residuals_zero():
    assert relation_residual(MINPOLY_A, ff_slice_series(200)) is None
    assert relation_residual(MINPOLY_B, tf_slice_series(200)) is None
    f = TruncatedSeries(rule_counting_sequence("201-210", 200))
    assert relation_residual(MINPOLY_F, f) is None


def test_relation_residual_nonzero_example():
    # x(1+x)^2 - (1+x) + 1 = 2x^2 + x^3
    assert relation_residual(MINPOLY_A, TruncatedSeries([1, 1], 5)) == 2


def _plain_horner(polys, coeffs):
    """Reference: the residual's coefficients by Horner's rule in y, one
    full product per step."""
    n = len(coeffs) - 1
    acc = [0] * (n + 1)
    for poly in reversed(polys):
        acc = [sum(acc[i] * coeffs[k - i] for i in range(k + 1))
               for k in range(n + 1)]
        for k, c in enumerate(poly[:n + 1]):
            acc[k] += c
    return acc


def _first_nonzero(coeffs):
    return next((k for k, c in enumerate(coeffs) if c), None)


_small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relation_residual_matches_plain_horner(data):
    """Random relations of y-degree 0-5 at int or Fraction series, once
    as drawn and once with one coefficient corrupted.  Half the draws
    replace p_0 so that the series is a root through its order, which
    puts the corruption's first nonzero residual at or past its
    position."""
    coeff = st.integers(-20, 20)
    if data.draw(st.booleans()):
        coeff = st.one_of(coeff, _small_fraction)
    y = data.draw(st.lists(coeff, min_size=1, max_size=16))
    polys = data.draw(st.lists(
        st.lists(st.integers(-9, 9), max_size=6), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        polys[0] = [-c for c in _plain_horner([()] + polys[1:], y)]
    relation = PolyRelation("random", tuple(tuple(p) for p in polys))
    assert relation_residual(relation, TruncatedSeries(y)) == \
        _first_nonzero(_plain_horner(polys, y))
    y[data.draw(st.integers(0, len(y) - 1))] += data.draw(coeff.filter(bool))
    assert relation_residual(relation, TruncatedSeries(y)) == \
        _first_nonzero(_plain_horner(polys, y))


def test_relation_residual_catches_interior_corruption():
    f = f_coefficients(12)
    f[5] += 1
    assert relation_residual(MINPOLY_F, TruncatedSeries(f)) == 6
    c = list(CATALAN)
    c[7] -= 1
    assert relation_residual(MINPOLY_A, TruncatedSeries(c)) is not None


# -- phi --------------------------------------------------------------------

def test_phi_worked_example():
    f = [{}, {0: 1, 1: 1, 2: 3}, {1: 2, 2: 4, 3: 1}]
    assert phi(f) == [{}, {0: 4, 1: 3}, {0: 7, 1: 5, 2: 1}]


def test_phi_trivia():
    assert phi([{0: 5}, {0: -2}]) == [{}, {}]
    assert phi([{3: 1}]) == [{0: 1, 1: 1, 2: 1}]


_biv_slice = st.dictionaries(st.integers(0, 6),
                             st.integers(-9, 9).filter(bool), max_size=4)


def _combine(a, f, b, g):
    out = []
    for fs, gs in zip(f, g):
        d = {}
        for j, c in fs.items():
            d[j] = d.get(j, 0) + a * c
        for j, c in gs.items():
            d[j] = d.get(j, 0) + b * c
        out.append({j: c for j, c in d.items() if c})
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_phi_linearity(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    f = data.draw(st.lists(_biv_slice, min_size=n, max_size=n))
    g = data.draw(st.lists(_biv_slice, min_size=n, max_size=n))
    a = data.draw(st.integers(min_value=-5, max_value=5))
    b = data.draw(st.integers(min_value=-5, max_value=5))
    assert phi(_combine(a, f, b, g)) == _combine(a, phi(f), b, phi(g))


# -- the bivariate system ---------------------------------------------------

def test_check_system_small_orders():
    assert check_system_201_210(0)
    assert check_system_201_210(8)
    assert check_system_201_210(25)


def test_check_system_canary():
    profiles = [(list(a), list(b), list(c))
                for a, b, c in profile_slices_201_210(20)]
    profiles[7][0][2] += 1
    assert _check_system_violation(20, profiles=profiles) is not None
    profiles = [(list(a), list(b), list(c))
                for a, b, c in profile_slices_201_210(20)]
    profiles[12][2][4] -= 1
    assert _check_system_violation(20, profiles=profiles) is not None


# -- functional equations ---------------------------------------------------

def test_iterate_fe_pinned():
    assert iterate_fe("011-201", 0) == [1]
    assert iterate_fe("011-201", 8) == SEQ_2INT
    assert iterate_fe("010-100-120-210", 8) == SEQ_2INT


def test_iterate_fe_unknown_system():
    with pytest.raises(ValueError):
        iterate_fe("201-210", 5)


def test_iterate_fe_matches_rules():
    for system_id in ("011-201", "010-100-120-210"):
        assert iterate_fe(system_id, 40) == \
            rule_counting_sequence(system_id, 40)


def _add_term(out, key, c):
    out[key] = out.get(key, 0) + c


def _fe_rhs_by_expansion(system_id, s):
    """Reference: 1 + xu*L(S) on a whole trivariate series, every divided
    difference expanded term by term,

      (u^a - v^a) / (u - v) = sum_{i<a} u^i v^(a-1-i),
      (v^b - 1) / (v - 1)   = sum_{i<b} v^i,

    with no synthetic division."""
    out = [{(0, 0): 1}] + [dict() for _ in s[:-1]]
    for deg, slice_ in enumerate(s[:-1]):
        tgt = out[deg + 1]
        for (a, b), c in slice_.items():
            if system_id == "011-201":
                _add_term(tgt, (a + 1, 0), c)               # S(x,u,1)
                for i in range(a):                          # (S - S(x,v,v))/(u-v)
                    _add_term(tgt, (i + 1, a - 1 - i + b), c)
            else:
                _add_term(tgt, (a + 1, b), c)               # S
                for i in range(a):                          # (S(x,u,1) - S(x,v,1))/(u-v)
                    _add_term(tgt, (i + 1, a - 1 - i), c)
            for i in range(b):                              # (S - S(x,u,1))/(v-1)
                _add_term(tgt, (a + 1, i), c)
    return [{k: c for k, c in slice_.items() if c} for slice_ in out]


@pytest.mark.parametrize("system_id", ["011-201", "010-100-120-210"])
def test_fe_solution_is_a_fixed_point(system_id):
    """The degree-by-degree solution, fed whole to the equation's
    right-hand side, comes back unchanged through x^25."""
    s = list(series._fe_slices(system_id, 25))
    assert len(s) == 26
    assert _fe_rhs_by_expansion(system_id, s) == s
    assert [sum(slice_.values()) for slice_ in s] == iterate_fe(system_id, 25)


def test_fe_specializations_agree_conjecture_evidence():
    """The u=v=1 specializations of the two functional equations agree
    (checked, not proven); the full trivariate solutions differ, so
    nothing here compares them."""
    assert iterate_fe("011-201", 80) == iterate_fe("010-100-120-210", 80)


# -- the conjectured cubic --------------------------------------------------

def test_conjecture_small_depths():
    assert verify_conjecture_010_102(1)
    assert verify_conjecture_010_102(10)


def test_conjecture_canary():
    counts = count_sequence(((0, 1, 0), (1, 0, 2)), 10)
    counts[5] += 1
    assert _conjecture_residual(counts) is not None


def test_cubic_relation_shape():
    assert len(CUBIC_010_102.coefficients) == 4
    assert relation_residual(
        CUBIC_010_102,
        TruncatedSeries(count_sequence(((0, 1, 0), (1, 0, 2)), 8))) is None
