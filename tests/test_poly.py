"""The polynomial layer and the linear ODEs it derives from the minimal
polynomials: the arithmetic on small cases, each ODE against the
series it comes from, checked as a power series with no recurrence, and
the recurrences read off the ODEs, whose orders and leading
coefficients set how far the minpoly checks step their residuals."""

import pytest

from invseq import checks, poly, series
from invseq.series import MINPOLY_A, MINPOLY_B, MINPOLY_F
from invseq.succession import rule_counting_sequence

N = 300


def _sources(n):
    a = checks._ff_slice_prefix().counts(n)
    f = rule_counting_sequence("201-210", n)
    return {"minpoly-A": a, "minpoly-F": f,
            "minpoly-B": [x - y for x, y in zip(f, a)]}


RELATIONS = {r.name: r for r in (MINPOLY_A, MINPOLY_B, MINPOLY_F)}

# name: (ODE order, x-degree of each coefficient, recurrence order, the
# nonnegative integer roots of its leading coefficient)
SHAPES = {
    "minpoly-A": (1, [0, 1, 2], 1, []),
    "minpoly-F": (1, [2, 3, 4], 3, [1]),
    "minpoly-B": (2, [6, 7, 8, 9], 7, [1]),
}


def _ode_residual(ode, y):
    """c_(-1) + c_0*y + c_1*y' + ... on the coefficients of y, through
    the order that they determine: a plain product of power series."""
    const, *cs = ode
    n = len(y) - len(cs)
    out = [const[k] if k < len(const) else 0 for k in range(n + 1)]
    derivative = list(y)
    for c in cs:
        for k in range(n + 1):
            out[k] += sum(c[i] * derivative[k - i]
                          for i in range(min(k, len(c) - 1) + 1))
        derivative = [m * d for m, d in enumerate(derivative)][1:]
    return out


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_each_derived_ode_holds_on_its_source(name):
    y = _sources(N)[name]
    ode = poly.linear_ode(RELATIONS[name].coefficients)
    order, degrees, rec_order, roots = SHAPES[name]
    assert len(ode) - 2 == order
    assert [len(c) - 1 for c in ode] == degrees
    assert not any(_ode_residual(ode, y))
    top, rows, const = poly.recurrence(ode)
    assert (top, len(rows) - 1) == (0, rec_order)
    assert poly.nonnegative_roots(rows[0]) == roots
    for n in range(N + 1):
        assert (const[n] if n < len(const) else 0) + sum(
            poly.peval(row, n) * y[n - i]
            for i, row in enumerate(rows) if n >= i) == 0, n


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_planted_unit_fails_the_ode_where_it_enters(name):
    """A unit at x^150 leaves the ODE's coefficients through x^149 and
    makes one through x^150 nonzero."""
    y = _sources(N)[name]
    y[150] += 1
    ode = poly.linear_ode(RELATIONS[name].coefficients)
    residual = _ode_residual(ode, y)
    assert 140 <= next(k for k, c in enumerate(residual) if c) <= 150


def test_a_corrupted_relation_has_an_ode_the_counts_fail():
    polys = [list(p) for p in MINPOLY_F.coefficients]
    polys[1][0] += 1
    ode = poly.linear_ode(polys)
    assert ode is not None
    assert any(_ode_residual(ode, _sources(40)["minpoly-F"]))


def test_the_ode_of_a_relation_with_a_repeated_factor_is_none():
    """P^2 has no inverse of its y-derivative, and a relation of y-degree
    0 has no root."""
    square = [(), (), (), (), ()]
    for i, p in enumerate(MINPOLY_F.coefficients):
        for j, q in enumerate(MINPOLY_F.coefficients):
            square[i + j] = poly.padd(square[i + j], poly.pmul(p, q))
    assert poly.linear_ode(square) is None
    assert poly.linear_ode([(1, 1)]) is None


def test_a_linear_relation_gives_itself():
    """y = (1 + x)/(1 - x), a root of (1 + x) - (1 - x)y, solves an ODE of
    order 0, the relation up to sign."""
    assert poly.linear_ode([(1, 1), (-1, 1)]) in (
        ((1, 1), (-1, 1)), ((-1, -1), (1, -1)))


def test_solve_is_fraction_free_cramer():
    matrix = [[(2,), (1, 1)], [(0, 1), (3,)]]
    x, det = poly.solve(matrix, [(1,), (0, 0, 1)])
    for row, b in zip(matrix, [(1,), (0, 0, 1)]):
        assert poly.padd(*map(poly.pmul, row, x)) == poly.pmul(det, b)
    assert det in ((6, -1, -1), (-6, 1, 1))
    assert poly.solve([[(1,), (2,)], [(2,), (4,)]], [(1,), (1,)]) is None


def test_solve_swaps_in_a_row_past_a_zero_pivot():
    assert poly.solve([[(), (1,)], [(1,), ()]], [(2,), (3,)]) == (
        [(3,), (2,)], (1,))


def test_independent_rows_skip_a_dependent_row():
    """[2, 4] reduces to zero by [1, 2] and is skipped; with no row after
    it there are not two independent rows."""
    assert poly._independent_rows([[1, 2], [2, 4], [0, 1]], 2) == [0, 2]
    assert poly._independent_rows([[1, 2], [2, 4]], 2) is None


def test_null_vector_passes_a_point_where_the_columns_vanish():
    """x - 2 vanishes at 2, the first point tried, so the rows are found
    at 3; w = (-1, x - 2) cancels the columns (x - 2, 1)."""
    assert poly._null_vector([((-2, 1),), ((1,),)], 1) == [(-1,), (-2, 1)]


@pytest.mark.parametrize("p, q", [((1, 3), (1, 2)), ((1, 0, 1), (1, 1))],
                         ids=["inexact-coefficient", "nonzero-remainder"])
def test_pdiv_raises_on_an_inexact_division(p, q):
    with pytest.raises(ArithmeticError, match="inexact division"):
        poly._pdiv(p, q)


def test_the_relation_constants_are_their_factored_forms():
    """series writes the product coefficients of its relations out; the
    factored forms in its comments multiply to them."""
    b, c = series.MINPOLY_B.coefficients, series.CUBIC_010_102.coefficients
    for factors, coefficient in [
            (((0, 1), (-1, 1), (-1, 6), (-1, 3)), b[1]),
            (((0, 2), (-1, 1), (-1, 3), (1, -2, 2)), b[3]),
            (((0, 0, 1), (1, -2, 2), (1, -2, 2)), b[4]),
            (((1, -2), (1, -2, 1)), c[0]),
            (((0, 2), (-1, 1), (1, -2, 2)), c[2]),
            (((0, 1), (1, -1, 1), (1, -2, 1)), c[3])]:
        assert poly.pmul(*factors) == tuple(coefficient)


def test_nonnegative_roots():
    # n(n - 1)(n - 12)(n + 5) and (n - 7)^2 + 1
    p = poly.pmul((0, 1), (-1, 1), (-12, 1), (5, 1))
    assert poly.nonnegative_roots(p) == [0, 1, 12]
    assert poly.nonnegative_roots((50, -14, 1)) == []
    assert poly.nonnegative_roots((0, 3)) == [0]


def test_a_common_factor_of_the_combination_only_is_not_cancelled():
    """2 - y over x: x divides q and 1*2 + 2*(-1), a combination of the
    numerator's coefficients, but not 2, so nothing is cancelled; x(2 - y)
    over 3x^2 cancels x, the factor common to q and every coefficient."""
    rel = tuple(MINPOLY_F.coefficients)
    assert poly._reduced(((2,), (-1,)), (0, 1), rel) == (((2,), (-1,)), (0, 1))
    assert poly._reduced(((0, 2), (0, -1)), (0, 0, 3), rel) == (
        ((2,), (-1,)), (0, 3))
