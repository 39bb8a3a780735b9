import random
import re
import sys
import threading
from functools import cache, partial
from operator import sub

import pytest
from hypothesis import example, given, HealthCheck, settings, strategies as st

from invseq import checks, poly, series, succession
from invseq.checks import _check_system_violation, _ff_slice_prefix, run_check
from invseq.prefix import _STATES, Prefix
from invseq.series import (
    CUBIC_010_102,
    f_coefficients,
    iterate_fe,
    MINPOLY_A,
    MINPOLY_B,
    MINPOLY_F,
    PolyRelation,
    relation_residual,
)
from invseq.oracle import count_sequence
from invseq.succession import get_system, rule_counting_sequence

SEQ_201_210 = [1, 1, 2, 6, 24, 116, 632, 3720, 23072, 148528, 983072]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
TF_SLICE = [0, 0, 0, 1, 10, 74, 500, 3291, 21642, 143666, 966276]
SEQ_2INT = [1, 1, 2, 5, 15, 51, 189, 746, 3091]


def _dp_levels(n):
    """The dense levels of the 201-210 DP at depths 0..n, a full run from
    the axiom, stepped by a Prefix over the system's start and kernel
    that the registry never holds."""
    system = get_system("201-210")
    prefix = Prefix(system.start, system.kernel)
    return [prefix.level(d) for d in range(n + 1)]


def _dp_slices(n):
    """The slices (a, b, c) of the (k,F,F), (k,T,F) and (k,T,T) counts of
    _dp_levels(n), as the system's decoder reads them."""
    return [succession._decode_201_210(level) for level in _dp_levels(n)]


def _tf_slice(n):
    """The (k,T,F) sums at depths 0..n: the b slices of _dp_slices(n),
    each summed over k."""
    return [sum(b) for _, b, _ in _dp_slices(n)]


# -- a reference for the closed form ----------------------------------------
#
# (2 - x - x*sqrt(1-8x)) / (2 - 4x + 4x^2) in three steps that share no
# code with the first-order recurrences of f_coefficients: sqrt(1-8x) by
# convolution, the shift by x, then long division.  Integers only, with
# every halving and every division checked to be exact.

def _sqrt_unit(s):
    """The square root of the integer series s (a list) with constant
    term 1, through the length of s: 2*r_k = s_k - sum_{0<i<k} r_i*r_(k-i)."""
    if s[0] != 1:
        raise ValueError("the square root needs constant term 1")
    r = [1]
    for k in range(1, len(s)):
        r_k, rem = divmod(s[k] - sum(r[i] * r[k - i] for i in range(1, k)), 2)
        if rem:
            raise ArithmeticError("x^%d of the square root is not an integer" % k)
        r.append(r_k)
    return r


def _long_division(num, den):
    """num / den through the length of num, one coefficient at a time."""
    q = []
    for k, c in enumerate(num):
        acc = c - sum(den[j] * q[k - j] for j in range(1, min(k + 1, len(den))))
        q_k, rem = divmod(acc, den[0])
        if rem:
            raise ArithmeticError("x^%d of the quotient is not an integer" % k)
        q.append(q_k)
    return q


def _closed_form(n):
    root = _sqrt_unit([1, -8, *[0] * n][:n + 1])
    num = [2, -1, *[0] * n][:n + 1]
    for k in range(1, n + 1):
        num[k] -= root[k - 1]
    return _long_division(num, [2, -4, 4])


def test_sqrt_pinned():
    assert _sqrt_unit([1, -8, 0, 0, 0, 0]) == [1, -4, -8, -32, -160, -896]
    assert _sqrt_unit([1, 0, 0, 0, 0]) == [1, 0, 0, 0, 0]
    assert _sqrt_unit([1, 2, 1, 0, 0]) == [1, 1, 0, 0, 0]
    with pytest.raises(ArithmeticError):
        _sqrt_unit([1, 1])


def test_sqrt_needs_unit_constant():
    with pytest.raises(ValueError):
        _sqrt_unit([4, 1, 0, 0])
    with pytest.raises(ValueError):
        _sqrt_unit([0, 1, 0, 0])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=14))
def test_sqrt_squares_back(tail):
    r = [1, *tail]
    square = [sum(r[i] * r[k - i] for i in range(k + 1)) for k in range(len(r))]
    assert _sqrt_unit(square) == r


# -- the closed form --------------------------------------------------------

def test_f_coefficients_pinned():
    assert f_coefficients(7) == [1, 1, 2, 6, 24, 116, 632, 3720]
    f = f_coefficients(10)
    assert f == SEQ_201_210
    assert f[0] == 1


def test_f_coefficients_match_series_algebra():
    """The integer recurrences against the closed form evaluated by the
    reference above."""
    for n in list(range(8)) + [300]:
        assert f_coefficients(n) == _closed_form(n), n


def test_f_coefficients_match_rules_to_60():
    assert f_coefficients(60) == rule_counting_sequence("201-210", 60)


def test_closed_form_step_checks_each_division_and_sign():
    """The step from the state (k, r_(k-1), f_(k-1), f_(k-2)) checks the
    halving of f_k, its sign and the division of r_k by k, with the
    messages f_coefficients has always raised, and gives the next state
    and f_k; from the start (0, 0, 0, 0) it forms f_0 = 1 and r_0 = 1."""
    for state, message in (
            ((3, -3, 1, 1), "coefficient of x^3 is not an integer"),
            ((3, -4, -9, 1), "coefficient of x^3 is negative: -18"),
            ((5, 2, 1, 0), "sqrt(1-8x) coefficient of x^5 is not an integer")):
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            series._f_step(state)
    assert series._f_step((2, -4, 1, 1)) == ((3, -8, 2, 1), 2)
    assert series._f_step((0, 0, 0, 0)) == ((1, 1, 1, 0), 1)


# -- slice series and minimal polynomials -----------------------------------

def test_slice_series_pinned():
    assert _ff_slice_prefix().counts(10) == CATALAN
    assert _tf_slice(10) == TF_SLICE


def test_ff_slice_series_equals_the_full_dp_slice():
    """Stepping the closed (k,F,F) slice alone gives the slice that the
    whole 201-210 DP computes, k by k and summed."""
    levels = _dp_slices(120)
    ff = Prefix([1], succession._step_ff)
    assert ff.counts(120) == [sum(a) for a, _, _ in levels]
    assert [ff.level(n) for n in range(121)] == [a for a, _, _ in levels]
    assert _ff_slice_prefix().counts(120) == [sum(a) for a, _, _ in levels]


def test_counts_minus_the_ff_slice_are_the_tf_slice():
    """B(x,1) = F(x) - A(x,1): at every depth the count minus the (k,F,F)
    sum is the (k,T,F) sum, as the b slices of the whole 201-210 DP give
    it."""
    tf = _tf_slice(400)
    for n in [*range(61), 400]:
        ff = _ff_slice_prefix().counts(n)
        difference = list(map(sub, rule_counting_sequence("201-210", n), ff))
        assert difference == tf[:n + 1], n


def test_minpoly_b_checks_the_tf_slice_series():
    """minpoly-B evaluates its relation on the (k,T,F) sums of the b
    slices of the 201-210 DP: the y its route holds through x^n, the
    last terms that its ODE reads (zeros below x^0) and, last coefficient
    first, the terms through n0 = 2 that its residual reads, is that
    series, and the route answers as relation_residual on it does."""
    tf = _tf_slice(200)
    for n in (0, 1, 8, 200):
        assert run_check("minpoly-B", n)[0], n
        route = _STATES["relation", "minpoly-B"]
        _, _, window, _, _, residual = route.level(n + 1)
        assert window == tuple([0] * len(window) + tf[:n + 1])[-len(window):], n
        assert residual[0][0][::-1] == tuple(tf[:min(n, 2) + 1]), n
        assert route.count(n) == \
            relation_residual(MINPOLY_B, tf[:n + 1]), n


def test_ff_slice_counts_avoiders_of_10():
    assert _ff_slice_prefix().counts(10) == count_sequence(((1, 0),), 10)


def test_relation_residuals_zero():
    assert relation_residual(MINPOLY_A, _ff_slice_prefix().counts(200)) is None
    assert relation_residual(MINPOLY_B, _tf_slice(200)) is None
    f = rule_counting_sequence("201-210", 200)
    assert relation_residual(MINPOLY_F, f) is None


def test_relation_residual_nonzero_example():
    # x(1+x)^2 - (1+x) + 1 = 2x^2 + x^3
    assert relation_residual(MINPOLY_A, [1, 1, 0, 0, 0, 0]) == 2


def test_relation_residual_holds_vacuously_on_an_empty_series():
    """An empty list of coefficients is a series known through no power
    of x, so every relation holds through it; a relation with no
    coefficients is still rejected first."""
    empty = []
    for relation in (MINPOLY_A, MINPOLY_B, MINPOLY_F, CUBIC_010_102):
        assert relation_residual(relation, empty) is None, relation.name
    with pytest.raises(ValueError, match="relation 'e' has no coefficients"):
        relation_residual(PolyRelation("e", ()), empty)


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
    assert relation_residual(relation, y) == \
        _first_nonzero(_plain_horner(polys, y))
    y[data.draw(st.integers(0, len(y) - 1))] += data.draw(coeff.filter(bool))
    assert relation_residual(relation, y) == \
        _first_nonzero(_plain_horner(polys, y))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_residual_route_gives_the_orders_of_p_and_dp_dy(data):
    """The residual route over (P, dP/dy), on random relations of
    y-degree 0-5 at int or Fraction series, once as drawn and once with
    one coefficient corrupted, gives at every depth the first orders
    that two separate relation_residual calls give, one on P and one on
    dP/dy; the empty dP/dy of y-degree 0 never has one.  Half the draws
    replace p_0 so that the series is a root through its order."""
    coeff = st.integers(-20, 20)
    if data.draw(st.booleans()):
        coeff = st.one_of(coeff, _small_fraction)
    y = data.draw(st.lists(coeff, min_size=1, max_size=16))
    polys = data.draw(st.lists(
        st.lists(st.integers(-9, 9), max_size=6), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        polys[0] = [-c for c in _plain_horner([()] + polys[1:], y)]
    polys = tuple(map(tuple, polys))
    rels = (polys, poly.ydy(polys))
    for corrupt in (False, True):
        if corrupt:
            y[data.draw(st.integers(0, len(y) - 1))] += data.draw(
                coeff.filter(bool))
        route = Prefix(series._residual_start(rels), series._residual_step,
                       rels, y.__getitem__)
        assert route.counts(len(y) - 1) == [
            tuple(relation_residual(PolyRelation("r", p),
                                    y[:k + 1]) if p else None
                  for p in rels)
            for k in range(len(y))], corrupt


def _first_through(residual, k):
    """The first nonzero order of a residual through x^k, or None."""
    return next((i for i, c in enumerate(residual[:k + 1]) if c), None)


# relation -> the series it is checked on, through x^n
CHECKED_ON = {
    MINPOLY_A: lambda n: _ff_slice_prefix().counts(n),
    MINPOLY_B: _tf_slice,
    MINPOLY_F: f_coefficients,
    CUBIC_010_102: lambda n: count_sequence(((0, 1, 0), (1, 0, 2)), 11),
}


@pytest.mark.parametrize("relation", CHECKED_ON, ids=lambda r: r.name)
def test_residual_route_equals_a_full_convolution(relation):
    """The residual route over (P, dP/dy), which forms y^2 by symmetry,
    gives at every depth the first orders of a full-convolution
    reference (_plain_horner, all k + 1 products at x^k), on the series
    each relation is checked on (60 terms; 12 of {010, 102}) and on that
    series with one coefficient planted wrong, early or late."""
    y = CHECKED_ON[relation](60)
    polys = tuple(map(tuple, relation.coefficients))
    rels = (polys, poly.ydy(polys))
    for fault in (None, 5, len(y) - 2):
        z = list(y)
        if fault is not None:
            z[fault] -= 1
        route = Prefix(series._residual_start(rels), series._residual_step,
                       rels, z.__getitem__)
        residuals = [_plain_horner(p, z) for p in rels]
        assert route.counts(len(z) - 1) == [
            tuple(_first_through(r, k) for r in residuals)
            for k in range(len(z))], fault
        assert (fault is None) == (route.count(len(z) - 1)[0] is None)


def test_relation_residual_catches_interior_corruption():
    f = f_coefficients(12)
    f[5] += 1
    assert relation_residual(MINPOLY_F, f) == 6
    c = list(CATALAN)
    c[7] -= 1
    assert relation_residual(MINPOLY_A, c) is not None


# -- the bivariate system ---------------------------------------------------

def test_check_system_small_orders():
    assert _check_system_violation(0) is None
    assert _check_system_violation(8) is None
    assert _check_system_violation(25) is None


def test_check_system_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="n_max"):
        _check_system_violation(-1)


def test_check_system_canary():
    profiles = [(list(a), list(b), list(c))
                for a, b, c in _dp_slices(20)]
    profiles[7][0][2] += 1
    assert _injected_violation(20, profiles) is not None
    profiles = [(list(a), list(b), list(c))
                for a, b, c in _dp_slices(20)]
    profiles[12][2][4] -= 1
    assert _injected_violation(20, profiles) is not None


def test_check_system_rejects_a_u_degree_above_the_x_degree():
    profiles = [(list(a), list(b), list(c))
                for a, b, c in _dp_slices(6)]
    profiles[4][1].extend([0, 0])               # zeros past u^4 are fine
    assert _injected_violation(6, profiles) is None
    profiles[4][1][5] = 1
    with pytest.raises(ArithmeticError, match="x\\^4"):
        _injected_violation(6, profiles)


# Reference: the seven identities on bivariate series held as lists over
# x-degree of {u_power: coeff} dicts with no zeros stored, phi by synthetic
# division at root 1.  This is the implementation the dense rows replaced.

def _ref_phi(f):
    out = []
    for slice_ in f:
        if not slice_:
            out.append({})
            continue
        deg = max(slice_)
        coeffs = [slice_.get(j, 0) for j in range(deg + 1)]
        coeffs[0] -= sum(coeffs)
        q = [0] * deg
        carry = 0
        for j in range(deg, 0, -1):
            carry += coeffs[j]
            q[j - 1] = carry
        assert carry + coeffs[0] == 0
        out.append({j: c for j, c in enumerate(q) if c})
    return out


def _ref_add(*fs):
    n = min(len(f) for f in fs) - 1
    out = [dict() for _ in range(n + 1)]
    for f in fs:
        for deg in range(n + 1):
            for j, c in f[deg].items():
                out[deg][j] = out[deg].get(j, 0) + c
    return [{j: c for j, c in d.items() if c} for d in out]


def _ref_apply(terms, f):
    """Sum of coeff * x^dx * u^du * f over (coeff, dx, du) terms, truncated
    to f's x-order."""
    n = len(f) - 1
    out = [dict() for _ in range(n + 1)]
    for coeff, dx, du in terms:
        for deg in range(n + 1 - dx):
            for j, c in f[deg].items():
                out[deg + dx][j + du] = out[deg + dx].get(j + du, 0) + coeff * c
    return [{j: c for j, c in d.items() if c} for d in out]


def _ref_embed(coeffs):
    return [{0: c} if c else {} for c in coeffs]


def _ref_first_diff(f, g):
    for deg in range(min(len(f), len(g))):
        for j in sorted(set(f[deg]) | set(g[deg])):
            if f[deg].get(j, 0) != g[deg].get(j, 0):
                return (deg, j)
    return None


def _reference_sides(n_max, profiles):
    """(label, left side, right side) of each of the seven identities on
    the census through x^n_max, in label order; P1-P4 are read as their
    left side = 0."""
    def biv(i):
        return [{k: c for k, c in enumerate(profiles[n][i]) if c}
                for n in range(n_max + 1)]

    a, b, c = biv(0), biv(1), biv(2)
    d = _ref_phi(_ref_add(a, b))
    one = [{0: 1}] + [dict() for _ in range(n_max)]
    xu = [(1, 1, 1)]
    checks = [
        ("A", a, _ref_add(one, _ref_apply(xu, _ref_add(a, _ref_phi(a))))),
        ("B", b, _ref_apply(xu, _ref_add(b, b, _ref_phi(b), c))),
        ("C", c, _ref_apply(xu, _ref_add(
            _ref_phi(_ref_apply([(1, 0, 1)], d)), _ref_phi(c), c))),
    ]
    a1, b1, c1, d1 = ([sum(s.values()) for s in f] for f in (a, b, c, d))
    u_minus_1 = [{1: 1, 0: -1}] + [dict() for _ in range(n_max)]
    zero = [dict() for _ in range(n_max + 1)]
    checks += [
        ("P1", _ref_add(
            _ref_apply([(1, 0, 0), (-1, 0, 1), (1, 1, 2)], a),
            _ref_apply([(-1, 1, 1)], _ref_embed(a1)),
            u_minus_1), zero),
        ("P2", _ref_add(
            _ref_apply([(1, 0, 0), (-1, 0, 1), (-1, 1, 1), (2, 1, 2)], b),
            _ref_apply([(-1, 1, 1)], _ref_embed(b1)),
            _ref_apply([(1, 1, 2), (-1, 1, 1)], c)), zero),
        ("P3", _ref_add(
            _ref_apply([(1, 0, 0), (-1, 0, 1), (1, 1, 2)], c),
            _ref_apply([(-1, 1, 1)], _ref_embed(c1)),
            _ref_apply([(1, 1, 2)], d),
            _ref_apply([(-1, 1, 1)], _ref_embed(d1))), zero),
        ("P4", _ref_add(
            _ref_apply([(1, 0, 0), (-1, 0, 1)], d), a, b,
            _ref_embed([-v for v in a1]), _ref_embed([-v for v in b1])),
         zero),
    ]
    return checks


def _reference_violation(n_max, profiles):
    for label, lhs, rhs in _reference_sides(n_max, profiles):
        diff = _ref_first_diff(lhs, rhs)
        if diff is not None:
            return (label,) + diff
    return None


_CENSUS = [(list(a), list(b), list(c))
           for a, b, c in _dp_slices(30)]


def test_check_system_matches_the_dict_reference_on_the_census():
    for n_max in range(31):
        assert _reference_violation(n_max, _CENSUS) is None
        assert _check_system_violation(n_max) is None
        assert _injected_violation(n_max, _CENSUS) is None


_cell = st.tuples(st.integers(0, 14), st.integers(0, 2), st.integers(0, 14),
                 st.integers(-3, 3).filter(bool))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.lists(_cell, min_size=1, max_size=2))
def test_check_system_reports_the_reference_first_failure(n_max, cells):
    """One or two census cells corrupted, anywhere through x^n_max: the
    dense check names the same (label, x, u) as the dict reference."""
    profiles = _corrupted_census(n_max, cells)
    expected = _reference_violation(n_max, profiles)
    assert _injected_violation(n_max, profiles) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.lists(_cell, max_size=2))
@example(0, [(0, 0, 0, 1)])
@example(6, [(0, 2, 0, -2), (4, 1, 3, 1)])
def test_the_cleared_relations_follow_from_the_three_equations(n_max, cells):
    """On the census with up to two cells corrupted, x^0 included, the
    dict reference's residuals (left side minus right side) of P1, P2 and
    P3 are (1 - u) times those of A, B and C, and that of P4 is zero: the
    proof in _check_system_violation that its three residual rows decide
    all seven identities."""
    residuals = {label: _ref_add(lhs, _ref_apply([(-1, 0, 0)], rhs))
                 for label, lhs, rhs in
                 _reference_sides(n_max, _corrupted_census(n_max, cells))}
    for cleared, equation in (("P1", "A"), ("P2", "B"), ("P3", "C")):
        assert residuals[cleared] == \
            _ref_apply([(1, 0, 0), (-1, 0, 1)], residuals[equation]), cleared
    assert residuals["P4"] == [{}] * (n_max + 1)


def _system_prefix(kernel=checks._fast_step_201_210,
                   decode=checks._decode_201_210,
                   axiom=get_system("201-210").start):
    """A fresh Prefix over the system's step that the registry never
    holds, by default over the route the system prefix is keyed on."""
    return Prefix((None, ([],) * 3, None), series._system_step, kernel,
                  decode, axiom)


def _injected_violation(n_max, profiles):
    """What _check_system_violation answers on the census profiles in
    place of the DP's: the system's step replayed cold over levels that
    are the injected slices themselves, its kernel returning the next
    injected slices and its decoder each as it is."""
    return _system_prefix(lambda slices: (profiles[len(slices[0])],),
                          lambda slices: slices, profiles[0]).count(n_max)


def _corrupted_census(n_max, cells):
    """The census through x^n_max with each (m, i, k, delta) cell added:
    delta at u^k of slice i at x^m, m and k folded into range."""
    profiles = [tuple(list(row) for row in p) for p in _CENSUS[:n_max + 1]]
    for m, i, k, delta in cells:
        m %= n_max + 1
        profiles[m][i][k % (m + 1)] += delta
    return profiles


# -- per-process residual states --------------------------------------------

def test_a_relation_without_coefficients_raises():
    with pytest.raises(ValueError, match="relation 'e' has no coefficients"):
        relation_residual(PolyRelation("e", ()), [1, 2])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_residual_state_under_interleaved_requests(fresh_states, data):
    """One relation, evaluated on a random sequence of orders, each
    request clean or with one coefficient corrupted, answers every
    request as the plain Horner reference does.  Half the draws make the
    series a root of the relation through its order, so that clean
    requests answer None and a corrupted one answers before a clean
    request that follows it."""
    coeff = st.integers(-20, 20)
    if data.draw(st.booleans()):
        coeff = st.one_of(coeff, _small_fraction)
    y = data.draw(st.lists(coeff, min_size=1, max_size=16))
    polys = data.draw(st.lists(
        st.lists(st.integers(-9, 9), max_size=6), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        polys[0] = [-c for c in _plain_horner([()] + polys[1:], y)]
    relation = PolyRelation("interleaved", tuple(tuple(p) for p in polys))
    index = st.integers(0, len(y) - 1)
    requests = data.draw(st.lists(
        st.tuples(index, st.none() | st.tuples(index, coeff.filter(bool))),
        min_size=1, max_size=10))
    fresh_states()
    for order, corruption in requests:
        coeffs = y[:order + 1]
        if corruption is not None and corruption[0] <= order:
            coeffs[corruption[0]] += corruption[1]
        assert relation_residual(relation, coeffs) == \
            _first_nonzero(_plain_horner(polys, coeffs)), (order, corruption)


def test_the_state_keeps_its_own_copy_of_the_series(fresh_states):
    """Mutating a series after it was evaluated is seen by the next
    evaluation, and undoing it too."""
    s = list(CATALAN)
    assert relation_residual(MINPOLY_A, s) is None
    s[7] -= 1
    assert relation_residual(MINPOLY_A, s) == \
        _first_nonzero(_plain_horner(MINPOLY_A.coefficients, s))
    s[7] += 1
    assert relation_residual(MINPOLY_A, s) is None


def _count_route_steps(monkeypatch, name):
    """Wrap the step of that name in series; the returned list gets, per
    call, its polys, the depth it steps and the set of depths at which
    it reads its terms."""
    stepped = []
    real = getattr(series, name)

    def counted(level, polys, *terms):
        read = set()

        def reading(term):
            return lambda k: read.add(k) or term(k)
        out = real(level, polys, *map(reading, terms))
        depth = len(level[0][0]) if name == "_residual_step" else \
            level[0] if level else 0
        stepped.append((polys, depth, read))
        return out
    monkeypatch.setattr(series, name, counted)
    return stepped


# name: (relation, the depth n0 through which the check steps its
# residual once its ODE holds, the order v of dP/dy at its counts)
N0 = {"minpoly-A": (MINPOLY_A, 0, 0), "minpoly-B": (MINPOLY_B, 2, 1),
      "minpoly-F": (MINPOLY_F, 2, 1)}


@pytest.mark.parametrize("name", sorted(N0))
def test_coefficients_per_residual_request(name, monkeypatch, fresh_states):
    """A check's relation route steps n + 1 depths on a cold request
    through n, none at or below its stored depth, and the n - m past a
    stored depth m; within them it steps one residual route, over its
    relation and dP/dy, only through n0, on the first request, which
    finds the first nonzero order v of dP/dy there.  Each step reads its
    terms at its own depth only, so no source count past n is read."""
    relation, n0, v = N0[name]
    polys = tuple(map(tuple, relation.coefficients))
    rels = (polys, poly.ydy(polys))
    residual = _count_route_steps(monkeypatch, "_residual_step")
    route = _count_route_steps(monkeypatch, "_relation_step")
    first = True
    for n, steps in ((40, 41), (40, 0), (25, 0), (0, 0), (47, 7),
                     (60, 13), (59, 0), (120, 60)):
        residual.clear()
        route.clear()
        assert run_check(name, n)[0], n
        assert route == [(polys, k, {k}) for k in range(n + 1 - steps, n + 1)], n
        assert residual == [(rels, k, {k}) for k in range(n0 + 1) if first], n
        assert _STATES["relation", name]._memo[1][5][1] == (None, v), n
        first = False


def test_relation_residual_keeps_no_state(fresh_states):
    """Fifty random relations evaluated under one name answer as the
    plain Horner reference does and leave every registry entry as it
    was; each minpoly check keeps the one key of its relation route,
    whatever the order of its requests."""
    names = ("minpoly-A", "minpoly-B", "minpoly-F")
    for name in names:
        assert run_check(name, 30)[0], name
    before = dict(_STATES)
    memos = [state._memo for state in before.values()]
    rng = random.Random(19)
    for _ in range(50):
        polys = tuple(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
                      for _ in range(rng.randint(1, 5)))
        y = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12))]
        answer = relation_residual(PolyRelation("minpoly-A", polys), y)
        assert answer == _first_nonzero(_plain_horner(polys, y))
    assert _STATES == before
    assert all(state._memo is memo
               for state, memo in zip(_STATES.values(), memos))
    for n in (50, 10, 70):
        for name in names:
            assert run_check(name, n)[0], (name, n)
        assert sorted(key for key in _STATES if isinstance(key, tuple)) \
            == [("relation", name) for name in names], n


def _count_residual_degrees(monkeypatch):
    """Wrap _system_residuals; the returned list gets one entry per
    x-degree whose residual rows are formed."""
    formed = []
    real = series._system_residuals

    def counted(rows, prev):
        formed.append(1)
        return real(rows, prev)
    monkeypatch.setattr(series, "_system_residuals", counted)
    return formed


def test_residual_rows_per_system_request(monkeypatch, fresh_states):
    """The system's residual rows: n + 1 degrees cold, none at or below
    the stored degree, n - m past a stored degree m, and n + 1 for an
    injected census, which is replayed cold."""
    formed = _count_residual_degrees(monkeypatch)
    for n, degrees in ((20, 21), (20, 0), (8, 0), (0, 0), (27, 7), (30, 3),
                       (29, 0)):
        formed.clear()
        assert _check_system_violation(n) is None, n
        assert len(formed) == degrees, n
    profiles = _corrupted_census(25, [(9, 1, 3, 1)])
    formed.clear()
    assert _injected_violation(25, profiles) == ("B", 9, 3)
    assert _reference_violation(25, profiles) == ("B", 9, 3)
    assert len(formed) == 26


@pytest.mark.parametrize("warm", [None, 40, 5])
def test_an_injected_census_leaves_the_registry_as_it_was(warm,
                                                          fresh_states):
    """An injected census at depth 20, with no stored prefix, after a
    deeper check or after a shallower one, is replayed cold and leaves
    every registry entry and the stored prefix's memo as they were."""
    if warm is not None:
        assert _check_system_violation(warm) is None
    before = dict(_STATES)
    memos = [state._memo for state in before.values()]
    profiles = _corrupted_census(20, [(9, 1, 3, 1)])
    assert _injected_violation(20, profiles) == ("B", 9, 3)
    assert _injected_violation(20, _CENSUS) is None
    assert _STATES == before
    assert all(state._memo is memo
               for state, memo in zip(_STATES.values(), memos))


@cache
def _warm_system_memo(depth):
    """The memo of the system prefix after one clean system check at
    depth from an empty registry; callers never mutate it."""
    _STATES.pop("system-201-210", None)
    assert _check_system_violation(depth) is None
    return _STATES["system-201-210"]._memo


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([60, 5]), st.integers(0, 14),
       st.lists(_cell, min_size=1, max_size=2))
def test_a_warm_system_check_reports_the_reference_first_failure(
        fresh_states, warm, n_max, cells):
    """The cases of test_check_system_reports_the_reference_first_failure,
    run after a clean check at depth warm.  An injected census, shallower
    or deeper than the stored prefix, leaves it in place, and a clean
    check after it answers None."""
    memo = _warm_system_memo(warm)
    fresh_states()
    assert _check_system_violation(0) is None
    prefix = _STATES["system-201-210"]
    prefix._memo = memo
    profiles = _corrupted_census(n_max, cells)
    assert _injected_violation(n_max, profiles) == \
        _reference_violation(n_max, profiles)
    assert _injected_violation(n_max, _CENSUS) is None
    assert prefix._memo is memo
    assert _check_system_violation(max(warm, n_max)) is None
    assert list(_STATES) == ["system-201-210"]
    assert _STATES["system-201-210"] is prefix
    assert len(memo[0]) == warm + 1 and not any(memo[0])


def test_verify_output_does_not_depend_on_request_order(fresh_states):
    """The residual checks at several depths, run cold one by one, then
    in ascending and in descending order in one process, print the same
    lines."""
    requests = [(name, n) for name in ("minpoly-A", "minpoly-B", "minpoly-F",
                                       "system-201-210")
                for n in (0, 1, 13, 40, 64, 90)]
    cold = {}
    for request in requests:
        fresh_states()
        cold[request] = run_check(*request)
    fresh_states()
    for order in (sorted(requests, key=lambda r: r[1]),
                  sorted(requests, key=lambda r: -r[1])):
        assert {request: run_check(*request) for request in order} == cold


def test_resuming_the_census_route_yields_the_tail_of_a_cold_run():
    """A system prefix taken to any depth and then to 30 counts no
    failure, and its level at x^m holds the level that a full run of the
    DP from the axiom reaches at depth m - 1 and the rows it converts
    there, None and three empty rows at m = 0, and no failure."""
    levels = [(None, ([],) * 3, None),
              *((level, series._census_rows(m, slices), None)
                for m, (level, slices) in enumerate(zip(_dp_levels(30),
                                                        _dp_slices(30))))]
    for depth in range(31):
        prefix = _system_prefix()
        assert prefix.counts(depth) == [None] * (depth + 1), depth
        assert prefix.counts(30) == [None] * 31, depth
        assert prefix.level(depth) == levels[depth], depth
    with pytest.raises(ValueError):
        prefix.counts(-1)


def test_census_depths_per_system_request(monkeypatch, fresh_states):
    """The census rows come from one prefix per process: the requests 20,
    80, 50 and 80 hold the 81 depths 0..80, whose rows are each formed
    once, those at x^0 from the axiom, and step the 201-210 kernel 80
    times, and the answers are those of cold calls."""
    rows, steps = [], []
    real_rows = series._census_rows

    def counted_rows(deg, level):
        rows.append(deg)
        return real_rows(deg, level)
    monkeypatch.setattr(series, "_census_rows", counted_rows)

    def counted_kernel(level, _real=checks._fast_step_201_210):
        steps.append(1)
        return _real(level)
    monkeypatch.setattr(checks, "_fast_step_201_210", counted_kernel)
    for n in (20, 80, 50, 80):
        assert _check_system_violation(n) is None, n
    assert sorted(rows) == list(range(81))
    assert len(steps) == 80
    prefix = _STATES["system-201-210"]
    assert prefix.counts(80) == [None] * 81
    assert [prefix.level(m + 1)[1] for m in range(81)] == \
        [real_rows(m, slices)
         for m, slices in enumerate(_dp_slices(80))]


def test_one_system_check_keeps_one_registry_key(fresh_states):
    """Each system check leaves the one key of the system prefix, whose
    count at x^45 is None and whose stored level, the one it steps next,
    holds the DP level at depth 45, the census rows at x^45 and no
    failure."""
    census = [series._census_rows(m, slices)
              for m, slices in enumerate(_dp_slices(45))]
    for n in (30, 12, 45):
        assert run_check("system-201-210", n)[0], n
        assert list(_STATES) == ["system-201-210"], n
    counts, level, _ = _STATES["system-201-210"]._memo
    assert len(counts) == 46 and counts[45] is None
    assert level == (_dp_levels(45)[45], census[45], None)


def _planted_census(real):
    """The 201-210 kernel with one more (k,F,F) state at x^5 u^2 in the
    slices of the level it steps to."""
    def planted(level):
        new, accepted = real(level)
        a, b, c = succession._decode_201_210(new)
        if len(a) == 6:
            new = succession._encode_201_210(([*a[:2], a[2] + 1, *a[3:]],
                                              b, c))
        return new, accepted
    return planted


def test_a_planted_census_route_is_checked_cold(monkeypatch, fresh_states):
    """A census kernel planted after a warm call to depth 25 gives, at
    any depth and in any order, the answers of a cold call on it;
    restoring the real kernel restores the real answers."""
    real = checks._fast_step_201_210
    planted = _planted_census(real)

    def cold(n):
        fresh_states()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_fast_step_201_210", planted)
            return _check_system_violation(n)

    expected = {n: cold(n) for n in (3, 5, 25, 40)}
    assert expected == {3: None, 5: ("A", 5, 2), 25: ("A", 5, 2),
                        40: ("A", 5, 2)}
    fresh_states()
    assert _check_system_violation(25) is None
    monkeypatch.setattr(checks, "_fast_step_201_210", planted)
    for n in (25, 3, 40, 5, 25):
        assert _check_system_violation(n) == expected[n], n
    assert len([s for s in _STATES.values() if isinstance(s, Prefix)]) == 1
    monkeypatch.setattr(checks, "_fast_step_201_210", real)
    for n in (40, 5):
        assert _check_system_violation(n) is None, n


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
        assert iterate_fe(system_id, 60) == \
            rule_counting_sequence(system_id, 60)


def test_dd_v_slice_checks_the_value_at_v_1():
    slice_ = [[1, 2], [0, 3, 1]]                 # 1 + 2v + 3uv + uv^2
    assert series._dd_v_slice(slice_, [3, 4]) == [[2], [4, 1]]
    for at_v1 in ([3, 5], [3], [3, 4, 1], [2, 4]):
        with pytest.raises(ArithmeticError, match="division by v - 1"):
            series._dd_v_slice(slice_, at_v1)


def test_dd_uv_slice_checks_its_remainder(monkeypatch):
    """(u^2 v - v^3) / (u - v) = uv + v^2.  The remainder of synthetic
    division equals g(v,v) whatever the input, so what the check guards
    is the division itself: corrupting one step must raise."""
    slice_ = [[0, 0, 0, -1], [], [0, 1]]
    assert series._dd_uv_slice(slice_) == [[0, 0, 1], [0, 1]]
    real = series._add_rows
    calls = []

    def off_by_one_once(x, y):
        out = real(x, y)
        if not calls:
            out[0] += 1
        calls.append(1)
        return out
    monkeypatch.setattr(series, "_add_rows", off_by_one_once)
    with pytest.raises(ArithmeticError, match="division by u - v"):
        series._dd_uv_slice(slice_)


@pytest.mark.parametrize("system_id", ["011-201", "010-100-120-210"])
def test_fe_slices_check_the_degree_bound(monkeypatch, system_id):
    real = series._FE_STEP[system_id]

    def one_v_too_many(slice_):
        out = real(slice_)
        out[1] = [*out[1], *[0] * len(out), 1]
        return out
    monkeypatch.setitem(series._FE_STEP, system_id, one_v_too_many)
    with pytest.raises(ArithmeticError, match="u\\^1 v\\^3 at x\\^1 breaks"):
        iterate_fe(system_id, 3)


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
    prefix = _fresh_prefix("iterate_fe:" + system_id)
    s = [{(ju, jv): c for ju, row in enumerate(prefix.level(deg + 1)[1])
          for jv, c in enumerate(row) if c}
         for deg in range(26)]
    assert len(s) == 26
    assert _fe_rhs_by_expansion(system_id, s) == s
    assert [sum(slice_.values()) for slice_ in s] == iterate_fe(system_id, 25)


def test_fe_specializations_agree_conjecture_evidence():
    """The u=v=1 specializations of the two functional equations agree
    (checked, not proven); the full trivariate solutions differ, so
    nothing here compares them."""
    assert iterate_fe("011-201", 120) == iterate_fe("010-100-120-210", 120)


# -- per-process prefixes of the slice, closed-form and FE routes -----------

FE_IDS = ("011-201", "010-100-120-210")

# route name -> the request, (namespace, name) of the step it repeats,
# and the route (start, step, args) its prefix is keyed on
PREFIX_ROUTES = {
    "ff_slice_series": (lambda n: _ff_slice_prefix().counts(n),
                        (vars(checks), "_step_ff"),
                        ([1], checks._step_ff, ())),
    "f_coefficients": (f_coefficients, (vars(series), "_f_step"),
                       ((0, 0, 0, 0), series._f_step, ())),
    **{"iterate_fe:" + system_id: (
        partial(iterate_fe, system_id), (series._FE_STEP, system_id),
        ((0, None), series._fe_slice_step, (series._FE_STEP[system_id],)))
       for system_id in FE_IDS},
}


def _fresh_prefix(name):
    """A fresh Prefix over the named route, with the real step."""
    start, step, args = PREFIX_ROUTES[name][2]
    return Prefix(start, step, *args)


def _cold_steps(name, n):
    """The calls that a cold request through n makes to the step the
    named route repeats: one per depth, n + 1, but n for a functional
    equation, whose step of x^0 runs no entry of _FE_STEP."""
    return n + 1 - name.startswith("iterate_fe")


def _levels_from_axiom(name, n):
    """The route's levels at depths 0..n, stepped from the start with no
    prefix."""
    level, step, args = PREFIX_ROUTES[name][2]
    levels = [level]
    for _ in range(n):
        levels.append(step(levels[-1], *args)[0])
    return levels


@cache
def _counts_from_axiom(name):
    """The route's counts at depths 0..60, stepped from the start by a
    fresh prefix."""
    return tuple(_fresh_prefix(name).counts(60))


def _count_steps(monkeypatch, name, during_first=None):
    """Wrap the step of the named route so that the returned dict counts
    its calls in "steps"; during_first, if given, is called once, inside
    the first step."""
    namespace, key = PREFIX_ROUTES[name][1]
    real = namespace[key]
    calls = {"steps": 0}

    def counted(level):
        calls["steps"] += 1
        if calls["steps"] == 1 and during_first is not None:
            during_first()
        return real(level)
    monkeypatch.setitem(namespace, key, counted)
    return calls


_requests = st.lists(st.tuples(st.sampled_from(sorted(PREFIX_ROUTES)),
                               st.integers(0, 60)),
                     min_size=1, max_size=8)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_requests)
@example([("ff_slice_series", 30), ("ff_slice_series", 30),
          ("ff_slice_series", 20), ("ff_slice_series", 0),
          ("ff_slice_series", 45)])
@example([("iterate_fe:011-201", 25), ("iterate_fe:011-201", 12),
          ("iterate_fe:011-201", 3), ("iterate_fe:011-201", 25),
          ("iterate_fe:010-100-120-210", 60), ("iterate_fe:011-201", 40)])
def test_prefix_answers_equal_a_run_from_the_axiom(fresh_states, requests):
    """Any order of requests, repeats and decreasing runs included, served
    from empty prefixes, gets the answers of a run from the axiom, even
    when the caller mutates every answer it gets."""
    fresh_states()
    for name, n in requests:
        answer = PREFIX_ROUTES[name][0](n)
        assert answer == list(_counts_from_axiom(name)[:n + 1]), (name, n)
        answer[0] = -1
        answer.append(-1)


def test_mutating_an_answer_leaves_the_prefixes_intact(fresh_states):
    for n in (20, 12, 20, 25):
        for system_id in FE_IDS:
            iterate_fe(system_id, n).append(-1)
            iterate_fe(system_id, n)[-1] = -1
        _ff_slice_prefix().counts(n).append(-1)
        _ff_slice_prefix().counts(n)[-1] = -1
        f_coefficients(n).append(-1)
        f_coefficients(n)[-1] = -1
    for n in (0, 12, 25, 30):
        for name, (request, *_) in PREFIX_ROUTES.items():
            assert request(n) == list(_counts_from_axiom(name)[:n + 1]), \
                (name, n)


@pytest.mark.parametrize("name", sorted(PREFIX_ROUTES))
def test_steps_per_prefix_request(name, monkeypatch, fresh_states):
    """A cold request at depth n steps once per depth (see _cold_steps),
    a request no deeper than the prefix steps nothing, and a deeper one
    steps once per extra depth."""
    request = PREFIX_ROUTES[name][0]
    calls = _count_steps(monkeypatch, name)
    for n, steps in ((30, _cold_steps(name, 30)), (30, 0), (12, 0), (0, 0), (37, 7), (38, 1),
                     (36, 0), (60, 22)):
        calls["steps"] = 0
        assert request(n) == list(_counts_from_axiom(name)[:n + 1]), n
        assert calls["steps"] == steps, n


@pytest.mark.parametrize("name", sorted(PREFIX_ROUTES))
def test_a_prefix_is_replaced_only_by_a_longer_one(name, monkeypatch,
                                                  fresh_states):
    """A request that a deeper one overtakes, here served inside its
    first step, leaves the deeper prefix in place and answers from it
    without finishing its own copy: only that first step is repeated."""
    request = PREFIX_ROUTES[name][0]
    calls = _count_steps(monkeypatch, name,
                         during_first=lambda: request(40))
    assert request(20) == list(_counts_from_axiom(name)[:21])
    assert calls["steps"] == _cold_steps(name, 40) + 1
    calls["steps"] = 0
    assert request(35) == list(_counts_from_axiom(name)[:36])
    assert calls["steps"] == 0


def test_concurrent_requests_share_consistent_prefixes(fresh_states,
                                                      stored_levels):
    """Eight threads request different depths of the four prefixed routes
    at once; a tiny switch interval makes them interleave inside the
    steps.  Every answer, and every prefix left behind, is that of a run
    from the axiom: its counts, its level and each checkpoint."""
    requests = [(name, n) for name in sorted(PREFIX_ROUTES) for n in (25, 50)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fresh_states()
            prefixes = _STATES
            barrier = threading.Barrier(len(requests))
            answers = {}

            def serve(name, n):
                barrier.wait(timeout=30)
                answers[name, n] = PREFIX_ROUTES[name][0](n)

            threads = [threading.Thread(target=serve, args=r) for r in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert answers == {(name, n): list(_counts_from_axiom(name)[:n + 1])
                               for name, n in requests}
            assert len(prefixes) == len(PREFIX_ROUTES)
            for name in PREFIX_ROUTES:
                key = (name if name in prefixes
                       else ("iterate_fe", name.split(":")[1]))
                counts, level, _ = prefixes[key]._memo
                run = _levels_from_axiom(name, 51)
                assert counts == list(_counts_from_axiom(name)[:51])
                assert level == run[51]
                stored = stored_levels(prefixes[key])
                assert [d for d, _ in stored] == list(range(0, 52, 4))
                assert stored == [(d, run[d]) for d, _ in stored]
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("name", sorted(PREFIX_ROUTES))
def test_resuming_a_route_equals_the_run_from_the_axiom(name):
    """A prefix taken to any depth and then to 30 ends where a fresh one
    taken to 30 at once does, and has the same levels on the way."""
    cold = _fresh_prefix(name)
    cold.counts(30)
    for depth in range(31):
        prefix = _fresh_prefix(name)
        prefix.counts(depth)
        assert prefix.counts(30) == cold.counts(30), depth
        assert prefix._memo[1] == cold.level(31), depth
        assert prefix.level(depth) == cold.level(depth), depth


@pytest.mark.parametrize("system_id", FE_IDS)
def test_degree_bound_fires_after_a_resume(monkeypatch, system_id,
                                          fresh_states):
    """A step that breaks the degree bound only past the prefix's depth
    raises from the resumed iteration, and the prefix keeps its depth."""
    real = series._FE_STEP[system_id]

    def one_v_too_many_at_6(slice_):
        out = real(slice_)
        if len(out) == 7:
            out[1] = [*out[1], *[0] * len(out), 1]
        return out
    monkeypatch.setitem(series._FE_STEP, system_id, one_v_too_many_at_6)
    assert iterate_fe(system_id, 5) == SEQ_2INT[:6]
    with pytest.raises(ArithmeticError, match="at x\\^6 breaks the degree"):
        iterate_fe(system_id, 8)
    assert iterate_fe(system_id, 5) == SEQ_2INT[:6]
    with pytest.raises(ArithmeticError, match="at x\\^6 breaks the degree"):
        iterate_fe(system_id, 6)


# -- the conjectured cubic --------------------------------------------------

def _cubic_residual(counts):
    return relation_residual(CUBIC_010_102, counts)


def test_conjecture_small_depths():
    assert _cubic_residual(count_sequence(((0, 1, 0), (1, 0, 2)), 1)) is None
    assert _cubic_residual(count_sequence(((0, 1, 0), (1, 0, 2)), 10)) is None


def test_conjecture_canary():
    counts = count_sequence(((0, 1, 0), (1, 0, 2)), 10)
    counts[5] += 1
    assert _cubic_residual(counts) is not None


def test_cubic_relation_shape():
    assert len(CUBIC_010_102.coefficients) == 4
    assert relation_residual(
        CUBIC_010_102, count_sequence(((0, 1, 0), (1, 0, 2)), 8)) is None
