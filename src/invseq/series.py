"""The closed form and the algebraic cross-checks of the counting series.

Everything here is exact, with hard truncation orders, so every identity
we claim is checked coefficient-by-coefficient with no floating point
anywhere.  The module has four layers:

  * univariate series: the closed form (``f_coefficients``), the prefix
    of the (k,F,F) slice of the 201-210 DP (``_ff_slice_prefix``), and
    ``TruncatedSeries``, which holds the coefficients of a series known
    through ``x^order`` and does no arithmetic.
  * polynomial relations (``PolyRelation`` / ``relation_residual``) used to
    test that a series satisfies an algebraic equation, by Horner's rule
    in y^2 with y^2 formed by a symmetric square, one coefficient per
    step of a prefix, and the linear ODE of a relation, derived by
    ``invseq.poly`` and checked as a recurrence, one coefficient per
    step in O(order) operations: a check whose series passes it reads
    the residual only through a short prefix (``_ode_prefix``).
  * bivariate series in x and u, the ``phi`` operator, and
    ``_check_system_violation`` which replays the defining equations of
    the 201-210 rule system against its own census data, one x-degree
    per step of a per-process prefix.  It forms the residual rows of the
    three equations only, and proves that the four relations cleared of
    phi follow from them.
  * the trivariate functional equations of the two 2-parameter systems,
    solved one x-degree at a time (``iterate_fe``), with divided
    differences done by checked exact synthetic division.  This layer
    shares no code with the succession-rule DP it cross-checks.

The verify-side algebra works on dense integer rows.  A bivariate series
is a list over x-degree of rows, each a list of coefficients indexed by
the u-power, so phi is a suffix sum on a row.  A trivariate slice (one
x-degree) is a list over u-power of rows indexed by the v-power, so
``s[u_power][v_power]`` is a coefficient.  Rows may carry zeros and may
differ in length.  Only the public ``phi`` takes and returns
``{u_power: coeff}`` dicts, for readability at the API.

The closed form, the (k,F,F) slice, the bivariate system, the
functional-equation iteration of each system and the residual and the
ODE of each relation that a check evaluates keep a per-process prefix
in the registry of ``invseq.prefix``.  Each prefix is a start level and
a step: ``_f_step``, ``_step_ff``, ``_system_step`` over the 201-210
kernel, ``_fe_slice_step`` over an entry of ``_FE_STEP``, and
``_residual_step`` and ``_ode_step`` over the relation and the bound
counts of the prefixes it reads; the step of depth d forms and checks
depth d and nothing past it.  None of them is the rules memo of
``invseq.succession``, so that the routes stay apart from the route
they check: the slices never touch the memo, and the closed form and
the functional equations reach no succession code.  A residual or an
ODE is keyed on the prefixes it reads, so it steps cold once one of
them is made afresh.  Two routes keep no prefix in the registry and replay cold, in a
Prefix of their own: injected census profiles, through the system's
step, and ``relation_residual``, through ``_residual_step`` over the
coefficients it is given.
"""

from collections import namedtuple
from itertools import accumulate, zip_longest
from operator import add, mul, sub

from .prefix import Prefix, shared
from .succession import _fast_step_201_210, _step_ff


class TruncatedSeries:
    """The coefficients of a power series in x, known through ``x^order``.

    A plain holder for the series that the relation checks evaluate
    (``relation_residual``): the constructor pads with zeros or truncates
    to ``order`` (by default, one less than the number of coefficients
    given).  It does no arithmetic.
    """

    def __init__(self, coefficients, order=None):
        coeffs = list(coefficients)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[:order + 1]
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        self.order = order
        self.coefficients = coeffs


def f_coefficients(n_max):
    """Counting sequence of the 201-210 class through n_max, from the
    closed form (2 - x - x*sqrt(1-8x)) / (2*(1 - 2x + 2x^2)).

    Entirely independent of the rule-system DP: agreement between the two
    is one of the strongest checks in the test suite.  Two integer
    recurrences give the n_max + 1 coefficients in O(n_max) steps:

      r_0 = 1,  k*r_k = 4*(2k - 3)*r_(k-1)       r = sqrt(1 - 8x)
      2*f_k = N_k + 4*f_(k-1) - 4*f_(k-2)        N = 2 - x - x*r

    the second being division by 2 - 4x + 4x^2 (f_j = 0 for j < 0).
    Every division is checked to be exact, and every f_k to be
    nonnegative; a failure raises ArithmeticError, since it would mean
    the closed form is wrong.

    The coefficients come from this process's prefix of the recurrences
    (see ``invseq.prefix``), so a request no deeper than an earlier one
    steps nothing.  Its level at depth d is the state (d, r_(d-1),
    f_(d-1), f_(d-2)) before x^d, from (0, 0, 0, 0), and the step of
    depth d forms f_d (see _f_step).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return shared("f_coefficients", (0, 0, 0, 0), _f_step).counts(n_max)


def _f_step(level):
    """One step of the recurrences of f_coefficients: the state (k,
    r_(k-1), f_(k-1), f_(k-2)) before x^k to the state before x^(k+1),
    and f_k, where N_k is 2 at k = 0, -1 - r_0 at k = 1 and -r_(k-1)
    past it, and r_0 = 1 is formed at k = 0.  The division of each
    recurrence is checked to be exact, and f_k to be nonnegative."""
    k, r, f1, f2 = level
    f, rem = divmod({0: 2, 1: -1}.get(k, 0) - r + 4 * f1 - 4 * f2, 2)
    if rem:
        raise ArithmeticError("coefficient of x^%d is not an integer" % k)
    if f < 0:
        raise ArithmeticError("coefficient of x^%d is negative: %r" % (k, f))
    r, rem = divmod(4 * (2 * k - 3) * r, k) if k else (1, 0)
    if rem:
        raise ArithmeticError(
            "sqrt(1-8x) coefficient of x^%d is not an integer" % k)
    return (k + 1, r, f, f1), f


def _ff_slice_prefix():
    """This process's prefix of the (k,F,F) slice of the 201-210 system,
    stepped alone by _step_ff from the axiom's slice [1] (see
    ``invseq.prefix``); its count at depth n, the slice summed over k,
    is the n-th Catalan number.  The route never touches the rules memo,
    so minpoly-B, which subtracts these sums from the memo's counts,
    takes its two terms from separate routes."""
    return shared("ff_slice_series", [1], _step_ff)


# -- polynomial relations ---------------------------------------------------
#
# A PolyRelation is an algebraic equation p_d(x)*y^d + ... + p_0(x) = 0
# stored as a tuple of ascending-coefficient integer polynomials in x,
# indexed by the power of y.

PolyRelation = namedtuple("PolyRelation", ["name", "coefficients"])


def relation_residual(relation, s):
    """Evaluate the relation at y = s; return the order of the first
    nonzero coefficient of the residual, or None if the relation holds
    through s.order.  A relation with no coefficients raises ValueError.

    Keeps no state: the residual's route (see _residual_step) is stepped
    cold over the coefficients of s, in a Prefix the registry never
    holds.
    """
    return Prefix(*_residual_route(relation),
                  s.coefficients.__getitem__).count(s.order)


def _residual_prefix(relation, *terms):
    """This process's prefix of the relation's residual at y_k =
    terms[0](k) - terms[1](k) - ..., kept under ("relation_residual",
    name) and keyed on the terms too: a check passes the bound ``count``
    of each prefix it reads, so that a source made afresh (a planted
    step, say) makes the residual step cold."""
    return shared(("relation_residual", relation.name),
                  *_residual_route(relation), *terms)


def _residual_route(relation):
    """(start, _residual_step, polys) for the relation, polys its
    coefficients as tuples; ValueError for a relation with none.  The
    start holds an empty history for each Horner accumulator that the
    step keeps, those of p_2i + p_2i+1*y for 2 <= 2i < d, the y-degree
    (see _residual_step)."""
    polys = tuple(map(tuple, relation.coefficients))
    if not polys:
        raise ValueError("relation %r has no coefficients" % (relation.name,))
    return ((), (), ((),) * max((len(polys) - 2) // 2, 0), None), \
        _residual_step, polys


def _residual_step(level, polys, *terms):
    """The step of a residual prefix at x^k, whose level there is (y and
    y^2 reversed, from x^(k-1) down to x^0, the kept Horner
    accumulators through x^(k-1), and the order of the residual's first
    nonzero coefficient below x^k, or None): the level at x^(k+1) and
    its count at x^k, that first order through x^k.

    Horner's rule in y^2 on P(y) = sum_i (p_2i + p_2i+1*y)*(y^2)^i from
    the top i down: each accumulator but the top is the one above it
    times y^2, plus p_2i + p_2i+1*y, and the last one is the residual.
    Coefficient k of each needs only coefficients 0..k of y, of y^2 and
    of the accumulator above, so the step forms y_k from the terms, the
    k-th coefficient of y^2 by a symmetric square (each cross term once,
    doubled; only for y-degree 2 or more) and that of each accumulator,
    and keeps the histories a later step reads: every accumulator that a
    later one multiplies by y^2, but a top that is a bare p_d, whose
    coefficients are its own history.  With y and y^2 reversed,
    coefficient k of a*y is sum(map(mul, a, y reversed)) for a
    polynomial or a history a through x^k, with no slicing.
    """
    ry, ry2, accs, first = level
    k = len(ry)
    c = terms[0](k)
    for term in terms[1:]:
        c -= term(k)
    ry = (c,) + ry
    if len(polys) > 2:
        h = (k + 1) // 2
        c = 2 * sum(map(mul, ry[:h], ry[k:k - h:-1]))
        ry2 = (c if k % 2 else c + ry[h] * ry[h],) + ry2
    kept = []
    above = None
    for i in reversed(range(0, len(polys), 2)):
        if i and i == len(polys) - 1:
            above = polys[i]
            continue
        c = polys[i][k] if k < len(polys[i]) else 0
        if i + 1 < len(polys):
            c += sum(map(mul, polys[i + 1], ry))
        if above is not None:
            c += sum(map(mul, above, ry2))
        if i:
            above = accs[len(kept)] + (c,)
            kept.append(above)
    if first is None and c:
        first = k
    return (ry, ry2, tuple(kept), first), first


def _ode_prefix(relation, *terms):
    """This process's prefix of the linear ODE of the relation, checked
    on y_k = terms[0](k) - terms[1](k) - ..., kept under ("relation_ode",
    name) and keyed on the relation's coefficients and the terms, as
    _residual_prefix is.  Its count at depth k is a depth d <= k such
    that the relation's residual on y vanishes through x^k once it
    vanishes through x^d: a check that reads the residual through d gets
    the answer through k, since an order at or below d is first through
    k too.  d = k until something is proved.

    The first step derives the ODE c_(-1) + c_0*y + ... + c_r*y^(r) = 0
    that every root of P = sum_i p_i*y^i satisfies (``poly.linear_ode``;
    None, and d = k throughout, when P has a repeated factor) and its
    recurrence (``poly.recurrence``): for every n >= 0,

        [x^n]c_(-1) + sum_i a_i(n) * y_(n+t-i) = 0,

    whose leading coefficient a_0(n) multiplies y_(n+t).  An index m is
    free if no equation determines y_m from the terms below it: m < t,
    or m = n + t for a nonnegative integer root n of a_0
    (``poly.nonnegative_roots``); free is the last one, -1 if none.  The
    step of depth k checks the equation that y_k tops (n = k - t >= 0)
    on the last order + 1 terms; after the first one that fails, d = k.
    Until its first nonzero coefficient, the step also steps the
    residual of P_y = dP/dy (``_residual_step``), whose order v = ord
    P_y(y) sets n0 = max(free + v, 2v); from then on d = min(k, n0).

    Proof that d = n0 <= k suffices.  Every equation through depth k
    holds.  Let z = y_0 + ... + y_(n0)*x^(n0) and suppose P(z) vanishes
    through x^(n0).  Then ord P(z) > n0 >= 2v = 2 ord P_y(z), so by
    Newton's lemma (Hensel's lemma over Q[[x]]) P has a root Y in Q[[x]]
    with ord(Y - z) >= n0 + 1 - v > free: Y_m = y_m for every m <= free.
    Y satisfies the ODE, as every root does, so every equation.  For
    free < m <= k, y_m tops an equation, n = m - t >= 0, whose leading
    coefficient a_0(n) is not zero since n is no root, and the terms
    below agree by induction: y_m = Y_m.  So P(y) = P(Y) = 0 through
    x^k.  For MINPOLY_F, P(0, y) = (y - 1)^2 picks no root: y_1 is free,
    and the residual at x^2, (y_1 - 1)(y_1 - 2), picks one, as n0 = 2
    (free = 1, v = 1) requires.
    """
    return shared(("relation_ode", relation.name), None, _ode_step,
                  tuple(map(tuple, relation.coefficients)), *terms)


def _ode_start(polys):
    """The level of the ODE prefix at depth 0 (see _ode_step): the ODE
    of polys derived, its recurrence and free index, and the start of
    the residual route of dP/dy; no recurrence when there is no ODE.
    ``invseq.poly`` is imported here, on the first step of the first
    route that needs it, so that importing the package never compiles
    it."""
    from .poly import linear_ode, nonnegative_roots, recurrence, ydy
    ode = linear_ode(polys)
    if ode is None:
        return 0, None, (), None, None
    top, rows, const = recurrence(ode)
    free = max([top - 1] + [top + n for n in nonnegative_roots(rows[0])])
    start, _, dpolys = _residual_route(PolyRelation("dP/dy", ydy(polys)))
    return 0, (top, rows, const, free, dpolys), (0,) * len(rows), start, None


def _ode_step(level, polys, *terms):
    """The step of an ODE prefix at depth k (see _ode_prefix), whose
    level there is None at k = 0 and else (k, the recurrence as (top,
    rows, c_(-1), free, dP/dy), or None once an equation failed or when
    there is no ODE, y_(k-order-1) .. y_(k-1), zeros below index 0 as
    the recurrence reads them, the level of the residual route of dP/dy
    until its first nonzero coefficient, else None, and n0, once known):
    the level at k + 1 and the count at k."""
    k, rec, window, derivative, n0 = level or _ode_start(polys)
    if rec is None:
        return (k + 1, None, (), None, None), k
    top, rows, const, free, dpolys = rec
    y = terms[0](k)
    for term in terms[1:]:
        y -= term(k)
    window = (*window[1:], y)
    n = k - top
    powers = [n ** i for i in range(max(map(len, rows)))]
    if n >= 0 and (const[n] if n < len(const) else 0) + sum(
            sum(map(mul, row, powers)) * t
            for row, t in zip(rows, reversed(window))):
        return (k + 1, None, (), None, None), k
    if derivative is not None:
        derivative, v = _residual_step(derivative, dpolys, *terms)
        if v is not None:
            derivative, n0 = None, max(free + v, 2 * v)
    return (k + 1, rec, window, derivative, n0), \
        k if n0 is None else min(k, n0)


def _add_rows(x, y):
    """x + y for two coefficient rows of any lengths."""
    if len(x) < len(y):
        x, y = y, x
    return [*map(add, x, y), *x[len(y):]]


# x*y^2 - y + 1 = 0 for the (k,F,F) slice (Catalan).
MINPOLY_A = PolyRelation("minpoly-A", ((1,), (-1,), (0, 1)))

# Quartic for the (k,T,F) slice.
MINPOLY_B = PolyRelation("minpoly-B", (
    (0, 0, 0, 0, 1),                                # x^4
    (0, -1, 10, -27, 18),                           # x(x-1)(6x-1)(3x-1)
    (1, -8, 21, -16, -5, 12),
    (0, 2, -12, 26, -28, 12),                       # 2x(x-1)(3x-1)(2x^2-2x+1)
    (0, 0, 1, -4, 8, -8, 4),                        # x^2(2x^2-2x+1)^2
))

# Quadratic for the full 201-210 counting series.
MINPOLY_F = PolyRelation("minpoly-F", (
    (1, 1),                                         # x + 1
    (-2, 1),                                        # x - 2
    (1, -2, 2),                                     # 2x^2 - 2x + 1
))

# Conjectured cubic for the {010,102} counting series.
CUBIC_010_102 = PolyRelation("conjecture-010-102", (
    (1, -4, 5, -2),                                 # (1-2x)(x-1)^2
    (-1, 6, -11, 8, -1),
    (0, -2, 6, -8, 4),                              # 2x(x-1)(2x^2-2x+1)
    (0, 1, -3, 4, -3, 1),                           # x(x^2-x+1)(x-1)^2
))

# -- bivariate layer --------------------------------------------------------

def _suffix_sums(row):
    """S with S[j] = row[j] + row[j+1] + ..., as long as row.

    S[0] is the row's value at u = 1, and S[1:] is phi of the row: phi
    sends u^k to 1 + u + ... + u^(k-1), so u^j collects every u^k, k > j.
    """
    out = list(accumulate(reversed(row)))
    out.reverse()
    return out


def phi(f):
    """The operator sending u^k to 1 + u + ... + u^(k-1), per x-degree.

    f is a list over x-degree of ``{u_power: coeff}`` dicts, and so is the
    result, with zeros dropped.  A negative u-power raises ValueError.

    >>> phi([{}, {0: 1, 1: 1, 2: 3}])
    [{}, {0: 4, 1: 3}]
    """
    out = []
    for slice_ in f:
        low = min(slice_, default=0)
        if low < 0:
            raise ValueError("phi needs nonnegative u-powers, got u^%d" % low)
        row = [slice_.get(j, 0) for j in range(max(slice_, default=-1) + 1)]
        out.append({j: c for j, c in enumerate(_suffix_sums(row)[1:]) if c})
    return out


def _census_rows(deg, level):
    """The census rows (A, B, C) at x^deg of a level (a, b, c) of the
    201-210 DP, each a list of length deg + 1; a nonzero coefficient past
    u^deg raises ArithmeticError."""
    if any(any(row[deg + 1:]) for row in level):
        raise ArithmeticError("u-degree exceeds x-degree at x^%d" % deg)
    return tuple([*row[:deg + 1], *[0] * (deg + 1 - len(row))]
                 for row in level)


def _combine(length, *terms):
    """The row of the given length summing sign * u^shift * row over the
    (sign, shift, row) terms, with sign 1 or -1."""
    out = [0] * length
    for sign, shift, row in terms:
        end = shift + len(row)
        out[shift:end] = map(add if sign > 0 else sub, out[shift:end], row)
    return out


_SYSTEM_LABELS = ("A", "B", "C")


def _degree_rows(am, bm, cm):
    """The rows of one x-degree that the identities read: A, B, C, then
    the suffix sums of A, B, C and of D = phi(A + B)."""
    sa, sb = _suffix_sums(am), _suffix_sums(bm)
    return (am, bm, cm, sa, sb, _suffix_sums(cm),
            _suffix_sums([*map(add, sa[1:], sb[1:])]))


def _system_residuals(rows, prev):
    """The residual rows of A, B and C (see _check_system_violation) at
    one x-degree m, each as long as A there (m + 1), from the _degree_rows
    of x^m and of x^(m-1).

    Rows of x-degree m - 1 enter through the factor x; at m = 0 they are
    empty.  Terms use row + phi(row) = suffix sums of row and phi(u*row)
    = suffix sums of row."""
    am, bm, cm = rows[:3]
    _, bp, cp, sap, sbp, scp, sdp = prev
    w = len(am)
    return (
        _combine(w, (1, 0, am), (-1, 0, [1] if w == 1 else []), (-1, 1, sap)),
        _combine(w, (1, 0, bm), (-1, 1, bp), (-1, 1, sbp), (-1, 1, cp)),
        _combine(w, (1, 0, cm), (-1, 1, sdp), (-1, 1, scp)),
    )


def _system_step(prev, kernel, axiom):
    """The step of the system prefix at x^m, whose level there is prev,
    the _degree_rows of x^(m-1), seven empty rows at m = 0, so that m is
    the length of prev's rows.  It forms the census rows (A, B, C) at x^m
    with _census_rows, from axiom at m = 0 and else from what kernel
    steps prev's rows (A, B, C) to, and returns their _degree_rows, the
    level at x^(m+1), and the count at x^m: None when the three residual
    rows there vanish (see _system_residuals), else the u-degree of each
    row's first nonzero coefficient, None for a row that vanishes."""
    m = len(prev[0])
    rows = _degree_rows(*_census_rows(m, kernel(prev[:3])[0] if m else axiom))
    residuals = _system_residuals(rows, prev)
    if not any(map(any, residuals)):
        return rows, None
    return rows, tuple(next((j for j, c in enumerate(row) if c), None)
                       for row in residuals)


def _check_system_violation(n_max, profiles=None):
    """Replay the defining equations of the 201-210 system on its census.

    Reads the three census slices from the DP (or from injected profiles,
    which the tests use to make sure a corrupted census is actually
    caught) as rows: A, B and C have, at x^m, the row of counts of the
    states (k,F,F), (k,T,F) and (k,T,T) indexed by u^k.  A nonzero count
    at a u-power above m raises ArithmeticError.  Then it verifies,
    coefficient by coefficient through x^n_max:

      A = 1 + xu*(A + phi(A))
      B = xu*(2B + phi(B) + C)
      C = xu*(phi(uD) + phi(C) + C)        with D = phi(A + B)

    and the four cleared relations obtained from the same system by
    collecting terms:

      P1:  (1 - u + xu^2)A - xu*A(x,1) + u - 1                     = 0
      P2:  (1 - u - xu + 2xu^2)B - xu*B(x,1) + xu(u-1)C            = 0
      P3:  (1 - u + xu^2)C - xu*C(x,1) + xu^2*D - xu*D(x,1)        = 0
      P4:  (1 - u)D + A + B - A(x,1) - B(x,1)                      = 0

    Each identity is a residual row (left side minus right side) per
    x-degree, with phi a suffix sum on a row.  Returns None when every
    residual is zero, else (label, x_degree, u_degree) of the first
    failure: labels in the order above, then the lowest x-degree, then
    the lowest u-degree.

    Only the residual rows of A, B and C are formed, because the cleared
    relations follow from them on any census.  For every g,
    (1 - u)phi(g) = g(x,1) - g, and phi(ug) = g + phi(g), so (1 - u)
    times the residual of A, B or C is, term by term, the left side of
    P1, P2 or P3; and P4 is the definition of D, which is formed from A
    and B, never read from the census.  Multiplying by 1 - u keeps the
    first nonzero u-degree of each x-degree of a residual, so P1, P2 or
    P3 first fails exactly where A, B or C does, and P4 never fails.
    Every P label sorts after C, so the first failure of the seven
    identities is that of the three: None or the least (label, x_degree,
    u_degree) with label A, B or C, on every census, injected or not.

    The residuals come from this process's prefix of the system (see
    ``invseq.prefix`` and _system_step), stepped by the 201-210 kernel
    from the axiom's rows, whose count per x-degree is the first nonzero
    u-degree of each residual row there.  So a process steps, converts
    and forms the residual rows of each degree once, and a request
    through x^n_max forms no census row past it.  Injected profiles
    replay cold through the same step, in a Prefix of their own that the
    registry never holds, whose kernel returns the next injected rows.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if profiles is None:
        prefix = shared("system-201-210", ([],) * 7, _system_step,
                        _fast_step_201_210, ([1], [0], [0]))
    else:
        prefix = Prefix(([],) * 7, _system_step,
                        lambda rows: (profiles[len(rows[0])],), profiles[0])
    # the labels sort in the order they are listed in
    return min(((label, m, u)
                for m, firsts in enumerate(prefix.counts(n_max)) if firsts
                for label, u in zip(_SYSTEM_LABELS, firsts) if u is not None),
               default=None)


# -- trivariate layer -------------------------------------------------------
#
# Both functional equations have the form S = 1 + xu*L(S) with L linear
# and free of x, so slice d+1 of the fixed point is u*L(slice d): one
# per-slice step per system, applied n_max times, gives the solution.

def _dd_uv_slice(slice_):
    """(g(u,v) - g(v,v)) / (u - v) for one x-degree, by synthetic division
    in u at root v: b <- row_j + v*b from the top u-power down, and b
    after row j is row j - 1 of the quotient.  The remainder row_0 + v*b
    must equal g(v,v) and is checked, but synthetic division at root v
    always leaves exactly g(v,v), so the check guards only the division
    arithmetic: it cannot catch a wrong functional equation (see
    iterate_fe for what does)."""
    out = []
    b = []
    for row in reversed(slice_[1:]):
        b = _add_rows(row, [0, *b])
        out.append(b)
    out.reverse()
    at_vv = []
    for ju, row in enumerate(slice_):
        at_vv = _add_rows(at_vv, [*[0] * ju, *row])
    rem = _add_rows(_add_rows(slice_[0], [0, *b]), [-c for c in at_vv])
    if any(rem):
        raise ArithmeticError("division by u - v left remainder %r" % rem)
    return out


def _dd_v_slice(slice_, at_v1):
    """(g(u,v) - g(u,1)) / (v - 1) for one x-degree, given g(u,1) as
    ``at_v1`` (a list over u): phi in the v variable, one row at a time.
    The remainder g(u,1) - at_v1 must vanish and is checked; every caller
    takes at_v1 as the row sums of the same slice (_collapse_v), so the
    check guards only the division arithmetic, not the equation."""
    sums = [_suffix_sums(row) for row in slice_]
    rem = _add_rows([s[0] if s else 0 for s in sums], [-c for c in at_v1])
    if any(rem):
        raise ArithmeticError("division by v - 1 left remainder %r" % rem)
    return [s[1:] for s in sums]


def _collapse_v(slice_):
    """g(u,1) for one x-degree: the row sums, as a list over u."""
    return [*map(sum, slice_)]


def _times_u(*parts):
    """u times the sum of the given slices: an empty row for u^0, then the
    rows of the sum."""
    out = [[]]
    for rows in zip_longest(*parts, fillvalue=[]):
        acc = rows[0]
        for row in rows[1:]:
            acc = _add_rows(acc, row)
        out.append(acc)
    return out


def _fe_step_011_201(slice_):
    """Slice d+1 of S = 1 + xu*( S(x,u,1)
                               + (S - S(x,u,1)) / (v - 1)
                               + (S - S(x,v,v)) / (u - v) ) from slice d."""
    at_v1 = _collapse_v(slice_)
    return _times_u([[c] for c in at_v1], _dd_v_slice(slice_, at_v1),
                    _dd_uv_slice(slice_))


def _fe_step_010_100_120_210(slice_):
    """Slice d+1 of S = 1 + xu*( S
                               + (S - S(x,u,1)) / (v - 1)
                               + (S(x,u,1) - S(x,v,1)) / (u - v) ) from slice d."""
    at_v1 = _collapse_v(slice_)
    return _times_u(slice_, _dd_v_slice(slice_, at_v1),
                    _dd_uv_slice([[c] for c in at_v1]))


_FE_STEP = {
    "011-201": _fe_step_011_201,
    "010-100-120-210": _fe_step_010_100_120_210,
}


def _fe_slice_step(level, step):
    """The step of a functional-equation prefix at x^deg, whose level
    there is (deg, the slice at x^(deg-1), or None at deg = 0): the
    level at x^(deg+1), of the slice at x^deg, [[1]] at deg = 0 and else
    step applied to the slice given, and the count at x^deg, the slice's
    coefficient sum.

    The slice at x^deg is checked to have no nonzero coefficient at a u-
    or v-degree above deg, else ArithmeticError.  step never mutates a
    slice.
    """
    deg, slice_ = level
    slice_ = step(slice_) if deg else [[1]]
    for ju, row in enumerate(slice_):
        top = 0 if ju > deg else deg + 1
        if any(row[top:]):
            jv = next(j for j, c in enumerate(row) if c and j >= top)
            raise ArithmeticError(
                "u^%d v^%d at x^%d breaks the degree bound" % (ju, jv, deg))
    return (deg + 1, slice_), sum(map(sum, slice_))


def iterate_fe(system_id, n_max):
    """Solve the trivariate functional equation of a 2-parameter system
    through x^n_max and return the counting sequence at u = v = 1.

    The equation S = 1 + xu*L(S) keeps x-degrees apart, so the solution
    is built degree by degree, slice d+1 being the system's step applied
    to slice d, in n_max + 1 steps from the slice [[1]] at x^0; each slice
    ``s[u_power][v_power]`` is checked against the degree bound (see
    _fe_slice_step).  The divisions are checked to be exact, but those
    checks pass for any equation of this shape and only guard the
    arithmetic (see _dd_uv_slice and _dd_v_slice).  What validates
    the equations is the comparison with the rules (the fe-vs-rules
    verify check) and the term-by-term fixed-point test in the suite
    (test_fe_solution_is_a_fixed_point).  It shares nothing with the
    succession-rule DP, which makes it a cross-check of the rules.

    The counts come from this process's prefix of the system's slices
    (see ``invseq.prefix``), keyed on the step of ``_FE_STEP`` as it is
    at call time.  An unknown system raises ValueError before the prefix
    is read.
    """
    try:
        step = _FE_STEP[system_id]
    except KeyError:
        raise ValueError("no functional equation for system %r" % system_id) from None
    return shared(("iterate_fe", system_id), (0, None), _fe_slice_step,
                  step).counts(n_max)
