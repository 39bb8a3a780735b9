"""The closed form and the algebraic cross-checks of the counting series.

Everything here is exact, with hard truncation orders, so every identity
we claim is checked coefficient-by-coefficient with no floating point
anywhere.  The module has four layers:

  * univariate series: the closed form (``f_coefficients``).  A series
    known through x^k is the plain list of its coefficients of x^0..x^k,
    as every counting route of the package returns it.
  * polynomial relations (``PolyRelation`` / ``relation_residual``) used to
    test that a series satisfies an algebraic equation, one coefficient
    per step of a prefix that keeps y and its powers, each power's
    coefficient formed as that of the power below times y, which every
    polynomial evaluated there reads.  A check's route
    (``_relation_prefix``) also checks the linear ODE of its relation,
    derived by ``invseq.poly``, as a recurrence, one coefficient per
    step in O(order) operations, and steps the residuals of the relation
    and of its derivative in y, over one history of y, only through a
    short prefix while the series passes it.
  * bivariate series in x and u, and ``_system_step``, the step with
    which ``invseq.checks`` replays the defining equations of the
    201-210 rule system against its own census data, one x-degree per
    step of a per-process prefix.  Its equations read phi, which sends
    u^k to 1 + u + ... + u^(k-1), as a suffix sum on a row.  It forms
    the residual rows of the three equations only, and proves that the
    four relations cleared of phi follow from them.
  * the trivariate functional equations of the two 2-parameter systems,
    solved one x-degree at a time (``iterate_fe``), with divided
    differences done by checked exact synthetic division.  This layer
    shares no code with the succession-rule DP it cross-checks.

The verify-side algebra works on dense integer rows.  A bivariate series
is a list over x-degree of rows, each a list of coefficients indexed by
the u-power, so phi is a suffix sum on a row.  A trivariate slice (one
x-degree) is a list over u-power of rows indexed by the v-power, so
``s[u_power][v_power]`` is a coefficient.  Rows may carry zeros and may
differ in length.

The closed form, the functional-equation iteration of each system and
each relation that a check evaluates keep a per-process prefix in the
registry of ``invseq.prefix``.  Each prefix is a start level and a step:
``_f_step``, ``_fe_slice_step`` over an entry of ``_FE_STEP``, and
``_relation_step`` over the relation and the bound counts of the
prefixes it reads; the step of depth d forms and checks depth d and
nothing past it.  A relation is keyed on the prefixes it reads, so it
steps cold once one of them is made afresh.  One route keeps no prefix
at all and replays cold, in a loop of its own: ``relation_residual``,
through ``_residual_step`` over the coefficients it is given.

The module imports nothing of ``invseq.succession``: the two census
routes, the (k,F,F) slice and the system's prefix over ``_system_step``
and the 201-210 kernel, live in ``invseq.checks``, which hands the
kernel in, with the decoder of its levels into census slices, so this
module never reads the layout of a DP level.  So the closed form and
the functional equations reach no succession code, and reading them
loads no rule system.
"""

from collections import namedtuple
from itertools import accumulate, islice, zip_longest
from operator import add, mul, sub

from .prefix import shared


# The oracle workload's checker in bench/checks.py still wraps its counts
# in this name; nothing in the package reads it.
TruncatedSeries = list


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
    (``f_prefix``), so a request no deeper than an earlier one steps
    nothing.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return f_prefix().counts(n_max)


def f_prefix():
    """This process's prefix of the recurrences of f_coefficients (see
    ``invseq.prefix``), under the key "f_coefficients".  Its level at
    depth d is the state (d, r_(d-1), f_(d-1), f_(d-2)) before x^d, from
    (0, 0, 0, 0), and the step of depth d forms f_d (see _f_step).  The
    command line keys the text of the closed form's counts on this
    prefix's bound ``count``."""
    return shared("f_coefficients", (0, 0, 0, 0), _f_step)


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


# -- polynomial relations ---------------------------------------------------
#
# A PolyRelation is an algebraic equation p_d(x)*y^d + ... + p_0(x) = 0
# stored as a tuple of ascending-coefficient integer polynomials in x,
# indexed by the power of y.

PolyRelation = namedtuple("PolyRelation", ["name", "coefficients"])


def relation_residual(relation, coefficients):
    """Evaluate the relation at the series y whose coefficients of x^0
    .. x^k are the list coefficients; return the order of the first
    nonzero coefficient of the residual, or None if the relation holds
    through x^k, as it does vacuously on an empty list.  A relation with
    no coefficients raises ValueError.

    Keeps no state: the residual's route (see _residual_step) is stepped
    cold over the coefficients.
    """
    polys = tuple(map(tuple, relation.coefficients))
    if not polys:
        raise ValueError("relation %r has no coefficients" % (relation.name,))
    level = _residual_start((polys,))
    firsts = (None,)
    for _ in coefficients:
        level, firsts = _residual_step(level, (polys,),
                                       coefficients.__getitem__)
    return firsts[0]


def _residual_start(polys):
    """The level of a residual route over the polynomials polys at x^0:
    an empty history of y and of each power of y up to the highest
    y-degree of polys (y alone below y-degree 2), and no first order for
    any of them (see _residual_step)."""
    return ((),) * max(max(map(len, polys)) - 1, 1), (None,) * len(polys)


def _residual_step(level, polys, *terms):
    """The step of a residual prefix at x^k, whose level there is (y,
    y^2, ..., y^d reversed, from x^(k-1) down to x^0, and for each P of
    polys the order of the first nonzero coefficient of P(y) below x^k,
    or None): the level at x^(k+1) and its count at x^k, those first
    orders through x^k.

    The step forms y_k from the terms, then coefficient k of y^2 by
    symmetry, twice the sum of y_i*y_(k-i) over i < k/2, plus y_(k/2)^2
    for an even k, and of each y^j past it as that of y^(j-1) times y,
    sum(map(mul, y^(j-1) reversed, y)) with y in ascending order, and
    coefficient k of each P(y) = sum_j p_j*y^j that has no first order
    yet: p_0's coefficient k plus, for each j, sum(map(mul, p_j, y^j
    reversed)).  So every polynomial reads the one history of the powers
    of y, with no slicing.
    """
    powers, firsts = level
    k = len(powers[0])
    c = terms[0](k)
    for term in terms[1:]:
        c -= term(k)
    powers = [(c,) + powers[0], *powers[1:]]
    y = powers[0][::-1]
    if len(powers) > 1:
        half, odd = divmod(k + 1, 2)
        square = 2 * sum(map(mul, islice(y, half), powers[0]))
        if odd:
            square += y[half] * y[half]
        powers[1] = (square,) + powers[1]
    for j in range(2, len(powers)):
        powers[j] = (sum(map(mul, powers[j - 1], y)),) + powers[j]
    firsts = list(firsts)
    for i, poly in enumerate(polys):
        if firsts[i] is None and poly:
            c = poly[0][k] if k < len(poly[0]) else 0
            if c + sum(sum(map(mul, p, power))
                       for p, power in zip(poly[1:], powers)):
                firsts[i] = k
    firsts = tuple(firsts)
    return (tuple(powers), firsts), firsts


def _relation_prefix(relation, *terms):
    """This process's prefix of the relation's residual at y_k =
    terms[0](k) - terms[1](k) - ..., checked through its linear ODE,
    kept under ("relation", name) and keyed on the relation's
    coefficients and on the terms: a check passes the bound ``count`` of
    each prefix it reads, so that a source made afresh (a planted step,
    say) makes the route step cold.  Its count at depth k is what
    ``relation_residual`` gives on y through x^k: the order of the first
    nonzero coefficient of P(y) through x^k, or None.

    The first step derives the ODE c_(-1) + c_0*y + ... + c_r*y^(r) = 0
    that every root of P = sum_i p_i*y^i satisfies (``poly.linear_ode``;
    None when P has a repeated factor) and its recurrence
    (``poly.recurrence``): for every n >= 0,

        [x^n]c_(-1) + sum_i a_i(n) * y_(n+t-i) = 0,

    whose leading coefficient a_0(n) multiplies y_(n+t).  An index m is
    free if no equation determines y_m from the terms below it: m < t,
    or m = n + t for a nonnegative integer root n of a_0
    (``poly.nonnegative_roots``); free is the last one, -1 if none.  The
    step of depth k checks the equation that y_k tops (n = k - t >= 0)
    on the last order + 1 terms.  One residual route (``_residual_step``)
    over (P, P_y), P_y = dP/dy, or over (P,) when there is no ODE, gives
    the first nonzero orders of both; the step steps it through d =
    min(k, n0) while every equation holds and n0 is known, and through
    d = k otherwise: when there is no ODE, before n0 is known, and from
    the first equation that fails on, where it catches up from n0 to k
    at once.  The first order v = ord P_y(y) that it gives, at depth v,
    sets n0 = max(free + v, 2v) >= v.  An order of P(y) at or below d is
    first through k too, and none through d is none through k, by the
    proof below.

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
    return shared(("relation", relation.name), None, _relation_step,
                  tuple(map(tuple, relation.coefficients)), *terms)


def _relation_start(polys):
    """The level of the relation prefix at depth 0 (see _relation_step):
    the ODE of polys derived, its recurrence and free index, and the
    start of the residual route of (P, dP/dy); no recurrence, and the
    residual route of P alone, when there is no ODE.  ``invseq.poly`` is
    imported here, on the first step of the first route that needs it,
    so that importing the package never compiles it."""
    from .poly import linear_ode, nonnegative_roots, recurrence, ydy
    ode = linear_ode(polys)
    if ode is None:
        return 0, None, (), (polys,), None, _residual_start((polys,))
    top, rows, const = recurrence(ode)
    free = max([top - 1] + [top + n for n in nonnegative_roots(rows[0])])
    rels = polys, ydy(polys)
    return 0, (top, rows, const, free), (0,) * len(rows), rels, None, \
        _residual_start(rels)


def _relation_step(level, polys, *terms):
    """The step of a relation prefix at depth k (see _relation_prefix),
    whose level there is None at k = 0 and else (k, the recurrence as
    (top, rows, c_(-1), free), or None once an equation failed or when
    there is no ODE, y_(k-order-1) .. y_(k-1), zeros below index 0 as
    the recurrence reads them, the polynomials of the residual route,
    n0, once known, and the level of the residual route past the depth d
    of the step before): the level at k + 1 and the count at k, the
    first nonzero order of P's residual through the depth d of this
    step."""
    k, rec, window, rels, n0, residual = level or _relation_start(polys)
    if rec is not None:
        top, rows, const, free = rec
        y = terms[0](k)
        for term in terms[1:]:
            y -= term(k)
        window = (*window[1:], y)
        n = k - top
        powers = [n ** i for i in range(max(map(len, rows)))]
        if n >= 0 and (const[n] if n < len(const) else 0) + sum(
                sum(map(mul, row, powers)) * t
                for row, t in zip(rows, reversed(window))):
            rec = None
    depth = k if rec is None or n0 is None else min(k, n0)
    while len(residual[0][0]) <= depth:
        residual = _residual_step(residual, rels, *terms)[0]
    firsts = residual[1]
    if rec is not None and n0 is None and firsts[1] is not None:
        n0 = max(free + firsts[1], 2 * firsts[1])
    return (k + 1, rec, window, rels, n0, residual), firsts[0]


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


def _census_rows(deg, slices):
    """The census rows (A, B, C) at x^deg of the k-indexed count slices
    (a, b, c) of a 201-210 level, each a list of length deg + 1; a
    nonzero coefficient past u^deg raises ArithmeticError."""
    if any(any(row[deg + 1:]) for row in slices):
        raise ArithmeticError("u-degree exceeds x-degree at x^%d" % deg)
    return tuple([*row[:deg + 1], *[0] * (deg + 1 - len(row))]
                 for row in slices)


def _combine(length, *terms):
    """The row of the given length summing sign * u^shift * row over the
    (sign, shift, row) terms, with sign 1 or -1."""
    out = [0] * length
    for sign, shift, row in terms:
        end = shift + len(row)
        out[shift:end] = map(add if sign > 0 else sub, out[shift:end], row)
    return out


def _system_residuals(rows, prev):
    """The residual rows of A, B and C (see _system_step) at one
    x-degree m, each as long as A there (m + 1), from the census rows
    (A, B, C) of x^m and of x^(m-1).

    Rows of x-degree m - 1 enter through the factor x; at m = 0 they are
    empty.  The terms read the suffix sums of the rows A, B and C of
    x^(m-1) and of D = phi(A + B) there, using row + phi(row) = suffix
    sums of row and phi(u*row) = suffix sums of row."""
    am, bm, cm = rows
    ap, bp, cp = prev
    sa, sb = _suffix_sums(ap), _suffix_sums(bp)
    sd = _suffix_sums([*map(add, sa[1:], sb[1:])])
    w = len(am)
    return (
        _combine(w, (1, 0, am), (-1, 0, [1] if w == 1 else []), (-1, 1, sa)),
        _combine(w, (1, 0, bm), (-1, 1, bp), (-1, 1, sb), (-1, 1, cp)),
        _combine(w, (1, 0, cm), (-1, 1, sd), (-1, 1, _suffix_sums(cp))),
    )


def _system_step(level, kernel, decode, axiom):
    """The step of the system prefix at x^m, whose level there is (the
    DP level at depth m - 1, the census rows (A, B, C) at x^(m-1), the
    first failure below x^m), None, three empty rows and None at m = 0,
    so that m is the length of the rows.  The DP level at depth m is
    axiom at m = 0 and else what kernel steps the level's DP level to;
    the step forms the census rows at x^m with _census_rows from the
    slices decode(DP level) gives, and their residual rows (see
    _system_residuals), and returns the level at x^(m+1) and the count
    at x^m: the first failure through x^m, the least (label, x_degree,
    u_degree) at which a residual row is nonzero, or None.  The DP
    level is opaque here: only kernel and decode read it.

    The three equations, where A, B and C have, at x^m, the row of
    counts of the states (k,F,F), (k,T,F) and (k,T,T) indexed by u^k,
    are

      A = 1 + xu*(A + phi(A))
      B = xu*(2B + phi(B) + C)
      C = xu*(phi(uD) + phi(C) + C)        with D = phi(A + B)

    and the four cleared relations obtained from the same system by
    collecting terms are

      P1:  (1 - u + xu^2)A - xu*A(x,1) + u - 1                     = 0
      P2:  (1 - u - xu + 2xu^2)B - xu*B(x,1) + xu(u-1)C            = 0
      P3:  (1 - u + xu^2)C - xu*C(x,1) + xu^2*D - xu*D(x,1)        = 0
      P4:  (1 - u)D + A + B - A(x,1) - B(x,1)                      = 0

    Each identity is a residual row (left side minus right side) per
    x-degree, with phi a suffix sum on a row, and a failure sorts by
    label in the order above, then by x-degree, then by u-degree.

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
    u_degree) with label A, B or C, on every census, injected or not."""
    dp, prev, first = level
    m = len(prev[0])
    dp = kernel(dp)[0] if m else axiom
    rows = _census_rows(m, decode(dp))
    residuals = _system_residuals(rows, prev)
    if any(map(any, residuals)):
        failure = next((label, m, next(j for j, c in enumerate(row) if c))
                       for label, row in zip("ABC", residuals) if any(row))
        first = min(first or failure, failure)
    return (dp, rows, first), first


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
