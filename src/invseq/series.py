"""Exact series arithmetic and the algebraic cross-checks built on it.

Everything here works over the rationals with hard truncation orders, so
every identity we claim is checked coefficient-by-coefficient with no
floating point anywhere.  The module has four layers:

  * ``TruncatedSeries``: univariate power series known through ``x^order``.
  * polynomial relations (``PolyRelation`` / ``relation_residual``) used to
    test that a series satisfies an algebraic equation, by Horner's rule
    in y^2 with y^2 formed once by a symmetric square.
  * bivariate series in x and u, the ``phi`` operator, and
    ``check_system_201_210`` which replays the defining equations of the
    201-210 rule system against its own census data.
  * the trivariate functional equations of the two 2-parameter systems,
    solved one x-degree at a time (``iterate_fe``), with divided
    differences done by checked exact synthetic division.  This layer
    shares no code with the succession-rule DP it cross-checks.

Bivariate series are plain lists over x-degree of ``{u_power: coeff}``
dicts, trivariate slices are ``{(u_power, v_power): coeff}`` dicts.
Dicts never store zeros.
"""

from collections import namedtuple
from fractions import Fraction
from operator import mul

from .oracle import count_sequence
from .succession import profile_slices_201_210


def _normalize(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class TruncatedSeries:
    """A power series with exact coefficients, known through ``x^order``.

    Arithmetic truncates to the shorter operand's order, mirroring what is
    actually known about the result.  Division and square roots produce
    ``Fraction`` coefficients when they must; integer-valued coefficients
    are stored as plain ints.
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
        self.coefficients = [_normalize(c) for c in coeffs]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.order == other.order
                and self.coefficients == other.coefficients)

    __hash__ = None

    def __repr__(self):
        return "TruncatedSeries(%r, order=%d)" % (self.coefficients, self.order)

    def __str__(self):
        return format_series(self)

    def first_nonzero(self):
        """Index of the lowest nonzero coefficient, or None for the zero
        series (zero as far as this truncation can see, anyway)."""
        for k, c in enumerate(self.coefficients):
            if c:
                return k
        return None

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coefficients], self.order)

    def __add__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coefficients[k] + other.coefficients[k] for k in range(n + 1)],
            n)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            _product(self.coefficients[:n + 1], other.coefficients, n), n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.order, other.order)
        d0 = other.coefficients[0]
        if d0 == 0:
            raise ValueError("series division needs a nonzero constant term")
        # iterate over the denominator's nonzero tail only; the
        # denominators we care about are short polynomials
        tail = [(j, c) for j, c in enumerate(other.coefficients[1:n + 1], 1) if c]
        q = []
        for k in range(n + 1):
            acc = self.coefficients[k]
            for j, dj in tail:
                if j > k:
                    break
                acc -= dj * q[k - j]
            q.append(_normalize(Fraction(acc) / d0))
        return TruncatedSeries(q, n)


def _coerce(value, order):
    if isinstance(value, TruncatedSeries):
        return value
    if isinstance(value, (int, Fraction)):
        return TruncatedSeries([value], order)
    return NotImplemented


def _term_text(c, k):
    if k == 0:
        return str(c)
    xpow = "x" if k == 1 else "x^%d" % k
    if c == 1:
        return xpow
    return "%s*%s" % (c, xpow)


def format_series(s, max_terms=10):
    """Human-readable rendering, low-order terms first."""
    terms = [(k, c) for k, c in enumerate(s.coefficients) if c]
    if not terms:
        return "O(x^%d)" % (s.order + 1)
    shown = terms[:max_terms]
    pieces = [_term_text(shown[0][1], shown[0][0])]
    for k, c in shown[1:]:
        sign = " - " if c < 0 else " + "
        pieces.append(sign + _term_text(abs(c), k))
    if len(terms) > max_terms:
        pieces.append(" + ...")
    pieces.append(" + O(x^%d)" % (s.order + 1))
    return "".join(pieces)


def series_sqrt(s):
    """Square root of a series with constant term 1.

    Coefficients come from 2*r_n = s_n - sum_{i=1}^{n-1} r_i * r_{n-i};
    the halving is done over the rationals, so integer input can still
    give fractional output and the caller decides whether that matters.
    """
    if s.coefficients[0] != 1:
        raise ValueError("series_sqrt needs constant term 1")
    r = [1]
    for k in range(1, s.order + 1):
        acc = s.coefficients[k]
        for i in range(1, k):
            acc -= r[i] * r[k - i]
        r.append(_normalize(Fraction(acc) / 2))
    return TruncatedSeries(r, s.order)


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
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    r = [1]                 # only r_0 .. r_(n_max-1) reach x^n_max
    for k in range(1, n_max):
        r_k, rem = divmod(4 * (2 * k - 3) * r[-1], k)
        if rem:
            raise ArithmeticError(
                "sqrt(1-8x) coefficient of x^%d is not an integer" % k)
        r.append(r_k)
    num = [2, -1] + [0] * n_max
    for k, c in enumerate(r, 1):
        num[k] -= c
    out = []
    f1 = f2 = 0             # f_(k-1), f_(k-2)
    for k in range(n_max + 1):
        f, rem = divmod(num[k] + 4 * f1 - 4 * f2, 2)
        if rem:
            raise ArithmeticError("coefficient of x^%d is not an integer" % k)
        if f < 0:
            raise ArithmeticError("coefficient of x^%d is negative: %r" % (k, f))
        out.append(f)
        f1, f2 = f, f1
    return out


def _slice_series(index, n_max):
    """Series whose x^n coefficient sums slice ``index`` of the depth-n
    level of the 201-210 DP: 0 for the states (k,F,F), 1 for (k,T,F)."""
    return TruncatedSeries(
        [sum(level[index]) for level in profile_slices_201_210(n_max)], n_max)


def ff_slice_series(n_max):
    """Series counting the depth-n states (k,F,F) of the 201-210 system,
    summed over k.  Its coefficients are the Catalan numbers."""
    return _slice_series(0, n_max)


def tf_slice_series(n_max):
    """Series counting the depth-n states (k,T,F), summed over k."""
    return _slice_series(1, n_max)


# -- polynomial relations ---------------------------------------------------
#
# A PolyRelation is an algebraic equation p_d(x)*y^d + ... + p_0(x) = 0
# stored as a tuple of ascending-coefficient integer polynomials in x,
# indexed by the power of y.

PolyRelation = namedtuple("PolyRelation", ["name", "coefficients"])


def relation_residual(relation, s):
    """Evaluate the relation at y = s; return the order of the first
    nonzero coefficient of the residual, or None if the relation holds
    through s.order.

    Runs Horner's rule in y^2 on P(y) = sum_i (p_2i + p_2i+1*y)*(y^2)^i.
    The p_j are short polynomials, so a p_j times a series is cheap.  The
    full-length products are the truncated square giving y^2 (half the
    multiplications of a product) and each Horner step whose accumulator
    is already a series: half a product in all for y-degree 2, one and a
    half for y-degree 3 or 4.
    """
    n = s.order
    y = s.coefficients
    polys = relation.coefficients
    y2 = _square(y) if len(polys) > 2 else None
    acc = None
    for i in reversed(range(0, len(polys), 2)):
        if i + 1 < len(polys):
            term = _plus_poly(_product(polys[i + 1], y, n), polys[i])
        else:
            term = list(polys[i][:n + 1])
        acc = term if acc is None else _plus_poly(_product(acc, y2, n), term)
    return next((k for k, c in enumerate(acc) if c), None)


def _product(a, b, n):
    """Coefficients 0..n of a*b.  b has at least n + 1 coefficients; a may
    have fewer (a polynomial), and then costs len(a) multiplications per
    coefficient."""
    rb = b[n::-1]
    m = len(a)
    return [sum(map(mul, a, rb[n - k:n - k + m])) for k in range(n + 1)]


def _square(a):
    """Coefficients of a*a through the order of a, each cross term a_i*a_j
    (i < j) formed once and doubled."""
    out = []
    for k in range(len(a)):
        h = (k + 1) // 2
        c = 2 * sum(map(mul, a[:h], a[k:k - h:-1]))
        if not k % 2:
            c += a[k // 2] * a[k // 2]
        out.append(c)
    return out


def _plus_poly(coeffs, poly):
    """``coeffs + poly`` as a new list, truncated to the length of
    ``coeffs``."""
    out = list(coeffs)
    for k, c in enumerate(poly[:len(out)]):
        out[k] += c
    return out


def _pmul(*polys):
    out = [1]
    for p in polys:
        res = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                res[i + j] += a * b
        out = res
    return tuple(out)


def _pneg(p):
    return tuple(-a for a in p)


# x*y^2 - y + 1 = 0 for the (k,F,F) slice (Catalan).
MINPOLY_A = PolyRelation("minpoly-A", ((1,), (-1,), (0, 1)))

# Quartic for the (k,T,F) slice.
MINPOLY_B = PolyRelation("minpoly-B", (
    (0, 0, 0, 0, 1),                                # x^4
    _pmul((0, 1), (-1, 1), (-1, 6), (-1, 3)),       # x(x-1)(6x-1)(3x-1)
    (1, -8, 21, -16, -5, 12),
    _pmul((0, 2), (-1, 1), (-1, 3), (1, -2, 2)),    # 2x(x-1)(3x-1)(2x^2-2x+1)
    _pmul((0, 0, 1), (1, -2, 2), (1, -2, 2)),       # x^2(2x^2-2x+1)^2
))

# Quadratic for the full 201-210 counting series.
MINPOLY_F = PolyRelation("minpoly-F", (
    (1, 1),                                         # x + 1
    (-2, 1),                                        # x - 2
    (1, -2, 2),                                     # 2x^2 - 2x + 1
))

# Conjectured cubic for the {010,102} counting series.
CUBIC_010_102 = PolyRelation("conjecture-010-102", (
    _pneg(_pmul((-1, 2), (1, -2, 1))),              # -(2x-1)(x-1)^2
    _pneg((1, -6, 11, -8, 1)),
    _pmul((0, 2), (-1, 1), (1, -2, 2)),             # 2x(x-1)(2x^2-2x+1)
    _pmul((0, 1), (1, -1, 1), (1, -2, 1)),          # x(x^2-x+1)(x-1)^2
))

RELATIONS = {rel.name: rel for rel in
             (MINPOLY_A, MINPOLY_B, MINPOLY_F, CUBIC_010_102)}


# -- bivariate layer --------------------------------------------------------

def phi(f):
    """The operator sending u^k to 1 + u + ... + u^(k-1), per x-degree.

    Computed as (g(u) - g(1)) / (u - 1) by synthetic division; the
    remainder vanishes identically for polynomial slices but is checked
    anyway.
    """
    return [_phi_slice(slice_) for slice_ in f]


def _phi_slice(slice_):
    if not slice_:
        return {}
    deg = max(slice_)
    coeffs = [slice_.get(j, 0) for j in range(deg + 1)]
    coeffs[0] -= sum(coeffs)
    # dividing by u - 1 at root 1 turns into plain suffix sums
    q = [0] * deg
    carry = 0
    for j in range(deg, 0, -1):
        carry += coeffs[j]
        q[j - 1] = carry
    if carry + coeffs[0] != 0:
        raise ArithmeticError("phi division left remainder %r" % (carry + coeffs[0]))
    return {j: c for j, c in enumerate(q) if c}


def _biv_add(*fs):
    n = min(len(f) for f in fs) - 1
    out = [dict() for _ in range(n + 1)]
    for f in fs:
        for deg in range(n + 1):
            tgt = out[deg]
            for j, c in f[deg].items():
                v = tgt.get(j, 0) + c
                if v:
                    tgt[j] = v
                elif j in tgt:
                    del tgt[j]
    return out


def _biv_apply(terms, f):
    """Sum of coeff * x^dx * u^du * f over (coeff, dx, du) terms, truncated
    to f's x-order."""
    n = len(f) - 1
    out = [dict() for _ in range(n + 1)]
    for coeff, dx, du in terms:
        for deg in range(n + 1 - dx):
            tgt = out[deg + dx]
            for j, c in f[deg].items():
                v = tgt.get(j + du, 0) + coeff * c
                if v:
                    tgt[j + du] = v
                elif j + du in tgt:
                    del tgt[j + du]
    return out


def _biv_from_rows(rows_by_depth, n_max):
    out = []
    for n in range(n_max + 1):
        row = rows_by_depth[n]
        slice_ = {k: c for k, c in enumerate(row) if c}
        if slice_ and max(slice_) > n:
            raise ArithmeticError("u-degree exceeds x-degree at x^%d" % n)
        out.append(slice_)
    return out


def _biv_embed(series_coeffs):
    return [{0: c} if c else {} for c in series_coeffs]


def _biv_first_diff(f, g):
    """Lowest (x_degree, u_degree) where f and g disagree, or None."""
    for deg in range(min(len(f), len(g))):
        fs, gs = f[deg], g[deg]
        for j in sorted(set(fs) | set(gs)):
            if fs.get(j, 0) != gs.get(j, 0):
                return (deg, j)
    return None


def _check_system_violation(n_max, profiles=None):
    """Replay the defining equations of the 201-210 system on its census.

    Builds the three bivariate slice series from the DP (or from injected
    profiles, which the tests use to make sure a corrupted census is
    actually caught), then verifies, coefficient by coefficient through
    x^n_max:

      A = 1 + xu*(A + phi(A))
      B = xu*(2B + phi(B) + C)
      C = xu*(phi(uD) + phi(C) + C)        with D = phi(A + B)

    and the four cleared relations obtained from the same system by
    collecting terms:

      (1 - u + xu^2)A - xu*A(x,1) + u - 1                          = 0
      (1 - u - xu + 2xu^2)B - xu*B(x,1) + xu(u-1)C                 = 0
      (1 - u + xu^2)C - xu*C(x,1) + xu^2*D - xu*D(x,1)             = 0
      (1 - u)D + A + B - A(x,1) - B(x,1)                           = 0

    Returns None when everything holds, else (label, x_degree, u_degree)
    of the first failure.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if profiles is None:
        profiles = list(profile_slices_201_210(n_max))
    a_biv = _biv_from_rows([p[0] for p in profiles], n_max)
    b_biv = _biv_from_rows([p[1] for p in profiles], n_max)
    c_biv = _biv_from_rows([p[2] for p in profiles], n_max)
    d_biv = phi(_biv_add(a_biv, b_biv))

    one = [dict() for _ in range(n_max + 1)]
    one[0][0] = 1
    xu = [(1, 1, 1)]

    checks = []
    rhs = _biv_apply(xu, _biv_add(a_biv, phi(a_biv)))
    checks.append(("A", a_biv, _biv_add(one, rhs)))
    rhs = _biv_apply(xu, _biv_add(b_biv, b_biv, phi(b_biv), c_biv))
    checks.append(("B", b_biv, rhs))
    rhs = _biv_apply(
        xu, _biv_add(phi(_biv_apply([(1, 0, 1)], d_biv)), phi(c_biv), c_biv))
    checks.append(("C", c_biv, rhs))
    for label, lhs, rhs in checks:
        diff = _biv_first_diff(lhs, rhs)
        if diff is not None:
            return (label,) + diff

    a1 = [sum(s.values()) for s in a_biv]
    b1 = [sum(s.values()) for s in b_biv]
    c1 = [sum(s.values()) for s in c_biv]
    d1 = [sum(s.values()) for s in d_biv]
    u_minus_1 = [dict() for _ in range(n_max + 1)]
    u_minus_1[0] = {1: 1, 0: -1}
    zero = [dict() for _ in range(n_max + 1)]

    cleared = [
        ("P1", _biv_add(
            _biv_apply([(1, 0, 0), (-1, 0, 1), (1, 1, 2)], a_biv),
            _biv_apply([(-1, 1, 1)], _biv_embed(a1)),
            u_minus_1)),
        ("P2", _biv_add(
            _biv_apply([(1, 0, 0), (-1, 0, 1), (-1, 1, 1), (2, 1, 2)], b_biv),
            _biv_apply([(-1, 1, 1)], _biv_embed(b1)),
            _biv_apply([(1, 1, 2), (-1, 1, 1)], c_biv))),
        ("P3", _biv_add(
            _biv_apply([(1, 0, 0), (-1, 0, 1), (1, 1, 2)], c_biv),
            _biv_apply([(-1, 1, 1)], _biv_embed(c1)),
            _biv_apply([(1, 1, 2)], d_biv),
            _biv_apply([(-1, 1, 1)], _biv_embed(d1)))),
        ("P4", _biv_add(
            _biv_apply([(1, 0, 0), (-1, 0, 1)], d_biv),
            a_biv, b_biv,
            _biv_embed([-v for v in a1]),
            _biv_embed([-v for v in b1]))),
    ]
    for label, residual in cleared:
        diff = _biv_first_diff(residual, zero)
        if diff is not None:
            return (label,) + diff
    return None


def check_system_201_210(n_max):
    """True when the 201-210 census satisfies all seven bivariate
    identities through x^n_max.  See _check_system_violation for the
    list."""
    return _check_system_violation(n_max) is None


# -- trivariate layer -------------------------------------------------------
#
# Both functional equations have the form S = 1 + xu*L(S) with L linear
# and free of x, so slice d+1 of the fixed point is u*L(slice d): one
# per-slice step per system, applied n_max times, gives the solution.

def _dd_uv_slice(slice_):
    """(g(u,v) - g(v,v)) / (u - v) for one x-degree, by synthetic division
    in u at root v.  The remainder must vanish and is checked."""
    if not slice_:
        return {}
    deg = max(ju for ju, _ in slice_)
    by_u = [dict() for _ in range(deg + 1)]
    for (ju, jv), c in slice_.items():
        by_u[ju][jv] = by_u[ju].get(jv, 0) + c
    out = {}
    b = {}
    for j in range(deg, 0, -1):
        nb = dict(by_u[j])
        for jv, c in b.items():
            nb[jv + 1] = nb.get(jv + 1, 0) + c
        b = {jv: c for jv, c in nb.items() if c}
        for jv, c in b.items():
            out[(j - 1, jv)] = out.get((j - 1, jv), 0) + c
    rem = dict(by_u[0])
    for jv, c in b.items():
        rem[jv + 1] = rem.get(jv + 1, 0) + c
    for (ju, jv), c in slice_.items():
        rem[ju + jv] = rem.get(ju + jv, 0) - c
    if any(rem.values()):
        raise ArithmeticError("division by u - v left remainder %r" % rem)
    return {k: c for k, c in out.items() if c}


def _dd_v_slice(slice_, at_v1):
    """(g(u,v) - g(u,1)) / (v - 1) for one x-degree, given g(u,1) as
    ``at_v1``: phi in the v variable, one u-power at a time.  The
    remainder g(u,1) - at_v1 must vanish and is checked."""
    by_u = {}
    for (ju, jv), c in slice_.items():
        by_u.setdefault(ju, {})[jv] = c
    rem = {ju: sum(vpoly.values()) for ju, vpoly in by_u.items()}
    for (ju, _), c in at_v1.items():
        rem[ju] = rem.get(ju, 0) - c
    if any(rem.values()):
        raise ArithmeticError("division by v - 1 left remainder %r" % rem)
    out = {}
    for ju, vpoly in by_u.items():
        for jv, c in _phi_slice(vpoly).items():
            out[(ju, jv)] = c
    return out


def _collapse_v(slice_):
    """g(u,1) for one x-degree, as a slice with v-degree 0."""
    out = {}
    for (ju, _), c in slice_.items():
        v = out.get((ju, 0), 0) + c
        if v:
            out[(ju, 0)] = v
        elif (ju, 0) in out:
            del out[(ju, 0)]
    return out


def _times_u(*parts):
    """u times the sum of the given slices, zeros dropped."""
    out = {}
    for part in parts:
        for (ju, jv), c in part.items():
            key = (ju + 1, jv)
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _fe_step_011_201(slice_):
    """Slice d+1 of S = 1 + xu*( S(x,u,1)
                               + (S - S(x,u,1)) / (v - 1)
                               + (S - S(x,v,v)) / (u - v) ) from slice d."""
    at_v1 = _collapse_v(slice_)
    return _times_u(at_v1, _dd_v_slice(slice_, at_v1), _dd_uv_slice(slice_))


def _fe_step_010_100_120_210(slice_):
    """Slice d+1 of S = 1 + xu*( S
                               + (S - S(x,u,1)) / (v - 1)
                               + (S(x,u,1) - S(x,v,1)) / (u - v) ) from slice d."""
    at_v1 = _collapse_v(slice_)
    return _times_u(slice_, _dd_v_slice(slice_, at_v1), _dd_uv_slice(at_v1))


_FE_STEP = {
    "011-201": _fe_step_011_201,
    "010-100-120-210": _fe_step_010_100_120_210,
}


def _fe_slices(system_id, n_max):
    """Yield the slices x^0 .. x^n_max of the solution S(x,u,v) of a
    2-parameter system's functional equation, each a ``{(u_power,
    v_power): coeff}`` dict.

    Slice d+1 is one step applied to slice d, so only the current slice
    is kept.  Every divided difference is checked to divide exactly, and
    every slice to keep its u- and v-degrees within its x-degree; either
    failure raises ArithmeticError.
    """
    try:
        step = _FE_STEP[system_id]
    except KeyError:
        raise ValueError("no functional equation for system %r" % system_id) from None
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    slice_ = {(0, 0): 1}
    yield slice_
    for deg in range(1, n_max + 1):
        slice_ = step(slice_)
        for ju, jv in slice_:
            if ju > deg or jv > deg:
                raise ArithmeticError(
                    "u^%d v^%d at x^%d breaks the degree bound" % (ju, jv, deg))
        yield slice_


def iterate_fe(system_id, n_max):
    """Solve the trivariate functional equation of a 2-parameter system
    through x^n_max and return the counting sequence at u = v = 1.

    The equation S = 1 + xu*L(S) keeps x-degrees apart, so the solution
    is built degree by degree (see _fe_slices) in O(n_max) steps, with
    checked exact division throughout.  It shares nothing with the
    succession-rule DP, which makes it a cross-check of the rules.
    """
    return [sum(slice_.values()) for slice_ in _fe_slices(system_id, n_max)]


def _conjecture_residual(counts):
    return relation_residual(CUBIC_010_102, TruncatedSeries(counts))


def verify_conjecture_010_102(n_max):
    """Check the conjectured cubic for the {010,102} counting sequence
    against brute-force counts through n_max.

    Evidence, not proof: a True return means no counterexample below the
    cutoff, nothing more.
    """
    return _conjecture_residual(count_sequence(((0, 1, 0), (1, 0, 2)), n_max)) is None
