"""Exact polynomials over Z[x] and Z[x][y], and the linear differential
equation that every root of a polynomial relation satisfies.

A polynomial of Z[x] is a tuple of ints, ascending in x, with no
trailing zero, so () is zero; one of Z[x][y] is a tuple of such tuples,
ascending in y, with no trailing (), as a relation's coefficients are.
Everything is exact: a division that leaves a remainder raises
ArithmeticError.

``linear_ode`` derives, from a squarefree P(x, y), polynomials c_(-1),
c_0, ..., c_r of Z[x] with

    c_(-1) + c_0*y + c_1*y' + ... + c_r*y^(r) = 0

for every root y of P in a differential field over Q(x) (Comtet 1964;
Bostan, Chyzak, Lecerf, Salvy and Schost, ISSAC 2007), and
``recurrence`` reads off it the linear recurrence with polynomial
coefficients in n that the Taylor coefficients of a power-series
solution satisfy.  The module imports nothing from the package and
knows no relation: ``invseq.series`` hands it the coefficients.
"""

from functools import reduce
from itertools import count
from math import gcd
from operator import add, sub


def _trim(p):
    """p without its trailing zeros: ints in Z[x], () in Z[x][y]."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def padd(*ps):
    """The sum of polynomials of Z[x]."""
    out = [0] * max(map(len, ps), default=0)
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return _trim(out)


def pmul(*ps):
    """The product of polynomials of Z[x]; (1,) for none."""
    out, *ps = ps or [(1,)]
    for p in ps:
        if not out or not p:
            return ()
        if len(p) > len(out):
            out, p = p, out
        res = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(p):
            if a:
                res[i:i + len(out)] = map(add, res[i:i + len(out)],
                                          map(a.__mul__, out))
        out = tuple(res)
    return out


def _pscale(p, c):
    return tuple(c * a for a in p) if c else ()


def _pdx(p):
    return tuple(i * a for i, a in enumerate(p))[1:]


def peval(p, x):
    """p(x) for a polynomial p of Z[x] and an integer x."""
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def _pdiv(p, q):
    """p / q in Z[x], exact, else ArithmeticError; q is nonzero."""
    if q == (1,):
        return tuple(p)
    p = list(p)
    out = [0] * max(len(p) - len(q) + 1, 0)
    for i in reversed(range(len(out))):
        c, rem = divmod(p[i + len(q) - 1], q[-1])
        if rem:
            raise ArithmeticError("inexact division in Z[x]")
        out[i] = c
        if c:
            p[i:i + len(q)] = map(sub, p[i:i + len(q)], map(c.__mul__, q))
    if any(p):
        raise ArithmeticError("inexact division in Z[x]")
    return tuple(out)


def _primitive(p):
    """p divided by the gcd of its coefficients, with a positive leading
    coefficient."""
    g = reduce(gcd, p, 0)
    return tuple(a // g for a in p) if p[-1] > 0 else tuple(-a // g for a in p)


def _pgcd(p, q):
    """The gcd of two polynomials of Z[x] that are not both zero, with a
    positive leading coefficient: the integer gcd of all their
    coefficients times the gcd of their primitive parts, which the
    primitive remainder sequence ends on."""
    c = gcd(reduce(gcd, p, 0), reduce(gcd, q, 0))
    if len(p) == 1 or len(q) == 1:
        return (c,)
    p, q = (_primitive(r) if r else () for r in (p, q))
    while q:
        p, q = q, _prem_x(p, q)
        q = _primitive(q) if q else ()
    return _pscale(p, c)


def _prem_x(p, q):
    """The pseudo-remainder of p by q in Z[x]."""
    p = list(p)
    while len(p) >= len(q):
        c, shift = p[-1], len(p) - len(q)
        p = [*map(q[-1].__mul__, p[:shift]),
             *map(sub, map(q[-1].__mul__, p[shift:]), map(c.__mul__, q))]
        p = list(_trim(p))
    return tuple(p)


# -- Z[x][y] ----------------------------------------------------------------

def _yadd(*ps):
    out = [()] * max(map(len, ps), default=0)
    for p in ps:
        for i, c in enumerate(p):
            out[i] = padd(out[i], c)
    return _trim(out)


def _ymul(a, b):
    out = [()] * max(len(a) + len(b) - 1, 0)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] = padd(out[i + j], pmul(p, q))
    return _trim(out)


def _yscale(a, p):
    return _trim(pmul(c, p) for c in a)


def _ydx(a):
    """The derivative in x of a polynomial of Z[x][y]."""
    return _trim(map(_pdx, a))


def ydy(a):
    """The derivative in y of a polynomial of Z[x][y]."""
    return _trim(_pscale(c, i) for i, c in enumerate(a))[1:]


def _yprem(a, rel):
    """(r, e) with lead^e * a = q*rel + r and r of y-degree below rel's,
    lead the leading coefficient of rel in y: the pseudo-remainder."""
    a, lead, e = list(a), rel[-1], 0
    while len(a) >= len(rel):
        c, shift = a[-1], len(a) - len(rel)
        a = [pmul(lead, t) for t in a]
        for j, t in enumerate(rel):
            a[shift + j] = padd(a[shift + j], _pscale(pmul(c, t), -1))
        a, e = list(_trim(a)), e + 1
    return tuple(a), e


def _reduced(a, q, rel):
    """(n, q') with n/q' = a/q modulo rel, q nonzero: n the
    pseudo-remainder of a by rel (_yprem), and the gcd of q and every
    coefficient of n cancelled."""
    n, e = _yprem(a, rel)
    q = pmul(q, *(rel[-1],) * e)
    g = reduce(_pgcd, n, q)
    return tuple(_pdiv(c, g) for c in n), _pdiv(q, g)


def solve(matrix, b):
    """(x, det) with matrix * x = det * b over Z[x], det = +-det(matrix),
    for a square matrix, or None when it is singular: Bareiss's
    fraction-free elimination, with row swaps, on the matrix with b
    adjoined, then back substitution.  Every division is exact: each
    entry after step k is a minor of order k + 2, and each det*x_i is
    +-det of the matrix with column i replaced by b (Cramer)."""
    m = [[*row, c] for row, c in zip(matrix, b)]
    size, prev = len(m), (1,)
    for k in range(size):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return None
            m[k], m[swap] = m[swap], m[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size + 1):
                m[i][j] = _pdiv(padd(pmul(m[k][k], m[i][j]),
                                     _pscale(pmul(m[i][k], m[k][j]), -1)), prev)
        prev = m[k][k]
    x = [()] * size
    for i in reversed(range(size)):
        x[i] = _pdiv(padd(pmul(prev, m[i][size]), *(
            _pscale(pmul(m[i][j], x[j]), -1) for j in range(i + 1, size))),
            m[i][i])
    return x, prev


def _column(a, d):
    return [a[i] if i < len(a) else () for i in range(d)]


def _first_derivative(rel):
    """y' = -P_x/P_y modulo P = rel as (N, q) (see _reduced), or None
    when P_y has no inverse modulo P, that is when P has a repeated
    factor.

    P_y's multiplication matrix M has as its column i the numerator N_i
    of y^i * P_y = N_i/q_i modulo P, i < d = deg_y P, each column y
    times the one before, so that y' = sum_i z_i*q_i*y^i for the
    solution z of M z = B/q_B, B/q_B = -P_x modulo P: the product of
    -P_x with the inverse of P_y, which solve gives fraction-free."""
    d, columns = len(rel) - 1, [_reduced(ydy(rel), (1,), rel)]
    while len(columns) < d:
        n, q = columns[-1]
        columns.append(_reduced(((),) + n, q, rel))
    b, qb = _reduced(_yscale(_ydx(rel), (-1,)), (1,), rel)
    solved = solve(list(zip(*(_column(n, d) for n, _ in columns))),
                   _column(b, d))
    if solved is None:
        return None
    x, det = solved
    return _reduced([pmul(xi, qi) for xi, (_, qi) in zip(x, columns)],
                    pmul(det, qb), rel)


def _independent_rows(rows, want):
    """The indices of the first rows of an integer matrix, in order, of
    which want are linearly independent, or None: each row is reduced,
    fraction-free, by the independent rows before it."""
    basis, chosen = [], []
    for i, row in enumerate(rows):
        for col, b in basis:
            if row[col]:
                row = [b[col] * r - row[col] * c for r, c in zip(row, b)]
        col = next((j for j, r in enumerate(row) if r), None)
        if col is not None:
            basis.append((col, row))
            chosen.append(i)
            if len(chosen) == want:
                return chosen
    return None


def _null_vector(columns, d):
    """A nonzero w over Z[x] with sum_j w_j * columns[j] = 0, or None,
    given that the columns but the last are independent over Q(x); a
    column is a polynomial of y-degree below d.

    The first rows R of the matrix on which the columns but the last are
    independent at an integer point, the first from 2 on where there are
    such rows, make a nonsingular minor M, so nonsingular over Q(x) too,
    and such a point exists since those columns are independent.  With
    M x = det * (-c) for c the last column on R (solve), w = (x, det)
    vanishes on the rows R, and is checked exactly on the others.  The
    point decides only how soon rows are found."""
    matrix = [list(row) for row in zip(*(_column(c, d) for c in columns))]
    for point in count(2):
        rows = _independent_rows(
            [[peval(p, point) for p in row[:-1]] for row in matrix],
            len(columns) - 1)
        if rows is not None:
            break
    x, det = solve([matrix[r][:-1] for r in rows],
                   [_pscale(matrix[r][-1], -1) for r in rows])
    w = [*x, det]
    if any(padd(*map(pmul, row, w)) for row in matrix):
        return None
    return w


def linear_ode(coefficients):
    """(c_(-1), c_0, ..., c_r) over Z[x], of no common factor, with
    c_(-1) + c_0*y + c_1*y' + ... + c_r*y^(r) = 0 for every root y of
    P = sum_i coefficients[i]*y^i, of the least order r there is; None
    when P has y-degree 0 or a repeated factor.

    In Q(x)[y]/(P), which is a product of fields when P is squarefree,
    y' = -P_x/P_y (differentiate P(x, y) = 0), solved on P_y's
    multiplication matrix (_first_derivative), and y^(i+1) = D(y^(i))
    for the derivation D = d/dx + y'*d/dy.  Each y^(i) is kept as N_i/q_i, N_i reduced modulo
    P and the common factor of N_i and q_i cancelled: with y' = N_1/q_1
    and h = gcd(q_i, q_1), D(N_i/q_i) = (a*D~(N_i) - b*q_i'*N_i) /
    (q_1*q_i*a), D~(N) = q_1*N_x + N_1*N_y, a = q_i/h and b = q_1/h,
    over the least common denominator of its two terms.  The first i at
    which [1, y, y', ..., y^(i)] has a null vector w (_null_vector)
    gives c_j = w_j * q_j, so that sum_j c_j*y^(j) = sum_j w_j*N_j = 0
    modulo P, and so at every root; the content is divided out."""
    rel = _trim(map(_trim, coefficients))
    d = len(rel) - 1
    dy = _first_derivative(rel) if d > 0 else None
    if dy is None:
        return None
    columns = [(((1,),), (1,)), _reduced(((), (1,)), (1,), rel)]
    while True:
        w = _null_vector([n for n, _ in columns], d)
        if w is not None:
            break
        n, q = columns[-1]
        h = _pgcd(q, dy[1])
        a, b = _pdiv(q, h), _pdiv(dy[1], h)
        columns.append(_reduced(_yadd(
            _yscale(_yadd(_yscale(_ydx(n), dy[1]), _ymul(dy[0], ydy(n))), a),
            _yscale(n, pmul(b, _pscale(_pdx(q), -1)))),
            pmul(dy[1], q, a), rel))
    ode = [pmul(wj, qj) for wj, (_, qj) in zip(w, columns)]
    g = reduce(_pgcd, ode)
    return tuple(_pdiv(c, g) for c in ode)


def recurrence(ode):
    """The recurrence of the Taylor coefficients y_n of a power series
    that solves the ode (c_(-1), c_0, ..., c_r) of linear_ode, as
    (top, rows, c_(-1)): for every n >= 0,

        [x^n]c_(-1) + sum_i rows[i](n) * y_(n+top-i) = 0,

    each row a polynomial in n over Z, rows[0] and rows[-1] nonzero, and
    y_m = 0 for m < 0.  Coefficient n of x^k * y^(j) is
    (m+1)(m+2)...(m+j) * y_(m+j) with m = n - k, for m >= 0; that product
    vanishes for -j <= m < 0, and y_(m+j) for m < -j, so the sum runs
    over every n."""
    const, *cs = ode
    rows = {}
    for j, c in enumerate(cs):
        for k, a in enumerate(c):
            if a:
                rows[j - k] = padd(rows.get(j - k, ()), pmul(
                    (a,), *((i - k, 1) for i in range(1, j + 1))))
    top = max(rows)
    return top, tuple(rows.get(s, ()) for s in range(top, min(rows) - 1, -1)), \
        const


def nonnegative_roots(p):
    """The nonnegative integer roots of a nonzero polynomial over Z, in
    ascending order: 0 when p(0) = 0, and the divisors n of the lowest
    nonzero coefficient with p(n) = 0, where |n| is at most the Cauchy
    bound 1 + max |p_i / p_lead|."""
    low = next(i for i, c in enumerate(p) if c)
    bound = 1 + max(map(abs, p)) // abs(p[-1])
    return [0] * (low > 0) + [n for n in range(1, bound + 1)
                              if p[low] % n == 0 and peval(p, n) == 0]
