"""Exact polynomial algebra for algebraic Stieltjes transforms.

Everything here runs over the integers, in one dense representation.
A univariate polynomial is an ascending list of Python ints, [] for zero.
A BivariatePolynomial is an element of Q[x][y] stored as integer y-rows
over one positive denominator den: rows[b] is the univariate polynomial
in x that multiplies y^b / den.  No row and no list of rows ends in a
zero, and den has no factor common to all the coefficients, so equal
polynomials have equal rows and den.  Rationals appear only at the
boundary: terms(), to_entries(), the lists resultant and discriminant
return, and the RootInterval ends.  A rational input is cleared once;
the engines run on ints and undo the scale through

    res(aP, bQ) = a^deg Q * b^deg P * res(P, Q),
    disc(cF) = c^(2n - 2) * disc(F),   n = deg F.

By Gauss's lemma every division by a primitive divisor (content 1 in
Z[x]) stays exact in Z[x][y].  Gcds, pseudo-remainders and exact
divisions run on the rows directly; eliminating x instead of y
transposes them once.  The module provides

* Sylvester resultants (Bareiss fraction-free determinants over Z[x]);
* discriminants with the classical sign (-1)^(n(n-1)/2) res(F, F') / lc;
* real-root isolation by Sturm sequences + bisection, on a chain of
  sign-preserving pseudo-remainders: positive multiples of the chain over Q;
* numerical certification of a candidate curve F(lambda, S(lambda)) = 0
  against the fixed-point solver;
* the rank-one elimination pipeline: from a polynomial relation
  R(m, S_f(m)) = 0 for the transform of the profile distribution to the
  algebraic curve satisfied by the limit Stieltjes transform, via the
  master identity lambda*S = 1 + w^2 = (lambda/w) S_f(lambda/w).  The
  auxiliary w is eliminated by a norm, not a determinant: 1 + w^2 -
  lambda*S is monic and quadratic in w, so its resultant with
  G = A(w^2) + w B(w^2) is A^2 - (lambda*S - 1) B^2.  Yun's squarefree
  split in Z[lambda][S] follows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .kernel import Kernel, rat

__all__ = [
    "BivariatePolynomial",
    "RootInterval",
    "resultant",
    "discriminant",
    "real_roots",
    "verify_curve",
    "rank_one_eliminate",
]

MAX_DEGREE = 64  # in term lists: 8x the largest curves yet, bidegree (7, 8)
# a curve is certified when its normalized residual on the circle of
# certificate_radius stays below CERTIFICATE_TOL (eliminate and verify)
CERTIFICATE_TOL = 1e-8


# ---------------------------------------------------------------------------
# univariate polynomials: lists of ints, index = degree, [] = 0
# ---------------------------------------------------------------------------

def _pnorm(p):
    """Drop trailing zeros (zero coefficients, or empty rows)."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _padd(p, q):
    return _pnorm([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def _psub(p, q):
    return _pnorm([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def _pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _pscale(p, c):
    return [a * c for a in p] if c else []


def _pdivexact(p, q):
    """p / q in Z[x] (q nonzero); raises unless the quotient is in Z[x]."""
    r, lead, n = list(p), q[-1], len(q)
    quo = [0] * max(len(r) - n + 1, 0)
    while len(r) >= n:
        c, m = divmod(r[-1], lead)
        if m:
            raise ArithmeticError("polynomial division was not exact")
        d = len(r) - n
        quo[d] = c
        for i, b in enumerate(q):
            r[i + d] -= c * b
        r = _pnorm(r)
    if r:
        raise ArithmeticError("polynomial division was not exact")
    return quo


def _pprem(a, b):
    """A positive multiple of the remainder of a by b over Q (b nonzero):
    each step scales by |lc b| / gcd(|lc b|, the coefficient it cancels)."""
    lead, n = abs(b[-1]), len(b)
    sign = 1 if b[-1] > 0 else -1
    r = list(a)
    while len(r) >= n:
        g = math.gcd(lead, r[-1])
        u, v, d = lead // g, sign * (r[-1] // g), len(r) - n
        if u != 1:
            r = [u * c for c in r]
        for i, c in enumerate(b):
            r[i + d] -= v * c
        r = _pnorm(r)
    return r


def _pprimitive(p):
    """p over its positive integer content."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pgcd(p, q):
    """Primitive gcd in Z[x] with a positive leading coefficient."""
    a, b = _pprimitive(p), _pprimitive(q)
    while b:
        a, b = b, _pprimitive(_pprem(a, b))
    return _pscale(a, -1) if a and a[-1] < 0 else a


def _pderiv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _peval(p, x, den):
    """p(x) / den: exact at an int or Fraction x, else floating point with
    each coefficient rounded once from its exact value c / den."""
    if isinstance(x, (int, Fraction)):
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        return Fraction(acc, den)
    cast = complex if isinstance(x, complex) else float
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + cast(c / den)
    return acc


def _primitive(rows):
    """rows over their content in Z[x], its integer part included."""
    g = []
    for r in rows:
        g = _pgcd(g, r)
        if len(g) == 1:
            break
    if len(g) > 1:
        rows = [_pdivexact(r, g) for r in rows]
    c = math.gcd(*(v for r in rows for v in r))
    return [[v // c for v in r] for r in rows] if c > 1 else rows


# ---------------------------------------------------------------------------
# bivariate polynomials: dense integer y-rows over Z[x], one denominator
# ---------------------------------------------------------------------------

def _bp_add(a, b):
    return _pnorm([_padd(r, s) for r, s in zip_longest(a, b, fillvalue=[])])


def _bp_sub(a, b):
    return _pnorm([_psub(r, s) for r, s in zip_longest(a, b, fillvalue=[])])


def _bp_mul(a, b):
    out = [[]] * max(len(a) + len(b) - 1, 0)
    for i, r in enumerate(a):
        for j, s in enumerate(b):
            out[i + j] = _padd(out[i + j], _pmul(r, s))
    return _pnorm(out)


def _bp_scale(rows, c):
    return rows if c == 1 else _pnorm([_pscale(r, c) for r in rows])


def _bp_dy(rows):
    return [_pscale(r, b) for b, r in enumerate(rows)][1:]


def _bp_divexact(p, q):
    """p / q in Z[x][y] (q nonzero); raises unless the quotient is there."""
    r = list(p)
    out = [[]] * max(len(r) - len(q) + 1, 0)
    while len(r) >= len(q):
        c, d = _pdivexact(r[-1], q[-1]), len(r) - len(q)
        out[d] = c
        for i, s in enumerate(q):
            r[i + d] = _psub(r[i + d], _pmul(c, s))
        r = _pnorm(r)
    if r:
        raise ArithmeticError("bivariate division was not exact")
    return out


def _reduced(rows, den):
    """Canonical (rows, den): no trailing empty row, den > 0 in lowest terms."""
    rows = _pnorm(rows)
    g = math.gcd(den, *(v for r in rows for v in r)) if den != 1 else 1
    if g > 1:
        rows, den = [[v // g for v in r] for r in rows], den // g
    return rows, den


def _rows_of_terms(terms):
    """(rows, den) of [degx, degy, value] terms; repeats add up."""
    table = {}
    for term in terms:
        dx, dy, v = term
        for d in (dx, dy):
            if isinstance(d, bool) or not isinstance(d, numbers.Integral) \
                    or not 0 <= d <= MAX_DEGREE:
                raise ValueError(f"degree {d!r} in the term {list(term)!r} "
                                 f"is not an integer in 0..{MAX_DEGREE}")
        table[dx, dy] = table.get((dx, dy), 0) + rat(v)
    den = math.lcm(*(v.denominator for v in table.values()))
    rows = []
    for (dx, dy), v in table.items():
        rows += [[] for _ in range(dy + 1 - len(rows))]
        rows[dy] += [0] * (dx + 1 - len(rows[dy]))
        rows[dy][dx] = v.numerator * (den // v.denominator)
    return [_pnorm(r) for r in rows], den


def _transpose(rows):
    """The rows of the same polynomial in the other variable."""
    width = max(map(len, rows), default=0)
    return [_pnorm([r[a] if a < len(r) else 0 for r in rows])
            for a in range(width)]


def _rows_in(F, var):
    """F as a polynomial in var: its y-rows, or for 'x' their transpose."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    return F.rows if var == "y" else _transpose(F.rows)


class BivariatePolynomial:
    """Exact polynomial in Q[x][y]: integer y-rows over one denominator.

    rows[b] is the ascending int list in x of den times the coefficient
    of y^b, without trailing zeros; the list of rows has no trailing
    empty row, and den > 0 has no factor common to every coefficient.
    BivariatePolynomial({(degx, degy): value}) builds one from its terms.
    The variables are positional; curves use (x, y) = (lambda, S),
    profile relations use (x, y) = (m, v).
    """

    __slots__ = ("rows", "den")

    def __init__(self, coeffs):
        self.rows, self.den = _reduced(*_rows_of_terms(
            [dx, dy, v] for (dx, dy), v in coeffs.items()))

    @classmethod
    def _of_rows(cls, rows, den=1):
        """Wrap integer y-rows (each without trailing zeros) over den > 0."""
        out = cls.__new__(cls)
        out.rows, out.den = _reduced(rows, den)
        return out

    @classmethod
    def from_entries(cls, entries):
        """[[degx, degy, value], ...], degrees <= MAX_DEGREE, p/q values ok."""
        return cls._of_rows(*_rows_of_terms(entries))

    def terms(self):
        """The nonzero terms as a {(degx, degy): Fraction} table."""
        return {(dx, dy): Fraction(v, self.den)
                for dy, row in enumerate(self.rows)
                for dx, v in enumerate(row) if v}

    def to_entries(self):
        return [[dx, dy, str(v)] for (dx, dy), v in sorted(self.terms().items())]

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.rows

    def degree(self, var):
        return len(_rows_in(self, var)) - 1

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other, op):
        den = math.lcm(self.den, other.den)
        return BivariatePolynomial._of_rows(
            op(_bp_scale(self.rows, den // self.den),
               _bp_scale(other.rows, den // other.den)), den)

    def __add__(self, other):
        return self._combine(other, _bp_add)

    def __sub__(self, other):
        return self._combine(other, _bp_sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariatePolynomial._of_rows(
                _bp_scale(self.rows, other.numerator),
                self.den * other.denominator)
        return BivariatePolynomial._of_rows(
            _bp_mul(self.rows, other.rows), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and \
            self.rows == other.rows and self.den == other.den

    def __hash__(self):
        return hash((tuple(map(tuple, self.rows)), self.den))

    def evaluate(self, x, y):
        """Horner in y, then x; works for complex and exact arguments."""
        acc = 0j if isinstance(x, complex) or isinstance(y, complex) else Fraction(0)
        for row in reversed(self.rows):
            acc = acc * y + _peval(row, x, self.den)
        return acc

    # -- normalization ---------------------------------------------------

    def normalized(self):
        """The content over Z[x], then over Z[y], divided out (monomial
        factors x^a y^b with it), integer coefficients with gcd 1 and a
        positive coefficient on the lex-largest (degy, degx) monomial."""
        if self.is_zero:
            return self
        rows = _transpose(_primitive(_transpose(_primitive(self.rows))))
        return BivariatePolynomial._of_rows(
            _bp_scale(rows, -1) if rows[-1][-1] < 0 else rows)

    def proportional_to(self, other) -> bool:
        """True when self = c * other for some nonzero rational c."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return _bp_scale(self.rows, other.rows[-1][-1]) == \
            _bp_scale(other.rows, self.rows[-1][-1])

    def pretty(self, xname="x", yname="y"):
        if self.is_zero:
            return "0"
        bits = []
        for (dx, dy), v in sorted(self.terms().items(),
                                  key=lambda kv: (-kv[0][1], -kv[0][0])):
            mono = "".join(
                f"{n}^{d}" if d > 1 else (n if d == 1 else "")
                for n, d in ((xname, dx), (yname, dy)))
            coeff = str(v) if (abs(v) != 1 or not mono) else ("-" if v < 0 else "")
            bits.append(f"{coeff}{'*' if coeff not in ('', '-') and mono else ''}{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"BivariatePolynomial({self.pretty()})"


# ---------------------------------------------------------------------------
# resultants: Sylvester matrix + Bareiss over Z[x]
# ---------------------------------------------------------------------------

def _bareiss_det(m):
    """Fraction-free determinant of a nonempty matrix over Z[x]."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = _psub(_pmul(m[i][j], m[k][k]), _pmul(m[i][k], m[k][j]))
                m[i][j] = _pdivexact(t, prev) if k and t else t
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return _pscale(det, -1) if sign < 0 else det


def _sylvester_resultant(p, q):
    """res(p, q) of coefficient lists (ascending) over Z[x]."""
    p, q = _pnorm(p), _pnorm(q)
    if not p or not q:
        raise ValueError("resultant of the zero polynomial")
    m, n = len(p) - 1, len(q) - 1
    if m == 0 and n == 0:
        raise ValueError("both polynomials are constant in the eliminated variable")
    size = m + n
    rows = []
    pd = list(reversed(p))  # descending
    qd = list(reversed(q))
    for i in range(n):
        rows.append([[]] * i + pd + [[]] * (size - m - 1 - i))
    for i in range(m):
        rows.append([[]] * i + qd + [[]] * (size - n - 1 - i))
    return _bareiss_det(rows)


def resultant(P: BivariatePolynomial, Q: BivariatePolynomial, eliminate: str):
    """res of two bivariate polynomials, eliminating 'x' or 'y'.

    Returns the univariate coefficient list (ascending, Fractions) in the
    surviving variable.  Errors if both inputs are constant in the
    eliminated variable or either is zero.
    """
    p, q = _rows_in(P, eliminate), _rows_in(Q, eliminate)
    res = _sylvester_resultant(p, q)
    scale = P.den ** (len(q) - 1) * Q.den ** (len(p) - 1)
    return [Fraction(c, scale) for c in res]


def discriminant(F: BivariatePolynomial, var: str = "y"):
    """Discriminant of F with respect to var, classical normalization.

    disc = (-1)^(n(n-1)/2) res(F, dF/dvar) / lc, an exact univariate
    coefficient list in the other variable; n = deg_var F >= 1 required.
    """
    rows = _rows_in(F, var)
    n = len(rows) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1 in the variable")
    out = _pdivexact(_sylvester_resultant(rows, _bp_dy(rows)), rows[-1])
    scale = F.den ** (2 * n - 2) * (-1) ** (n * (n - 1) // 2)
    return [Fraction(c, scale) for c in out]


# ---------------------------------------------------------------------------
# real roots: Sturm isolation + bisection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootInterval:
    """An isolating interval [lo, hi] for one real root, width <= 1e-12."""

    lo: Fraction
    hi: Fraction

    @property
    def midpoint(self) -> float:
        return float((self.lo + self.hi) / 2)

    @property
    def width(self) -> float:
        return float(self.hi - self.lo)


def _sturm_chain(p):
    """Positive multiples of the Sturm chain p, p', -rem, ... (deg p >= 1)."""
    chain = [p, _pprimitive(_pderiv(p))]
    while len(chain[-1]) > 1:
        r = _pprem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_pprimitive(_pscale(r, -1)))
    return chain


def _sign_at(p, u, v):
    """The sign of p at the rational u/v, v > 0, from sum c_i u^i v^(n - i)."""
    acc, w = 0, 1
    for c in reversed(p):
        acc = acc * u + c * w
        w *= v
    return (acc > 0) - (acc < 0)


def _variations(chain, x):
    u, v = x.numerator, x.denominator
    signs = [s for s in (_sign_at(p, u, v) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


_WIDTH = 10 ** 12     # isolating intervals are refined to width 1/_WIDTH


def _bisect_root(pf, lo, hi):
    """Shrink a sign-changing bracket to width 1e-12 (exact rational ends).

    The ends are a/q and b/q over one integer denominator q, and each
    halving doubles q, so every midpoint is the exact rational
    (lo + hi)/2 with no Fraction arithmetic; the ends become Fractions
    once, at the end.
    """
    q = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    slo = _sign_at(pf, a, q)
    while (b - a) * _WIDTH > q:
        mid, q = a + b, 2 * q                # the midpoint (a + b) / 2q
        s = _sign_at(pf, mid, q)
        if s == 0:
            return RootInterval(Fraction(mid, q), Fraction(mid, q))
        a, b = (mid, 2 * b) if s == slo else (2 * a, mid)
    return RootInterval(Fraction(a, q), Fraction(b, q))


def real_roots(p) -> list:
    """Isolating intervals (refined to width 1e-12) for all real roots.

    p: coefficient sequence, ascending degree; entries anything rat()
    accepts.  Roots are reported once each regardless of multiplicity
    (isolation runs on the squarefree part), sorted increasing.
    """
    p = _pnorm([rat(c) for c in p])
    if not p:
        raise ValueError("real_roots of the zero polynomial")
    den = math.lcm(*(c.denominator for c in p))
    p = [c.numerator * (den // c.denominator) for c in p]
    pf = _pprimitive(_pdivexact(p, _pgcd(p, _pderiv(p)))) if len(p) > 1 else []
    roots = []
    if not pf:
        return roots
    if pf[0] == 0:  # squarefree, so x divides exactly once
        roots.append(RootInterval(Fraction(0), Fraction(0)))
        pf = pf[1:]
    if len(pf) < 2:
        return roots
    bound = 1 + Fraction(max(abs(c) for c in pf[:-1]), abs(pf[-1]))
    chain = _sturm_chain(pf)

    def probe(lo, hi):
        for k in range(1, len(pf) + 2):
            x = lo + (hi - lo) * Fraction(k, 2 * k + 1)
            if _sign_at(pf, x.numerator, x.denominator) != 0:
                return x
        raise AssertionError("could not find a non-root probe point")

    stack = [(-bound, bound,
              _variations(chain, -bound) - _variations(chain, bound))]
    while stack:
        lo, hi, count = stack.pop()
        if count <= 0:
            continue
        if count == 1:
            roots.append(_bisect_root(pf, lo, hi))
            continue
        mid = probe(lo, hi)
        left = _variations(chain, lo) - _variations(chain, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    roots.sort(key=lambda r: r.midpoint)
    return roots


# ---------------------------------------------------------------------------
# numerical curve certification
# ---------------------------------------------------------------------------

def verify_curve(F: BivariatePolynomial, kern: Kernel, sample_lambdas) -> float:
    """Max normalized residual |F(lam, S(lam))| over the sample points.

    S comes from the color fixed-point solver: solved in place where
    |lam| >= 2A, as on the circle of certificate_radius, else continued
    down from the point's cruise point x + 2A*i.  The residual at each
    point is divided by max(1, |lc_y F(lam)|) so that a curve that is
    simply wrong scores O(1) rather than being excused by a huge leading
    coefficient.  That changes with scale, so scored_curve(F) is scored.
    Sample points must satisfy Im(lam) != 0 or |lam| > 2A.
    """
    from .colorsolve import stieltjes_path

    F = scored_curve(F)
    lams = [complex(z) for z in sample_lambdas]
    if not lams:
        raise ValueError("no sample points")
    S = [sol.stieltjes for sol in stieltjes_path(kern, lams)]
    return _curve_residual(F, lams, S)


def scored_curve(F: BivariatePolynomial) -> BivariatePolynomial:
    """F.normalized(): its scale fixed, and its factors in lambda alone or
    S alone, which no nonconstant S(lambda) zeroes, divided out.  Below
    S-degree 1 it says nothing about S, and ValueError names it."""
    G = F.normalized()
    if G.degree("y") < 1:
        raise ValueError(f"the curve {F.pretty('lambda', 'S')!r} normalizes "
                         f"to {G.pretty('lambda', 'S')!r}, which does not "
                         "involve S")
    return G


def certificate_radius(kern: Kernel) -> float:
    """max(10, 2.5A): the radius of the circle a curve is certified on."""
    return max(10.0, 2.5 * kern.amplitude())


def _curve_residual(F, lams, S):
    """max |F(lam, S)| / max(1, |lc_y F(lam)|) over the solved points."""
    lead = F.rows[-1] if F.rows else []
    return max(abs(F.evaluate(lam, s)) / max(1.0, abs(_peval(lead, lam, F.den)))
               for lam, s in zip(lams, S))


# ---------------------------------------------------------------------------
# squarefree decomposition in Z[x][y]
# ---------------------------------------------------------------------------

def _prem(a, b):
    """Pseudo-remainder of a by b, both as y-rows over Z[x] (b nonzero)."""
    while len(a) >= len(b):
        lead, d = a[-1], len(a) - len(b)
        a = [_pmul(r, b[-1]) for r in a]
        for i, r in enumerate(b):
            a[i + d] = _psub(a[i + d], _pmul(lead, r))
        a = _pnorm(a)
    return a


def _bp_gcd(p, q):
    """Primitive gcd of two y-row lists in Z[x][y], up to its sign.

    Brown's primitive pseudo-remainder sequence: by Gauss's lemma every
    step stays in Z[x][y] and no quotient field is needed.
    """
    a, b = _primitive(p), _primitive(q)
    while len(b) > 1:
        a, b = b, _primitive(_prem(a, b))
    return b or a


def _squarefree_factors(f):
    """Yun's decomposition of f in Z[x][y], deg_y f >= 1.

    Returns [(factor, multiplicity)] with primitive factors of positive
    y-degree.  Every division is exact in Z[x][y] because the gcds are
    primitive.
    """
    df = _bp_dy(f.rows)
    g = _bp_gcd(f.rows, df)
    b = _bp_divexact(f.rows, g)
    d = _bp_sub(_bp_divexact(df, g), _bp_dy(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _bp_gcd(b, d)
        if len(a) > 1:
            out.append((BivariatePolynomial._of_rows(a), i))
        b = _bp_divexact(b, a)
        d = _bp_sub(_bp_divexact(d, a), _bp_dy(b))
        i += 1
    return out


# ---------------------------------------------------------------------------
# rank-one elimination
# ---------------------------------------------------------------------------

_U = [[-1], [0, 1]]  # u = lambda*S - 1 as y-rows in (lambda, S)


def _norm_over_w(g):
    """res_w(w^2 - u, G) for G = sum_k g[k] w^k, g[k] y-rows in (lambda, S).

    w^2 - u is monic with roots +-r, r^2 = u, so by the product formula
    the resultant is G(r) G(-r).  With A = sum_j g[2j] u^j and
    B = sum_j g[2j+1] u^j (Horner in u), G(+-r) = A +- r B, and the
    resultant is the norm A^2 - u B^2: integer rows, no determinant.
    """
    def horner(coeffs):
        acc = []
        for c in reversed(coeffs):
            acc = _bp_add(_bp_mul(acc, _U), c)
        return acc

    A, B = horner(g[0::2]), horner(g[1::2])
    return _bp_sub(_bp_mul(A, A), _bp_mul(_U, _bp_mul(B, B)))


def checked_relation(sf) -> BivariatePolynomial:
    """sf, if it is a relation R(m, v) that involves v = S_f; else
    TypeError, or ValueError naming what it lacks."""
    if not isinstance(sf, BivariatePolynomial):
        raise TypeError("sf must be a BivariatePolynomial relation R(m, v)")
    if sf.degree("y") < 1:
        raise ValueError("the relation does not involve S_f")
    return sf


def rank_one_eliminate(sf, kern: Kernel,
                       certificate: dict = None) -> BivariatePolynomial:
    """Algebraic curve F(lambda, S) = 0 for a rank-one kernel s = f (x) f.

    sf is a BivariatePolynomial relation R(m, v) = 0 satisfied by the
    Stieltjes transform v = S_f(m) of the profile distribution mu_f
    (variables (x, y) = (m, v)); a rational S_f = num/den is the relation
    v*den(m) - num(m).

    The master identity lambda*S = 1 + w^2 = (lambda/w) S_f(lambda/w)
    turns R into a polynomial G(lambda, S, w) via m = lambda/w and
    v = S*w; eliminating w against E = 1 + w^2 - lambda*S by the norm
    A^2 - u B^2, u = lambda*S - 1 (their resultant, see _norm_over_w),
    and splitting the result into squarefree factors in Z[lambda][S]
    yields candidate curves.  Monomials and content are stripped first;
    factors whose residual is not below CERTIFICATE_TOL are discarded;
    surviving factors (their product, if several) are returned
    normalized.  kern is the kernel to certify against; a collapse or an
    empty survivor set raises with the offending factorization in the
    message.

    S is solved once, at 12 points on |lambda| = certificate_radius(kern),
    and every factor is scored there; a dict passed as certificate
    receives the returned curve's residual and the circle ("residual",
    "samples", "radius").
    """
    checked_relation(sf)

    # m = lambda/w, cleared by w^deg_m; then v = S*w:
    # m^a v^b  ->  lambda^a * S^b * w^(D - a + b).  The lowest power of w
    # only feeds the spurious w = 0 branch, so it is divided out.  The
    # denominator of sf only scales the result, which is normalized below.
    D = sf.degree("x")
    by_w = {}
    for b, row in enumerate(sf.rows):
        for a, c in enumerate(row):
            if c:
                by_w.setdefault(D - a + b, {})[(a, b)] = c
    g = [BivariatePolynomial(by_w.get(dw, {})).rows
         for dw in range(min(by_w), max(by_w) + 1)]
    stripped = BivariatePolynomial._of_rows(_norm_over_w(g)).normalized()
    if stripped.is_zero or stripped.degree("y") < 1:
        raise RuntimeError(
            "elimination collapsed: resultant reduced to "
            f"{stripped.pretty('lambda', 'S')!r}")

    # The point w = 0, S = 1/lambda solves E = 1 + w^2 - lambda*S no matter
    # what the profile relation says, so the resultant routinely carries
    # powers of (lambda*S - 1) that certify nothing.  Divide them out
    # exactly; anything else spurious is caught by the certificate below.
    while True:
        try:
            quotient = _bp_divexact(stripped.rows, _U)
        except ArithmeticError:
            break
        if len(quotient) < 2:
            break
        stripped = BivariatePolynomial._of_rows(quotient).normalized()

    candidates = [(fac.normalized(), mult)
                  for fac, mult in _squarefree_factors(stripped)]

    from .colorsolve import circle_points, stieltjes_path

    radius = certificate_radius(kern)
    lams = [complex(z) for z in circle_points(radius, 12)]
    S = [sol.stieltjes for sol in stieltjes_path(kern, lams)]
    survivors = []
    rejected = []
    for bp, mult in candidates:
        res = _curve_residual(bp, lams, S)
        if res < CERTIFICATE_TOL:
            survivors.append(bp)
        else:
            rejected.append((bp, mult, res))
    if not survivors:
        raise RuntimeError(
            "no elimination factor passed certification; tried: "
            + "; ".join(f"({f.pretty('lambda', 'S')})^{m} residual={r:.3e}"
                        for f, m, r in rejected))
    out = survivors[0]
    for extra in survivors[1:]:
        out = out * extra
    out = out.normalized()
    if certificate is not None:
        certificate.update(residual=_curve_residual(out, lams, S),
                           samples=len(lams), radius=radius)
    return out
