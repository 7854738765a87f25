"""Exact polynomial algebra for algebraic Stieltjes transforms.

Everything here runs over exact rationals, in one dense representation.
A univariate polynomial is an ascending list of Fractions, [] for zero.
A BivariatePolynomial is an element of Q[x][y] stored as its y-rows:
rows[b] is the univariate polynomial in x that multiplies y^b.  No row
and no list of rows ends in a zero, so equal polynomials have equal rows.
Gcds, pseudo-remainders and exact divisions run on the rows directly;
eliminating x instead of y transposes them once.  The module provides

* Sylvester resultants (Bareiss fraction-free determinants, generic over
  the coefficient ring, so the same engine eliminates a variable from
  polynomials whose coefficients are themselves polynomials);
* discriminants with the classical sign (-1)^(n(n-1)/2) res(F, F') / lc;
* real-root isolation by Sturm sequences + bisection;
* numerical certification of a candidate curve F(lambda, S(lambda)) = 0
  against the fixed-point solver;
* the rank-one elimination pipeline: from a polynomial relation
  R(m, S_f(m)) = 0 for the transform of the profile distribution to the
  algebraic curve satisfied by the limit Stieltjes transform, via the
  master identity lambda*S = 1 + w^2 = (lambda/w) S_f(lambda/w), with
  Yun's squarefree split in Q[lambda][S].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .exactnum import rat
from .kernel import Kernel

__all__ = [
    "BivariatePolynomial",
    "RootInterval",
    "resultant",
    "auxiliary_resultant",
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
# univariate polynomials: lists of Fractions, index = degree, [] = 0
# ---------------------------------------------------------------------------

def _pnorm(p):
    """Drop trailing zeros (zero coefficients, or empty rows)."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _pdeg(p):
    return len(p) - 1


def _padd(p, q):
    return _pnorm([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def _psub(p, q):
    return _pnorm([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _pnorm(out)


def _pscale(p, c):
    if c == 0:
        return []
    return [a * c for a in p]


def _pdivmod(p, q):
    """Exact field division with remainder over Q."""
    q = _pnorm(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = _pnorm(p)
    quo = [Fraction(0)] * max(len(r) - len(q) + 1, 0)
    while len(r) >= len(q):
        c = r[-1] / q[-1]
        d = len(r) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            r[i + d] -= c * b
        r = _pnorm(r)
    return _pnorm(quo), r


def _pdivexact(p, q):
    quo, rem = _pdivmod(p, q)
    if rem:
        raise ArithmeticError("polynomial division was not exact")
    return quo


def _pgcd(p, q):
    """Monic gcd over Q."""
    a, b = _pnorm(p), _pnorm(q)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _pderiv(p):
    return _pnorm([i * c for i, c in enumerate(p)][1:])


def _peval(p, x):
    acc = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
    for c in reversed(p):
        acc = acc * x + (c if not isinstance(x, complex) else complex(c))
    return acc


def _pcontent(polys):
    """Monic gcd of a family of univariate polynomials."""
    g = []
    for p in polys:
        g = _pgcd(g, p)
        if g == [Fraction(1)]:
            break
    return g


def _primitive(rows):
    """rows divided by their content (the monic gcd of all of them)."""
    g = _pcontent(rows)
    return rows if len(g) < 2 else [_pdivexact(r, g) for r in rows]


# ---------------------------------------------------------------------------
# bivariate polynomials: dense y-rows over Q[x]
# ---------------------------------------------------------------------------

def _rows_of_terms(terms):
    """Canonical y-rows of [degx, degy, value] terms; repeats add up."""
    rows = []
    for term in terms:
        dx, dy, v = term
        for d in (dx, dy):
            if not isinstance(d, numbers.Integral) or not 0 <= d <= MAX_DEGREE:
                raise ValueError(f"degree {d!r} in the term {list(term)!r} "
                                 f"is not an integer in 0..{MAX_DEGREE}")
        rows += [[] for _ in range(dy + 1 - len(rows))]
        row = rows[dy]
        row += [Fraction(0)] * (dx + 1 - len(row))
        row[dx] += rat(v)
    return _pnorm([_pnorm(row) for row in rows])


def _transpose(rows):
    """The rows of the same polynomial in the other variable."""
    width = max(map(len, rows), default=0)
    return [_pnorm([r[a] if a < len(r) else Fraction(0) for r in rows])
            for a in range(width)]


def _rows_in(F, var):
    """F as a polynomial in var: its y-rows, or for 'x' their transpose."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    return F.rows if var == "y" else _transpose(F.rows)


class BivariatePolynomial:
    """Exact polynomial in Q[x][y], stored as its canonical dense y-rows.

    rows[b] is the ascending Fraction list in x of the coefficient of
    y^b, without trailing zeros, and the list of rows has no trailing
    empty row.  BivariatePolynomial({(degx, degy): value}) builds one
    from its terms.  The variables are positional; curves use
    (x, y) = (lambda, S), profile relations use (x, y) = (m, v).
    """

    __slots__ = ("rows",)

    def __init__(self, coeffs):
        self.rows = _rows_of_terms(
            [dx, dy, v] for (dx, dy), v in coeffs.items())

    @classmethod
    def _of_rows(cls, rows):
        """Wrap y-rows whose rows are each already without trailing zeros."""
        out = cls.__new__(cls)
        out.rows = _pnorm(rows)
        return out

    @classmethod
    def from_entries(cls, entries):
        """[[degx, degy, value], ...], degrees <= MAX_DEGREE, p/q values ok."""
        return cls._of_rows(_rows_of_terms(entries))

    @classmethod
    def constant(cls, v):
        return cls({(0, 0): v})

    def terms(self):
        """The nonzero terms as a {(degx, degy): Fraction} table."""
        return {(dx, dy): v for dy, row in enumerate(self.rows)
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

    def __add__(self, other):
        return BivariatePolynomial._of_rows([
            _padd(a, b)
            for a, b in zip_longest(self.rows, other.rows, fillvalue=[])])

    def __sub__(self, other):
        return BivariatePolynomial._of_rows([
            _psub(a, b)
            for a, b in zip_longest(self.rows, other.rows, fillvalue=[])])

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariatePolynomial._of_rows(
                [_pscale(r, other) for r in self.rows])
        out = [[]] * max(len(self.rows) + len(other.rows) - 1, 0)
        for i, a in enumerate(self.rows):
            for j, b in enumerate(other.rows):
                out[i + j] = _padd(out[i + j], _pmul(a, b))
        return BivariatePolynomial._of_rows(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and \
            self.rows == other.rows

    def __hash__(self):
        return hash(tuple(map(tuple, self.rows)))

    def evaluate(self, x, y):
        """Horner in y, then x; works for complex and exact arguments."""
        acc = 0j if isinstance(x, complex) or isinstance(y, complex) else Fraction(0)
        for row in reversed(self.rows):
            acc = acc * y + _peval(row, x)
        return acc

    # -- normalization ---------------------------------------------------

    def normalized(self):
        """The content over Q[x], then over Q[y], divided out (monomial
        factors x^a y^b with it), integer coefficients with gcd 1 and a
        positive coefficient on the lex-largest (degy, degx) monomial."""
        if self.is_zero:
            return self
        rows = _transpose(_primitive(_transpose(_primitive(self.rows))))
        coeffs = [v for row in rows for v in row]
        den = math.lcm(*(v.denominator for v in coeffs))
        scale = Fraction(den, math.gcd(
            *(v.numerator * (den // v.denominator) for v in coeffs)))
        if rows[-1][-1] < 0:
            scale = -scale
        return BivariatePolynomial._of_rows([_pscale(r, scale) for r in rows])

    def proportional_to(self, other) -> bool:
        """True when self = c * other for some nonzero rational c."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self == other * (self.rows[-1][-1] / other.rows[-1][-1])

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
# resultants: Sylvester matrix + Bareiss, generic over the entry ring
# ---------------------------------------------------------------------------

class _Ring:
    """Minimal integral-domain interface for the Bareiss elimination."""

    def __init__(self, zero, one, add, sub, mul, divexact, is_zero):
        self.zero, self.one = zero, one
        self.add, self.sub, self.mul = add, sub, mul
        self.divexact, self.is_zero = divexact, is_zero


_UNI_RING = _Ring(
    zero=[], one=[Fraction(1)],
    add=_padd, sub=_psub, mul=_pmul, divexact=_pdivexact,
    is_zero=lambda p: not p)

_BP_ZERO = BivariatePolynomial({})
_BP_ONE = BivariatePolynomial.constant(1)


def _bp_divexact(p, q):
    """Exact division in Q[x][y] (raises if not exact)."""
    if q.is_zero:
        raise ZeroDivisionError("bivariate division by zero")
    r, b = list(p.rows), q.rows
    out = [[]] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, d = _pdivexact(r[-1], b[-1]), len(r) - len(b)
        out[d] = c
        for i, s in enumerate(b):
            r[i + d] = _psub(r[i + d], _pmul(c, s))
        r = _pnorm(r)
    if r:
        raise ArithmeticError("bivariate division was not exact")
    return BivariatePolynomial._of_rows(out)


_BP_RING = _Ring(
    zero=_BP_ZERO, one=_BP_ONE,
    add=lambda a, b: a + b, sub=lambda a, b: a - b, mul=lambda a, b: a * b,
    divexact=_bp_divexact, is_zero=lambda p: p.is_zero)


def _bareiss_det(m, ring):
    """Fraction-free determinant over an integral domain."""
    n = len(m)
    if n == 0:
        return ring.one
    m = [row[:] for row in m]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if ring.is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not ring.is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = ring.sub(ring.mul(m[i][j], m[k][k]),
                             ring.mul(m[i][k], m[k][j]))
                m[i][j] = ring.divexact(t, prev)
            m[i][k] = ring.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = ring.sub(ring.zero, det)
    return det


def _sylvester_resultant(p, q, ring):
    """res(p, q) of coefficient lists (ascending) over the given ring."""
    p = list(p)
    q = list(q)
    while p and ring.is_zero(p[-1]):
        p.pop()
    while q and ring.is_zero(q[-1]):
        q.pop()
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
        rows.append([ring.zero] * i + pd + [ring.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([ring.zero] * i + qd + [ring.zero] * (size - n - 1 - i))
    return _bareiss_det(rows, ring)


def resultant(P: BivariatePolynomial, Q: BivariatePolynomial, eliminate: str):
    """res of two bivariate polynomials, eliminating 'x' or 'y'.

    Returns the univariate coefficient list (ascending, Fractions) in the
    surviving variable.  Errors if both inputs are constant in the
    eliminated variable or either is zero.
    """
    return _pnorm(_sylvester_resultant(
        _rows_in(P, eliminate), _rows_in(Q, eliminate), _UNI_RING))


def auxiliary_resultant(p, q) -> BivariatePolynomial:
    """res over an auxiliary variable whose coefficients are bivariate.

    p, q: coefficient lists (ascending in the auxiliary variable) whose
    entries are BivariatePolynomials or rationals.  This is the engine
    behind the w-elimination: three variables total, one eliminated.
    """
    def coerce(c):
        return c if isinstance(c, BivariatePolynomial) \
            else BivariatePolynomial.constant(c)
    return _sylvester_resultant(
        [coerce(c) for c in p], [coerce(c) for c in q], _BP_RING)


def discriminant(F: BivariatePolynomial, var: str = "y"):
    """Discriminant of F with respect to var, classical normalization.

    disc = (-1)^(n(n-1)/2) res(F, dF/dvar) / lc, an exact univariate
    coefficient list in the other variable; n = deg_var F >= 1 required.
    """
    rows = _rows_in(F, var)
    n = len(rows) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1 in the variable")
    deriv = [_pscale(r, i) for i, r in enumerate(rows)][1:]
    out = _pdivexact(_sylvester_resultant(rows, deriv, _UNI_RING), rows[-1])
    if (n * (n - 1) // 2) % 2:
        out = _pscale(out, -1)
    return out
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
    chain = [_pnorm(p), _pderiv(p)]
    while chain[-1] and _pdeg(chain[-1]) > 0:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_pscale(r, -1))
    if not chain[-1]:
        chain.pop()
    return chain


def _variations(chain, x):
    signs = []
    for p in chain:
        v = _peval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


_WIDTH = Fraction(1, 10 ** 12)


def _bisect_root(pf, lo, hi):
    """Shrink a sign-changing bracket to width 1e-12 (exact rational ends)."""
    flo = _peval(pf, lo)
    while hi - lo > _WIDTH:
        mid = (lo + hi) / 2
        v = _peval(pf, mid)
        if v == 0:
            return RootInterval(mid, mid)
        if (v > 0) == (flo > 0):
            lo, flo = mid, v
        else:
            hi = mid
    return RootInterval(lo, hi)


def real_roots(p) -> list:
    """Isolating intervals (refined to width 1e-12) for all real roots.

    p: coefficient sequence, ascending degree; entries anything rat()
    accepts.  Roots are reported once each regardless of multiplicity
    (isolation runs on the squarefree part), sorted increasing.
    """
    p = _pnorm([rat(c) for c in p])
    if not p:
        raise ValueError("real_roots of the zero polynomial")
    pf = _pdivexact(p, _pgcd(p, _pderiv(p))) if _pdeg(p) > 0 else []
    roots = []
    if not pf:
        return roots
    if pf[0] == 0:  # squarefree, so x divides exactly once
        roots.append(RootInterval(Fraction(0), Fraction(0)))
        pf = pf[1:]
    if _pdeg(pf) < 1:
        return roots
    bound = 1 + max(abs(c) for c in pf[:-1]) / abs(pf[-1])
    chain = _sturm_chain(pf)

    def probe(lo, hi):
        for k in range(1, _pdeg(pf) + 3):
            x = lo + (hi - lo) * Fraction(k, 2 * k + 1)
            if _peval(pf, x) != 0:
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

    S comes from the color fixed-point solver (continued down from each
    point's cruise point x + 4A*i).  The residual at each point is divided by
    max(1, |lc_y F(lam)|) so that a curve that is simply wrong scores
    O(1) rather than being excused by a huge leading coefficient.
    Sample points must satisfy Im(lam) != 0 or |lam| > 2A.
    """
    from .colorsolve import stieltjes_path

    lams = [complex(z) for z in sample_lambdas]
    if not lams:
        raise ValueError("no sample points")
    S = [sol.stieltjes for sol in stieltjes_path(kern, lams)]
    return _curve_residual(F, lams, S)


def certificate_radius(kern: Kernel) -> float:
    """max(10, 2.5A): the radius of the circle a curve is certified on."""
    return max(10.0, 2.5 * kern.amplitude())


def _curve_residual(F, lams, S):
    """max |F(lam, S)| / max(1, |lc_y F(lam)|) over the solved points."""
    lead = F.rows[-1] if F.rows else []
    return max(abs(F.evaluate(lam, s)) / max(1.0, abs(_peval(lead, lam)))
               for lam, s in zip(lams, S))


# ---------------------------------------------------------------------------
# squarefree decomposition in Q[x][y]
# ---------------------------------------------------------------------------

def _prem(a, b):
    """Pseudo-remainder of a by b, both as y-rows over Q[x] (b nonzero)."""
    while len(a) >= len(b):
        lead, d = a[-1], len(a) - len(b)
        a = [_pmul(r, b[-1]) for r in a]
        for i, r in enumerate(b):
            a[i + d] = _psub(a[i + d], _pmul(lead, r))
        a = _pnorm(a)
    return a


def _bp_gcd(p, q):
    """Primitive gcd in Q[x][y], up to a rational factor.

    Brown's primitive pseudo-remainder sequence on the y-rows: by Gauss's
    lemma every step stays in Q[x][y] and no quotient field is needed.
    """
    a, b = _primitive(p.rows), _primitive(q.rows)
    while len(b) > 1:
        a, b = b, _primitive(_prem(a, b))
    return BivariatePolynomial._of_rows(b or a)


def _bp_dy(p):
    return BivariatePolynomial._of_rows(
        [_pscale(r, b) for b, r in enumerate(p.rows)][1:])


def _squarefree_factors(f):
    """Yun's decomposition of f in Q[x][y], deg_y f >= 1.

    Returns [(factor, multiplicity)] with primitive factors of positive
    y-degree.  Every division is exact in Q[x][y] because the gcds are
    primitive.
    """
    df = _bp_dy(f)
    g = _bp_gcd(f, df)
    b = _bp_divexact(f, g)
    d = _bp_divexact(df, g) - _bp_dy(b)
    out = []
    i = 1
    while b.degree("y") > 0:
        a = _bp_gcd(b, d)
        if a.degree("y") > 0:
            out.append((a, i))
        b = _bp_divexact(b, a)
        d = _bp_divexact(d, a) - _bp_dy(b)
        i += 1
    return out


# ---------------------------------------------------------------------------
# rank-one elimination
# ---------------------------------------------------------------------------

def rank_one_eliminate(sf, kern: Kernel,
                       certificate: dict = None) -> BivariatePolynomial:
    """Algebraic curve F(lambda, S) = 0 for a rank-one kernel s = f (x) f.

    sf is a BivariatePolynomial relation R(m, v) = 0 satisfied by the
    Stieltjes transform v = S_f(m) of the profile distribution mu_f
    (variables (x, y) = (m, v)); a rational S_f = num/den is the relation
    v*den(m) - num(m).

    The master identity lambda*S = 1 + w^2 = (lambda/w) S_f(lambda/w)
    turns R into a polynomial G(lambda, S, w) via m = lambda/w and
    v = S*w; eliminating w against E = 1 + w^2 - lambda*S by resultant
    and splitting the result into squarefree factors in Q[lambda][S]
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
    if not isinstance(sf, BivariatePolynomial):
        raise TypeError("sf must be a BivariatePolynomial relation R(m, v)")
    if sf.degree("y") < 1:
        raise ValueError("the relation does not involve S_f")

    # m = lambda/w, cleared by w^deg_m; then v = S*w:
    # m^a v^b  ->  lambda^a * S^b * w^(D - a + b).  The lowest power of w
    # only feeds the spurious w = 0 branch, so it is divided out.
    D = sf.degree("x")
    by_w = {}
    for (a, b), c in sf.terms().items():
        by_w.setdefault(D - a + b, {})[(a, b)] = c
    g_coeffs = [BivariatePolynomial(by_w.get(dw, {}))
                for dw in range(min(by_w), max(by_w) + 1)]

    if len(g_coeffs) == 1:
        eliminated = g_coeffs[0]
    else:
        master = [
            BivariatePolynomial({(0, 0): 1, (1, 1): -1}),
            _BP_ZERO,
            _BP_ONE,
        ]  # 1 - lambda*S + w^2
        eliminated = auxiliary_resultant(master, g_coeffs)

    stripped = eliminated.normalized()
    if stripped.is_zero or stripped.degree("y") < 1:
        raise RuntimeError(
            "elimination collapsed: resultant reduced to "
            f"{stripped.pretty('lambda', 'S')!r}")

    # The point w = 0, S = 1/lambda solves E = 1 + w^2 - lambda*S no matter
    # what the profile relation says, so the resultant routinely carries
    # powers of (lambda*S - 1) that certify nothing.  Divide them out
    # exactly; anything else spurious is caught by the certificate below.
    phantom = BivariatePolynomial({(1, 1): Fraction(1), (0, 0): Fraction(-1)})
    while True:
        try:
            quotient = _bp_divexact(stripped, phantom)
        except ArithmeticError:
            break
        if quotient.is_zero or quotient.degree("y") < 1:
            break
        stripped = quotient.normalized()

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
