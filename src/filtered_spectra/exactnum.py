"""Exact scalar arithmetic: rational parsing and complex rationals.

Kernel coefficient tables and the moment recursions run over exact
rationals whenever the inputs are rational, so small-k moment identities
are equalities instead of tolerance games.  `Fraction` covers the real
case; `CRat` is the obvious pair-of-Fractions complex number with just
the operations the rest of the package needs (+, -, *, conjugate).
"""

from __future__ import annotations

from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce x to an exact Fraction.

    Accepts int, Fraction, float (converted exactly, bit for bit), and
    strings in either 'p/q' or decimal form ('0.25', '-3', '1/3').
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


class CRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = rat(re)
        self.im = rat(im)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _crat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _crat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _crat(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return _crat(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _crat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    # -- predicates / conversions --------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"CRat({self.re})"
        return f"CRat({self.re}, {self.im})"


def _crat(re: Fraction, im: Fraction) -> CRat:
    """A CRat from parts that are already Fractions, without coercing them."""
    z = object.__new__(CRat)
    z.re = re
    z.im = im
    return z


def _coerce(x):
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(x)
    return NotImplemented
