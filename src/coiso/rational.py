"""Gaussian rational numbers: the coefficient field Q(i).

Every coefficient in the library is a GaussianRational; no floating point
is used anywhere.

Representation.  A GaussianRational is one integer triple (a, b, d) that
stands for (a + b i)/d.  The triple is canonical: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and two values are equal iff their
triples are.  Every operation computes its result triple in integers and
reduces it with one gcd; negation keeps the triple reduced and skips it.
Arithmetic (+, -, *, /) takes Gaussian rationals only: an int or a
Fraction enters through the constructor or ``of``, and only ``==`` also
compares with one.  Fractions appear only at the boundary: the constructor
accepts them (a pair of ints skips them), and ``re`` and ``im`` return
them.  Scaling by an integer ratio num/den, as the Beta integrals of
``ScalarFn.path_integral`` and the fiber derivatives of ``ScalarFn.partial``
do, is ``scaled(num, den)``: no Fraction is built for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _raw(a: int, b: int, d: int) -> "GaussianRational":
    """The value (a + b i)/d of a triple that is already canonical."""
    r = _new(GaussianRational)
    r._a = a
    r._b = b
    r._d = d
    return r


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """The value (a + b i)/d, d > 0, reduced by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _raw(a // g, b // g, d // g)
    return _raw(a, b, d)


def _from_rational(x):
    """x as a GaussianRational if it is an int or a Fraction, else None."""
    if isinstance(x, int):
        return _raw(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    return None


class GaussianRational:
    """A complex number (a + b i)/d with integers a, b and d > 0."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            # ScalarFn.partial builds one i*n per term; no Fraction for it
            self._a, self._b, self._d = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # d = lcm(q, s) of two reduced fractions gives gcd(a, b, d) = 1
        d = q // gcd(q, s) * s
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    # -- parts ------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(
            self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2
        )

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def scaled(self, num: int, den: int) -> "GaussianRational":
        """self * num/den for integers num and den > 0: one product per
        part and one gcd, with no Fraction."""
        return _reduced(self._a * num, self._b * num, self._d * den)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        a2, b2 = other._a, other._b
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 n)
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1, d2 = self._a, self._b, other._d
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n
        )

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            other = _from_rational(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- display ---------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"


ONE = GaussianRational(1)
