"""Gaussian rational numbers: the coefficient field Q(i).

Every coefficient in the library is a GaussianRational; no floating point
is used anywhere: a float part raises TypeError, and a sign (-1)^n is
written as an integer parity, since (-1) ** n is a float for a negative n.

Representation.  A GaussianRational is one integer triple (a, b, d) that
stands for (a + b i)/d.  The triple is canonical: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and two values are equal iff their
triples are.  Every operation computes its result triple in integers and
reduces it with one gcd; negation keeps the triple reduced and skips it.

The triple is also the integer interface to ``ring.sum_of_products``, the
product kernel of the ring: it reads the slots ``_a``, ``_b`` and ``_d`` of
its operands' coefficients, sums its term products as unreduced integer
triples, and makes each output coefficient once through ``_reduced``, with
no operator of this class on the way.  The operators here run outside
that kernel: in a scale, the parser, ``accumulate`` and the fiber
substitutions.

Arithmetic (+, -, *, /) takes Gaussian rationals only: an int or a
Fraction enters through the constructor or ``of``, and only ``==`` also
compares with one.  Fractions appear only at the boundary: the constructor
accepts them (a pair of ints skips them), and ``re`` and ``im`` return
them; ``parts()``, which the reports and ``str`` read, gives their reduced
integers without them.  Scaling by num/den for integers (the Beta integrals
of ``ScalarFn.path_integral``, the fiber derivatives of ``ScalarFn.partial``)
is ``scaled(num, den)``, and by i n (its torus derivatives) ``scaled_i(n)``.
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
            # integer parts need no Fraction
            self._a, self._b, self._d = re, im, 1
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("a GaussianRational part must be exact, not a float")
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

    def parts(self) -> tuple:
        """(re numerator, re denominator, im numerator, im denominator),
        each part reduced with a positive denominator: the integers of re
        and im, with one gcd per part and no Fraction."""
        a, b, d = self._a, self._b, self._d
        g, h = gcd(a, d), gcd(b, d)
        return a // g, d // g, b // h, d // h

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

    def scaled_i(self, n: int) -> "GaussianRational":
        """self * i n for an integer n: one product per part and one gcd."""
        return _reduced(-self._b * n, self._a * n, self._d)

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
        p, q, r, s = self.parts()
        re = f"{p}/{q}" if q != 1 else f"{p}"
        im = f"{r}/{s}" if s != 1 else f"{r}"  # signed
        if not r:
            return re
        if not p:
            return f"{im}*i"
        return f"{re}+{im}*i" if r > 0 else f"{re}{im}*i"


ONE = GaussianRational(1)
