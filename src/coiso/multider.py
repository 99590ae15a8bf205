"""Multi-derivations of the trivialized line bundle and the Schouten-Jacobi
bracket.

A skew first-order multi-differential operator of arity n is a section
square = P - Q ^ id of the n-th exterior power of the Lie algebroid TM x R,
deg P = n and deg Q = n - 1.  It is stored as one skew term table over the
chart indices and one more index, id = chart.dim: key I holds P^I and key
I + (chart.dim,) holds -Q^I.  No coefficient depends on the id direction.

The Schouten-Jacobi bracket is the Schouten bracket of TM x R twisted by
its 1-cocycle phi = (0, 1) (Grabowski and Marmo, J. Phys. A 34, 2001):

    [[A, B]] = [[A, B]]_SN + k A ^ i_phi B - (-1)^k k' (i_phi A) ^ B

with k = arity A - 1, k' = arity B - 1, [[-,-]]_SN the Schouten-Nijenhuis
bracket of the extended table (the Gerstenhaber product skips id by its
mask) and i_phi the contraction with phi from the left.  Split into P and
Q it is the closed (P, Q)-formula that the test suite keeps as an oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import ChartError, ScalarFn
from .multivector import ArityError, MultiVectorField


class MultiDerivation(MultiVectorField):
    """square = P - Q ^ id as one table of degree arity; id = chart.dim.

    A MultiDerivation is never changed after construction, so its bracket
    with itself is computed on first use and kept on the object."""

    __slots__ = ("_square",)

    def _index_bound(self) -> int:
        return self.chart.dim + 1

    @property
    def arity(self) -> int:
        return self.degree

    # -- the (P, Q) parts -----------------------------------------------------

    @classmethod
    def from_parts(cls, p: MultiVectorField, q=None) -> "MultiDerivation":
        """P - Q ^ id of multivector fields P and Q, deg Q = deg P - 1; a
        section (deg P = 0) has no Q."""
        n = p.degree
        if q is None or (n == 0 and q.is_zero()):
            q = MultiVectorField.zero(p.chart, max(n - 1, 0))
        elif n == 0:
            raise ArityError("a section has no q-part")
        elif q.degree != n - 1:
            raise ArityError("q-part degree must be arity - 1")
        elif q.chart != p.chart:
            raise ChartError("p and q parts live on different charts")
        dim = p.chart.dim
        return cls(p.chart, n, {**p.terms, **{k + (dim,): -f for k, f in q.terms.items()}})

    @property
    def p_part(self) -> MultiVectorField:
        dim = self.chart.dim
        terms = {k: f for k, f in self.terms.items() if dim not in k}
        return MultiVectorField(self.chart, self.degree, terms)

    @property
    def q_part(self) -> MultiVectorField:
        """Q; the zero of degree 0 for a section."""
        dim = self.chart.dim
        terms = {k[:-1]: -f for k, f in self.terms.items() if dim in k}
        return MultiVectorField(self.chart, max(self.degree - 1, 0), terms)

    def _contract_id(self) -> "MultiDerivation":
        """i_phi from the left: the key I + (id,) gives (-1)^|I| times its
        coefficient on I; arity >= 1."""
        dim, flip = self.chart.dim, self.degree % 2 == 0  # |I| = arity - 1 is odd
        terms = {k[:-1]: -f if flip else f for k, f in self.terms.items() if dim in k}
        return MultiDerivation(self.chart, self.degree - 1, terms)

    def apply(self, fns) -> ScalarFn:
        """square(f_1, ..., f_n) = P(f...) + sum_i (-1)^{n-1-i} Q(f...^i) f_i
        on exactly n = arity functions."""
        fns = list(fns)
        out, q, n = self.p_part.apply(fns), self.q_part, self.degree
        for i in range(1, n + 1):
            term = q.apply(fns[: i - 1] + fns[i:]) * fns[i - 1]
            out = out + term.scale((-1) ** ((n - 1 - i) % 2))
        return out

    # -- Schouten-Jacobi bracket -------------------------------------------------

    def sj_bracket(self, other: "MultiDerivation") -> "MultiDerivation":
        """[[self, other]]; [[self, self]] is computed once per object."""
        if other is not self:
            return self._bracket(other)
        square = getattr(self, "_square", None)
        if square is None:
            square = self._square = self._bracket(self)
        return square

    def _bracket(self, other: "MultiDerivation") -> "MultiDerivation":
        k, kp = self.degree - 1, other.degree - 1
        out = self.sn_bracket(other)
        if k and other.degree:
            out = out + self.wedge(other._contract_id()).scale(k)
        if kp and self.degree:
            out = out - self._contract_id().wedge(other).scale((-1) ** (k % 2) * kp)
        return out

    def jacobiator(self) -> "MultiDerivation":
        """Jac(J) = 1/2 [[J, J]] of a bi-derivation; zero iff J is a Jacobi
        structure."""
        return self.sj_bracket(self).scale(Fraction(1, 2))

    def is_jacobi(self) -> bool:
        return self.degree == 2 and self.sj_bracket(self).is_zero()
