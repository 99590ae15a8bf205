"""Multi-derivations of the trivialized line bundle and the Schouten-Jacobi
bracket.

A skew first-order multi-differential operator of arity n is stored as the
pair (P, Q) of multivector fields with square = P - Q ^ id, deg P = n and
deg Q = n - 1 (Q absent for sections, arity 0).  The bracket is the closed
(P, Q)-decomposition

    [[P - Q^id, P' - Q'^id]] = ( [[P,P']] - (-1)^{k'} k P^Q' + k' Q^P' )
        - ( [[P,Q']] + (-1)^{k'} [[Q,P']] - (k-k') Q^Q' ) ^ id

with k = arity - 1, k' = arity' - 1 and [[-,-]] the Schouten-Nijenhuis
bracket on multivector fields.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Chart, ChartError, ContentError, ScalarFn
from .multivector import MultiVectorField


class ArityError(ContentError):
    pass


class MultiDerivation:
    """square = P - Q ^ id; arity = deg P; Q is None for arity 0.

    A MultiDerivation is never changed after construction, so its bracket
    with itself is computed on first use and kept on the object."""

    __slots__ = ("chart", "arity", "p_part", "q_part", "_square")

    def __init__(self, p_part: MultiVectorField, q_part=None):
        self.chart = p_part.chart
        self.arity = p_part.degree
        self.p_part = p_part
        if self.arity == 0:
            if q_part is not None and not q_part.is_zero():
                raise ArityError("a section has no q-part")
            q_part = None
        else:
            if q_part is None:
                q_part = MultiVectorField.zero(self.chart, self.arity - 1)
            if q_part.degree != self.arity - 1:
                raise ArityError("q-part degree must be arity - 1")
            if q_part.chart != self.chart:
                raise ChartError("p and q parts live on different charts")
        self.q_part = q_part
        self._square = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(chart: Chart, arity: int) -> "MultiDerivation":
        return MultiDerivation(MultiVectorField.zero(chart, arity))

    def q_or_zero(self) -> MultiVectorField:
        if self.q_part is None:
            return MultiVectorField.zero(self.chart, 0)
        return self.q_part

    def is_zero(self) -> bool:
        return self.p_part.is_zero() and (self.q_part is None or self.q_part.is_zero())

    # -- linear structure ------------------------------------------------------

    def scale(self, c) -> "MultiDerivation":
        q = None if self.q_part is None else self.q_part.scale(c)
        return MultiDerivation(self.p_part.scale(c), q)

    # -- Schouten-Jacobi bracket -------------------------------------------------

    def sj_bracket(self, other: "MultiDerivation") -> "MultiDerivation":
        """[[self, other]]; [[self, self]] is computed once per object."""
        if other is not self:
            return self._bracket(other)
        if self._square is None:
            self._square = self._bracket(self)
        return self._square

    def _bracket(self, other: "MultiDerivation") -> "MultiDerivation":
        k = self.arity - 1
        kp = other.arity - 1
        n_out = self.arity + other.arity - 1
        chart = self.chart
        if n_out < 0:
            return MultiDerivation.zero(chart, 0)

        P, Q = self.p_part, self.q_part
        Pp, Qp = other.p_part, other.q_part

        new_p = P.sn_bracket(Pp)
        if Qp is not None and k != 0:
            new_p = new_p - P.wedge(Qp).scale(((-1) ** (kp % 2)) * k)
        if Q is not None and kp != 0:
            new_p = new_p + Q.wedge(Pp).scale(kp)

        if n_out == 0:
            return MultiDerivation(new_p)

        new_q = MultiVectorField.zero(chart, n_out - 1)
        if Qp is not None:
            new_q = new_q + P.sn_bracket(Qp)
        if Q is not None:
            new_q = new_q + Q.sn_bracket(Pp).scale((-1) ** (kp % 2))
        if Q is not None and Qp is not None and k != kp:
            new_q = new_q - Q.wedge(Qp).scale(k - kp)
        return MultiDerivation(new_p, new_q)

    def jacobiator(self) -> "MultiDerivation":
        """Jac(J) = 1/2 [[J, J]] of a bi-derivation; zero iff J is a Jacobi
        structure."""
        return self.sj_bracket(self).scale(Fraction(1, 2))

    def is_jacobi(self) -> bool:
        return self.arity == 2 and self.sj_bracket(self).is_zero()

    # -- evaluation ---------------------------------------------------------------

    def apply(self, fns) -> ScalarFn:
        """square(f_1, ..., f_n) = P(f...) + sum_i (-1)^{n-1-i} Q(f...^i) f_i
        on n = arity functions."""
        fns = list(fns)
        out = self.p_part.apply(fns)
        if self.q_part is not None:
            n = self.arity
            for i in range(1, n + 1):
                rest = fns[: i - 1] + fns[i:]
                term = self.q_part.apply(rest) * fns[i - 1]
                out = out + term.scale((-1) ** ((n - 1 - i) % 2))
        return out

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiDerivation):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.p_part == other.p_part
            and self.q_or_zero() == other.q_or_zero()
        )
