"""The L-infinity[1]-algebra of the zero-section coisotropic submanifold.

Multibrackets come from higher derived brackets

    m_k(xi_1, ..., xi_k) = P [[ ... [[J, I(xi_1)]], ... ]], I(xi_k)]]

evaluated on the structure J that the MultibracketTable holds, expanded by
multilinearity and the Leibniz rule of the Schouten-Jacobi calculus.  Their
values on the normal frame are fiber derivatives d_aa ...|_{y=0} of the
components of J (in the splitting base/fiber: J^{ab}, J^{ai}, J^{ij}, J^a,
J^i); the test suite reads these generator formulas off J's coefficients
as an oracle of the table.

A MultibracketTable keeps every derived bracket it builds, keyed by the
sequence of its LeafForm arguments, so m_k extends the bracket of its
first k - 1 arguments when that was built before.  Within one table the
tasks share their brackets: m_1 s and m_2(s, s) of the Kuranishi map, the
[[..[[J, I s]].., I s]] of the MC series and the formal prolongation, and
each order of the frame values.  Keys compare by exact equality, and no
lookup iterates over the memo.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import ContentError
from .multider import MultiDerivation
from .leafform import LeafForm
from .geom import injection_I, projection_P


class DeformationError(ContentError):
    pass


class MultibracketTable:
    """The Jacobi bi-derivation J whose derived brackets are the multibrackets
    m_k.  Each derived bracket is built once for the life of the table."""

    def __init__(self, j: MultiDerivation):
        if not j.is_jacobi():
            raise DeformationError("multibracket extraction needs a Jacobi structure")
        self.j = j
        self.chart = j.chart
        # a trie of argument sequences: (bracket, {next argument: node})
        self._derived = (j, {})

    # -- evaluation ----------------------------------------------------------

    def derived(self, args) -> MultiDerivation:
        """[[..[[J, I xi_1]].., I xi_k]] of the LeafForms args = (xi_1, ..,
        xi_k): the bracket of each prefix is that of the prefix before it
        with I of its last argument, built on first use and kept."""
        bracket, children = self._derived
        for xi in args:
            node = children.get(xi)
            if node is None:
                node = children[xi] = (bracket.sj_bracket(injection_I(xi)), {})
            bracket, children = node
        return bracket

    def m(self, args) -> LeafForm:
        """m_k on LeafForm arguments: P of the derived bracket."""
        return projection_P(self.derived(args))

    def m1(self, omega: LeafForm) -> LeafForm:
        return self.m([omega])

    def series_bound(self) -> int:
        """m_k = P [[..]] vanishes for k > series_bound() on degree <= 1
        arguments, though its bracket need not: the highest fiber degree of
        J's P and Q coefficients, plus 2, bounds the brackets with P != 0."""
        return max((f.fiber_degree() for f in self.j.terms.values()), default=0) + 2


def extract_multibrackets(j: MultiDerivation) -> MultibracketTable:
    """MultibracketTable(j), under the name that the input check of
    perfbench/run.py imports; library code and tests call the class."""
    return MultibracketTable(j)


# ---------------------------------------------------------------------------
# leafwise homotopy: solving d_F eta = omega
# ---------------------------------------------------------------------------


def solve_dF(omega: LeafForm):
    """Return ('solved', eta) with d_F eta = omega when the leaf-torus zero
    mode of omega vanishes, else ('obstructed', Pi_0 omega).  omega must be
    d_F closed."""
    if not omega.d_leaf().is_zero():
        raise DeformationError("solve_dF requires a d_F-closed form")
    obstruction = omega.leaf_zero_mode()
    if not obstruction.is_zero():
        return "obstructed", obstruction
    eta = omega.homotopy_K()
    if eta.d_leaf() != omega:
        raise AssertionError("homotopy identity violated")
    return "solved", eta


# ---------------------------------------------------------------------------
# Maurer-Cartan series, Kuranishi map, formal prolongation
# ---------------------------------------------------------------------------


def mc_series(table: MultibracketTable, s: LeafForm) -> LeafForm:
    """MC(-s) = sum_k (1/k!) m_k(-s, ..., -s) = sum_k ((-1)^k / k!) m_k(s, ..., s)
    for a normal section s, by multilinearity, with the m_k(s, ..., s) from
    the table; finite for fiberwise polynomial structures: the terms up to
    k = series_bound() + 1, whose last must vanish."""
    terms = [
        table.m((s,) * k).scale(Fraction((-1) ** k, math.factorial(k)))
        for k in range(1, table.series_bound() + 2)
    ]
    if not terms[-1].is_zero():
        raise AssertionError("MC series failed to terminate")
    return terms[0].plus(terms[1:])


def kuranishi(table: MultibracketTable, s: LeafForm):
    """The Kuranishi class of an infinitesimal deformation.

    Returns (m_2(s, s), zero_mode): the leaf-torus zero mode of the order-2
    prolongation obstruction (1/2) m_2(s, s).  The obstruction is its
    integral over the d leaf angles, (2 pi)^d times it, d = len(chart.leaf).
    """
    if not table.m1(s).is_zero():
        raise DeformationError("kuranishi requires an infinitesimal deformation")
    kr = table.m([s, s])
    return kr, kr.scale(Fraction(1, 2)).leaf_zero_mode()


def prolong_formal(table: MultibracketTable, s1: LeafForm, order: int):
    """Solve the MC hierarchy order by order with the torus homotopy.

    For S = sum_p s_p e^p, bilinearity gives the e^n coefficient D[h][n] of
    [[..[[J, I S]].., I S]] (h brackets) as sum_p [[D[h-1][n-p], I s_p]],
    D[0] = J at n = 0, which reads s_p for p <= n - h + 1 only.  So the
    order-k right-hand side sum_{h=2}^{min(k, B)} (-1)^h / h! P(D[h][k]),
    B = table.series_bound(), is known before s_k.  A zero s_p or D[h][n]
    brackets nothing, D[h][h] comes from the table (shared with kuranishi
    and mc_series), and P of row B + 1 must vanish.

    Returns (sections, orders): the normal sections s_1, s_2, .. solved so
    far, and one entry per order k >= 2 tried, {order_k, rhs,
    obstruction_zero_mode, solved}.  The run stops at the first order whose
    right-hand side has a nonzero leaf zero mode, so it was obstructed iff
    the last entry is unsolved.
    """
    sections = [s1]  # sections[p - 1] is s_p
    if not table.m1(s1).is_zero():
        raise DeformationError("s1 is not an infinitesimal deformation")
    bound = table.series_bound()
    D = {(0, 0): table.j}  # the nonzero D[h][n]
    lifts = {}  # p -> I(s_p) for the nonzero s_p
    zero, dz = LeafForm.zero(table.chart, 2), MultiDerivation.zero(table.chart, 2)
    orders = []
    for k in range(2, order + 1):
        if not sections[-1].is_zero():
            lifts[k - 1] = injection_I(sections[-1])
        rows = range(2, min(k, bound + 1) + 1)
        for h, n in [(1, k - 1)] + [(h, k) for h in rows]:
            brackets = [  # for n = h only p = 1 has a D[h-1][n-p]
                table.derived((s1,) * h) if n == h else D[h - 1, n - p].sj_bracket(lift)
                for p, lift in lifts.items()
                if (h - 1, n - p) in D
            ]
            d = dz.plus(brackets)
            if not d.is_zero():
                D[h, n] = d
        terms = {h: projection_P(D[h, k]) for h in rows if (h, k) in D}
        if not terms.pop(bound + 1, zero).is_zero():
            raise AssertionError("MC hierarchy failed to terminate")
        rhs = zero.plus(m.scale(Fraction((-1) ** h, math.factorial(h))) for h, m in terms.items())
        status, payload = solve_dF(rhs)
        solved = status == "solved"
        # solve_dF returns the zero mode of an obstructed order; a solved
        # order has none
        orders.append(
            {
                "order_k": k,
                "rhs": rhs,
                "obstruction_zero_mode": zero if solved else payload,
                "solved": solved,
            }
        )
        if not solved:
            break
        sections.append(payload)
    return sections, orders
