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
first k - 1 arguments when that was built before, and one chain walks the
frame values of every order.  Within one table the tasks share their
brackets: the [[..[[J, I s]].., I s]] of the formal prolongation, whose
order 2 is the Kuranishi class and whose m_1 checks give its row 1, and
each order of the frame values.  Keys compare by exact equality, and no
lookup iterates over the memo.  MC(-s) = sum_k (1/k!) m_k(-s, .., -s) is
the coisotropy residue of the graph of s (geom.is_coisotropic_section),
term for term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .ring import ContentError
from .multider import MultiDerivation
from .leafform import LeafForm
from .geom import injection_I, projection_P


class MultibracketTable:
    """The Jacobi bi-derivation J whose derived brackets are the multibrackets
    m_k.  Each derived bracket is built once for the life of the table."""

    def __init__(self, j: MultiDerivation):
        if not j.is_jacobi():
            raise ContentError("multibracket extraction needs a Jacobi structure")
        self.j = j
        self.chart = j.chart
        # a trie of argument sequences: (bracket, {next argument: node})
        self._derived = (j, {})

    # -- evaluation ----------------------------------------------------------

    def chain(self, args):
        """Yield [[..[[J, I xi_1]].., I xi_k]] for each prefix (xi_1, ..,
        xi_k) of the LeafForms args, k = 1, 2, ..: one trie step per
        argument, each bracket that of the prefix before it with I of its
        last argument, built on first use and kept."""
        bracket, children = self._derived
        for xi in args:
            node = children.get(xi)
            if node is None:
                node = children[xi] = (bracket.sj_bracket(injection_I(xi)), {})
            bracket, children = node
            yield bracket

    def derived(self, args) -> MultiDerivation:
        """[[..[[J, I xi_1]].., I xi_k]] of the LeafForms args = (xi_1, ..,
        xi_k): the last bracket of chain(args), J for no argument."""
        bracket = self.j
        for bracket in self.chain(args):
            pass
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
    """(eta, Pi_0 omega) for a d_F-closed omega: eta solves d_F eta = omega
    when the leaf-torus zero mode Pi_0 omega vanishes, and is None else."""
    if not omega.d_leaf().is_zero():
        raise ContentError("solve_dF requires a d_F-closed form")
    zero_mode = omega.leaf_zero_mode()
    if not zero_mode.is_zero():
        return None, zero_mode
    eta = omega.homotopy_K()
    if eta.d_leaf() != omega:
        raise AssertionError("homotopy identity violated")
    return eta, zero_mode


# ---------------------------------------------------------------------------
# formal prolongation
# ---------------------------------------------------------------------------


def prolong_formal(table: MultibracketTable, s1: LeafForm, order: int):
    """Solve MC(-S) = 0, S = sum_p s_p e^p, order by order with the torus homotopy.

    Bilinearity gives the e^n coefficient D[h][n] of [[..[[J, I S]].., I S]]
    (h brackets) as sum_p [[D[h-1][n-p], I s_p]], which reads s_p for
    p <= n - h + 1 only.  Row 1, D[1][n] = [[J, I s_n]], is the bracket
    that the m_1 check of s_n built in the table.  So the order-k
    right-hand side sum_{h=2}^{min(k, B)} (-1)^h / h! P(D[h][k]),
    B = table.series_bound(), is known before s_k.  A zero s_p or D[h][n]
    brackets nothing, D[h][h] comes from the table, and P of row B + 1 must
    vanish.  Order 2's rhs is (1/2) m_2(s_1, s_1), and its zero mode is the
    Kuranishi class.

    Returns (sections, orders): the normal sections s_1, s_2, .. solved so
    far, and one (rhs, zero_mode) per order k = 2, 3, .. tried.  The run
    stops at the first order whose leaf zero mode is not zero, so it was
    obstructed iff the last zero mode is not zero.  The homotopy solves
    d_F s_k = rhs, so a nonzero s_k must also solve m_1 s_k = rhs with the
    table's m_1; a ContentError refuses a structure where it does not.
    """
    sections = [s1]  # sections[p - 1] is s_p
    if not table.m1(s1).is_zero():
        raise ContentError("s1 is not an infinitesimal deformation")
    bound = table.series_bound()
    D = {}  # the nonzero D[h][n], h >= 1
    lifts = {}  # p -> I(s_p) for the nonzero s_p
    zero, dz = LeafForm.zero(table.chart, 2), MultiDerivation.zero(table.chart, 2)
    orders = []
    for k in range(2, order + 1):
        s = sections[-1]
        if not s.is_zero():
            lifts[k - 1] = injection_I(s)
            d = table.derived((s,))  # built by the m_1 check of s
            if not d.is_zero():
                D[1, k - 1] = d
        rows = range(2, min(k, bound + 1) + 1)
        for h in rows:
            brackets = [  # for k = h only p = 1 has a D[h-1][k-p]
                table.derived((s1,) * h) if k == h else D[h - 1, k - p].sj_bracket(lift)
                for p, lift in lifts.items()
                if (h - 1, k - p) in D
            ]
            d = dz.plus(brackets)
            if not d.is_zero():
                D[h, k] = d
        terms = {h: projection_P(D[h, k]) for h in rows if (h, k) in D}
        if not terms.pop(bound + 1, zero).is_zero():
            raise AssertionError("MC hierarchy failed to terminate")
        rhs = zero.plus(m.scale(Fraction(-1 if h % 2 else 1, factorial(h))) for h, m in terms.items())
        eta, zero_mode = solve_dF(rhs)
        orders.append((rhs, zero_mode))
        if eta is None:
            break
        if not eta.is_zero() and table.m1(eta) != rhs:  # the order-k MC equation
            raise ContentError("m_1 of this structure is not the leaf differential")
        sections.append(eta)
    return sections, orders
