"""Constructions of the paper that no command-line task reaches.

The twelve tasks of ``coiso.cli`` are the library's only production
callers, so a construction without a task lives here, beside the tests
that check it, written on the library's public API:

* the Hamiltonian derivation Delta_lam of a Jacobi bi-derivation and its
  bi-symbol Lambda_J (multi-derivations);
* the Hamiltonian gauge direction and the extended brackets of
  simultaneous deformations of structure and submanifold (L-infinity);
* the gauge ladder between MC elements by exp(ad_R), the BFV coisotropy
  residual, the lifting conditions of a lifted structure and the zero locus
  of a geometric MC element (BFV);
* the transversal differential d_G and the jet prolongation j^1_G
  (transversal engine).

Giving one of them a task would add a report, which is feature work.
"""

from __future__ import annotations

import math
from fractions import Fraction

from coiso.ring import ChartError, PowerTable, ScalarFn, dot, inverse_unit
from coiso.multivector import MultiVectorField
from coiso.multider import ArityError, MultiDerivation
from coiso.leafform import LeafForm, SectionOfNormalBundle
from coiso.geom import injection_I, projection_P
from coiso.linfty import DeformationError, MultibracketTable, _series_bound
from coiso.graded import XI, XIS, ContractionTwo, GradedElement, bidegree, encode, jacobi_bracket
from coiso.bfv import BFVError, Lift
from coiso.transversal import TransversalData


# ---------------------------------------------------------------------------
# Hamiltonians and the bi-symbol
# ---------------------------------------------------------------------------


def hamiltonian(j: MultiDerivation, lam: ScalarFn) -> MultiDerivation:
    """Delta_lam = -[[J, lam]] = {lam, -}, an arity-1 derivation; its
    p-part is the Hamiltonian vector field X_lam."""
    if j.arity != 2:
        raise ArityError("hamiltonian needs arity 2")
    return j.sj_bracket(MultiDerivation(MultiVectorField.function(lam))).scale(-1)


def bisymbol(j: MultiDerivation) -> MultiVectorField:
    """Lambda_J: in the trivialized case the p-part of J."""
    if j.arity != 2:
        raise ArityError("bisymbol needs arity 2")
    return j.p_part


# ---------------------------------------------------------------------------
# the gauge direction and the extended brackets
# ---------------------------------------------------------------------------


def exp_series(x: MultiDerivation, v: MultiDerivation, bound: int, start: int) -> LeafForm:
    """sum_{k >= start} (1/k!) P([[..[[x, v]].., v]]) with k brackets: the
    terms up to k = bound + 1, whose last must vanish."""
    terms = []
    for k in range(bound + 2):
        if k:
            x = x.sj_bracket(v)
        if k >= start:
            terms.append(projection_P(x).scale(Fraction(1, math.factorial(k))))
    if not terms[-1].is_zero():
        raise AssertionError("derived-bracket series failed to terminate")
    return terms[0].plus(terms[1:])


def delta_mc(table: MultibracketTable, s: SectionOfNormalBundle, lam: ScalarFn) -> LeafForm:
    """Hamiltonian gauge direction sum_k (1/k!) m_{k+1}(-s, ..., -s, lam).

    lam is base-only and I(-s) a fiber-constant vertical field, so
    [[I(-s), I(lam)]] = 0 and, by the graded Jacobi identity, ad_{I(-s)}
    commutes with ad_{I(lam)}: the series is that of [[J, I(lam)]]."""
    if not lam.is_base_only():
        raise DeformationError("gauge parameter must be base-only")
    minus = injection_I((-s).to_leafform())
    x = table.j.sj_bracket(injection_I(LeafForm.function(lam)))
    return exp_series(x, minus, table.series_bound(), 0)


def extended_n1(j: MultiDerivation, box: MultiDerivation, xi: LeafForm):
    """n_1(box, xi) = (-[[J, box]], P box + m_1 xi)."""
    first = j.sj_bracket(box).scale(-1)
    second = projection_P(box) + projection_P(j.sj_bracket(injection_I(xi)))
    return first, second


def extended_mc_residual(j: MultiDerivation, box: MultiDerivation, s: SectionOfNormalBundle):
    """The full extended MC residual of the geometric pair (box, s):

        ( -1/2 [[J + box, J + box]],  P(exp L_{I(s)} (J + box)) ).

    Both components vanish iff J + box is Jacobi and s is a coisotropic
    section for it; the corresponding formal MC element is (box, -s), so for
    box = 0 the second component is the ordinary series MC(-s).  I(s) has
    arity 1, so L_{I(s)} x = [[I(s), x]] = [[x, I(-s)]]."""
    total = j + box
    first = total.sj_bracket(total).scale(Fraction(-1, 2))
    minus = injection_I((-s).to_leafform())
    return first, exp_series(total, minus, _series_bound(total), 0)


# ---------------------------------------------------------------------------
# BFV: gauge ladder, coisotropy residual, lifting conditions, zero locus
# ---------------------------------------------------------------------------


def exp_ad(r, x, bracket, max_terms=16):
    """exp(ad_r) x = sum 1/k! ad_r^k x; finite by filtration."""
    out = x
    term = x
    for k in range(1, max_terms):
        term = bracket(r, term)
        if term.is_zero():
            return out
        out = out + term.scale(Fraction(1, math.factorial(k)))
    raise BFVError("exp(ad) failed to terminate")


def sbso_gauge(q0, q1, bracket, homotopy, filtration, max_steps=16):
    """Gauge ladder between MC elements agreeing to leading filtration
    order: a sequence of R with exp(ad_R) steps carrying q0 to q1."""
    if not bracket(q0, q0).is_zero() or not bracket(q1, q1).is_zero():
        raise BFVError("gauge ladder endpoints must be MC elements")
    ladder = []
    current = q0
    for _ in range(max_steps):
        diff = q1 - current
        if diff.is_zero():
            return ladder, current
        r = homotopy(diff)
        if r.is_zero():
            raise BFVError("gauge ladder stalled")
        ladder.append(r)
        current = exp_ad(r, current, bracket)
        if not bracket(current, current).is_zero():
            raise BFVError("gauge step failed to preserve the MC equation")
    raise BFVError("gauge ladder failed to terminate")


def pr(x: GradedElement, h: int, k: int) -> GradedElement:
    """The bidegree-(h, k) part of x."""
    return x._like({l: f for l, f in x.terms.items() if bidegree(l) == (h, k)})


def bfv_coisotropy_residual(lift: Lift, s: SectionOfNormalBundle) -> GradedElement:
    """{Omega_E[s], Omega_E[s]}_BFV."""
    om = ContractionTwo(lift.chart, lift.rank, s).omega_E()
    return jacobi_bracket(lift.j_hat, om, om)


def lifting_conditions_hold(lift: Lift, samples) -> bool:
    """pr(0,0) of the lifted bracket agrees with {-,-}_G on mixed
    ghost/antighost generators and with {-,-}_J on plain sections."""
    chart, rank = lift.chart, lift.rank
    one = ScalarFn.one(chart)
    for A in range(rank):
        u = GradedElement(chart, rank, {((XI, A),): one})
        for B in range(rank):
            al = GradedElement(chart, rank, {((XIS, B),): one})
            lhs = pr(jacobi_bracket(lift.j_hat, u, al), 0, 0)
            rhs = pr(jacobi_bracket(lift.G, u, al), 0, 0)
            if not (lhs - rhs).is_zero():
                return False
    for f, g in samples:
        sf, sg = GradedElement.section(chart, rank, f), GradedElement.section(chart, rank, g)
        lhs = pr(jacobi_bracket(lift.j_hat, sf, sg), 0, 0)
        expected = GradedElement.section(chart, rank, lift.j.apply([f, g]))
        if not (lhs - expected).is_zero():
            return False
    return True


def geometric_mc_zero_locus(omega: GradedElement, max_iter=12) -> SectionOfNormalBundle:
    """Solve pr(1,0) Omega = sum e_A(u, y) xi^A for the section graph
    y = g(u) with e_A(u, g(u)) = 0.

    The linear-in-y part along y = 0 must be invertible (unit determinant);
    the solution is found by the exact Newton iteration, which terminates
    for graphs of polynomial sections.  Returns the section or raises
    BFVError with a structured message."""
    chart = omega.chart
    rank = omega.rank
    pr10 = pr(omega, 1, 0)
    e = [pr10.terms.get(encode(((XI, A),)), ScalarFn.zero(chart)) for A in range(rank)]
    # linear part L[A][B] = d e_A / d y_B |_{y=0}
    L = [
        [e[A].partial(chart.fiber[B]).restrict_zero_section() for B in range(rank)]
        for A in range(rank)
    ]
    try:
        L_inv = inverse_unit(chart, L)
    except ChartError as exc:
        raise BFVError(f"zero locus is not a section graph: {exc}") from None
    g = [ScalarFn.zero(chart) for _ in range(rank)]
    for _ in range(max_iter):
        powers = PowerTable(chart, g)
        vals = [eA.substitute_fiber(powers) for eA in e]
        if all(v.is_zero() for v in vals):
            return SectionOfNormalBundle(chart, g)
        g = [gA - dot(chart, row, vals) for gA, row in zip(g, L_inv)]
    raise BFVError("zero locus iteration failed: locus is not a polynomial section graph")


# ---------------------------------------------------------------------------
# transversal differential operators
# ---------------------------------------------------------------------------


def _d_leaf_form(td: TransversalData, g: ScalarFn) -> LeafForm:
    """d_F g = sum_h (d g / d x^h) d_F x^h over the leaf coordinates."""
    return LeafForm(td.chart, 1, {(h,): g.partial(x) for h, x in enumerate(td.leaf)})


def d_G(td: TransversalData, omega: LeafForm):
    """The extension eps of the transversal de Rham differential d_G:
    returns {alpha: LeafForm} over the transverse coframe (du^a..., dz)."""
    chart = td.chart
    pieces = {al: [] for al in range(td.A + 1)}
    for key, c in omega.terms.items():
        jc = td.jG0(c)
        for al in pieces:
            pieces[al].append(LeafForm(chart, omega.degree, {key: jc[al + 1]}))
        # eps(e_K) = sum_j (-1)^{j-1} d_F(G^{i_j}_alpha) ^ e_{K minus j}
        for pos, i in enumerate(key):
            rest = LeafForm(chart, len(key) - 1, {key[:pos] + key[pos + 1 :]: c})
            for al in pieces:
                dG = _d_leaf_form(td, td.G_comp(al, i))
                if not dG.is_zero():
                    pieces[al].append(dG.wedge(rest).scale((-1) ** (pos % 2)))
    zero = LeafForm.zero(chart, omega.degree)
    return {al: zero.plus(p) for al, p in pieces.items()}


def j1_G(td: TransversalData, omega: LeafForm):
    """The extension delta of the transversal jet prolongation:
    {alpha: LeafForm} over the frame (j, j^a..., j^circ); alpha = 0 is
    the j-component, 1..A the j^a block, A+1 the j^circ one.

    delta(omega) = omega (x) j + [d_G extension](omega) in the
    transverse slots, through the embedding N^*F (x) l -> J^1_perp l.
    """
    out = {0: omega}
    for al, form in d_G(td, omega).items():
        out[al + 1] = form
    return out
