"""Lifting Jacobi structures, BRST charges, the BFV differential, the
generic SBSO and HPL engines, and BFV Kuranishi classes.

The ghosts are the fiber coordinates of the normal bundle, so there is
one ghost per fiber coordinate of the chart, and a section s of the normal
bundle is the degree-1 LeafForm sum_A g_A delta_A.

The step-by-step obstruction (SBSO) engine deforms an approximate MC
element along a fixed filtration: the antighost word degree, which is never
negative on sections.  The BRST charge runs it.  The lift does not: for the
trivial connection, the only one the library builds, J^ = G + i_nabla(J)
already squares to zero; a curved connection would need the recursion on
operators, filtered by antighost bidegree.  The two BFV squares, [[J^, J^]]
and d_BFV^2, are the squares GradedElement.bracket takes.

The homological perturbation lemma perturbs the s = 0 ContractionTwo
(wp, iota, h) with differential d[0] by delta = d_BFV - d[0] (iota, the
inclusion of the small side, is the identity); the result,
PerturbedContraction, is built once per scenario.  check_hpl_axioms checks
the contraction axioms of both on samples (the hpl-resolve task).

A failed identity that the paper proves (the contraction axioms, the
perturbed chain map, [[J^, J^]] = 0, d_BFV^2 = 0, the termination of the
SBSO and of the perturbation series) raises AssertionError; ContentError is
kept for inputs the constructions do not accept.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import ContentError
from .multider import MultiDerivation
from .leafform import LeafForm
from .graded import (
    ContractionTwo,
    GradedElement,
    ghost_section,
    hamiltonian_operator,
    i_nabla,
    jacobi_bracket,
    tautological_G,
)


class ObstructionFailure(Exception):
    """SBSO applicability failed; carries the offending component."""

    def __init__(self, component):
        super().__init__("obstruction: the approximate MC element cannot be deformed")
        self.component = component


# The step bound of the SBSO and the perturbation series below; reaching it is an AssertionError.
_STEPS = 16


# ---------------------------------------------------------------------------
# contraction axioms
# ---------------------------------------------------------------------------


def check_contraction_axioms(homotopy_projection, immersion, differential, x, label):
    """q j = id, [d, h] = j q - id, h^2 = h j = q h = 0 on the sample x for
    the immersion j, the differential d and homotopy_projection(y) =
    (h(y), q(y)).  Takes h and q of each of x, d(x), h(x) and j(q(x)) from
    one homotopy_projection call; returns (j(q(x)), q(d(x)))."""
    hq, j, d = homotopy_projection, immersion, differential
    hx, small = hq(x)
    jq = j(small)
    hdx, qdx = hq(d(x))
    if not ((d(hx) + hdx) - (jq - x)).is_zero():
        raise AssertionError(f"{label} violate [d, h] = j q - id")
    hhx, qhx = hq(hx)
    if not hhx.is_zero():
        raise AssertionError(f"{label} violate h^2 = 0")
    if not qhx.is_zero():
        raise AssertionError(f"{label} violate q h = 0")
    hjq, qjq = hq(jq)
    if not (qjq - small).is_zero():
        raise AssertionError(f"{label} violate q j = id")
    if not hjq.is_zero():
        raise AssertionError(f"{label} violate h j = 0")
    return jq, qdx


# ---------------------------------------------------------------------------
# the generic step-by-step obstruction engine
# ---------------------------------------------------------------------------


def sbso(bracket, homotopy, obstruction, qbar):
    """Deform qbar into an MC element Q = qbar + sum_k Q_k along a fixed
    filtration whose degree (the antighost count) is never negative, so
    [qbar, qbar] cannot sit below the starting level and no level is
    checked.

    * bracket(a, b): the graded Lie bracket.
    * homotopy(x): the contraction homotopy H.
    * obstruction(x): the component P(x) whose vanishing is the
      applicability condition; raises through ObstructionFailure.
    * qbar: the approximate MC element.

    Returns (Q, corrections) with corrections the list of added Q_k.  The
    square of the applicability test is the first square of the loop, so
    the bracket runs len(corrections) + 1 times, at most _STEPS + 1.
    """
    sq = bracket(qbar, qbar)
    obs = obstruction(sq)
    if not obs.is_zero():
        raise ObstructionFailure(obs)
    q = qbar
    corrections = []
    if sq.is_zero():
        return q, corrections
    for _ in range(_STEPS):  # finite: each Q_k sits one antighost level higher
        step = homotopy(sq).scale(Fraction(1, 2))
        if step.is_zero():
            raise AssertionError("SBSO stalled: homotopy produced no correction")
        corrections.append(step)
        q = q + step
        sq = bracket(q, q)
        if sq.is_zero():
            return q, corrections
    raise AssertionError("SBSO failed to converge within the finite filtration")


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


class Lift:
    """The lifted graded Jacobi structure J^ = G + i_nabla(J) of an
    ungraded one, for the trivial connection.  That connection is flat, so
    the lift needs no SBSO corrections: the constructor squares J^ once and
    raises unless [[J^, J^]] = 0."""

    def __init__(self, j: MultiDerivation):
        if not j.is_jacobi():
            raise ContentError("lifting requires a Jacobi structure")
        self.chart = j.chart
        self.j = j
        self.G = tautological_G(j.chart)
        self.j_hat = self.G + i_nabla(j)
        if not self.j_hat.bracket().is_zero():
            raise AssertionError("flat lifting failed: [[J^, J^]] != 0")


# ---------------------------------------------------------------------------
# BRST charge and BFV differential
# ---------------------------------------------------------------------------


def brst_charge(lift: Lift, s: LeafForm):
    """Run the SBSO on Omega_E[s] for a normal section s; returns (Omega,
    corrections) or raises ObstructionFailure carrying
    wp[s]{Omega_E[s], Omega_E[s]} when the image of s is not coisotropic."""
    c2 = ContractionTwo(s)

    def bracket(a, b):
        return jacobi_bracket(lift.j_hat, a, b)

    return sbso(bracket, c2.h, c2.wp, c2.omega_E())


def d_bfv(lift: Lift, omega: GradedElement) -> GradedElement:
    """d_BFV = {Omega_BRST, -} as a graded operator; square-zero verified."""
    op = hamiltonian_operator(lift.j_hat, omega)
    if not op.bracket().is_zero():
        raise AssertionError("d_BFV does not square to zero")
    return op


# ---------------------------------------------------------------------------
# homological perturbation lemma
# ---------------------------------------------------------------------------


def _series(a, b, x):
    """The terms t_k of (1 - b a)^{-1} x = sum_k (b a)^k x for nilpotent
    b a, with their images a(t_k): t_0 = x and t_{k+1} = b(a(t_k)).
    Returns (sum t_k, [a(t_k)]), the last a(t_k) the one that b maps to 0."""
    terms, images = [], []
    for _ in range(_STEPS):  # finite: b a is nilpotent on the antighost filtration
        images.append(a(x))
        terms.append(x)
        x = b(images[-1])
        if x.is_zero():
            return terms[0].plus(terms[1:]), images
    raise AssertionError("perturbation series failed to terminate")


class PerturbedContraction:
    """HPL output: the contraction (wp, iota = id, h) of base with differential
    d0.insert, perturbed by delta = d_BFV - d0 with delta h nilpotent, for
    the operator dop of d_bfv.  The perturbed differential is dop.insert.

    The perturbed q and h of an argument y both read the one series
    s = (1 - delta h)^{-1} y = sum_k t_k, t_{k+1} = delta h t_k, which
    computes h t_k for every term.  h is linear, so the perturbed
    h y = h s is the sum of those h t_k: h is never applied to s itself."""

    def __init__(self, base: ContractionTwo, d0: GradedElement, dop: GradedElement):
        self.base = base
        self.d0 = d0
        self.differential = dop.insert
        # insertion is linear in the operator: delta(x) = dop(x) - d0(x)
        self.delta = (dop - d0).insert

    def homotopy_projection(self, y):
        """(h s, wp s) for s = (1 - delta h)^{-1} y, h s summed from the
        h t_k of the series."""
        s, hs = _series(self.base.h, self.delta, y)
        return hs[0].plus(hs[1:]), self.base.wp(s)

    def immersion(self, y):
        """(1 - h delta)^{-1} y, as the base immersion j is the identity."""
        return _series(self.delta, self.base.h, y)[0]

    def small_differential(self, y):
        return self.base.wp(self.delta(self.immersion(y)))


def hpl_resolution(lift: Lift, dop: GradedElement) -> PerturbedContraction:
    """Perturb the s = 0 contraction data by delta = d_BFV - d[0], for the
    operator dop of d_bfv; the induced differential on the small side is
    the leafwise de Rham differential m_1."""
    base = ContractionTwo(LeafForm.zero(lift.chart, 1))
    return PerturbedContraction(base, hamiltonian_operator(lift.G, base.omega_E()), dop)


def check_hpl_axioms(pert: PerturbedContraction, sampler):
    """The contraction axioms of the s = 0 data on 6 samples of sampler(),
    then those of the perturbed data, with its chain map, on 6 more."""
    base = pert.base
    hq = lambda y: (base.h(y), base.wp(y))
    for _ in range(6):
        check_contraction_axioms(hq, lambda y: y, pert.d0.insert, sampler(), "contraction data")
    for _ in range(6):
        # chain map: q'(d' x) = q delta j'(q' x), j'(q' x) read from the check
        jqx, qdx = check_contraction_axioms(
            pert.homotopy_projection, pert.immersion, pert.differential, sampler(), "perturbed data"
        )
        if not (qdx - base.wp(pert.delta(jqx))).is_zero():
            raise AssertionError("perturbed projection is not a chain map")


# ---------------------------------------------------------------------------
# BFV Kuranishi
# ---------------------------------------------------------------------------


def bfv_lift_cocycle(lift: Lift, perturbed: PerturbedContraction, s: LeafForm) -> GradedElement:
    """The perturbed immersion iota' applied to a normal section s = sum_A
    g_A delta_A (as the ghost-degree one element sum_A g_A xi^A): the
    canonical d_BFV-closed lift of an infinitesimal deformation."""
    return perturbed.immersion(ghost_section(lift.chart, s.components()))


def bfv_kuranishi(lift: Lift, perturbed: PerturbedContraction, nu: GradedElement):
    """Kr[nu] = [{nu, nu}_BFV] for a d_BFV-closed degree-1 section; returns
    (class, zero_mode), zero_mode the reduced leaf-torus zero mode of half
    the class, as order 2 of linfty.prolong_formal reads that of the
    MC route.  Like that route, it needs a fiber direction."""
    if not lift.chart.m:
        raise ContentError("projection needs at least one fiber direction")
    if not perturbed.differential(nu).is_zero():
        raise ContentError("bfv_kuranishi requires a d_BFV-closed section")
    kr = jacobi_bracket(lift.j_hat, nu, nu)
    return kr, perturbed.base.wp(kr).scale(Fraction(1, 2)).leaf_zero_mode()
