"""Lifting Jacobi structures, BRST charges, the BFV differential, the
generic SBSO and HPL engines, BFV Kuranishi, and geometric MC zero loci.

The step-by-step obstruction engine is one recursion used by two consumers:
the lifting (filtration by antighost bidegree on operators, N = 0) and the
BRST charge (filtration by antighost word degree on sections, N = -1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import ScalarFn
from .multider import MultiDerivation
from .leafform import SectionOfNormalBundle
from .geom import matrix_inverse_unit
from .graded import (
    XI,
    Connection,
    ContractionOne,
    ContractionTwo,
    GradedElement,
    hamiltonian_operator,
    jacobi_bracket,
    tautological_G,
)


class BFVError(ValueError):
    pass


class ObstructionFailure(Exception):
    """SBSO applicability failed; carries the offending component."""

    def __init__(self, component):
        super().__init__("obstruction: the approximate MC element cannot be deformed")
        self.component = component


# ---------------------------------------------------------------------------
# contraction data wrapper
# ---------------------------------------------------------------------------


def check_contraction_axioms(data, x, label):
    """q j = id, [d, h] = j q - id, h^2 = h j = q h = 0 on the sample x for
    data with projection q, immersion j, homotopy h and differential d."""
    q, j, h, d = data.projection, data.immersion, data.homotopy, data.differential
    if not ((d(h(x)) + h(d(x))) - (j(q(x)) - x)).is_zero():
        raise BFVError(f"{label} violate [d, h] = j q - id")
    if not h(h(x)).is_zero():
        raise BFVError(f"{label} violate h^2 = 0")
    if not q(h(x)).is_zero():
        raise BFVError(f"{label} violate q h = 0")
    small = q(x)
    if not (q(j(small)) - small).is_zero():
        raise BFVError(f"{label} violate q j = id")
    if not h(j(small)).is_zero():
        raise BFVError(f"{label} violate h j = 0")


class ContractionData:
    """(projection, immersion, homotopy, differential) with the contraction
    axioms checked on a randomized sample at construction."""

    def __init__(self, projection, immersion, homotopy, differential, sampler=None, checks=6):
        self.projection = projection
        self.immersion = immersion
        self.homotopy = homotopy
        self.differential = differential
        if sampler is not None:
            for _ in range(checks):
                check_contraction_axioms(self, sampler(), "contraction data")


# ---------------------------------------------------------------------------
# the generic step-by-step obstruction engine
# ---------------------------------------------------------------------------


def sbso(bracket, homotopy, obstruction, filtration, qbar, N, max_steps=16):
    """Deform qbar into an MC element Q == qbar mod F_{N+1}.

    * bracket(a, b): the graded Lie bracket.
    * homotopy(x): the contraction homotopy H.
    * obstruction(x): the component P(x) whose vanishing is the
      applicability condition; raises through ObstructionFailure.
    * filtration(x): the filtration degree of x (10^9 for 0).
    * qbar: the approximate MC element, N: the starting filtration level.

    Returns (Q, corrections) with corrections the list of added Q_k.
    """
    sq = bracket(qbar, qbar)
    obs = obstruction(sq)
    if not obs.is_zero():
        raise ObstructionFailure(obs)
    if filtration(sq) < N:
        raise BFVError("[qbar, qbar] sits below the starting filtration level")
    q = qbar
    corrections = []
    for _ in range(max_steps):
        sq = bracket(q, q)
        if sq.is_zero():
            return q, corrections
        step = homotopy(sq).scale(Fraction(1, 2))
        if step.is_zero():
            raise BFVError("SBSO stalled: homotopy produced no correction")
        corrections.append(step)
        q = q + step
    raise BFVError("SBSO failed to converge within the finite filtration")


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


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


class Lift:
    """The lifted graded Jacobi structure of an ungraded one.

    When the supplied connection passes the flatness morphism test, the
    fast path J^ = G + i_nabla(J) applies and the SBSO adds no corrections;
    otherwise the recursion deforms G + i_nabla(J) into an MC element along
    the diagonal bidegree filtration."""

    def __init__(self, j: MultiDerivation, rank: int, connection: Connection | None = None):
        chart = j.chart
        if rank != chart.m:
            raise BFVError("ghost rank must match the fiber dimension")
        if not j.is_jacobi():
            raise BFVError("lifting requires a Jacobi structure")
        self.chart = chart
        self.rank = rank
        self.j = j
        self.c1 = ContractionOne(chart, rank, connection)
        self.G = tautological_G(chart, rank)
        self.flat = self._is_flat()
        qbar = self.G + self.c1.i_nabla(j)
        if self.flat:
            self.j_hat = qbar
            if not self.j_hat.bracket(self.j_hat).is_zero():
                raise BFVError("flat lifting failed: [[J^, J^]] != 0")
            self.corrections = self._run_sbso(qbar)
            if self.corrections:
                raise BFVError("flat lifting unexpectedly required corrections")
        else:
            self.corrections = self._run_sbso(qbar)
            self.j_hat = qbar
            for step in self.corrections:
                self.j_hat = self.j_hat + step
            if not self.j_hat.bracket(self.j_hat).is_zero():
                raise BFVError("lifting failed: [[J^, J^]] != 0")

    def _is_flat(self) -> bool:
        """Flatness through the bracket-morphism test on the structure and
        the coordinate derivations."""
        from .multivector import MultiVectorField

        probes = [self.j]
        for i in range(min(self.chart.dim, 2)):
            probes.append(
                MultiDerivation(MultiVectorField.basis_vector(self.chart, self.chart.coords[i]))
            )
        for a in probes:
            for b in probes:
                lhs = self.c1.i_nabla(a).bracket(self.c1.i_nabla(b))
                rhs = self.c1.i_nabla(a.sj_bracket(b))
                if not (lhs - rhs).is_zero():
                    return False
        return True

    def _run_sbso(self, qbar):
        zero = GradedElement.zero(self.chart, self.rank)
        _, corrections = sbso(
            lambda a, b: a.bracket(b),
            self.c1.H,
            lambda x: zero if self.c1.p(x).is_zero() else x,
            lambda x: x.diag_filtration(),
            qbar,
            0,
        )
        return corrections

    def lifting_conditions_hold(self, samples):
        """pr(0,0) of the lifted bracket agrees with {-,-}_G on mixed
        ghost/antighost generators and with {-,-}_J on plain sections."""
        chart, rank = self.chart, self.rank
        for A in range(rank):
            u = GradedElement.ghost(chart, rank, A)
            for B in range(rank):
                al = GradedElement.antighost(chart, rank, B)
                lhs = jacobi_bracket(self.j_hat, u, al).pr(0, 0)
                rhs = jacobi_bracket(self.G, u, al).pr(0, 0)
                if not (lhs - rhs).is_zero():
                    return False
        for f, g in samples:
            lhs = jacobi_bracket(
                self.j_hat,
                GradedElement.section(chart, rank, f),
                GradedElement.section(chart, rank, g),
            ).pr(0, 0)
            expected = GradedElement.section(chart, rank, self.j.apply([f, g]))
            if not (lhs - expected).is_zero():
                return False
        return True

    def bracket_sections(self, a: GradedElement, b: GradedElement) -> GradedElement:
        return jacobi_bracket(self.j_hat, a, b)


# ---------------------------------------------------------------------------
# BRST charge and BFV differential
# ---------------------------------------------------------------------------


def brst_charge(lift: Lift, s: SectionOfNormalBundle):
    """Run the SBSO on Omega_E[s]; returns (Omega, corrections) or raises
    ObstructionFailure carrying wp[s]{Omega_E[s], Omega_E[s]} when the image
    of s is not coisotropic."""
    c2 = ContractionTwo(lift.chart, lift.rank, s)
    qbar = c2.omega_E()

    def bracket(a, b):
        return jacobi_bracket(lift.j_hat, a, b)

    omega, corrections = sbso(
        bracket,
        c2.h,
        lambda x: c2.wp(x),
        lambda x: x.antighost_filtration(),
        qbar,
        -1,
    )
    return omega, corrections


def d_bfv(lift: Lift, omega: GradedElement) -> GradedElement:
    """d_BFV = {Omega_BRST, -} as a graded operator; square-zero verified."""
    op = hamiltonian_operator(lift.j_hat, omega)
    if not op.bracket(op).is_zero():
        raise BFVError("d_BFV does not square to zero")
    return op


def bfv_coisotropy_residual(lift: Lift, s: SectionOfNormalBundle) -> GradedElement:
    """{Omega_E[s], Omega_E[s]}_BFV."""
    c2 = ContractionTwo(lift.chart, lift.rank, s)
    om = c2.omega_E()
    return jacobi_bracket(lift.j_hat, om, om)


# ---------------------------------------------------------------------------
# homological perturbation lemma
# ---------------------------------------------------------------------------


def geometric_series(op, x, max_terms=16):
    """(1 - op)^{-1} x = sum op^k x for nilpotent op."""
    out = x
    term = x
    for _ in range(max_terms):
        term = op(term)
        if term.is_zero():
            return out
        out = out + term
    raise BFVError("perturbation series failed to terminate")


class PerturbedContraction:
    """HPL output: the deformed contraction data of (q, j, h, d) under a
    small perturbation delta with delta h nilpotent."""

    def __init__(self, base: ContractionData, delta, sampler=None, checks=6):
        self.base = base
        self.delta = delta

        def inv_dh(x):
            return geometric_series(lambda y: self.delta(base.homotopy(y)), x)

        def inv_hd(x):
            return geometric_series(lambda y: base.homotopy(self.delta(y)), x)

        self.projection = lambda x: base.projection(inv_dh(x))
        self.immersion = lambda x: inv_hd(base.immersion(x))
        self.homotopy = lambda x: base.homotopy(inv_dh(x))
        self.differential = lambda x: base.differential(x) + self.delta(x)
        self.small_differential = lambda x: base.projection(
            self.delta(inv_hd(base.immersion(x)))
        )
        if sampler is not None:
            for _ in range(checks):
                x = sampler()
                check_contraction_axioms(self, x, "perturbed data")
                if not (
                    self.projection(self.differential(x))
                    - self.small_differential(self.projection(x))
                ).is_zero():
                    raise BFVError("perturbed projection is not a chain map")


def hpl_resolution(lift: Lift, omega_brst: GradedElement, sampler=None):
    """Perturb the s = 0 contraction data by delta = d_BFV - d[0]; the
    induced differential on the small side is the leafwise de Rham
    differential m_1."""
    chart, rank = lift.chart, lift.rank
    c2 = ContractionTwo(chart, rank, SectionOfNormalBundle.zero(chart))
    dop = d_bfv(lift, omega_brst)
    d0 = c2.d_s(lift.G)

    base = ContractionData(
        projection=c2.wp,
        immersion=c2.iota,
        homotopy=c2.h,
        differential=lambda x: d0.insert(x),
        sampler=sampler,
    )
    delta = lambda x: dop.insert(x) - d0.insert(x)
    return PerturbedContraction(base, delta, sampler=sampler)


# ---------------------------------------------------------------------------
# BFV Kuranishi and geometric MC elements
# ---------------------------------------------------------------------------


def bfv_lift_cocycle(lift: Lift, perturbed: PerturbedContraction, s: SectionOfNormalBundle) -> GradedElement:
    """The perturbed immersion iota' applied to a section (as a ghost-degree
    one element): the canonical d_BFV-closed lift of an infinitesimal
    deformation."""
    ghosts = {((XI, A),): g for A, g in enumerate(s.components)}
    return perturbed.immersion(GradedElement(lift.chart, lift.rank, ghosts))


def bfv_kuranishi(lift: Lift, dop: GradedElement, nu: GradedElement):
    """Kr[nu] = [{nu, nu}_BFV] for a d_BFV-closed degree-1 section; returns
    the class together with the reduced leaf-torus zero mode of half the
    class (matching the order-2 prolongation obstruction)."""
    if not dop.insert(nu).is_zero():
        raise BFVError("bfv_kuranishi requires a d_BFV-closed section")
    kr = jacobi_bracket(lift.j_hat, nu, nu)
    c2 = ContractionTwo(lift.chart, lift.rank, SectionOfNormalBundle.zero(lift.chart))
    reduced = c2.wp(kr).scale(Fraction(1, 2))
    zero_mode = _ghost_leaf_zero_mode(reduced)
    return kr, zero_mode, len(lift.chart.leaf)


def _ghost_leaf_zero_mode(x: GradedElement) -> GradedElement:
    chart = x.chart
    leaf_idx = [chart.torus.index(c) for c in chart.leaf]
    out = {}
    for letters, f in x.terms.items():
        kept = {
            (n, a): c
            for (n, a), c in f.terms.items()
            if all(n[j] == 0 for j in leaf_idx)
        }
        if kept:
            out[letters] = ScalarFn(chart, kept)
    return GradedElement(chart, x.rank, out)


def geometric_mc_zero_locus(omega: GradedElement, max_iter=12):
    """Solve pr(1,0) Omega = sum e_A(u, y) xi^A for the section graph
    y = g(u) with e_A(u, g(u)) = 0.

    The linear-in-y part along y = 0 must be invertible (unit determinant);
    the solution is found by the exact Newton iteration, which terminates
    for graphs of polynomial sections.  Returns the section or raises
    BFVError with a structured message."""
    chart = omega.chart
    rank = omega.rank
    pr10 = omega.pr(1, 0)
    e = [pr10.terms.get(((XI, A),), ScalarFn.zero(chart)) for A in range(rank)]
    # linear part L[A][B] = d e_A / d y_B |_{y=0}
    L = [
        [e[A].partial(chart.fiber[B]).restrict_zero_section() for B in range(rank)]
        for A in range(rank)
    ]
    try:
        L_inv = matrix_inverse_unit(chart, L)
    except Exception as exc:
        raise BFVError(f"zero locus is not a section graph: {exc}") from None
    g = [ScalarFn.zero(chart) for _ in range(rank)]
    for _ in range(max_iter):
        vals = [eA.substitute_fiber({name: gb for name, gb in zip(chart.fiber, g)}) for eA in e]
        if all(v.is_zero() for v in vals):
            return SectionOfNormalBundle(chart, g)
        g = [g[A].plus(-(L_inv[A][B] * vals[B]) for B in range(rank)) for A in range(rank)]
    raise BFVError("zero locus iteration failed: locus is not a polynomial section graph")
