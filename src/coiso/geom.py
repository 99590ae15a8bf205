"""Geometric constructors and coisotropy machinery.

Contact and lcs structures are turned into Jacobi multiderivations on the
trivialized chart.  Both constructors check the ``Form``s they take, read
them as matrices over the ring (a 1-form or a vector field as a row over
the chart indices, a 2-form as its skew matrix) and read their bivector off
the exact inverse ``ring.inverse_unit`` of a matrix whose determinant must
be a unit of the ring: the curvature matrix of a contact frame E, which is
-E dtheta E^T by Cartan's formula, or the lcs 2-form.  The 1-jet model
J^1(T^b) is written in closed form.  Every constructor checks [[J, J]] = 0,
and the contact ones theta(X_f) = f as well.  Once the inputs have passed
their checks (a frame of ker theta, a unit determinant, a closed theta1),
[[J, J]] = 0 and the skewness of the inverse curvature matrix are
identities, so their failure raises AssertionError.  The conormal
projection P and vertical injection I tie multiderivations to leaf forms;
coisotropy of a section is decided by the exact substitution criterion.
"""

from __future__ import annotations

from itertools import chain

from .ring import Chart, ContentError, PowerTable, ScalarFn, inverse_unit, mat_mul, sum_of_products
from .multivector import MultiVectorField, SkewTerms
from .multider import MultiDerivation
from .leafform import LeafForm


# ---------------------------------------------------------------------------
# forms, read as ring matrices
# ---------------------------------------------------------------------------


class Form(SkewTerms):
    """Differential form with ScalarFn coefficients on increasing index keys."""

    __slots__ = ()

    def d(self) -> "Form":
        return self._exterior_d([(i, i) for i in range(self.chart.dim)])


def _rows(chart: Chart, tables):
    """Degree-1 tables (1-forms, vector fields) as rows over the chart indices."""
    zero = ScalarFn.zero(chart)
    if any(x.chart != chart for x in tables):
        raise ContentError("form and fields differ in chart")
    return [[x.terms.get((c,), zero) for c in range(chart.dim)] for x in tables]


def _skew(form: Form):
    """The 2-form as its skew matrix W, so that form(X, Y) = X W Y^T on
    rows X, Y."""
    n, zero = form.chart.dim, ScalarFn.zero(form.chart)
    W = [[zero] * n for _ in range(n)]
    for (i, j), f in form.terms.items():
        W[i][j], W[j][i] = f, -f
    return W


# ---------------------------------------------------------------------------
# contact structures
# ---------------------------------------------------------------------------


def check_contact_jacobi(theta: Form, J: MultiDerivation) -> MultiDerivation:
    """J = Lambda - Q ^ id after the postconditions of a contact construction:
    theta(X_f) = f for every f, then [[J, J]] = 0.

    X_f = f Q + Lambda(df, -), so theta(X_f) - f = f (theta(Q) - 1) -
    (i_theta Lambda)(f).  Inserting theta into the first slot of J gives
    i_theta J = i_theta Lambda - theta(Q) id, so theta(X_f) = f for every f
    iff i_theta J = -id.  That is also what theta(X_f) = f on the ring
    generators says: f = 1 gives theta(Q) = 1; then f = y_a gives the d_{y_a}
    component of i_theta Lambda, and f = exp(i ph), with df = i exp(i ph) dph
    and i exp(i ph) a unit, gives its d_ph component."""
    th = {mu: f for (mu,), f in theta.terms.items()}

    def contraction():
        # J(theta, -) = sum_{mu<nu} J^{mu nu} (theta_mu d_nu - theta_nu d_mu)
        for (mu, nu), f in J.terms.items():
            if mu in th:
                yield nu, th[mu], f, False
            if nu in th:
                yield mu, th[nu], f, True

    if sum_of_products(J.chart, contraction()) != {J.chart.dim: -ScalarFn.one(J.chart)}:
        raise ContentError("postcondition theta(X_f) = f failed")
    if not J.sj_bracket(J).is_zero():
        raise AssertionError("contact construction produced a non-Jacobi bracket")
    return J


def contact_to_jacobi(theta: Form, reeb: MultiVectorField, frame) -> MultiDerivation:
    """The Jacobi structure of a contact form: {lam, mu} = theta([X_lam, X_mu])
    with X_lam the unique contact field satisfying theta(X_lam) = lam.

    reeb is a candidate R with theta(R) = 1, frame dim - 1 fields E_i spanning
    ker theta, both checked by one product of their rows X = (R, E) with
    theta.  On them Cartan's formula gives theta([U, V]) = -dtheta(U, V),
    so M = X (-dtheta) E^T holds theta([R, E_j]) in row 0 and the curvature
    matrix omega_ij = theta([E_i, E_j]) below it; its determinant must be a
    unit.  Lambda = sum_{i<j} (omega^-1)_ij E_i ^ E_j and Q = X_1 = R +
    sum_i a^i E_i, with sum_i a^i omega_ij = -theta([R, E_j]) = -M[0]_j.
    """
    chart = theta.chart
    r = len(frame)
    if r != chart.dim - 1:
        raise ContentError("frame of ker theta must have dim - 1 members")
    X = _rows(chart, [reeb, *frame])
    pairing = [row[0] for row in mat_mul(chart, X, list(zip(*_rows(chart, [theta]))))]
    if pairing[0] != ScalarFn.one(chart):
        raise ContentError("theta(R) must be exactly 1")
    if any(not p.is_zero() for p in pairing[1:]):
        raise ContentError("frame vectors must lie in ker theta")

    M = mat_mul(chart, mat_mul(chart, X, _skew(-theta.d())), list(zip(*X[1:])))
    omega_inv = inverse_unit(chart, M[1:])
    if any(not (omega_inv[i][j] + omega_inv[j][i]).is_zero() for i in range(r) for j in range(i + 1)):
        raise AssertionError("inverse curvature matrix is not skew")

    (a,) = mat_mul(chart, [[-m for m in M[0]]], omega_inv)
    shifts = ((key, e, a[i], False) for i in range(r) for key, e in frame[i].terms.items())
    X1 = reeb + MultiVectorField._raw(chart, 1, sum_of_products(chart, shifts))
    wedges = (
        frame[i].scale_fn(omega_inv[i][j])._wedge_products(frame[j])
        for i in range(r)
        for j in range(i + 1, r)
        if not omega_inv[i][j].is_zero()
    )
    lam = MultiVectorField._raw(chart, 2, sum_of_products(chart, chain.from_iterable(wedges)))
    return check_contact_jacobi(theta, MultiDerivation.from_parts(lam, X1))


# ---------------------------------------------------------------------------
# lcs structures
# ---------------------------------------------------------------------------


def lcs_to_jacobi(omega: Form, theta1: Form) -> MultiDerivation:
    """Jacobi structure of a locally conformal symplectic structure in a
    trivialization: flat connection = closed 1-form theta1, d omega +
    omega ^ theta1 = 0, X_lam = omega^sharp(d lam + lam theta1)."""
    chart = omega.chart
    if not theta1.d().is_zero():
        raise ContentError("theta1 is not closed")
    if not (omega.d() + omega.wedge(theta1)).is_zero():
        raise ContentError("d omega + omega ^ theta1 != 0")

    n = chart.dim
    Omega_inv = inverse_unit(chart, _skew(omega))
    # the sharp of a covector beta solves sum_i v^i Omega_ij = beta_j, so it
    # is the row beta Omega^-1; the sharp of dx^mu is row mu of Omega^-1
    (gamma,) = mat_mul(chart, _rows(chart, [theta1]), Omega_inv)
    lam = {(mu, nu): Omega_inv[mu][nu] for mu in range(n) for nu in range(mu + 1, n)}
    gamma = MultiVectorField(chart, 1, {(i,): f for i, f in enumerate(gamma)})
    J = MultiDerivation.from_parts(MultiVectorField(chart, 2, lam), gamma)
    if not J.sj_bracket(J).is_zero():
        raise AssertionError("lcs construction produced a non-Jacobi bracket")
    return J


# ---------------------------------------------------------------------------
# the 1-jet model
# ---------------------------------------------------------------------------


def fiberwise_linear_jacobi(chart: Chart) -> MultiDerivation:
    """The fiberwise linear Jacobi structure on the 1-jet model J^1(T^b):
    fiber coordinates must be (z, p_1, ..., p_b) over a torus base of
    dimension b, carrying the canonical contact form theta = dz - sum p_i dph_i.
    In closed form Lambda = sum_i (d_{ph_i} + p_i d_z) ^ d_{p_i} and Q = d_z."""
    b = chart.k
    if chart.m != b + 1:
        raise ContentError("jet chart needs fiber (z, p_1..p_b) over T^b")
    one = ScalarFn.one(chart)
    z = chart.index(chart.fiber[0])
    lam, theta = {}, {(z,): one}
    for i, name in enumerate(chart.fiber[1:]):
        p, pi = chart.index(name), ScalarFn.y(chart, name)
        lam[(i, p)], lam[(z, p)] = one, pi
        theta[(i,)] = -pi
    dz = MultiVectorField.basis_vector(chart, chart.fiber[0])
    J = MultiDerivation.from_parts(MultiVectorField(chart, 2, lam), dz)
    return check_contact_jacobi(Form(chart, 1, theta), J)


# ---------------------------------------------------------------------------
# projection, injection, coisotropy
# ---------------------------------------------------------------------------


def projection_P(sq: MultiDerivation) -> LeafForm:
    """P: keep the pure-fiber-derivative coefficients of the p-part (no
    torus and no id index), restricted to y = 0."""
    chart = sq.chart
    if chart.m < 1:
        raise ContentError("projection needs at least one fiber direction")
    k, fiber = chart.k, range(chart.k, chart.dim)
    modes = ((key, f.zero_mode(fiber)) for key, f in sq.terms.items() if all(i in fiber for i in key))
    out = {tuple(i - k for i in key): g for key, g in modes if not g.is_zero()}
    return LeafForm._raw(chart, sq.degree, out)


def injection_I(xi: LeafForm) -> MultiDerivation:
    """I: fiberwise-constant vertical lift; sections map to the flat vertical
    derivative, so the q-part is always zero."""
    k = xi.chart.k
    terms = {tuple(a + k for a in key): f for key, f in xi.terms.items()}
    return MultiDerivation._raw(xi.chart, xi.degree, terms)


def is_coisotropic_section(j: MultiDerivation, s: LeafForm):
    """Substitution criterion for the normal section s = sum_A g_A delta_A:
    all brackets {(y_A - g_A), (y_B - g_B)} restricted to y = g(u) must
    vanish.

    Returns (flag, residues) with residues keyed by the offending (A, B).
    """
    if not j.is_jacobi():
        raise ContentError("is_coisotropic_section requires a Jacobi structure")
    chart = j.chart
    comps = s.components()
    gens = [ScalarFn.y(chart, name) - g for name, g in zip(chart.fiber, comps)]
    powers = PowerTable(chart, comps)
    residues = {}
    for a in range(chart.m):
        for b in range(a + 1, chart.m):
            r = j.apply([gens[a], gens[b]]).substitute_fiber(powers)
            if not r.is_zero():
                residues[(a, b)] = r
    return (not residues), residues
