"""Geometric constructors and coisotropy machinery.

Contact and lcs structures are turned into Jacobi multiderivations on the
trivialized chart.  A contact form reads its bivector off the exact inverse
``ring.inverse_unit`` of the curvature matrix of its frame,
Lambda = sum_{i<j} (omega^-1)_ij E_i ^ E_j; an lcs structure reads it off
the inverse of its 2-form; either determinant must be a unit of the ring.
The 1-jet model J^1(T^b) is written in closed form.  Every constructor
checks [[J, J]] = 0, and the contact ones theta(X_f) = f as well.  Once
the inputs have passed their checks (a frame of ker theta, a unit
determinant, a closed theta1), [[J, J]] = 0 and the skewness of the
inverse curvature matrix are identities, so their failure raises
AssertionError.  The conormal projection P and vertical injection I tie
multiderivations to leaf forms; coisotropy of a section is decided by the
exact substitution criterion.
"""

from __future__ import annotations

from .ring import Chart, ChartError, ContentError, PowerTable, ScalarFn, accumulate, inverse_unit, mat_mul
from .multivector import MultiVectorField, SkewTerms
from .multider import MultiDerivation
from .leafform import LeafForm


class GeometryError(ContentError):
    pass


# ---------------------------------------------------------------------------
# small exterior calculus (used only for the lcs preconditions)
# ---------------------------------------------------------------------------


class Form(SkewTerms):
    """Differential form with ScalarFn coefficients on increasing index keys."""

    __slots__ = ()

    def d(self) -> "Form":
        return self._exterior_d([(i, i) for i in range(self.chart.dim)])

    def pair_vector(self, X: MultiVectorField) -> ScalarFn:
        """<theta, X> for a 1-form and vector field, summed over the keys
        both carry."""
        if X.chart != self.chart:
            raise ChartError("pairing operands differ in chart")
        x = X.terms
        return ScalarFn.zero(self.chart).plus(f * x[k] for k, f in self.terms.items() if k in x)


# ---------------------------------------------------------------------------
# contact structures
# ---------------------------------------------------------------------------


class ContactChart:
    """A contact form on the chart with a declared global frame.

    theta: 1-form coefficients {coordinate name: ScalarFn};
    reeb: the Reeb candidate R, with theta(R) = 1;
    frame: dim-1 vector fields spanning C = ker theta, with theta(E_i) = 0.
    """

    def __init__(self, chart: Chart, theta: dict, reeb: MultiVectorField, frame):
        self.chart = chart
        self.theta = Form(chart, 1, {(chart.index(name),): f for name, f in theta.items()})
        self.reeb = reeb
        self.frame = list(frame)
        if len(self.frame) != chart.dim - 1:
            raise GeometryError("frame of ker theta must have dim - 1 members")
        if self.theta.pair_vector(reeb) != ScalarFn.one(chart):
            raise GeometryError("theta(R) must be exactly 1")
        for E in self.frame:
            if not self.theta.pair_vector(E).is_zero():
                raise GeometryError("frame vectors must lie in ker theta")

    def curvature(self):
        """The matrix omega_ij = theta([E_i, E_j]) of the frame.  The Lie
        bracket of vector fields is antisymmetric, so only i < j is
        computed: omega_ji = -omega_ij and the diagonal is zero."""
        r = len(self.frame)
        omega = [[ScalarFn.zero(self.chart)] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                w = self.theta.pair_vector(self.frame[i].sn_bracket(self.frame[j]))
                omega[i][j], omega[j][i] = w, -w
        return omega


def check_contact_jacobi(theta: Form, J: MultiDerivation) -> MultiDerivation:
    """J = Lambda - Q ^ id after the postconditions of a contact construction:
    theta(X_f) = f for every f, then [[J, J]] = 0.

    X_f = f Q + Lambda(df, -), so theta(X_f) - f = f (theta(Q) - 1) -
    (i_theta Lambda)(f) with i_theta Lambda = Lambda(theta, -).  Hence
    theta(X_f) = f for every f iff theta(X_1) = theta(Q) = 1 and
    i_theta Lambda = 0.  These two are also what theta(X_f) = f on the ring
    generators says: f = 1 gives theta(Q) = 1; then f = y_a gives the d_{y_a}
    component of i_theta Lambda, and f = exp(i ph), with df = i exp(i ph) dph
    and i exp(i ph) a unit, gives its d_ph component."""
    th = {mu: f for (mu,), f in theta.terms.items()}

    def contraction():
        # Lambda(theta, -) = sum_{mu<nu} Lambda^{mu nu} (theta_mu d_nu - theta_nu d_mu)
        for (mu, nu), f in J.p_part.terms.items():
            if mu in th:
                yield nu, th[mu] * f
            if nu in th:
                yield mu, -(th[nu] * f)

    if theta.pair_vector(J.q_part) != ScalarFn.one(J.chart) or accumulate({}, contraction()):
        raise GeometryError("postcondition theta(X_f) = f failed")
    if not J.sj_bracket(J).is_zero():
        raise AssertionError("contact construction produced a non-Jacobi bracket")
    return J


def contact_to_jacobi(cc: ContactChart) -> MultiDerivation:
    """The Jacobi structure of a contact form: {lam, mu} = theta([X_lam, X_mu])
    with X_lam the unique contact field satisfying theta(X_lam) = lam.

    The curvature matrix omega_ij = theta([E_i, E_j]) must be invertible with
    unit determinant.  Then Lambda = sum_{i<j} (omega^-1)_ij E_i ^ E_j and
    Q = X_1 = R + sum_i a^i E_i, with sum_i a^i omega_ij = -theta([R, E_j]).
    """
    chart = cc.chart
    frame = cc.frame
    r = len(frame)

    omega_inv = inverse_unit(chart, cc.curvature())
    if any(not (omega_inv[i][j] + omega_inv[j][i]).is_zero() for i in range(r) for j in range(i + 1)):
        raise AssertionError("inverse curvature matrix is not skew")

    (a,) = mat_mul(chart, [[-cc.theta.pair_vector(cc.reeb.sn_bracket(E)) for E in frame]], omega_inv)
    X1 = cc.reeb.plus(frame[i].scale_fn(a[i]) for i in range(r))
    lam = MultiVectorField.zero(chart, 2).plus(
        frame[i].scale_fn(omega_inv[i][j]).wedge(frame[j])
        for i in range(r)
        for j in range(i + 1, r)
        if not omega_inv[i][j].is_zero()
    )
    return check_contact_jacobi(cc.theta, MultiDerivation.from_parts(lam, X1))


# ---------------------------------------------------------------------------
# lcs structures
# ---------------------------------------------------------------------------


def lcs_to_jacobi(omega: Form, theta1: Form) -> MultiDerivation:
    """Jacobi structure of a locally conformal symplectic structure in a
    trivialization: flat connection = closed 1-form theta1, d omega +
    omega ^ theta1 = 0, X_lam = omega^sharp(d lam + lam theta1)."""
    chart = omega.chart
    if not theta1.d().is_zero():
        raise GeometryError("theta1 is not closed")
    if not (omega.d() + omega.wedge(theta1)).is_zero():
        raise GeometryError("d omega + omega ^ theta1 != 0")

    n = chart.dim
    Omega_inv = inverse_unit(chart, [[omega.coefficient((i, j)) for j in range(n)] for i in range(n)])
    # the sharp of a covector beta solves sum_i v^i Omega_ij = beta_j, so it
    # is the row beta Omega^-1; the sharp of dx^mu is row mu of Omega^-1
    (gamma,) = mat_mul(chart, [[theta1.coefficient((j,)) for j in range(n)]], Omega_inv)
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
        raise GeometryError("jet chart needs fiber (z, p_1..p_b) over T^b")
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
        raise GeometryError("projection needs at least one fiber direction")
    out, fiber = {}, range(chart.k, chart.dim)
    for key, f in sq.terms.items():
        if all(chart.k <= i < chart.dim for i in key):
            g = f.zero_mode(fiber)
            if not g.is_zero():
                out[tuple(i - chart.k for i in key)] = g
    return LeafForm(chart, sq.arity, out)


def injection_I(xi: LeafForm) -> MultiDerivation:
    """I: fiberwise-constant vertical lift; sections map to the flat vertical
    derivative, so the q-part is always zero."""
    chart = xi.chart
    terms = {tuple(a + chart.k for a in key): f for key, f in xi.terms.items()}
    return MultiDerivation(chart, xi.degree, terms)


def is_coisotropic_section(j: MultiDerivation, s: LeafForm):
    """Substitution criterion for the normal section s = sum_A g_A delta_A:
    all brackets {(y_A - g_A), (y_B - g_B)} restricted to y = g(u) must
    vanish.

    Returns (flag, residues) with residues keyed by the offending (A, B).
    """
    if not j.is_jacobi():
        raise GeometryError("is_coisotropic_section requires a Jacobi structure")
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
