"""Geometric constructors and coisotropy machinery.

Contact and lcs structures are turned into Jacobi multiderivations on the
trivialized chart, through the exact inverse ``ring.inverse_unit`` of the
curvature matrix or of the 2-form, whose determinant must be a unit of the
ring; the conormal projection P and vertical injection I tie
multiderivations to leaf forms; coisotropy of a section is decided by the
exact substitution criterion.
"""

from __future__ import annotations

from .ring import Chart, ChartError, ScalarFn, inverse_unit, mat_mul
from .multivector import MultiVectorField, SkewTerms
from .multider import MultiDerivation
from .leafform import LeafForm, SectionOfNormalBundle


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small exterior calculus (used only for the lcs preconditions)
# ---------------------------------------------------------------------------


class Form(SkewTerms):
    """Differential form with ScalarFn coefficients on increasing index keys."""

    __slots__ = ()

    @staticmethod
    def from_components(chart: Chart, comps: dict, degree: int) -> "Form":
        out = {}
        for key, f in comps.items():
            idx = tuple(chart.index(n) for n in key) if key and isinstance(key[0], str) else tuple(key)
            out[idx] = f
        return Form(chart, degree, out)

    def d(self) -> "Form":
        return self._exterior_d(list(enumerate(self.chart.coords)))

    def pair_vector(self, X: MultiVectorField) -> ScalarFn:
        """<theta, X> for a 1-form and vector field."""
        if self.degree != 1 or X.degree != 1:
            raise GeometryError("pairing needs a 1-form and a vector field")
        return ScalarFn.zero(self.chart).plus(
            f * X.coefficient((i,)) for (i,), f in self.terms.items()
        )


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
        self.theta = Form.from_components(
            chart, {(name,): f for name, f in theta.items()}, 1
        )
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


def contact_to_jacobi(cc: ContactChart) -> MultiDerivation:
    """The Jacobi structure of a contact form: {lam, mu} = theta([X_lam, X_mu])
    with X_lam the unique contact field satisfying theta(X_lam) = lam.

    The curvature matrix omega_ij = theta([E_i, E_j]) must be invertible with
    unit determinant.  Postconditions theta(X_f) = f on ring generators and
    [[J, J]] = 0 are verified before returning.
    """
    chart = cc.chart
    theta = cc.theta
    frame = cc.frame
    r = len(frame)

    try:
        omega_inv = inverse_unit(chart, cc.curvature())
    except ChartError as exc:
        raise GeometryError(str(exc)) from None

    # c_j = theta([R, E_j]); X_1 = R + sum a^i E_i with sum_i a^i omega_ij = -c_j
    c = [theta.pair_vector(cc.reeb.sn_bracket(frame[j])) for j in range(r)]
    (a,) = mat_mul(chart, [[-cj for cj in c]], omega_inv)
    X1 = cc.reeb.plus(frame[i].scale_fn(a[i]) for i in range(r))

    # B^mu = omega^sharp((dx^mu)|_C): sum_i b^i omega_ij = <dx^mu, E_j>,
    # one row of right-hand sides per coordinate mu
    rhs = [[frame[j].coefficient((mu,)) for j in range(r)] for mu in range(chart.dim)]
    zero = MultiVectorField.zero(chart, 1)
    B = [zero.plus(frame[i].scale_fn(b[i]) for i in range(r)) for b in mat_mul(chart, rhs, omega_inv)]

    lam_terms = {}
    for mu in range(chart.dim):
        for nu in range(mu + 1, chart.dim):
            coeff = B[mu].coefficient((nu,))
            if not coeff.is_zero():
                lam_terms[(mu, nu)] = coeff
    lam = MultiVectorField(chart, 2, lam_terms)

    # antisymmetry check of the candidate bi-vector
    for mu in range(chart.dim):
        for nu in range(chart.dim):
            if not (B[mu].coefficient((nu,)) + B[nu].coefficient((mu,))).is_zero():
                raise GeometryError("contact construction produced a non-skew bi-symbol")

    J = MultiDerivation(lam, X1)

    # postcondition: theta(X_f) = f on generators
    gens = [ScalarFn.one(chart)]
    gens += [ScalarFn.y(chart, nm) for nm in chart.fiber]
    gens += [ScalarFn.exp_phi(chart, nm, 1) for nm in chart.torus]
    for f in gens:
        Xf = J.hamiltonian_vf(f)
        if theta.pair_vector(Xf) != f:
            raise GeometryError("postcondition theta(X_f) = f failed")
    if not J.sj_bracket(J).is_zero():
        raise GeometryError("contact construction produced a non-Jacobi bracket")
    return J


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
    Omega = [[omega.coefficient((i, j)) for j in range(n)] for i in range(n)]
    try:
        Omega_inv = inverse_unit(chart, Omega)
    except ChartError as exc:
        raise GeometryError(str(exc)) from None

    def sharp(covector):
        # solve omega(V, e_j) = beta_j, i.e. sum_i v^i Omega[i][j] = beta_j
        (comps,) = mat_mul(chart, [covector], Omega_inv)
        return MultiVectorField(
            chart, 1, {(i,): f for i, f in enumerate(comps) if not f.is_zero()}
        )

    gamma = sharp([theta1.coefficient((j,)) for j in range(n)])
    # the sharp of the unit covector dx^mu is row mu of Omega_inv
    lam_terms = {}
    for mu in range(n):
        for nu in range(mu + 1, n):
            coeff = Omega_inv[mu][nu]
            if not coeff.is_zero():
                lam_terms[(mu, nu)] = coeff
    lam = MultiVectorField(chart, 2, lam_terms)
    J = MultiDerivation(lam, gamma)
    if not J.sj_bracket(J).is_zero():
        raise GeometryError("lcs construction produced a non-Jacobi bracket")
    return J


# ---------------------------------------------------------------------------
# the 1-jet model
# ---------------------------------------------------------------------------


def fiberwise_linear_jacobi(chart: Chart) -> MultiDerivation:
    """The fiberwise linear Jacobi structure on the 1-jet model J^1(T^b):
    fiber coordinates must be (z, p_1, ..., p_b) over a torus base of
    dimension b, carrying the canonical contact form dz - sum p_i dph_i."""
    b = chart.k
    if chart.m != b + 1:
        raise GeometryError("jet chart needs fiber (z, p_1..p_b) over T^b")
    z = chart.fiber[0]
    ps = chart.fiber[1:]
    theta = {z: ScalarFn.one(chart)}
    for i, name in enumerate(chart.torus):
        theta[name] = -ScalarFn.y(chart, ps[i])
    reeb = MultiVectorField.basis_vector(chart, z)
    frame = []
    for p in ps:
        frame.append(MultiVectorField.basis_vector(chart, p))
    for i, name in enumerate(chart.torus):
        frame.append(
            MultiVectorField.basis_vector(chart, name)
            + MultiVectorField.basis_vector(chart, z).scale_fn(ScalarFn.y(chart, ps[i]))
        )
    return contact_to_jacobi(ContactChart(chart, theta, reeb, frame))


# ---------------------------------------------------------------------------
# projection, injection, coisotropy
# ---------------------------------------------------------------------------


def projection_P(sq: MultiDerivation) -> LeafForm:
    """P: keep the pure-fiber-derivative coefficients of the p-part,
    restricted to y = 0."""
    chart = sq.chart
    if chart.m < 1:
        raise GeometryError("projection needs at least one fiber direction")
    out = {}
    for key, f in sq.p_part.terms.items():
        if all(chart.is_fiber_index(i) for i in key):
            g = f.restrict_zero_section()
            if not g.is_zero():
                out[tuple(i - chart.k for i in key)] = g
    return LeafForm(chart, sq.arity, out)


def injection_I(xi: LeafForm) -> MultiDerivation:
    """I: fiberwise-constant vertical lift; sections map to the flat vertical
    derivative, so the q-part is always zero."""
    chart = xi.chart
    terms = {tuple(a + chart.k for a in key): f for key, f in xi.terms.items()}
    return MultiDerivation(MultiVectorField(chart, xi.degree, terms))


def injection_section(s: SectionOfNormalBundle) -> MultiDerivation:
    return injection_I(s.to_leafform())


def is_coisotropic_section(j: MultiDerivation, s: SectionOfNormalBundle):
    """Substitution criterion: all brackets {(y_A - g_A), (y_B - g_B)}
    restricted to y = g(u) must vanish.

    Returns (flag, residues) with residues keyed by the offending (A, B).
    """
    if not j.is_jacobi():
        raise GeometryError("is_coisotropic_section requires a Jacobi structure")
    chart = j.chart
    assignment = s.assignment()
    gens = [
        ScalarFn.y(chart, name) - g for name, g in zip(chart.fiber, s.components)
    ]
    residues = {}
    for a in range(chart.m):
        for b in range(a + 1, chart.m):
            r = j.apply([gens[a], gens[b]]).substitute_fiber(assignment)
            if not r.is_zero():
                residues[(a, b)] = r
    return (not residues), residues
