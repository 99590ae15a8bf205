"""Contact/lcs/jet constructors, projection P, injection I, coisotropy."""

import copy
import random

import pytest

from coiso.rational import GaussianRational
from coiso.ring import Chart, ChartError, ScalarFn
from coiso.multivector import MultiVectorField
from coiso.multider import MultiDerivation
from coiso.leafform import LeafForm
from coiso.geom import (
    ContactChart,
    Form,
    GeometryError,
    check_contact_jacobi,
    contact_to_jacobi,
    fiberwise_linear_jacobi,
    injection_I,
    is_coisotropic_section,
    lcs_to_jacobi,
    projection_P,
)

from helpers import (
    dense_curvature,
    fields_XY,
    generator_postcondition,
    jet_chart,
    jet_contact_chart,
    random_base_scalar,
    random_scalar,
    torus_chart,
    torus_jacobi,
)
from paper import hamiltonian


@pytest.fixture
def chart():
    return torus_chart()


def torus_contact_chart(chart) -> ContactChart:
    """theta_E = y_1 dph_1 + y_2 dph_2 + sin(ph_3) dph_4 + cos(ph_3) dph_5
    with the Reeb field Y and the obvious frame of ker theta."""
    X, Y = fields_XY(chart)
    theta = {
        "ph_1": ScalarFn.y(chart, "y_1"),
        "ph_2": ScalarFn.y(chart, "y_2"),
        "ph_4": ScalarFn.sin_phi(chart, "ph_3"),
        "ph_5": ScalarFn.cos_phi(chart, "ph_3"),
    }
    frame = [
        MultiVectorField.basis_vector(chart, "y_1"),
        MultiVectorField.basis_vector(chart, "y_2"),
        MultiVectorField.basis_vector(chart, "ph_3"),
        X,
        MultiVectorField.basis_vector(chart, "ph_1") - Y.scale_fn(ScalarFn.y(chart, "y_1")),
        MultiVectorField.basis_vector(chart, "ph_2") - Y.scale_fn(ScalarFn.y(chart, "y_2")),
    ]
    return ContactChart(chart, theta, Y, frame)


def test_contact_reproduces_displayed_J(chart):
    J = contact_to_jacobi(torus_contact_chart(chart))
    assert J == torus_jacobi(chart)
    assert J.sj_bracket(J).is_zero()
    # J depends on theta alone: a candidate R = Y + d_y1 with theta(R) = 1
    # that is not the Reeb field gives the same J
    cc = torus_contact_chart(chart)
    theta = {chart.coords[i]: f for (i,), f in cc.theta.terms.items()}
    reeb = cc.reeb + MultiVectorField.basis_vector(chart, "y_1")
    assert contact_to_jacobi(ContactChart(chart, theta, reeb, cc.frame)) == J


def test_curvature_is_the_dense_matrix(chart):
    """ContactChart.curvature brackets the pairs i < j only; the dense
    r x r matrix is the oracle, on the declared frame and on random
    ScalarFn combinations of it, which still lie in ker theta."""
    cc = torus_contact_chart(chart)
    rng = random.Random(37)
    zero = MultiVectorField.zero(chart, 1)
    mixed = copy.copy(cc)
    mixed.frame = [
        zero.plus(E.scale_fn(random_scalar(chart, rng, max_terms=1)) for E in rng.sample(cc.frame, 3))
        for _ in cc.frame
    ]
    for c in (cc, mixed):
        omega = c.curvature()
        assert len(omega) == 6 and omega == dense_curvature(c)
    assert mixed.curvature() != cc.curvature()


def test_contact_scaling(chart):
    cc = torus_contact_chart(chart)
    c = GaussianRational(3)
    X, Y = fields_XY(chart)
    theta_scaled = {
        "ph_1": ScalarFn.y(chart, "y_1").scale(c),
        "ph_2": ScalarFn.y(chart, "y_2").scale(c),
        "ph_4": ScalarFn.sin_phi(chart, "ph_3").scale(c),
        "ph_5": ScalarFn.cos_phi(chart, "ph_3").scale(c),
    }
    cc2 = ContactChart(chart, theta_scaled, Y.scale(GaussianRational(1) / c), cc.frame)
    J1 = contact_to_jacobi(cc)
    J2 = contact_to_jacobi(cc2)
    rng = random.Random(0)
    for _ in range(4):
        f, g = random_scalar(chart, rng), random_scalar(chart, rng)
        assert J2.apply([f, g]) == J1.apply([f, g]).scale(GaussianRational(1) / c)
        assert J2.apply([ScalarFn.one(chart), ScalarFn.one(chart)]).is_zero()


def test_contact_standard_r3():
    """theta = dz - y dx on a pure fiber chart (k = 0, m = 3)."""
    chart = Chart(torus=(), fiber=("x", "y", "z"))
    theta = {"z": ScalarFn.one(chart), "x": -ScalarFn.y(chart, "y")}
    reeb = MultiVectorField.basis_vector(chart, "z")
    frame = [
        MultiVectorField.basis_vector(chart, "y"),
        MultiVectorField.basis_vector(chart, "x")
        + MultiVectorField.basis_vector(chart, "z").scale_fn(ScalarFn.y(chart, "y")),
    ]
    J = contact_to_jacobi(ContactChart(chart, theta, reeb, frame))
    assert J.sj_bracket(J).is_zero()
    # the curvature of the declared frame is the unit 1x1... rank 2 here:
    # omega(d_y, d_x + y d_z) = theta([d_y, d_x + y d_z]) = theta(d_z) = 1
    assert hamiltonian(J, ScalarFn.one(chart)).p_part == reeb


def test_contact_requires_unit_curvature(chart):
    # collapse the frame so the curvature matrix is singular
    cc = torus_contact_chart(chart)
    bad_frame = list(cc.frame)
    bad_frame[2] = bad_frame[2].scale_fn(ScalarFn.y(chart, "y_1"))
    theta = {
        "ph_1": ScalarFn.y(chart, "y_1"),
        "ph_2": ScalarFn.y(chart, "y_2"),
        "ph_4": ScalarFn.sin_phi(chart, "ph_3"),
        "ph_5": ScalarFn.cos_phi(chart, "ph_3"),
    }
    _, Y = fields_XY(chart)
    with pytest.raises(ChartError, match="^matrix determinant is not a unit of the ring: "):
        contact_to_jacobi(ContactChart(chart, theta, Y, bad_frame))


def test_lcs_symplectic_torus():
    chart = Chart(torus=("ph_1", "ph_2"))
    omega = Form(chart, 2, {(0, 1): ScalarFn.one(chart)})
    theta1 = Form(chart, 1, {})
    J = lcs_to_jacobi(omega, theta1)
    assert J.q_part.is_zero()
    # with omega(X_f, -) = df and {f, g} = X_f(g), omega = dph_1 ^ dph_2
    # yields Lambda = -dph_1 ^ dph_2 exactly
    expected = (
        MultiVectorField.basis_vector(chart, "ph_1")
        .wedge(MultiVectorField.basis_vector(chart, "ph_2"))
        .scale(-1)
    )
    assert J.p_part == expected
    assert J.sj_bracket(J).is_zero()


def test_lcs_requires_unit_determinant():
    # omega = (1 + y) dph_1 ^ dy is closed, but det Omega = (1 + y)^2
    chart = Chart(torus=("ph_1",), fiber=("y",))
    omega = Form(chart, 2, {(0, 1): ScalarFn.one(chart) + ScalarFn.y(chart, "y")})
    with pytest.raises(ChartError, match="^matrix determinant is not a unit of the ring: "):
        lcs_to_jacobi(omega, Form(chart, 1, {}))


def test_form_keys_are_canonical():
    """Form keys are sorted with the sign of the sort; repeated indices
    vanish; keys of the wrong length or out of range are rejected."""
    chart = Chart(torus=("ph_1", "ph_2"))
    one = ScalarFn.one(chart)
    w = Form(chart, 2, {(1, 0): one})
    assert not w.is_zero()
    assert w == Form(chart, 2, {(0, 1): -one})
    assert w.coefficient((0, 1)) == -one
    assert w.coefficient((1, 0)) == one
    assert Form(chart, 2, {(0, 0): one}).is_zero()
    with pytest.raises(ChartError):
        Form(chart, 2, {(0,): one})
    with pytest.raises(ChartError):
        Form(chart, 1, {(2,): one})


def test_pair_vector_reads_shared_keys():
    """<theta, X> sums over the coordinates both carry; disjoint supports
    pair to zero, and operands on different charts are refused even then."""
    chart = Chart(torus=("ph_1", "ph_2", "ph_3"))
    c1, s2 = ScalarFn.cos_phi(chart, "ph_1"), ScalarFn.sin_phi(chart, "ph_2")
    theta = Form(chart, 1, {(0,): c1, (1,): s2})
    X = MultiVectorField.vector(chart, {"ph_2": c1, "ph_3": s2})
    assert theta.pair_vector(X) == s2 * c1
    assert theta.pair_vector(MultiVectorField.vector(chart, {"ph_3": c1})).is_zero()
    other = Chart(torus=("ph_1", "ph_2", "th"))
    with pytest.raises(ChartError, match="differ in chart"):
        theta.pair_vector(MultiVectorField.vector(other, {"th": ScalarFn.one(other)}))


def test_lcs_nontrivial_flat_connection():
    """On T^4: theta1 = i dph_3 (closed), omega = E(ph_3, -1) dph_1 ^ dph_2
    + dph_3 ^ dph_4 satisfies d omega + omega ^ theta1 = 0 exactly."""
    chart = Chart(torus=("ph_1", "ph_2", "ph_3", "ph_4"))
    one = ScalarFn.one(chart)
    theta1 = Form(chart, 1, {(2,): one.scale(GaussianRational(0, 1))})
    omega = Form(
        chart,
        2,
        {(0, 1): ScalarFn.exp_phi(chart, "ph_3", -1), (2, 3): one},
    )
    J = lcs_to_jacobi(omega, theta1)
    assert J.sj_bracket(J).is_zero()


def test_lcs_precondition_violation():
    chart = Chart(torus=("ph_1", "ph_2", "ph_3", "ph_4"))
    one = ScalarFn.one(chart)
    theta1 = Form(chart, 1, {(2,): one.scale(GaussianRational(0, 1))})
    omega = Form(chart, 2, {(0, 1): one, (2, 3): one})
    with pytest.raises(GeometryError):
        lcs_to_jacobi(omega, theta1)


def test_jet_model():
    chart = jet_chart(1)
    J = fiberwise_linear_jacobi(chart)
    assert J.sj_bracket(J).is_zero()
    # frozen form: Lambda = dph_1 ^ dp_1 + p_1 dz ^ dp_1, Gamma = dz
    p1 = ScalarFn.y(chart, "p_1")
    lam = MultiVectorField(
        chart,
        2,
        {
            (chart.index("ph_1"), chart.index("p_1")): ScalarFn.one(chart),
            (chart.index("z"), chart.index("p_1")): p1,
        },
    )
    assert J.p_part == lam
    assert J.q_part == MultiVectorField.basis_vector(chart, "z")
    # fiberwise-linear homogeneity: every p-part coefficient has fiber
    # degree <= 1, and brackets of fiberwise-constant sections vanish
    assert all(f.fiber_degree() <= 1 for f in J.p_part.terms.values())
    rng = random.Random(1)
    for _ in range(4):
        f = random_base_scalar(chart, rng)
        g = random_base_scalar(chart, rng)
        assert J.apply([f, g]).is_zero()


def test_jet_model_over_t5():
    """On J^1(T^5) the closed form passes the constructor's postconditions
    (theta(X_f) = f, [[J, J]] = 0) and is the sum over i of the frozen form
    of test_jet_model; the contact route, through the inverse of its 10 x 10
    curvature matrix, gives the same J."""
    chart = jet_chart(5)
    J = fiberwise_linear_jacobi(chart)
    assert contact_to_jacobi(jet_contact_chart(chart)) == J
    z = chart.index("z")
    lam = {}
    for i in range(1, 6):
        ph, p = chart.index(f"ph_{i}"), chart.index(f"p_{i}")
        lam[(ph, p)] = ScalarFn.one(chart)
        lam[(z, p)] = ScalarFn.y(chart, f"p_{i}")
    assert J.p_part == MultiVectorField(chart, 2, lam)
    assert J.q_part == MultiVectorField.basis_vector(chart, "z")


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_jet_closed_form_is_the_contact_route(b):
    """The closed form equals contact_to_jacobi on the jet contact frame."""
    chart = jet_chart(b)
    assert fiberwise_linear_jacobi(chart) == contact_to_jacobi(jet_contact_chart(chart))


@pytest.mark.parametrize("corrupt", ["lambda", "q"])
def test_corrupted_structure_fails_both_postconditions(corrupt):
    """theta(Q) = 1 with i_theta Lambda = 0, and theta(X_f) = f on the
    generators, accept the jet model and both reject it with an extra
    p_1 d_ph_1 ^ d_z in Lambda, or with Q doubled."""
    chart = jet_chart(1)
    theta = jet_contact_chart(chart).theta
    J = fiberwise_linear_jacobi(chart)
    assert generator_postcondition(theta, J)
    assert check_contact_jacobi(theta, J) is J
    if corrupt == "lambda":
        extra = MultiVectorField.basis_vector(chart, "ph_1").wedge(
            MultiVectorField.basis_vector(chart, "z")
        )
        bad = MultiDerivation.from_parts(J.p_part + extra.scale_fn(ScalarFn.y(chart, "p_1")), J.q_part)
    else:
        bad = MultiDerivation.from_parts(J.p_part, J.q_part.scale(2))
    assert not generator_postcondition(theta, bad)
    with pytest.raises(GeometryError, match="^postcondition theta"):
        check_contact_jacobi(theta, bad)


def test_jet_model_chart_shape():
    with pytest.raises(GeometryError):
        fiberwise_linear_jacobi(Chart(torus=("ph_1",), fiber=("z",)))


def test_projection_P(chart):
    J = torus_jacobi(chart)
    assert projection_P(J).is_zero()  # the zero section is coisotropic

    dy1 = MultiVectorField.basis_vector(chart, "y_1")
    dy2 = MultiVectorField.basis_vector(chart, "y_2")
    sq = MultiDerivation.from_parts(dy1.wedge(dy2))
    out = projection_P(sq)
    assert out == LeafForm(chart, 2, {(0, 1): ScalarFn.one(chart)})

    sq2 = MultiDerivation.from_parts(dy1.wedge(dy2).scale_fn(ScalarFn.y(chart, "y_1")))
    assert projection_P(sq2).is_zero()


def test_projection_depends_on_bisymbol_only(chart):
    # P(J) = P(Lambda_J): adding any q-part does not change the projection
    rng = random.Random(3)
    from helpers import random_multider

    for _ in range(5):
        sq = random_multider(chart, rng, 2)
        only_p = MultiDerivation.from_parts(sq.p_part)
        assert projection_P(sq) == projection_P(only_p)


def test_injection(chart):
    rng = random.Random(5)
    for deg in (0, 1, 2):
        from itertools import combinations

        keys = list(combinations(range(chart.m), deg))
        xi = LeafForm(
            chart, deg, {rng.choice(keys): random_base_scalar(chart, rng)}
        )
        assert projection_P(injection_I(xi)) == xi
    # abelian image
    for dega, degb in ((1, 1), (1, 2), (2, 2)):
        from itertools import combinations

        xa = LeafForm(
            chart,
            dega,
            {rng.choice(list(combinations(range(chart.m), dega))): random_base_scalar(chart, rng)},
        )
        xb = LeafForm(
            chart,
            degb,
            {rng.choice(list(combinations(range(chart.m), degb))): random_base_scalar(chart, rng)},
        )
        assert injection_I(xa).sj_bracket(injection_I(xb)).is_zero()


def test_ker_P_is_subalgebra(chart):
    rng = random.Random(7)
    from helpers import random_multider

    found = 0
    while found < 6:
        a = random_multider(chart, rng, rng.choice([1, 2]))
        b = random_multider(chart, rng, rng.choice([1, 2]))
        if projection_P(a).is_zero() and projection_P(b).is_zero():
            found += 1
            assert projection_P(a.sj_bracket(b)).is_zero()


def test_coisotropic_zero_section(chart):
    J = torus_jacobi(chart)
    ok, residues = is_coisotropic_section(J, LeafForm.zero(chart, 1))
    assert ok and not residues


def test_coisotropic_pde_criterion(chart):
    """s = (f, g) is coisotropic iff the displayed first-order PDE holds."""
    J = torus_jacobi(chart)
    X, Y = fields_XY(chart)

    def pde(f, g):
        return (
            f.partial(1)
            - g.partial(0)
            + f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f * Y.apply([g])
            - g * Y.apply([f])
        )

    rng = random.Random(11)
    seen_true = seen_false = False
    # a known coisotropic section: f = cos(ph_3), g = 0 satisfies the PDE
    cases = [(ScalarFn.cos_phi(chart, "ph_3"), ScalarFn.zero(chart))]
    cases += [
        (random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        for _ in range(6)
    ]
    for f, g in cases:
        s = LeafForm.section(chart, [f, g])
        ok, _ = is_coisotropic_section(J, s)
        assert ok == pde(f, g).is_zero()
        seen_true |= ok
        seen_false |= not ok
    assert seen_true and seen_false


def test_coisotropic_false_case(chart):
    # Lambda = dy_1 ^ dy_2 gives {y_1, y_2} = 1: the zero section cannot
    # be coisotropic; the residue is the constant 1.
    lam = MultiVectorField.basis_vector(chart, "y_1").wedge(
        MultiVectorField.basis_vector(chart, "y_2")
    )
    J = MultiDerivation.from_parts(lam)
    ok, residues = is_coisotropic_section(J, LeafForm.zero(chart, 1))
    assert not ok
    assert residues[(0, 1)] == ScalarFn.one(chart)
