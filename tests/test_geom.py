"""Contact/lcs/jet constructors, projection P, injection I, coisotropy."""

import random

import pytest

from coiso.rational import GaussianRational
from coiso.ring import Chart, ContentError, PowerTable, ScalarFn
from coiso.multivector import MultiVectorField
from coiso.multider import MultiDerivation
from coiso.leafform import LeafForm
from coiso.geom import (
    Form,
    _rows,
    _skew,
    check_contact_jacobi,
    contact_to_jacobi,
    fiberwise_linear_jacobi,
    injection_I,
    is_coisotropic_section,
    lcs_to_jacobi,
    projection_P,
)

from helpers import (
    coefficient,
    dense,
    dense_mul,
    dense_sn_bracket,
    exp_phi,
    fields_XY,
    generator_postcondition,
    jet_chart,
    jet_contact_data,
    jet_scenario,
    one_form,
    pairing,
    random_base_scalar,
    random_mvf,
    random_scalar,
    torus_chart,
    torus_jacobi,
)
from paper import hamiltonian


@pytest.fixture
def chart():
    return torus_chart()


def torus_contact_data(chart):
    """(theta, Y, frame), the arguments of contact_to_jacobi: theta_E =
    y_1 dph_1 + y_2 dph_2 + sin(ph_3) dph_4 + cos(ph_3) dph_5 with the Reeb
    field Y and the obvious frame of ker theta."""
    X, Y = fields_XY(chart)
    theta = one_form(chart, {
        "ph_1": ScalarFn.y(chart, "y_1"),
        "ph_2": ScalarFn.y(chart, "y_2"),
        "ph_4": ScalarFn.sin_phi(chart, "ph_3"),
        "ph_5": ScalarFn.cos_phi(chart, "ph_3"),
    })
    frame = [
        MultiVectorField.basis_vector(chart, "y_1"),
        MultiVectorField.basis_vector(chart, "y_2"),
        MultiVectorField.basis_vector(chart, "ph_3"),
        X,
        MultiVectorField.basis_vector(chart, "ph_1") - Y.scale_fn(ScalarFn.y(chart, "y_1")),
        MultiVectorField.basis_vector(chart, "ph_2") - Y.scale_fn(ScalarFn.y(chart, "y_2")),
    ]
    return theta, Y, frame


def test_contact_reproduces_displayed_J(chart):
    theta, Y, frame = torus_contact_data(chart)
    J = contact_to_jacobi(theta, Y, frame)
    assert J == torus_jacobi(chart)
    assert J.sj_bracket(J).is_zero()
    # J depends on theta alone: a candidate R = Y + d_y1 with theta(R) = 1
    # that is not the Reeb field gives the same J
    reeb = Y + MultiVectorField.basis_vector(chart, "y_1")
    assert contact_to_jacobi(theta, reeb, frame) == J


def test_J_does_not_depend_on_the_frame(chart):
    """J depends on theta alone, so contact_to_jacobi gives the same J on
    the declared frame, on permutations of it, and on frames changed by
    E_i -> E_i + f E_j (i != j, seeded ScalarFn f), which still span
    ker theta with a curvature matrix of unit determinant."""
    theta, Y, frame = torus_contact_data(chart)
    J = contact_to_jacobi(theta, Y, frame)
    rng = random.Random(37)
    for _ in range(3):
        permuted = rng.sample(frame, len(frame))
        assert permuted != frame
        assert contact_to_jacobi(theta, Y, permuted) == J
    for _ in range(3):
        i, j = rng.sample(range(len(frame)), 2)
        sheared = list(frame)
        sheared[i] = frame[i] + frame[j].scale_fn(random_scalar(chart, rng, max_terms=2))
        assert sheared[i] != frame[i]
        assert contact_to_jacobi(theta, Y, sheared) == J


def test_contact_scaling(chart):
    theta, Y, frame = torus_contact_data(chart)
    c = GaussianRational(3)
    J1 = contact_to_jacobi(theta, Y, frame)
    J2 = contact_to_jacobi(theta.scale(c), Y.scale(GaussianRational(1) / c), frame)
    rng = random.Random(0)
    for _ in range(4):
        f, g = random_scalar(chart, rng), random_scalar(chart, rng)
        assert J2.apply([f, g]) == J1.apply([f, g]).scale(GaussianRational(1) / c)
        assert J2.apply([ScalarFn.one(chart), ScalarFn.one(chart)]).is_zero()


def test_contact_standard_r3():
    """theta = dz - y dx on a pure fiber chart (k = 0, m = 3)."""
    chart = Chart(torus=(), fiber=("x", "y", "z"))
    theta = one_form(chart, {"z": ScalarFn.one(chart), "x": -ScalarFn.y(chart, "y")})
    reeb = MultiVectorField.basis_vector(chart, "z")
    frame = [
        MultiVectorField.basis_vector(chart, "y"),
        MultiVectorField.basis_vector(chart, "x")
        + MultiVectorField.basis_vector(chart, "z").scale_fn(ScalarFn.y(chart, "y")),
    ]
    J = contact_to_jacobi(theta, reeb, frame)
    assert J.sj_bracket(J).is_zero()
    # the curvature of the declared frame is the unit 1x1... rank 2 here:
    # omega(d_y, d_x + y d_z) = theta([d_y, d_x + y d_z]) = theta(d_z) = 1
    assert hamiltonian(J, ScalarFn.one(chart)).p_part == reeb


def test_contact_refuses_fields_on_another_chart(chart):
    """A Reeb candidate or a frame field on another chart of the same
    dimension, whose coefficients would line up index by index, is refused
    before any coefficient is read."""
    theta, Y, frame = torus_contact_data(chart)
    other = Chart(torus=chart.torus[:-1] + ("th",), fiber=chart.fiber, leaf=chart.leaf)
    moved = MultiVectorField.vector(other, {"th": ScalarFn.one(other)})
    with pytest.raises(ContentError, match="differ in chart"):
        contact_to_jacobi(theta, moved, frame)
    with pytest.raises(ContentError, match="differ in chart"):
        contact_to_jacobi(theta, Y, frame[:-1] + [moved])


def _cartan_holds(chart, rng, skew):
    """For each of 8 seeded X, Y (random_mvf, degree 1) and 1-forms theta
    with a coefficient on every coordinate: whether theta([X, Y]) =
    X(theta(Y)) - Y(theta(X)) - dtheta(X, Y), the bracket taken by
    dense_sn_bracket and dtheta(X, Y) = X W Y^T with W = skew(dtheta)."""
    out = []
    for _ in range(8):
        X, Y = random_mvf(chart, rng, 1), random_mvf(chart, rng, 1)
        theta = Form(chart, 1, {(c,): random_scalar(chart, rng) for c in range(chart.dim)})
        x, y = dense(chart, _rows(chart, [X, Y]), 2, chart.dim)
        W = dense(chart, skew(theta.d()), chart.dim)
        ((dtheta,),) = dense_mul(chart, dense_mul(chart, [x], W), [[v] for v in y])
        lhs = pairing(theta, dense_sn_bracket(X, Y))
        out.append(lhs == X.apply([pairing(theta, Y)]) - Y.apply([pairing(theta, X)]) - dtheta)
    return out


def test_cartan_formula_through_the_skew_reader(chart):
    """Cartan's formula for the exterior derivative of a 1-form, the
    identity contact_to_jacobi reads its curvature off, holds through the
    skew reader on every sample; with the sign of the reader's lower
    triangle flipped (W_ji = +W_ij, a symmetric matrix) it fails."""

    def flipped(form):
        return {(i, j): -w if i > j else w for (i, j), w in _skew(form).items()}

    assert all(_cartan_holds(chart, random.Random(43), _skew))
    assert not all(_cartan_holds(chart, random.Random(43), flipped))


def test_contact_requires_unit_curvature(chart):
    # collapse the frame so the curvature matrix is singular
    theta, Y, frame = torus_contact_data(chart)
    bad_frame = list(frame)
    bad_frame[2] = bad_frame[2].scale_fn(ScalarFn.y(chart, "y_1"))
    with pytest.raises(ContentError, match="^matrix determinant is not a unit of the ring: "):
        contact_to_jacobi(theta, Y, bad_frame)


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
    with pytest.raises(ContentError, match="^matrix determinant is not a unit of the ring: "):
        lcs_to_jacobi(omega, Form(chart, 1, {}))


def test_form_keys_are_canonical():
    """Form keys are sorted with the sign of the sort; repeated indices
    vanish; keys of the wrong length or out of range are rejected."""
    chart = Chart(torus=("ph_1", "ph_2"))
    one = ScalarFn.one(chart)
    w = Form(chart, 2, {(1, 0): one})
    assert not w.is_zero()
    assert w == Form(chart, 2, {(0, 1): -one})
    assert coefficient(w, (0, 1)) == -one
    assert coefficient(w, (1, 0)) == one
    assert Form(chart, 2, {(0, 0): one}).is_zero()
    with pytest.raises(ContentError, match="^key length does not match degree$"):
        Form(chart, 2, {(0,): one})
    with pytest.raises(ContentError, match=r"^Form index out of range in \(2,\)$"):
        Form(chart, 1, {(2,): one})


def test_lcs_nontrivial_flat_connection():
    """On T^4: theta1 = i dph_3 (closed), omega = E(ph_3, -1) dph_1 ^ dph_2
    + dph_3 ^ dph_4 satisfies d omega + omega ^ theta1 = 0 exactly."""
    chart = Chart(torus=("ph_1", "ph_2", "ph_3", "ph_4"))
    one = ScalarFn.one(chart)
    theta1 = Form(chart, 1, {(2,): one.scale(GaussianRational(0, 1))})
    omega = Form(
        chart,
        2,
        {(0, 1): exp_phi(chart, "ph_3", -1), (2, 3): one},
    )
    J = lcs_to_jacobi(omega, theta1)
    assert J.sj_bracket(J).is_zero()


def test_lcs_precondition_violation():
    chart = Chart(torus=("ph_1", "ph_2", "ph_3", "ph_4"))
    one = ScalarFn.one(chart)
    theta1 = Form(chart, 1, {(2,): one.scale(GaussianRational(0, 1))})
    omega = Form(chart, 2, {(0, 1): one, (2, 3): one})
    with pytest.raises(ContentError, match=r"^d omega \+ omega \^ theta1 != 0$"):
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
    assert contact_to_jacobi(*jet_contact_data(chart)) == J
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
    assert fiberwise_linear_jacobi(chart) == contact_to_jacobi(*jet_contact_data(chart))


@pytest.mark.parametrize("corrupt", ["lambda", "q"])
def test_corrupted_structure_fails_both_postconditions(corrupt):
    """theta(Q) = 1 with i_theta Lambda = 0, and theta(X_f) = f on the
    generators, accept the jet model and both reject it with an extra
    p_1 d_ph_1 ^ d_z in Lambda, or with Q doubled."""
    chart = jet_chart(1)
    theta, _, _ = jet_contact_data(chart)
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
    with pytest.raises(ContentError, match="^postcondition theta"):
        check_contact_jacobi(theta, bad)


def test_jet_model_chart_shape():
    with pytest.raises(ContentError, match=r"^jet chart needs fiber \(z, p_1..p_b\) over T\^b$"):
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


def test_coisotropic_section_inserts_each_generator_once(monkeypatch):
    """The residue of (A, B) inserts y_B - g_B into J(y_A - g_A, .), which
    is built once per A: J meets each generator y_A - g_A, A < m - 1, once,
    and the residues are those of J applied to each pair on its own."""
    j = jet_scenario(3).jacobi()
    chart = j.chart
    rng = random.Random(7)
    s = LeafForm.section(chart, [random_base_scalar(chart, rng) for _ in range(chart.m)])
    gens = [ScalarFn.y(chart, name) - g for name, g in zip(chart.fiber, s.components())]
    powers = PowerTable(chart, s.components())
    expected = {}
    for a in range(chart.m):
        for b in range(a + 1, chart.m):
            r = j.apply([gens[a], gens[b]]).substitute_fiber(powers)
            if not r.is_zero():
                expected[a, b] = r
    inserts = []
    insert = MultiDerivation._insert
    monkeypatch.setattr(MultiDerivation, "_insert", lambda d, f: inserts.append((d, f)) or insert(d, f))
    ok, residues = is_coisotropic_section(j, s)
    assert expected and not ok and residues == expected
    assert [f for d, f in inserts if d is j] == gens[:-1]
    assert len(inserts) == chart.m - 1 + chart.m * (chart.m - 1) // 2


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
