"""Lifting, BRST charges, BFV differential, HPL resolution, Kuranishi."""

import operator
import random
import re

import pytest

from coiso import bfv
from coiso.cli import _random_graded_section
from coiso.ring import ContentError, ScalarFn
from coiso.scenario import load_scenario
from coiso.leafform import LeafForm
from coiso.linfty import MultibracketTable, prolong_formal
from coiso.graded import (
    DX,
    DXI,
    DXIS,
    XI,
    XIS,
    ContractionTwo,
    GradedElement,
    decode,
    encode,
    hamiltonian_operator,
    i_nabla,
    jacobi_bracket,
)
from coiso.bfv import (
    Lift,
    ObstructionFailure,
    bfv_kuranishi,
    bfv_lift_cocycle,
    brst_charge,
    check_contraction_axioms,
    check_hpl_axioms,
    d_bfv,
    hpl_resolution,
    sbso,
)

from helpers import (
    antighost_filtration,
    dense_normalize,
    fields_XY,
    ghost,
    jet_scenario,
    random_base_scalar,
    random_scalar,
    summed_series_homotopy_projection,
    torus_chart,
    torus_jacobi,
)
from paper import (
    Connection,
    ContractionOne,
    CurvedLift,
    bfv_coisotropy_residual,
    exp_ad,
    geometric_mc_zero_locus,
    graded_bracket,
    lifting_conditions_hold,
    pr,
    sbso_gauge,
)



@pytest.fixture(scope="module")
def chart():
    return torus_chart()


@pytest.fixture(scope="module")
def lift(chart):
    return Lift(torus_jacobi(chart))


def rand_graded_section(chart, rng, nterms=2):
    terms = {}
    for _ in range(nterms):
        letters = []
        for _ in range(rng.randint(0, 2)):
            letters.append(rng.choice([(XI, rng.randrange(chart.m)), (XIS, rng.randrange(chart.m))]))
        sign, canon = dense_normalize(letters)
        if sign == 0:
            continue
        terms[canon] = random_scalar(chart, rng, max_terms=1)
    return GradedElement(chart, terms)


def test_lift_is_G_plus_inabla_with_no_corrections(lift, chart):
    # Lift keeps no corrections list: J^ is G + i_nabla(J) term for term
    assert lift.j_hat == lift.G + i_nabla(lift.j)
    assert (lift.j_hat - lift.G - i_nabla(lift.j)).is_zero()
    assert lift.j_hat.bracket().is_zero()


def test_lift_of_zero_is_G(chart):
    from coiso.multider import MultiDerivation
    from coiso.multivector import MultiVectorField

    zero = MultiDerivation.from_parts(MultiVectorField.zero(chart, 2), MultiVectorField.zero(chart, 1))
    lf = Lift(zero)
    assert (lf.j_hat - lf.G).is_zero()


def test_lifting_conditions(lift, chart):
    rng = random.Random(1)
    samples = [(random_scalar(chart, rng), random_scalar(chart, rng)) for _ in range(4)]
    assert lifting_conditions_hold(lift, samples)
    # p(J^_1) = J: the non-G part projects to the original structure
    assert ContractionOne(chart).p(lift.j_hat - lift.G) == lift.j


def test_displayed_lift(lift, chart):
    """The worked example's lifted structure: the ungraded words of J, the
    ghost rotation -Y(xi^1 Dxi_1 + xi^2 Dxi_2) correction inside i_nabla(J),
    and the pairing Dxi^A Dxis_A."""
    X, Y = fields_XY(chart)
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    c3 = ScalarFn.cos_phi(chart, "ph_3")
    # collect the expected ghost-sector terms: G + Y (x) (xi^A Dxi_A)-part
    diff = lift.j_hat - i_nabla(lift.j) - lift.G
    assert diff.is_zero()
    # the ghost-rotation terms of i_nabla(J) have bidegree (1, 0) - (1, 0):
    # words xi^A . D_ph . D_xi_A with the Reeb coefficients
    found = {
        letters
        for letters in map(decode, lift.j_hat.terms)
        if any(l[0] == DXI for l in letters) and any(l[0] == XI for l in letters)
    }
    expected_words = set()
    for A in range(chart.m):
        for i, coeff in ((3, s3), (4, c3)):
            expected_words.add(((XI, A), (DX, i), (DXI, A)))
    assert found == expected_words


def test_brst_charge_zero_section(lift, chart):
    omega, corrections, op = brst_charge(lift, LeafForm.zero(chart, 1))
    c2 = ContractionTwo(LeafForm.zero(chart, 1))
    assert corrections == []
    assert (omega - c2.omega_E()).is_zero()
    assert jacobi_bracket(lift.j_hat, omega, omega).is_zero()
    assert op == hamiltonian_operator(lift.j_hat, omega)


def test_brst_charge_coisotropic_section(lift, chart):
    # f = cos(ph_3), g = 0 solves the coisotropy PDE; the charge exists
    s = LeafForm.section(chart, [ScalarFn.cos_phi(chart, "ph_3"), ScalarFn.zero(chart)])
    omega, _, _ = brst_charge(lift, s)
    assert jacobi_bracket(lift.j_hat, omega, omega).is_zero()
    c2 = ContractionTwo(s)
    assert (pr(omega, 1, 0) - c2.omega_E()).is_zero()


def test_brst_charge_with_genuine_corrections(lift, chart):
    """s = (0, sin ph_4) is coisotropic but its tautological section is not
    MC on the nose: the recursion must add antighost corrections, and every
    partial sum pushes the MC defect up the filtration."""
    s = LeafForm.section(chart, [ScalarFn.zero(chart), ScalarFn.sin_phi(chart, "ph_4")])
    from coiso.geom import is_coisotropic_section

    ok, _ = is_coisotropic_section(lift.j, s)
    assert ok
    residual = bfv_coisotropy_residual(lift, s)
    assert not residual.is_zero()  # raw defect nonzero, wp[s] of it zero
    c2 = ContractionTwo(s)
    assert c2.wp(residual).is_zero()
    omega, corrections, op = brst_charge(lift, s)
    assert corrections
    assert (pr(omega, 1, 0) - c2.omega_E()).is_zero()
    assert jacobi_bracket(lift.j_hat, omega, omega).is_zero()
    # the operator of the last square is {Omega, -} of the returned Omega
    assert op == hamiltonian_operator(lift.j_hat, omega)
    # recursion consistency: the defect of each partial sum climbs the
    # antighost filtration step by step
    partial = c2.omega_E()
    level = antighost_filtration(jacobi_bracket(lift.j_hat, partial, partial))
    for step in corrections:
        partial = partial + step
        defect = jacobi_bracket(lift.j_hat, partial, partial)
        new_level = antighost_filtration(defect)
        assert new_level > level
        level = new_level


def test_lifted_square_takes_the_shortcut(lift):
    """[[J^, J^]] through the one-composition square equals the bracket
    with a distinct copy of J^, which composes both ways."""
    j = lift.j_hat
    copy = j._like(dict(j.terms))
    assert copy is not j and copy == j
    assert j.bracket() == graded_bracket(j, copy)
    assert j.bracket().is_zero()


def test_flatness_probes_bracket_antisymmetrically(chart):
    """CurvedLift.flat checks the bracket-morphism identity on each
    unordered probe pair once.  That is enough because on the probes
    i_nabla keeps the degree (arity - 1) and both brackets are graded
    antisymmetric with the same sign: [[b, a]] = -(-1)^{|a||b|} [[a, b]],
    the diagonal included."""
    lift = CurvedLift(torus_jacobi(chart))
    probes = lift.flatness_probes()
    assert len(probes) == 3
    images = [lift.c1.i_nabla(a) for a in probes]
    degrees = [ia.is_homogeneous_degree() for ia in images]
    assert degrees == [a.degree - 1 for a in probes]
    for a, ia, da in zip(probes, images, degrees):
        for b, ib, db in zip(probes, images, degrees):
            sign = -((-1) ** (da * db))
            assert graded_bracket(ib, ia) == graded_bracket(ia, ib).scale(sign)
            assert b.sj_bracket(a) == a.sj_bracket(b).scale(sign)


class _Vec(tuple):
    """A vector of Q^n with the + - is_zero the axiom checks use."""

    def __add__(self, other):
        return _Vec(map(operator.add, self, other))

    def __sub__(self, other):
        return _Vec(map(operator.sub, self, other))

    def is_zero(self):
        return not any(self)


def _linear(*rows):
    """x -> M x for the matrix M with these rows."""
    return lambda x: _Vec(sum(m * v for m, v in zip(row, x)) for row in rows)


# a contraction of V = span(a, b, c), d b = c, onto W = span(a):
# q x = x_a, j y = y a, h c = -b
_D = _linear((0, 0, 0), (0, 0, 0), (0, 1, 0))
_BASE = dict(
    projection=_linear((1, 0, 0)),
    immersion=_linear((1,), (0,), (0,)),
    homotopy=_linear((0, 0, 0), (0, 0, -1), (0, 0, 0)),
    differential=_D,
)


def _check_toy(x, projection, immersion, homotopy, differential):
    """The axiom check of these maps on the sample x, its
    homotopy_projection read from homotopy and projection."""
    hq = lambda y: (homotopy(y), projection(y))
    return check_contraction_axioms(hq, immersion, differential, _Vec(x), "toy")


@pytest.mark.parametrize(
    "axiom, change, sample",
    [
        # h c = -2 b
        ("[d, h] = j q - id", dict(homotopy=_linear((0, 0, 0), (0, 0, -2), (0, 0, 0))), (1, 1, 1)),
        # h b = b, h c = -b - c: still a homotopy, but h^2 = id on span(b, c)
        ("h^2 = 0", dict(homotopy=_linear((0, 0, 0), (0, 1, -1), (0, 0, -1))), (1, 1, 1)),
        # h b = -a, h c = -b
        ("q h = 0", dict(homotopy=_linear((0, -1, 0), (0, 0, -1), (0, 0, 0))), (0, 1, 0)),
        # q x = -x_b
        ("q j = id", dict(projection=_linear((0, -1, 0))), (-1, 1, 0)),
        # h a = -c and nothing else
        ("h j = 0", dict(homotopy=_linear((0, 0, 0), (0, 0, 0), (-1, 0, 0))), (1, 0, 0)),
    ],
)
def test_contraction_axiom_messages(axiom, change, sample):
    """Each data tuple breaks exactly one axiom on its sample, and the check
    names that axiom.  (As identities of maps, q h = 0 and h j = 0 follow
    from the other four, so no tuple breaks one of them alone everywhere.)"""
    for x in ((1, 1, 1), (0, 1, 0), (-1, 1, 0), (1, 0, 0)):
        # (j q x, q d x) = (x_a a, 0): d x = x_b c has no a-component
        assert _check_toy(x, **_BASE) == ((x[0], 0, 0), (0,))
    with pytest.raises(AssertionError, match=f"^toy violate {re.escape(axiom)}$"):
        _check_toy(sample, **{**_BASE, **change})


def test_sbso_squares_once_per_step(lift, chart, monkeypatch):
    """The applicability square is the first square of the loop: the
    bracket runs once per correction and once more for the zero square.
    The guard is probed at the module's step bound."""
    s = LeafForm.section(chart, [ScalarFn.zero(chart), ScalarFn.sin_phi(chart, "ph_4")])
    c2 = ContractionTwo(s)
    calls = []

    def bracket(a, b):
        calls.append((a, b))
        return jacobi_bracket(lift.j_hat, a, b)

    args = (bracket, c2.h, c2.wp, c2.omega_E())
    q, corrections = sbso(*args)
    assert corrections and len(calls) == len(corrections) + 1
    assert jacobi_bracket(lift.j_hat, q, q).is_zero() and q == brst_charge(lift, s)[0]
    # the square after the last allowed correction is checked, not dropped
    monkeypatch.setattr(bfv, "_STEPS", len(corrections))
    assert sbso(*args) == (q, corrections)
    monkeypatch.setattr(bfv, "_STEPS", len(corrections) - 1)
    with pytest.raises(AssertionError, match="failed to converge"):
        sbso(*args)


@pytest.mark.parametrize("name", ["torus-obstructed", "jet-T2"])
def test_dbfv_is_the_operator_of_the_last_square(name, monkeypatch):
    """d_BFV = {Omega_0, -} is the Hamiltonian operator that the SBSO's last
    square of Omega_0 built: the tasks that need d_BFV (dbfv, bfv-kuranishi,
    hpl-resolve) build hamiltonian_operator(J^, Omega_0) once per scenario,
    and it equals the operator built afresh."""
    from coiso import cli, graded

    scenario = load_scenario(name) if name != "jet-T2" else jet_scenario(2)
    tasks = ["dbfv", "hpl-resolve"] + (["bfv-kuranishi"] if name != "jet-T2" else [])
    calls = []
    original = graded.hamiltonian_operator

    def spy(jop, a):
        calls.append((jop, a))
        return original(jop, a)

    monkeypatch.setattr(graded, "hamiltonian_operator", spy)
    monkeypatch.setattr(bfv, "hamiltonian_operator", spy)
    for task in tasks:
        cli.TASKS[task](scenario, None)
    j_hat, omega0 = scenario.lift().j_hat, scenario.omega0()[0]
    assert sum(jop is j_hat and a == omega0 for jop, a in calls) == 1
    assert scenario.dbfv() == original(j_hat, omega0)


def test_flat_lift_squares_once(chart, monkeypatch):
    """A lift brackets J^ with itself once and never runs the SBSO."""
    squares = []
    sbso_runs = []
    original = GradedElement.bracket

    def bracket(a):
        squares.append(a)
        return original(a)

    monkeypatch.setattr(GradedElement, "bracket", bracket)
    monkeypatch.setattr(bfv, "sbso", lambda *args, **kwargs: sbso_runs.append(args))
    lifted = Lift(torus_jacobi(chart))
    assert sum(a == lifted.j_hat for a in squares) == 1
    assert sbso_runs == []


def test_flat_lift_with_nonzero_square_fails(lift, chart, monkeypatch):
    """When [[J^, J^]] != 0 the lifting fails, as an invariant violation:
    the trivial connection is flat (the square is stubbed: a Jacobi J never
    gives a nonzero one)."""
    qbar = lift.G + i_nabla(lift.j)
    original = GradedElement.bracket

    def bracket(a):
        if a == qbar:
            return a
        return original(a)

    monkeypatch.setattr(GradedElement, "bracket", bracket)
    with pytest.raises(AssertionError, match="^flat lifting failed: "):
        Lift(torus_jacobi(chart))


def test_perturbed_sample_sums_four_series(lift, chart, monkeypatch):
    """A sampled check of the perturbed data sums (1 - delta h)^{-1} once on
    each of x, d x, h x and j q x: h and q of an argument share one series,
    and the chain-map check reuses q d x.  It sums (1 - h delta)^{-1} once,
    for the perturbed j of q x, which the chain-map check reuses too.  The
    6 samples of the s = 0 data sum no series."""
    dop = d_bfv(brst_charge(lift, LeafForm.zero(chart, 1))[2])
    pert = hpl_resolution(lift, dop)
    # bfv._series(a, b, x) sums (1 - b a)^{-1} x: (a, b) = (h, delta) for
    # the perturbed q and h, (delta, h) for the perturbed immersion
    calls = []
    summed = bfv._series
    monkeypatch.setattr(bfv, "_series", lambda a, b, x: calls.append((a, b)) or summed(a, b, x))
    rng = random.Random(41)
    check_hpl_axioms(pert, lambda: rand_graded_section(chart, rng))
    h, delta = pert.base.h, pert.delta
    assert calls.count((h, delta)) == 4 * 6
    assert calls.count((delta, h)) == 6 and len(calls) == 5 * 6


@pytest.mark.parametrize("name", ["jet-T1", "jet-T2", "jet-T3", "torus-obstructed"])
def test_homotopy_projection_is_h_of_the_summed_series(name):
    """The perturbed (h, q) of y, h summed from the h t_k that the series
    (1 - delta h)^{-1} y computes, equals (h s, wp s) of the summed series
    s.  The arguments are those check_hpl_axioms passes: samples as
    hpl-resolve draws them, their d_BFV, h and j q images; some of them
    have a series of more than one term."""
    scenario = load_scenario(name) if name == "torus-obstructed" else jet_scenario(int(name[-1]))
    pert = scenario.hpl()
    rng = random.Random(0)
    longer = 0
    for _ in range(6):
        x = _random_graded_section(pert.base.chart, rng)
        hx, qx = pert.homotopy_projection(x)
        for y in (x, pert.differential(x), hx, pert.immersion(qx)):
            assert pert.homotopy_projection(y) == summed_series_homotopy_projection(pert, y)
            longer += not pert.delta(pert.base.h(y)).is_zero()
    assert longer


def test_lift_with_nonflat_connection(chart):
    """A curved connection still lifts: the SBSO adds corrections and the
    output is an MC lifting of J."""
    gamma = {
        0: [[ScalarFn.zero(chart), ScalarFn.sin_phi(chart, "ph_3")],
            [ScalarFn.zero(chart), ScalarFn.zero(chart)]],
        2: [[ScalarFn.zero(chart), ScalarFn.zero(chart)],
            [ScalarFn.cos_phi(chart, "ph_1"), ScalarFn.zero(chart)]],
    }
    conn = Connection(chart, gamma=gamma)
    lifted = CurvedLift(torus_jacobi(chart), conn)
    assert not lifted.flat
    assert lifted.corrections
    assert lifted.j_hat.bracket().is_zero()
    rng2 = random.Random(12)
    samples = [(random_scalar(chart, rng2), random_scalar(chart, rng2)) for _ in range(3)]
    assert lifting_conditions_hold(lifted, samples)


def test_brst_charge_obstructed_for_noncoisotropic(lift, chart):
    # f = cos(ph_4), g = sin(ph_4): the coisotropy PDE leaves sin(ph_3)
    s = LeafForm.section(
        chart, [ScalarFn.cos_phi(chart, "ph_4"), ScalarFn.sin_phi(chart, "ph_4")]
    )
    with pytest.raises(ObstructionFailure) as err:
        brst_charge(lift, s)
    c2 = ContractionTwo(s)
    residual = bfv_coisotropy_residual(lift, s)
    assert (err.value.component - c2.wp(residual)).is_zero()
    assert not err.value.component.is_zero()


def test_coisotropy_residual_displayed(lift, chart):
    """{Omega_E[s], Omega_E[s]}_BFV = 2(f_3 Xg - g_3 Xf + f_2 - g_1
    + y_1 Yg - y_2 Yf) xi^1 xi^2."""
    X, Y = fields_XY(chart)
    rng = random.Random(2)
    for _ in range(4):
        f = random_base_scalar(chart, rng)
        g = random_base_scalar(chart, rng)
        s = LeafForm.section(chart, [f, g])
        res = bfv_coisotropy_residual(lift, s)
        coeff = (
            f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f.partial(1)
            - g.partial(0)
            + ScalarFn.y(chart, "y_1") * Y.apply([g])
            - ScalarFn.y(chart, "y_2") * Y.apply([f])
        ).scale(2)
        expected = GradedElement(chart, {((XI, 0), (XI, 1)): coeff})
        assert (res - expected).is_zero()
    # s = 0: the residual vanishes
    assert bfv_coisotropy_residual(lift, LeafForm.zero(chart, 1)).is_zero()
    # wp[s] of the residual vanishes iff the section is coisotropic
    from coiso.geom import is_coisotropic_section

    for _ in range(4):
        f = random_base_scalar(chart, rng)
        g = random_base_scalar(chart, rng)
        s = LeafForm.section(chart, [f, g])
        c2 = ContractionTwo(s)
        ok, _ = is_coisotropic_section(lift.j, s)
        assert ok == c2.wp(bfv_coisotropy_residual(lift, s)).is_zero()


def test_dbfv_displayed_formula(lift, chart):
    """d_BFV = y_1 D_xis_1 + y_2 D_xis_2 + xi^1 D_ph_1 + xi^2 D_ph_2
    - (y_1 xi^1 + y_2 xi^2) Y.

    This is the worked example's BFV differential written in the
    orientation consistent with d[0] = y_A Delta^A and with the induced
    resolution differential being +m_1 (the y_A Delta^A part and the word
    content agree with the reference display; the ghost-derivative sector
    carries the orientation those two identities force)."""
    omega, _, op = brst_charge(lift, LeafForm.zero(chart, 1))
    dop = d_bfv(op)
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    c3 = ScalarFn.cos_phi(chart, "ph_3")
    y = [ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")]
    expected = GradedElement(chart)
    for A in range(chart.m):
        expected = expected + GradedElement(chart, {((DXIS, A),): y[A]})
        expected = expected + GradedElement(chart, {((XI, A), (DX, A)): ScalarFn.one(chart)})
        expected = expected + GradedElement(chart, {((XI, A), (DX, 3)): -(y[A] * s3)})
        expected = expected + GradedElement(chart, {((XI, A), (DX, 4)): -(y[A] * c3)})
    assert (dop - expected).is_zero()
    # square zero on random sections as well
    rng = random.Random(3)
    for _ in range(4):
        lam = rand_graded_section(chart, rng)
        assert dop.insert(dop.insert(lam)).is_zero()


def test_dbfv_action_on_degree_one(lift, chart):
    """d_BFV(F_1 xi^1 + F_2 xi^2 + (G^1 xis_1 + G^2 xis_2) xi^1 xi^2) has
    the displayed xi^1 xi^2 coefficient."""
    omega, _, op = brst_charge(lift, LeafForm.zero(chart, 1))
    dop = d_bfv(op)
    X, Y = fields_XY(chart)
    rng = random.Random(4)
    y = [ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")]
    for _ in range(4):
        F1, F2 = random_scalar(chart, rng), random_scalar(chart, rng)
        G1, G2 = random_scalar(chart, rng), random_scalar(chart, rng)
        kappa = GradedElement(
            chart,
            {
                ((XI, 0),): F1,
                ((XI, 1),): F2,
                ((XI, 0), (XI, 1), (XIS, 0)): G1,
                ((XI, 0), (XI, 1), (XIS, 1)): G2,
            },
        )
        out = dop.insert(kappa)
        coeff = out.terms.get(encode(((XI, 0), (XI, 1))), ScalarFn.zero(chart))
        # the xi^1 xi^2 coefficient of the action on degree-1 sections, in
        # the same orientation as the operator formula above
        expected = (
            -F1.partial(1)
            + F2.partial(0)
            + y[0] * (G1 - Y.apply([F2]))
            + y[1] * (G2 + Y.apply([F1]))
        )
        assert coeff == expected


def test_hpl_resolution(lift, chart):
    rng = random.Random(5)
    omega, _, op = brst_charge(lift, LeafForm.zero(chart, 1))
    dop = d_bfv(op)
    sampler = lambda: rand_graded_section(chart, rng)
    pert = hpl_resolution(lift, dop)
    check_hpl_axioms(pert, sampler)
    # induced differential on base ghost words = m_1 under xi^a <-> dF_ph_a
    table = MultibracketTable(lift.j)
    for _ in range(6):
        f = random_base_scalar(chart, rng)
        base = GradedElement.section(chart, f)
        out = pert.small_differential(base)
        m1 = table.m1(LeafForm.function(f))
        expected = GradedElement(chart)
        for (a,), coeff in m1.terms.items():
            expected = expected + ghost(chart, a).scale_fn(coeff)
        assert (out - expected).is_zero()
    for A in range(chart.m):
        base = ghost(chart, A).scale_fn(random_base_scalar(chart, rng))
        out = pert.small_differential(base)
        w = LeafForm(chart, 1, {(A,): base.terms[encode(((XI, A),))]})
        m1 = table.m1(w)
        expected = GradedElement(chart)
        for (a, b), coeff in m1.terms.items():
            expected = expected + GradedElement(
                chart, {((XI, a), (XI, b)): coeff}
            )
        assert (out - expected).is_zero()


def test_bfv_kuranishi_obstructed_example(lift, chart):
    rng = random.Random(6)
    omega, _, op = brst_charge(lift, LeafForm.zero(chart, 1))
    dop = d_bfv(op)
    pert = hpl_resolution(lift, dop)
    check_hpl_axioms(pert, lambda: rand_graded_section(chart, rng))
    X, Y = fields_XY(chart)
    f = ScalarFn.cos_phi(chart, "ph_4")
    g = ScalarFn.sin_phi(chart, "ph_4")
    s = LeafForm.section(chart, [f, g])
    nu = bfv_lift_cocycle(lift, pert, s)
    # the canonical lift is f xi^1 + g xi^2 + ((Yg) xis_1 - (Yf) xis_2) xi^1 xi^2
    expected = GradedElement(
        chart,
        {
            ((XI, 0),): f,
            ((XI, 1),): g,
            ((XI, 0), (XI, 1), (XIS, 0)): Y.apply([g]),
            ((XI, 0), (XI, 1), (XIS, 1)): -Y.apply([f]),
        },
    )
    assert (nu - expected).is_zero()
    assert dop.insert(nu).is_zero()
    kr, zero_mode = bfv_kuranishi(lift, pert, nu)
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    assert zero_mode == GradedElement(chart, {((XI, 0), (XI, 1)): s3})
    # agreement with order 2 of the formal prolongation through the
    # ghost <-> leaf-form correspondence
    table = MultibracketTable(lift.j)
    _, [(_, zero_mode_l)] = prolong_formal(table, s, 2)
    assert zero_mode_l == LeafForm(chart, 2, {(0, 1): s3})
    # exact boundaries map to zero classes: d_BFV(anything) has vanishing
    # reduced zero mode
    for _ in range(4):
        lam = rand_graded_section(chart, rng)
        bound = dop.insert(lam)
        gh2 = pr(bound, 2, 0)
        c2 = ContractionTwo(LeafForm.zero(chart, 1))
        assert c2.wp(dop.insert(lam)).leaf_zero_mode().is_zero()


def test_sbso_gauge_ladder(lift, chart):
    rng = random.Random(7)
    omega, _, _ = brst_charge(lift, LeafForm.zero(chart, 1))
    bracket = lambda a, b: jacobi_bracket(lift.j_hat, a, b)
    c2 = ContractionTwo(LeafForm.zero(chart, 1))
    # trivial ladder
    ladder, final = sbso_gauge(omega, omega, bracket, c2.h, antighost_filtration)
    assert ladder == [] and (final - omega).is_zero()
    # one-step ladder: gauge omega by a hamiltonian exp(ad_R) with R in the
    # antighost-filtration level >= 2 (where the uniqueness ladder lives)
    r = GradedElement(
        chart,
        {((XI, 0), (XI, 1), (XIS, 0), (XIS, 1)): random_base_scalar(chart, rng, max_terms=1)},
    )
    omega2 = exp_ad(r, omega, bracket)
    assert jacobi_bracket(lift.j_hat, omega2, omega2).is_zero()
    ladder, final = sbso_gauge(omega, omega2, bracket, c2.h, antighost_filtration)
    assert (final - omega2).is_zero()
    for step in ladder:
        assert antighost_filtration(step) >= 1


def test_wp0_intertwines_reduced_bracket(lift, chart):
    """wp[0]{l1, l2}_BFV = {l1^0|_S, l2^0|_S}_J for d_BFV-closed degree-0
    sections, and the induced degree-0 bracket on the resolution matches
    m_2 on d_F-closed functions."""
    omega, _, op = brst_charge(lift, LeafForm.zero(chart, 1))
    dop = d_bfv(op)
    pert = hpl_resolution(lift, dop)
    c2 = ContractionTwo(LeafForm.zero(chart, 1))
    table = MultibracketTable(lift.j)
    cases = [
        (ScalarFn.sin_phi(chart, "ph_3"), ScalarFn.cos_phi(chart, "ph_3")),
        (ScalarFn.cos_phi(chart, "ph_4"), ScalarFn.sin_phi(chart, "ph_4")),
        (ScalarFn.cos_phi(chart, "ph_3"), ScalarFn.sin_phi(chart, "ph_5")),
    ]
    for f, g in cases:
        # leafwise-constant functions lift to d_BFV-closed degree-0 sections
        lf = pert.immersion(GradedElement.section(chart, f))
        lg = pert.immersion(GradedElement.section(chart, g))
        assert dop.insert(lf).is_zero() and dop.insert(lg).is_zero()
        br = jacobi_bracket(lift.j_hat, lf, lg)
        reduced = pr(c2.wp(br), 0, 0)
        expected = GradedElement.section(
            chart, lift.j.apply([f, g]).zero_mode(range(chart.k, chart.dim))
        )
        assert (reduced - expected).is_zero()
        # the induced bracket agrees with -m_2 (= the reduced Jacobi
        # bracket) on d_F-closed functions
        m2 = table.m([LeafForm.function(f), LeafForm.function(g)]).as_function()
        assert (reduced - GradedElement.section(chart, -m2)).is_zero()


def test_geometric_mc_zero_locus(lift, chart):
    rng = random.Random(8)
    # Omega with pr(1,0) = Omega_E[s] returns s exactly
    f = random_base_scalar(chart, rng)
    g = random_base_scalar(chart, rng)
    s = LeafForm.section(chart, [f, g])
    c2 = ContractionTwo(s)
    out = geometric_mc_zero_locus(c2.omega_E())
    assert out == s
    # constant frame transformation A in GL_2(Q) gives the same zero locus
    om = c2.omega_E()
    a11, a12, a21, a22 = 2, 1, 1, 1
    transformed = GradedElement(chart)
    es = []
    for A in range(chart.m):
        coeff = ScalarFn.y(chart, chart.fiber[A]) - s.components()[A]
        es.append(coeff)
    rows = [(a11, a12), (a21, a22)]
    for A in range(chart.m):
        coeff = es[0].scale(rows[A][0]) + es[1].scale(rows[A][1])
        transformed = transformed + GradedElement(chart, {((XI, A),): coeff})
    assert geometric_mc_zero_locus(transformed) == s
    # non-section locus: (y_1^2 + 1) xi^1 fails with a structured error
    y1 = ScalarFn.y(chart, "y_1")
    bad = GradedElement(chart, {((XI, 0),): y1 * y1 + ScalarFn.one(chart)})
    with pytest.raises(ContentError, match="^zero locus is not a section graph: matrix determinant"):
        geometric_mc_zero_locus(bad)
