"""Acceptance criteria: one test per criterion, exact tolerances throughout.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass line per
criterion; any assertion failure marks the criterion failed.
"""

import json
import random

import pytest

from coiso.ring import ScalarFn
from coiso.multivector import MultiVectorField
from coiso.leafform import LeafForm
from coiso.geom import (
    injection_I,
    is_coisotropic_section,
    fiberwise_linear_jacobi,
    projection_P,
)
from coiso.linfty import MultibracketTable, mc_series, prolong_formal
from coiso.transversal import TransversalData
from coiso.graded import (
    DX,
    DXI,
    DXIS,
    M,
    XI,
    XIS,
    ContractionTwo,
    GradedElement,
    hamiltonian_operator,
    i_nabla,
    jacobi_bracket,
    tautological_G,
)
from coiso.bfv import (
    Lift,
    brst_charge,
    bfv_kuranishi,
    bfv_lift_cocycle,
    d_bfv,
    hpl_resolution,
)
from coiso.cli import main as cli_main

from helpers import (
    antighost_filtration,
    dense_normalize,
    eval_nested,
    fields_XY,
    ghost,
    i_then_p_defect,
    jet_chart,
    leibniz_defect,
    random_base_scalar,
    random_multider,
    random_scalar,
    torus_chart,
    torus_jacobi,
)
from paper import ContractionOne, bfv_coisotropy_residual, exp_ad, graded_bracket, sbso_gauge



def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def chart():
    return torus_chart()


@pytest.fixture(scope="module")
def J(chart):
    return torus_jacobi(chart)


@pytest.fixture(scope="module")
def table(J):
    return MultibracketTable(J)


@pytest.fixture(scope="module")
def lift(J):
    return Lift(J)


def torus_contact_data(chart):
    from test_geom import torus_contact_data as make

    return make(chart)


def test_criterion_01_contact_structure(chart, J):
    """contact_to_jacobi(theta_E) reproduces the displayed J exactly and
    its Jacobiator vanishes."""
    from coiso.geom import contact_to_jacobi
    from coiso.serialize import multider_to_json

    built = contact_to_jacobi(*torus_contact_data(chart))
    assert built == J
    assert multider_to_json(built) == multider_to_json(J)
    assert built.is_jacobi()
    report(1, "contact structure reproduces the displayed (P,Q) pair, Jacobiator = 0")


def test_criterion_02_bracket_table(chart, J):
    X, Y = fields_XY(chart)
    y = [ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")]
    for a in range(2):
        for b in range(2):
            assert J.apply([y[a], y[b]]).is_zero()
    rng = random.Random(101)
    for _ in range(10):
        f = random_base_scalar(chart, rng, max_terms=3)
        g = random_base_scalar(chart, rng, max_terms=3)
        for a in range(2):
            assert J.apply([y[a], f]) == f.partial(a)
        expected = (
            f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f * Y.apply([g])
            - g * Y.apply([f])
        )
        assert J.apply([f, g]) == expected
    report(2, "{y_a,y_b} = 0, {y_a,f} = df/dph_a, {f,g} matches the displayed formula")


def test_criterion_03_multibrackets(chart, J, table):
    rng = random.Random(102)

    def leaf1(f, g):
        return LeafForm(chart, 1, {(0,): f, (1,): g})

    for _ in range(8):
        f = random_base_scalar(chart, rng)
        g1, g2 = random_base_scalar(chart, rng), random_base_scalar(chart, rng)
        f1, f2 = random_base_scalar(chart, rng), random_base_scalar(chart, rng)
        # m_1 on functions and 1-forms
        assert table.m1(LeafForm.function(f)) == leaf1(
            f.partial(0), f.partial(1)
        )
        w = leaf1(f1, f2)
        assert table.m1(w) == LeafForm(
            chart, 2, {(0, 1): f2.partial(0) - f1.partial(1)}
        )
        # m_2 table
        assert table.m([LeafForm.function(f), LeafForm.function(g1)]).as_function() == -J.apply([f, g1])
        assert table.m([LeafForm.function(f), leaf1(g1, g2)]) == leaf1(
            -J.apply([f, g1]), -J.apply([f, g2])
        )
        assert table.m([leaf1(f1, f2), leaf1(g1, g2)]) == LeafForm(
            chart, 2, {(0, 1): J.apply([f1, g2]) - J.apply([f2, g1])}
        )
    # m_k = 0 for 3 <= k <= 6, and structurally for all k by finiteness
    args = [LeafForm.function(random_base_scalar(chart, rng))]
    args += [
        leaf1(random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        for _ in range(5)
    ]
    for k in range(3, 7):
        assert table.m(args[:k]).is_zero()
    assert table.series_bound() <= 3
    report(3, "m_1 and m_2 match the displayed tables; m_k = 0 for 3 <= k <= 6")


def test_criterion_04_obstructed_deformation(chart, table):
    f = ScalarFn.cos_phi(chart, "ph_4")
    g = ScalarFn.sin_phi(chart, "ph_4")
    s = LeafForm.section(chart, [f, g])
    assert (g.partial(0) - f.partial(1)).is_zero()
    assert table.m1(s).is_zero()
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    # the Kuranishi class is order 2 of the formal prolongation, where it stops
    coefficients, orders = prolong_formal(table, s, 4)
    assert coefficients == [s]
    [(rhs, zero_mode)] = orders
    assert rhs == LeafForm(chart, 2, {(0, 1): s3}) == zero_mode
    assert table.m([s, s]) == rhs.scale(2)
    report(4, "s = (cos ph_4, sin ph_4) is infinitesimal; Kuranishi zero mode = (2*pi)^2 sin(ph_3) != 0")


def test_criterion_05_coisotropy_equivalence(chart, J, table):
    X, Y = fields_XY(chart)
    rng = random.Random(103)
    agree_true = agree_false = 0
    cases = [
        (ScalarFn.cos_phi(chart, "ph_3"), ScalarFn.zero(chart)),
        (ScalarFn.zero(chart), ScalarFn.zero(chart)),
    ]
    while len(cases) < 50:
        cases.append(
            (random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        )
    for f, g in cases:
        s = LeafForm.section(chart, [f, g])
        mc = mc_series(table, s)
        ok, _ = is_coisotropic_section(J, s)
        assert ok == mc.is_zero()
        coeff = (
            f.partial(1)
            - g.partial(0)
            + f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f * Y.apply([g])
            - g * Y.apply([f])
        )
        assert mc == LeafForm(chart, 2, {(0, 1): coeff})
        agree_true += ok
        agree_false += not ok
    assert agree_true >= 2 and agree_false >= 2
    report(5, f"MC(-s) = 0 <=> substitution coisotropy on 50 sections ({agree_true} coisotropic)")


def test_criterion_06_transversal_crosscheck(chart, J, table):
    from test_transversal import random_td

    X, Y = fields_XY(chart)
    zero = ScalarFn.zero(chart)
    one = ScalarFn.one(chart)
    td = TransversalData(
        chart,
        Ga_fields=[MultiVectorField.basis_vector(chart, "ph_3"), X],
        G_field=Y,
        C=[zero, zero],
        omega=[[zero, -one], [one, zero]],
    )
    rng = random.Random(104)
    delta = [LeafForm(chart, 1, {(a,): one}) for a in range(2)]
    for _ in range(6):
        f = LeafForm.function(random_base_scalar(chart, rng))
        g = LeafForm.function(random_base_scalar(chart, rng))
        for args in ([f], [f, g], [f, delta[0]], [f, delta[1]]):
            assert td.multibracket(args) == table.m(args)
    assert td.multibracket(delta) == table.m(delta)
    # randomized involutive data: m_k = 0 for k > 2
    for _ in range(4):
        rtd = random_td(chart, rng)
        f = LeafForm.function(random_base_scalar(chart, rng))
        for k in (3, 4, 5):
            assert rtd.multibracket([delta[i % 2] for i in range(k)]).is_zero()
            assert rtd.multibracket([f] + [delta[i % 2] for i in range(k - 1)]).is_zero()
    report(6, "transversal engine matches the derived-bracket table; involutive cases vanish above m_2")


def test_criterion_07_legendrian_toy():
    rng = random.Random(105)
    for b in (1, 2):
        chart = jet_chart(b)
        J = fiberwise_linear_jacobi(chart)
        table = MultibracketTable(J)
        args = [LeafForm.function(random_base_scalar(chart, rng))]
        args += [
            LeafForm(chart, 1, {(a,): random_base_scalar(chart, rng)})
            for a in range(chart.m)
        ]
        for k in range(2, 5):
            assert table.m(args[:k]).is_zero()
            assert table.m([args[1]] * k).is_zero()
    report(7, "jet-model structures over T^1 and T^2 have m_k = 0 for all k > 1")


def test_criterion_08_bfv_layer(chart, J, lift):
    X, Y = fields_XY(chart)
    # lift with trivial flat connection: J^ = G + i_nabla(J), no corrections
    assert lift.j_hat == lift.G + i_nabla(J)
    assert (lift.j_hat - lift.G - i_nabla(J)).is_zero()
    # Omega_BRST = Omega_E
    omega, corrections = brst_charge(lift, LeafForm.zero(chart, 1))
    c2 = ContractionTwo(LeafForm.zero(chart, 1))
    assert corrections == [] and (omega - c2.omega_E()).is_zero()
    # d_BFV: the worked example's operator (in the orientation forced by
    # d[0] = y_A Delta^A and the +m_1 resolution), and d_BFV^2 = 0
    dop = d_bfv(lift, omega)
    s3, c3 = ScalarFn.sin_phi(chart, "ph_3"), ScalarFn.cos_phi(chart, "ph_3")
    y = [ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")]
    expected = GradedElement(chart)
    for A in range(chart.m):
        expected = expected + GradedElement(chart, {((DXIS, A),): y[A]})
        expected = expected + GradedElement(chart, {((XI, A), (DX, A)): ScalarFn.one(chart)})
        expected = expected + GradedElement(chart, {((XI, A), (DX, 3)): -(y[A] * s3)})
        expected = expected + GradedElement(chart, {((XI, A), (DX, 4)): -(y[A] * c3)})
    assert (dop - expected).is_zero()
    assert dop.bracket().is_zero()
    # the coisotropy residual of a generic section
    rng = random.Random(106)
    for _ in range(5):
        f = random_base_scalar(chart, rng)
        g = random_base_scalar(chart, rng)
        res = bfv_coisotropy_residual(lift, LeafForm.section(chart, [f, g]))
        coeff = (
            f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f.partial(1)
            - g.partial(0)
            + y[0] * Y.apply([g])
            - y[1] * Y.apply([f])
        ).scale(2)
        assert (res - GradedElement(chart, {((XI, 0), (XI, 1)): coeff})).is_zero()
    # BFV Kuranishi of the lifted obstructed section
    pert = hpl_resolution(lift, dop)
    f = ScalarFn.cos_phi(chart, "ph_4")
    g = ScalarFn.sin_phi(chart, "ph_4")
    nu = bfv_lift_cocycle(lift, pert, LeafForm.section(chart, [f, g]))
    expected_nu = GradedElement(
        chart,
        {
            ((XI, 0),): f,
            ((XI, 1),): g,
            ((XI, 0), (XI, 1), (XIS, 0)): Y.apply([g]),
            ((XI, 0), (XI, 1), (XIS, 1)): -Y.apply([f]),
        },
    )
    assert (nu - expected_nu).is_zero()
    kr, zero_mode = bfv_kuranishi(lift, pert, nu)
    assert zero_mode == GradedElement(chart, {((XI, 0), (XI, 1)): s3})
    report(8, "BFV layer: lift, charge, d_BFV, residual and BFV Kuranishi all reproduce the worked example")


def test_criterion_09_hpl_resolution(chart, J, lift):
    rng = random.Random(107)

    def sampler():
        terms = {}
        for _ in range(2):
            letters = []
            for _ in range(rng.randint(0, 2)):
                letters.append(rng.choice([(XI, rng.randrange(chart.m)), (XIS, rng.randrange(chart.m))]))
            sign, canon = dense_normalize(letters)
            if sign == 0:
                continue
            terms[canon] = random_scalar(chart, rng, max_terms=1)
        return GradedElement(chart, terms)

    omega, _ = brst_charge(lift, LeafForm.zero(chart, 1))
    dop = d_bfv(lift, omega)
    pert = hpl_resolution(lift, dop)
    table = MultibracketTable(J)
    # induced differential = m_1 on generators
    for _ in range(6):
        f = random_base_scalar(chart, rng)
        out = pert.small_differential(GradedElement.section(chart, f))
        m1 = table.m1(LeafForm.function(f))
        expected = GradedElement(chart)
        for (a,), coeff in m1.terms.items():
            expected = expected + ghost(chart, a).scale_fn(coeff)
        assert (out - expected).is_zero()
    # all contraction axioms and side conditions on 100 randomized elements
    def h(y):
        return pert.homotopy_projection(y)[0]

    def q(y):
        return pert.homotopy_projection(y)[1]

    checked = 0
    for _ in range(100):
        x = sampler()
        jq = pert.immersion(q(x))
        comm = pert.differential(h(x)) + h(pert.differential(x))
        assert (comm - (jq - x)).is_zero()
        assert h(h(x)).is_zero()
        assert q(h(x)).is_zero()
        small = q(x)
        assert (q(pert.immersion(small)) - small).is_zero()
        assert h(pert.immersion(small)).is_zero()
        checked += 1
    assert checked == 100
    report(9, "HPL resolution: induced differential is m_1; axioms hold on 100 randomized elements")


def test_criterion_10_property_suites(chart, J, lift):
    rng = random.Random(108)
    # graded Jacobi identity and Leibniz for the ungraded bracket
    triples = 0
    for _ in range(120):
        na, nb, nc = rng.choice([(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 1), (1, 1, 2)])
        a = random_multider(chart, rng, na, max_terms=1)
        b = random_multider(chart, rng, nb, max_terms=1)
        c = random_multider(chart, rng, nc, max_terms=1)
        sign = (-1) ** (((na - 1) * (nb - 1)) % 2)
        assert a.sj_bracket(b) == b.sj_bracket(a).scale(-sign)
        lhs = a.sj_bracket(b.sj_bracket(c))
        x, y = a.sj_bracket(b).sj_bracket(c), b.sj_bracket(a.sj_bracket(c)).scale(sign)
        assert lhs == x + y
        triples += 1
    for _ in range(15):
        a = random_multider(chart, rng, 1, max_terms=1)
        b = random_multider(chart, rng, rng.choice([1, 2]), max_terms=1)
        f = random_scalar(chart, rng, max_terms=1)
        assert leibniz_defect(a, f, b).is_zero()
    # graded bracket identities at rank 2
    def rand_op(max_arity=3):
        terms = {}
        deg = None
        while not terms:
            letters = []
            for _ in range(rng.randint(0, 2)):
                letters.append(rng.choice([(XI, rng.randrange(chart.m)), (XIS, rng.randrange(chart.m))]))
            for _ in range(rng.randint(1, max_arity)):
                letters.append(
                    rng.choice(
                        [(M,), (DX, rng.randrange(chart.dim)), (DXI, rng.randrange(chart.m)), (DXIS, rng.randrange(chart.m))]
                    )
                )
            sign, canon = dense_normalize(letters)
            if sign == 0:
                continue
            terms[canon] = random_scalar(chart, rng, max_terms=1)
        return GradedElement(chart, terms)

    def deg_of(x):
        d = x.is_homogeneous_degree()
        return 0 if d is None else d

    for _ in range(90):
        a, b, c = rand_op(), rand_op(), rand_op()
        da, db = deg_of(a), deg_of(b)
        assert (graded_bracket(a, b) + graded_bracket(b, a).scale((-1) ** ((da * db) % 2))).is_zero()
        lhs = graded_bracket(a, graded_bracket(b, c))
        rhs = graded_bracket(graded_bracket(a, b), c) + graded_bracket(b, graded_bracket(a, c)).scale(
            (-1) ** ((da * db) % 2)
        )
        assert (lhs - rhs).is_zero()
        triples += 1
    assert triples >= 200
    # [[J, J]] = 2 Jacobiator extensionally
    for _ in range(4):
        j = random_multider(chart, rng, 2, max_terms=1)
        f, g, h = (random_scalar(chart, rng, max_terms=1) for _ in range(3))
        cyc = (
            j.apply([j.apply([f, g]), h])
            + j.apply([j.apply([g, h]), f])
            + j.apply([j.apply([h, f]), g])
        )
        assert eval_nested(j.sj_bracket(j), [f, g, h]) == cyc.scale(2)
    # contraction-data axioms, both families
    G = tautological_G(chart)
    c1 = ContractionOne(chart)
    for _ in range(10):
        op = rand_op(max_arity=2)
        lhs = c1.H_tilde(graded_bracket(G, op)) + graded_bracket(G, c1.H_tilde(op))
        weight = GradedElement(chart).plus(
            comp.scale(w) for w, comp in c1.weight_split(op).items()
        )
        assert (lhs - weight).is_zero()
        assert i_then_p_defect(c1, op, G).is_zero()
        assert c1.H(c1.H(op)).is_zero()
        assert c1.p(c1.H(op)).is_zero()
        assert graded_bracket(G, graded_bracket(G, op)).is_zero()  # d_G^2 = 0
    rng2 = random.Random(109)
    s_rand = LeafForm.section(
        chart, [random_base_scalar(chart, rng2), random_base_scalar(chart, rng2)]
    )
    for s in (LeafForm.zero(chart, 1), s_rand):
        c2 = ContractionTwo(s)
        ds = hamiltonian_operator(G, c2.omega_E())
        assert ds.bracket().is_zero()  # d[s]^2 = 0
        for _ in range(8):
            lam = _rand_graded_section(chart, rng2)
            lhs = ds.insert(c2.h(lam)) + c2.h(ds.insert(lam))
            assert (lhs - (c2.wp(lam) - lam)).is_zero()
            assert c2.h(c2.h(lam)).is_zero()
            assert c2.wp(c2.h(lam)).is_zero()
        base = GradedElement(
            chart, {((XI, 0),): random_base_scalar(chart, rng2)}
        )
        assert c2.wp(base) == base
        assert c2.h(base).is_zero()
    # ker P closure, P o I = id, abelian image of I
    from itertools import combinations

    found = 0
    while found < 6:
        a = random_multider(chart, rng, rng.choice([1, 2]), max_terms=1)
        b = random_multider(chart, rng, rng.choice([1, 2]), max_terms=1)
        if projection_P(a).is_zero() and projection_P(b).is_zero():
            assert projection_P(a.sj_bracket(b)).is_zero()
            found += 1
    for deg in (0, 1, 2):
        keys = list(combinations(range(chart.m), deg))
        xi = LeafForm(chart, deg, {rng.choice(keys): random_base_scalar(chart, rng)})
        assert projection_P(injection_I(xi)) == xi
        xj = LeafForm(chart, 1, {(rng.randrange(2),): random_base_scalar(chart, rng)})
        assert injection_I(xi).sj_bracket(injection_I(xj)).is_zero()
    # SBSO outputs are MC; gauge ladder preserves MC
    omega, _ = brst_charge(lift, LeafForm.zero(chart, 1))
    bracket = lambda x, y: jacobi_bracket(lift.j_hat, x, y)
    assert bracket(omega, omega).is_zero()
    r = GradedElement(
        chart,
        {((XI, 0), (XI, 1), (XIS, 0), (XIS, 1)): random_base_scalar(chart, rng, max_terms=1)},
    )
    omega2 = exp_ad(r, omega, bracket)
    assert bracket(omega2, omega2).is_zero()
    c2 = ContractionTwo(LeafForm.zero(chart, 1))
    ladder, final = sbso_gauge(omega, omega2, bracket, c2.h, antighost_filtration)
    assert (final - omega2).is_zero()
    report(10, f"algebraic property suites hold ({triples} random bracket triples, both contraction families)")


def _rand_graded_section(chart, rng):
    terms = {}
    for _ in range(2):
        letters = []
        for _ in range(rng.randint(0, 2)):
            letters.append(rng.choice([(XI, rng.randrange(chart.m)), (XIS, rng.randrange(chart.m))]))
        sign, canon = dense_normalize(letters)
        if sign == 0:
            continue
        terms[canon] = random_scalar(chart, rng, max_terms=1)
    return GradedElement(chart, terms)


def test_criterion_11_determinism(capsys):
    jobs = {
        "torus-obstructed": [
            "check-jacobi",
            "coisotropic",
            "multibrackets:4",
            "mc",
            "kuranishi",
            "prolong:3",
            "transversal-crosscheck",
            "bfv-lift",
            "brst-charge",
            "dbfv",
            "bfv-kuranishi",
            "hpl-resolve",
        ],
        "legendrian-jet": ["check-jacobi", "coisotropic", "multibrackets:3", "bfv-lift"],
    }
    for scenario, tasks in jobs.items():
        args = ["--scenario", scenario, "--format", "json"]
        for t in tasks:
            args += ["--task", t]
        assert cli_main(args) == 0
        out1 = capsys.readouterr().out
        assert cli_main(args) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        json.loads(out1)
    report(11, "byte-identical JSON reports across runs of every built-in scenario")
