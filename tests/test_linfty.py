"""Multibracket extraction, MC series, Kuranishi map, formal prolongation."""

import importlib.util
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from coiso.rational import GaussianRational
from coiso.ring import Chart, ChartError, ScalarFn
from coiso.multivector import MultiVectorField
from coiso.multider import MultiDerivation
from coiso.leafform import LeafForm
from coiso.geom import injection_I, is_coisotropic_section, projection_P, fiberwise_linear_jacobi
from coiso.linfty import (
    DeformationError,
    MultibracketTable,
    kuranishi,
    mc_series,
    prolong_formal,
    solve_dF,
)
from coiso.scenario import Scenario, load_scenario
from coiso import cli

from helpers import (
    exp_series_mc,
    fields_XY,
    gen_no_function,
    gen_one_function,
    gen_two_functions,
    jet_chart,
    nested_derived,
    random_base_scalar,
    torus_chart,
    torus_jacobi,
)
from paper import delta_mc, extended_mc_residual, extended_n1


@pytest.fixture
def chart():
    return torus_chart()


@pytest.fixture
def J(chart):
    return torus_jacobi(chart)


@pytest.fixture
def table(J):
    return MultibracketTable(J)


def leaf1(chart, f, g):
    return LeafForm(chart, 1, {(0,): f, (1,): g})


def test_m1_matches_leafwise_de_rham(table, chart):
    rng = random.Random(1)
    for _ in range(6):
        f = random_base_scalar(chart, rng, max_terms=3)
        out = table.m1(LeafForm.function(f))
        assert out == LeafForm.function(f).d_leaf()
        assert out == leaf1(chart, f.partial(0), f.partial(1))
    for _ in range(4):
        w = leaf1(chart, random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        assert table.m1(w) == w.d_leaf()
    # d_F^2 = 0 and m1 of a constant-coefficient 1-form vanishes
    f = random_base_scalar(chart, rng)
    assert LeafForm.function(f).d_leaf().d_leaf().is_zero()
    const = leaf1(chart, ScalarFn.one(chart), ScalarFn.zero(chart))
    assert table.m1(const).is_zero()


def test_m2_matches_displayed_formulas(table, chart, J):
    """m_2(f, g) = -{f, g}; m_2 on mixed and 1-form arguments per the
    displayed table."""
    rng = random.Random(2)
    for _ in range(5):
        f = random_base_scalar(chart, rng)
        g = random_base_scalar(chart, rng)
        m2 = table.m([LeafForm.function(f), LeafForm.function(g)])
        assert m2.as_function() == -J.apply([f, g])

        g1 = random_base_scalar(chart, rng)
        g2 = random_base_scalar(chart, rng)
        mixed = table.m([LeafForm.function(f), leaf1(chart, g1, g2)])
        expected = leaf1(chart, -J.apply([f, g1]), -J.apply([f, g2]))
        assert mixed == expected

        f1 = random_base_scalar(chart, rng)
        f2 = random_base_scalar(chart, rng)
        two = table.m([leaf1(chart, f1, f2), leaf1(chart, g1, g2)])
        coeff = J.apply([f1, g2]) - J.apply([f2, g1])
        assert two == LeafForm(chart, 2, {(0, 1): coeff})


def test_higher_brackets_vanish(table, chart):
    rng = random.Random(3)
    args = [LeafForm.function(random_base_scalar(chart, rng))]
    args += [
        leaf1(chart, random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        for _ in range(5)
    ]
    for k in range(3, 7):
        assert table.m(args[:k]).is_zero()
    assert table.series_bound() >= 2


def test_solve_dF(chart):
    # omega = cos(ph_1) dph_1 ^ dph_2 -> eta = sin(ph_1) dph_2
    c1 = ScalarFn.cos_phi(chart, "ph_1")
    omega = LeafForm(chart, 2, {(0, 1): c1})
    status, eta = solve_dF(omega)
    assert status == "solved"
    assert eta == LeafForm(chart, 1, {(1,): ScalarFn.sin_phi(chart, "ph_1")})
    assert eta.d_leaf() == omega

    const = LeafForm(chart, 2, {(0, 1): ScalarFn.one(chart)})
    status, obs = solve_dF(const)
    assert status == "obstructed" and obs == const

    status, eta = solve_dF(LeafForm.zero(chart, 2))
    assert status == "solved" and eta.is_zero()

    with pytest.raises(DeformationError):
        solve_dF(LeafForm(chart, 1, {(0,): ScalarFn.y(chart, "y_1") * ScalarFn.one(chart)})
                 if False else LeafForm(chart, 1, {(0,): ScalarFn.sin_phi(chart, "ph_2")}))

    # K = (i n_j)^{-1} iota_j, j the least leaf index carrying a frequency,
    # kills a term whose key lacks j: with three leaf directions, d_F of
    # eta = E(ph_2 + ph_3) dF_1 has a dF_1 ^ dF_3 term (j, for ph_2, is not in it),
    # and K returns eta from its dF_1 ^ dF_2 term alone
    names = ("ph_1", "ph_2", "ph_3")
    chart = Chart(torus=names, fiber=("y_1", "y_2", "y_3"), leaf=names)
    eta = LeafForm(chart, 1, {(0,): ScalarFn(chart, {(0, 1, 1, 0, 0, 0): 1})})
    omega = eta.d_leaf()
    assert sorted(omega.terms) == [(0, 1), (0, 2)]
    assert solve_dF(omega) == ("solved", eta)


def test_solve_dF_random_exact_forms(chart):
    rng = random.Random(5)
    for _ in range(6):
        eta = leaf1(chart, random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        omega = eta.d_leaf()
        status, payload = solve_dF(omega)
        if status == "solved":
            assert payload.d_leaf() == omega
        else:  # pragma: no cover
            raise AssertionError("exact form reported as obstructed")


def test_mc_series_matches_displayed_pde(table, chart, J):
    X, Y = fields_XY(chart)
    rng = random.Random(6)
    for _ in range(6):
        f = random_base_scalar(chart, rng)
        g = random_base_scalar(chart, rng)
        s = LeafForm.section(chart, [f, g])
        mc = mc_series(table, s)
        coeff = (
            f.partial(1)
            - g.partial(0)
            + f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f * Y.apply([g])
            - g * Y.apply([f])
        )
        assert mc == LeafForm(chart, 2, {(0, 1): coeff})
    assert mc_series(table, LeafForm.zero(chart, 1)).is_zero()


def test_mc_zero_iff_coisotropic(table, chart, J):
    rng = random.Random(7)
    hits = 0
    for _ in range(10):
        s = LeafForm.section(
            chart, [random_base_scalar(chart, rng), random_base_scalar(chart, rng)]
        )
        ok, _ = is_coisotropic_section(J, s)
        assert ok == mc_series(table, s).is_zero()
        hits += ok
    # the known coisotropic deformation f = cos(ph_3), g = 0
    s = LeafForm.section(chart, [ScalarFn.cos_phi(chart, "ph_3"), ScalarFn.zero(chart)])
    assert mc_series(table, s).is_zero()
    ok, _ = is_coisotropic_section(J, s)
    assert ok


def test_kuranishi_obstructed_example(table, chart):
    """s = (cos ph_4, sin ph_4): infinitesimal, obstruction (2 pi)^2 sin ph_3."""
    f = ScalarFn.cos_phi(chart, "ph_4")
    g = ScalarFn.sin_phi(chart, "ph_4")
    s = LeafForm.section(chart, [f, g])
    # infinitesimal condition dg/dph_1 - df/dph_2 = 0
    assert (g.partial(0) - f.partial(1)).is_zero()
    kr, zero_mode = kuranishi(table, s)
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    assert kr == LeafForm(chart, 2, {(0, 1): s3.scale(2)})
    assert zero_mode == LeafForm(chart, 2, {(0, 1): s3})


def test_readme_example(capsys):
    """The python block of README.md runs and prints the zero mode of the
    torus-obstructed section, sin(ph_3) dph_1^dph_2."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(block, {})
    assert capsys.readouterr().out == "(sin(ph_3)) dph_1^dph_2\n"


def test_kuranishi_rejects_non_cocycle(table, chart):
    s = LeafForm.section(chart, [ScalarFn.sin_phi(chart, "ph_2"), ScalarFn.zero(chart)])
    with pytest.raises(DeformationError):
        kuranishi(table, s)


def test_normal_section_is_a_degree_one_leaf_form(chart):
    """LeafForm.section takes one component per fiber coordinate, and
    components() lists them back, the zero ones included: they share one
    zero ScalarFn."""
    f = ScalarFn.cos_phi(chart, "ph_3")
    s = LeafForm.section(chart, [f, ScalarFn.zero(chart)])
    assert s == LeafForm(chart, 1, {(0,): f})
    assert s.components() == [f, ScalarFn.zero(chart)]
    zeros = LeafForm.zero(chart, 1).components()
    assert zeros == [ScalarFn.zero(chart)] * chart.m and zeros[0] is zeros[1]
    with pytest.raises(ChartError, match="one component per fiber coordinate"):
        LeafForm.section(chart, [f])
    with pytest.raises(ChartError, match="base-only"):
        LeafForm.section(chart, [f, ScalarFn.y(chart, "y_1")])
    with pytest.raises(ChartError, match="degree-1"):
        LeafForm(chart, 2, {(0, 1): f}).components()


def test_kuranishi_zero_for_zero(table, chart):
    kr, zero_mode = kuranishi(table, LeafForm.zero(chart, 1))
    assert kr.is_zero() and zero_mode.is_zero()


def test_prolong_obstructed(table, chart):
    s1 = LeafForm.section(
        chart, [ScalarFn.cos_phi(chart, "ph_4"), ScalarFn.sin_phi(chart, "ph_4")]
    )
    coefficients, orders = prolong_formal(table, s1, 4)
    assert coefficients == [s1]
    assert [o["order_k"] for o in orders] == [2] and not orders[-1]["solved"]
    zero_mode = LeafForm(chart, 2, {(0, 1): ScalarFn.sin_phi(chart, "ph_3")})
    assert orders[-1]["obstruction_zero_mode"] == zero_mode


def test_prolong_unobstructed_cases(table, chart):
    zero = LeafForm.zero(chart, 1)
    coefficients, orders = prolong_formal(table, zero, 3)
    assert [o["solved"] for o in orders] == [True, True]
    assert coefficients == [zero] * 3

    # s1 = (cos ph_3, 0): m_2(s1, s1) density vanishes identically, so the
    # prolongation continues with s_2 = 0 (direct evaluation oracle below)
    s1 = LeafForm.section(chart, [ScalarFn.cos_phi(chart, "ph_3"), ScalarFn.zero(chart)])
    m2 = table.m([s1, s1])
    assert m2.is_zero()
    coefficients, orders = prolong_formal(table, s1, 3)
    assert [o["solved"] for o in orders] == [True, True]
    assert coefficients == [s1, zero, zero]


def test_delta_mc(table, chart, J):
    rng = random.Random(8)
    # s = 0: the single surviving term is m_1(lam)
    lam = random_base_scalar(chart, rng)
    assert delta_mc(table, LeafForm.zero(chart, 1), lam) == table.m1(
        LeafForm.function(lam)
    )
    # lam = 0 gives 0
    s = LeafForm.section(chart, [random_base_scalar(chart, rng), random_base_scalar(chart, rng)])
    assert delta_mc(table, s, ScalarFn.zero(chart)).is_zero()
    # independent derived-bracket oracle: sum_k 1/k! P[[..[[J, I(-s)]]..], I(lam)]],
    # also on cubic-poisson, whose series runs to k = 6 (its J has no torus
    # direction, so both sides vanish there)
    cubic = (TABLES["cubic-poisson"], STRUCTURES["cubic-poisson"])
    for tab, j in [(table, J)] * 3 + [cubic] * 2:
        chart = tab.chart
        s = LeafForm.section(
            chart, [random_base_scalar(chart, rng), random_base_scalar(chart, rng)]
        )
        lam = random_base_scalar(chart, rng)
        acc = LeafForm.zero(chart, 1)
        current = j
        minus = injection_I(-s)
        for k in range(0, 8):
            acc = acc + projection_P(
                current.sj_bracket(injection_I(LeafForm.function(lam)))
            ).scale(Fraction(1, math.factorial(k)))
            current = current.sj_bracket(minus)
        assert delta_mc(tab, s, lam) == acc


def test_extended_brackets(chart, J):
    rng = random.Random(9)
    zero_box = MultiDerivation.zero(chart, 2)
    s = LeafForm.section(
        chart, [random_base_scalar(chart, rng), random_base_scalar(chart, rng)]
    )
    table = MultibracketTable(J)
    # box = 0: extended MC reduces to (0, MC(-s))
    first, second = extended_mc_residual(J, zero_box, s)
    assert first.is_zero()
    assert second == mc_series(table, s)
    # s = 0 with box such that J + box is Jacobi and P(J + box) = 0
    box = J.scale(Fraction(1, 3))
    assert J.scale(Fraction(4, 3)).is_jacobi()  # J + box
    first, second = extended_mc_residual(J, box, LeafForm.zero(chart, 1))
    assert first.is_zero() and second.is_zero()
    # infinitesimal pair condition: n_1(box, -s) = 0 iff d_J box = 0 and
    # m_1 s = P box
    for _ in range(4):
        s = LeafForm.section(
            chart, [random_base_scalar(chart, rng), random_base_scalar(chart, rng)]
        )
        first, second = extended_n1(J, box, -s)
        dj_box = J.sj_bracket(box)
        m1s = table.m1(s)
        cond = dj_box.is_zero() and (projection_P(box) - m1s).is_zero()
        assert (first.is_zero() and second.is_zero()) == cond


def test_linfty_generalized_jacobi(table, chart):
    """Graded-symmetric L-infinity[1] identities up to total arity 4.

    sum_{i+j=n+1} sum_{(i, n-i) unshuffles} eps(sigma)
        m_j(m_i(x_{s1..si}), x_{s(i+1)..sn}) = 0.
    """
    rng = random.Random(10)

    def eps_and_split(args, degs, chosen):
        rest = [p for p in range(len(args)) if p not in chosen]
        sign = 1
        # Koszul sign of the unshuffle on graded symmetric arguments
        taken = []
        for p in chosen:
            jumps = sum(1 for q in rest if q < p)
            crossing = sum(degs[q] for q in rest if q < p)
            sign *= (-1) ** ((degs[p] * crossing) % 2)
        return sign, [args[p] for p in chosen], [args[p] for p in rest]

    def random_leafform(deg):
        keys = list(combinations(range(chart.m), deg))
        return LeafForm(chart, deg, {rng.choice(keys): random_base_scalar(chart, rng)})

    for n in (1, 2, 3, 4):
        args = []
        degs = []
        for _ in range(n):
            d = rng.choice([0, 1])
            args.append(random_leafform(d))
            degs.append(d - 1)
        total = None
        for i in range(1, n + 1):
            j = n + 1 - i
            for chosen in combinations(range(n), i):
                sign, inner, outer = eps_and_split(args, degs, chosen)
                val = table.m([table.m(inner)] + outer)
                val = val.scale(sign)
                total = val if total is None else total + val
        assert total.is_zero()


def test_multibracket_graded_symmetry(table, chart):
    rng = random.Random(13)
    for _ in range(5):
        f = LeafForm.function(random_base_scalar(chart, rng))
        s1 = leaf1(chart, random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        s2 = leaf1(chart, random_base_scalar(chart, rng), random_base_scalar(chart, rng))
        # sections of NS have shifted degree 0, functions -1: all swaps even
        assert table.m([s1, s2]) == table.m([s2, s1])
        assert table.m([f, s1]) == table.m([s1, f])


def test_m2_descends_to_cohomology(table, chart):
    """For d_F-closed functions f, g the bracket m_2(f, g) is d_F-closed:
    the reduced Gerstenhaber-Jacobi property in degree 0."""
    rng = random.Random(11)
    for _ in range(5):
        # leafwise-constant functions: no ph_1/ph_2 dependence
        f = random_base_scalar(chart, rng)
        f = ScalarFn(chart, {e: c for e, c in f.terms.items() if e[0] == 0 and e[1] == 0})
        g = ScalarFn.cos_phi(chart, "ph_4")
        assert LeafForm.function(f).d_leaf().is_zero()
        m2 = table.m([LeafForm.function(f), LeafForm.function(g)])
        assert m2.d_leaf().is_zero()


def test_jet_model_brackets_vanish_above_one():
    for b in (1, 2):
        chart = jet_chart(b)
        J = fiberwise_linear_jacobi(chart)
        table = MultibracketTable(J)
        rng = random.Random(12)
        args = [LeafForm.function(random_base_scalar(chart, rng))]
        args += [
            LeafForm(chart, 1, {(a,): random_base_scalar(chart, rng)})
            for a in range(min(chart.m, 3))
        ]
        for k in range(2, 5):
            assert table.m(args[:k]).is_zero()
        # m_1 is minus the der-complex differential: on f it returns
        # -(df-components, f)
        f = random_base_scalar(chart, rng)
        out = table.m1(LeafForm.function(f))
        comps = {0: -f}
        for i in range(chart.k):
            comps[i + 1] = -f.partial(i)
        expected = LeafForm(chart, 1, {(a,): v for a, v in comps.items() if not v.is_zero()})
        assert out == expected


# -- symmetric sums: random infinitesimal sections of torus-obstructed ----------

TORUS_OBSTRUCTED = load_scenario("torus-obstructed")


def _cubic_poisson():
    """Lambda = (cos(ph_3) y_1^2 y_2 + y_2^3) d_y1 ^ d_y2 on the chart of
    torus-obstructed: Poisson (a bivector in two directions), vanishing to
    second order on the zero section, so m_1 = m_2 = 0 on sections and m_3
    is not zero, which the fiberwise linear torus-obstructed J never gives."""
    chart = TORUS_OBSTRUCTED.chart
    y1, y2 = ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")
    lam = ScalarFn.cos_phi(chart, "ph_3") * y1 * y1 * y2 + y2 * y2 * y2
    fy = (chart.index("y_1"), chart.index("y_2"))
    return MultiDerivation.from_parts(MultiVectorField(chart, 2, {fy: lam}))


STRUCTURES = {"torus-obstructed": TORUS_OBSTRUCTED.jacobi(), "cubic-poisson": _cubic_poisson()}
TABLES = {
    "torus-obstructed": TORUS_OBSTRUCTED.table(),
    "cubic-poisson": MultibracketTable(STRUCTURES["cubic-poisson"]),
}


def test_series_bound_is_fiber_degree_plus_two():
    """series_bound() is the highest fiber degree of J's coefficients plus 2:
    3 for the fiberwise linear torus-obstructed J, 5 for cubic-poisson."""
    assert {name: t.series_bound() for name, t in TABLES.items()} == {
        "torus-obstructed": 3,
        "cubic-poisson": 5,
    }
    for name, j in STRUCTURES.items():
        coeffs = list(j.p_part.terms.values()) + list(j.q_part.terms.values())
        assert TABLES[name].series_bound() == max(f.fiber_degree() for f in coeffs) + 2


def test_generator_formulas_match_derived_brackets():
    """The coordinate-corollary generator values agree with the nested
    derived brackets on the original structure (the independent oracle), on
    both tables: the fiber derivatives d_aa run over multisets of normal
    directions, so cubic-poisson's jets of order 2 and 3 are nonzero."""
    for name, table in TABLES.items():
        J, chart = STRUCTURES[name], table.chart
        rng = random.Random(4)
        delta = [LeafForm(chart, 1, {(a,): ScalarFn.one(chart)}) for a in range(chart.m)]

        def oracle(args):
            return projection_P(nested_derived(J, args))

        def normal(aa):
            return [delta[a] for a in aa]

        nonzero = 0
        for k in (1, 2, 3):
            for aa in combinations_with_replacement(range(chart.m), k - 1):
                f = random_base_scalar(chart, rng)
                g = random_base_scalar(chart, rng)
                val = gen_two_functions(table, aa, f, g)
                nested = oracle(normal(aa) + [LeafForm.function(f), LeafForm.function(g)])
                assert nested.as_function() == val
            for aa in combinations_with_replacement(range(chart.m), k):
                f = random_base_scalar(chart, rng)
                val = gen_one_function(table, aa, f)
                assert oracle(normal(aa) + [LeafForm.function(f)]) == val
            for aa in combinations_with_replacement(range(chart.m), k + 1):
                val = gen_no_function(table, aa)
                assert oracle(normal(aa)) == val
                nonzero += len(aa) >= 2 and not val.is_zero()
        # only cubic-poisson has nonzero J^{ab} jets of order >= 2
        assert (nonzero > 0) == (name == "cubic-poisson")
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _polys(chart, directions):
    """Fourier polynomials of at most two modes, frequencies -1..1 in the
    given torus directions and 0 in the others, no fiber dependence."""
    def mode(n):
        return tuple(n[directions.index(i)] if i in directions else 0 for i in range(chart.k))

    modes = st.tuples(*[st.integers(-1, 1)] * len(directions)).map(
        lambda n: mode(n) + (0,) * chart.m
    )
    coefs = st.builds(GaussianRational, _fractions, _fractions)
    return st.dictionaries(modes, coefs, max_size=2).map(lambda t: ScalarFn(chart, t))


def _closed_section(chart, transverse, h):
    """s_a = g_a + d h / d ph_a: leaf-independent g plus the d_F-exact d_F h,
    so that s is d_F-closed, m_1 s = 0."""
    return LeafForm.section(
        chart, [g + h.partial(i) for g, i in zip(transverse, chart.leaf_indices)]
    )


def _infinitesimal_sections():
    chart = TORUS_OBSTRUCTED.chart
    transverse = st.lists(_polys(chart, (2, 3, 4)), min_size=chart.m, max_size=chart.m)
    exact = _polys(chart, (0, 1, 2, 3))
    return st.builds(_closed_section, st.just(chart), transverse, exact)


def _prolonging_section():
    """h = E(ph_1 + ph_2 + ph_4) - E(ph_1): on torus-obstructed every one of
    s_1 .. s_4 is nonzero, so parts of every multiplicity pattern count."""
    chart = TORUS_OBSTRUCTED.chart
    h = ScalarFn(chart, {(1, 1, 0, 1, 0, 0, 0): 1, (1, 0, 0, 0, 0, 0, 0): -1})
    return _closed_section(chart, [ScalarFn.zero(chart)] * chart.m, h)


@pytest.mark.parametrize("name", TABLES)
@settings(max_examples=25, deadline=None)
@given(
    sections=st.lists(_infinitesimal_sections(), min_size=3, max_size=3),
    perm=st.permutations(range(3)),
)
def test_multibrackets_symmetric_in_sections(name, sections, perm):
    """m_h(s_1, .., s_h) for h = 2, 3 does not depend on the order of the
    sections: the I(s) are fiber-constant vertical fields and commute, so
    the symmetric terms m_h(S, .., S) of the MC series are well defined."""
    table = TABLES[name]
    assert all(table.m1(w).is_zero() for w in sections)
    for h in (2, 3):
        args = sections[:h]
        reordered = [args[i] for i in perm if i < h]
        assert table.m(reordered) == table.m(args)


def _compositions(total, parts):
    """Ordered tuples of `parts` positive integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_prolong(table, s1, order):
    """prolong_formal with the order-k right-hand side summed over every
    composition of k into h >= 2 parts, weight (-1)^h / h!, each term an
    m_h evaluated from J by a fold that shares no bracket."""
    chart = table.chart
    coeffs, history = [s1], []
    for k in range(2, order + 1):
        rhs = LeafForm.zero(chart, 2)
        for h in range(2, k + 1):
            for comp in _compositions(k, h):
                args = [coeffs[i - 1] for i in comp]
                m_h = projection_P(nested_derived(table.j, args))
                rhs = rhs + m_h.scale(Fraction((-1) ** h, math.factorial(h)))
        status, payload = solve_dF(rhs)
        history.append(
            {
                "order_k": k,
                "rhs": rhs,
                "obstruction_zero_mode": rhs.leaf_zero_mode(),
                "solved": status == "solved",
            }
        )
        if status == "obstructed":
            break
        coeffs.append(payload)
    return coeffs, history


@pytest.mark.parametrize("name", TABLES)
@settings(max_examples=25, deadline=None)
@given(s1=_infinitesimal_sections(), order=st.integers(2, 5))
@example(s1=_prolonging_section(), order=5)
def test_prolong_matches_composition_sum(name, s1, order):
    """The bracket recurrence D[h][n] = sum_p [[D[h-1][n-p], I s_p]] gives
    the coefficients and the orders of the composition sum."""
    table = TABLES[name]
    assert prolong_formal(table, s1, order) == composition_prolong(table, s1, order)


def test_prolong_brackets_are_polynomial_in_the_order(monkeypatch):
    """Where only s_1 is nonzero the brackets are the diagonal [[..[[J, I
    s_1]].., I s_1]], the same number at every order.  Where every s_p is
    nonzero (_prolonging_section) row 1 of the recurrence has at most N
    brackets and each of the rows 2 .. B + 1 at most N (N + 1) / 2."""
    calls = []
    original = MultiDerivation.sj_bracket
    monkeypatch.setattr(MultiDerivation, "sj_bracket", lambda a, b: calls.append(b) or original(a, b))

    def brackets(s1, order):
        table = MultibracketTable(STRUCTURES["torus-obstructed"])
        del calls[:]
        prolong_formal(table, s1, order)
        return len(calls)

    chart = TORUS_OBSTRUCTED.chart
    s1 = LeafForm.section(chart, [ScalarFn.sin_phi(chart, "ph_3"), ScalarFn.cos_phi(chart, "ph_3")])
    first = brackets(s1, 2)
    for n in (4, 8, 16, 200):
        assert brackets(s1, n) == first, n
    bound = TABLES["torus-obstructed"].series_bound()
    for n in (4, 8, 16):
        count = brackets(_prolonging_section(), n)
        assert count <= n + bound * n * (n + 1) // 2, (n, count)


class _LowBoundTable(MultibracketTable):
    """A table whose series_bound() is 1, below torus-obstructed's 3."""

    def series_bound(self):
        return 1


def test_prolong_checks_the_series_bound(monkeypatch, capsys):
    """prolong_formal builds row B + 1 of the recurrence and checks that P
    of it vanishes: with B = 1 on torus-obstructed, m_2(s, s) != 0 lies
    beyond the bound, so it raises AssertionError and the CLI exits 3 with
    one line."""
    table = _LowBoundTable(STRUCTURES["torus-obstructed"])
    with pytest.raises(AssertionError, match="MC hierarchy failed to terminate"):
        prolong_formal(table, TORUS_OBSTRUCTED.section(), 3)
    monkeypatch.setattr(MultibracketTable, "series_bound", _LowBoundTable.series_bound)
    assert cli.main(["--scenario", "torus-obstructed", "--task", "prolong:3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "coiso: internal invariant violation in prolong: MC hierarchy failed to terminate\n"


def _leaf_arguments():
    """LeafForm arguments of the derived brackets on the chart of
    torus-obstructed: functions (degree 0) and sections (degree 1)."""
    chart = TORUS_OBSTRUCTED.chart
    polys = _polys(chart, (0, 2, 3))
    functions = polys.map(LeafForm.function)
    sections = st.lists(polys, min_size=chart.m, max_size=chart.m).map(
        lambda comps: LeafForm.section(chart, comps)
    )
    return st.one_of(functions, sections)


@pytest.mark.parametrize("name", TABLES)
@settings(max_examples=20, deadline=None)
@given(
    pool=st.lists(_leaf_arguments(), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    cut=st.integers(0, 3),
)
def test_derived_memo_matches_fold(name, pool, picks, cut):
    """table.m(args) is P of the plain fold nested_derived(J, args): on a
    fresh table, with arguments repeated (picks from a pool of at most
    three), a prefix asked for before its extension and the reverse order
    after both; and on the shared table that other tests have warmed.  A
    second request returns the kept bracket itself."""
    j = STRUCTURES[name]
    args = [pool[i % len(pool)] for i in picks]
    prefix = args[: min(cut, len(args))]
    fresh = MultibracketTable(j)
    for xs in (prefix, args, args[::-1]):
        expected = nested_derived(j, xs)
        assert fresh.derived(xs) == expected
        assert fresh.m(xs) == projection_P(expected)
        assert fresh.derived(xs) is fresh.derived(list(xs))
    warm = TABLES[name]
    assert warm.m(args) == projection_P(nested_derived(j, args))


def _section_scenarios():
    """The built-in torus-obstructed and seeded sections of both
    linfty-sections families (ph3: prolongs, mixed: obstructed at order 2),
    built by the benchmark's own generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    base = json.loads(workloads._builtin_bytes("torus-obstructed"))
    out = [pytest.param(load_scenario("torus-obstructed"), id="torus-obstructed")]
    for family in (workloads.PROLONGED, workloads.OBSTRUCTED):
        for seed in range(3):
            rng = random.Random(f"mc-series/{family}/{seed}")
            data = workloads.section_scenario(base, family, rng)
            out.append(pytest.param(Scenario(data, family), id=f"{family}-{seed}"))
    return out


@pytest.mark.parametrize("scenario", _section_scenarios())
def test_mc_series_matches_exp_series(scenario):
    """mc_series, whose m_k(s, .., s) come from the table, equals the
    exponential series of ad_{I(-s)} on J: on a fresh table, and again once
    kuranishi and prolong_formal have kept their brackets of s there."""
    table, s = scenario.table(), scenario.section()
    expected = exp_series_mc(table, s)
    assert mc_series(table, s) == expected
    kuranishi(table, s)
    prolong_formal(table, s, 4)
    assert mc_series(table, s) == expected


@pytest.mark.parametrize("name", TABLES)
@settings(max_examples=15, deadline=None)
@given(comps=st.lists(_polys(TORUS_OBSTRUCTED.chart, (0, 1, 2, 3)), min_size=2, max_size=2))
def test_mc_series_matches_exp_series_off_shell(name, comps):
    """The same on any section, where m_1 s and, on cubic-poisson, m_3(s, s, s)
    need not vanish, so every odd order checks the sign (-1)^k that
    multilinearity gives."""
    table = TABLES[name]
    s = LeafForm.section(table.chart, comps)
    assert mc_series(table, s) == exp_series_mc(table, s)
