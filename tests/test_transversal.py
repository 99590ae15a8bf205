"""The transversal multibracket engine and its cross-checks."""

import json
import random
from fractions import Fraction
from importlib import resources
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from coiso.rational import GaussianRational
from coiso.ring import ContentError, ScalarFn, mat_identity, mat_mul
from coiso.multivector import MultiVectorField
from coiso.leafform import LeafForm
from coiso.linfty import MultibracketTable
from coiso.scenario import Scenario, load_scenario
from coiso import transversal
from coiso.transversal import TransversalData

from helpers import const, dense, dense_mul, fields_XY, random_base_scalar, stores_no_zero, torus_chart, torus_jacobi
from paper import d_G, j1_G


@pytest.fixture
def chart():
    return torus_chart()


@pytest.fixture
def td(chart):
    """Adapted-frame data of the worked torus example: G_1 = d/dph_3,
    G_2 = X, G = Y, C_a = 0, omega_12 = theta_S([d/dph_3, X]) = -1, F = 0."""
    X, Y = fields_XY(chart)
    zero = ScalarFn.zero(chart)
    one = ScalarFn.one(chart)
    omega = [[zero, -one], [one, zero]]
    return TransversalData(
        chart,
        Ga_fields=[MultiVectorField.basis_vector(chart, "ph_3"), X],
        G_field=Y,
        C=[zero, zero],
        omega=omega,
    )


def random_td(chart, rng):
    """Random involutive data: F = 0, random constant invertible omega,
    random C_a and G-frame components."""
    zero = ScalarFn.zero(chart)
    c = GaussianRational(rng.randint(1, 3))
    omega = [[zero, const(chart, c)], [const(chart, -c), zero]]
    ga = [
        MultiVectorField.vector(chart, {"ph_1": random_base_scalar(chart, rng)}),
        MultiVectorField.vector(chart, {"ph_2": random_base_scalar(chart, rng)}),
    ]
    g = MultiVectorField.vector(chart, {"ph_1": random_base_scalar(chart, rng)})
    C = [random_base_scalar(chart, rng), random_base_scalar(chart, rng)]
    return TransversalData(chart, ga, g, C, omega)


def with_curvature(td, Fab, Fa):
    """The frame data of td with the curvature blocks Fab and Fa."""
    return TransversalData(td.chart, td.Ga, td.G, td.C, td.omega, Fab, Fa)


def frame_forms(chart):
    """The fiber frame forms delta_a = {(a,): 1}."""
    return [LeafForm(chart, 1, {(a,): ScalarFn.one(chart)}) for a in range(chart.m)]


def test_w_inverse_exact(td, chart):
    assert mat_mul(chart, td.W(), td.Y()) == mat_identity(chart, td.n)
    assert td.Y() is td.Y()  # kept on the data, not rebuilt


def test_y_matrices_vanish_without_curvature(td):
    for idx in [(0,), (1,), (0, 1), (1, 1)]:
        assert td.Y(idx) == {}


def test_y_matrix_neumann_oracle(chart):
    """(W + p F) * [truncated Neumann series] = id through order 2: the
    series whose p-derivatives the induction formula computes."""
    rng = random.Random(1)
    td = random_td(chart, rng)
    # a nonzero curvature block
    zero = ScalarFn.zero(chart)
    f = random_base_scalar(chart, rng)
    td = with_curvature(td, {0: [[zero, f], [-f, zero]]}, {1: [random_base_scalar(chart, rng), zero]})

    # formal polynomial in p_0, p_1 with matrix coefficients (lists of rows),
    # truncated
    def add(A, B):
        return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

    def trunc_mul(A, B, order):
        out = {}
        for ka, Ma in A.items():
            for kb, Mb in B.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if sum(k) > order:
                    continue
                prod = dense_mul(chart, Ma, Mb)
                out[k] = add(out[k], prod) if k in out else prod
        return out

    order, n = 2, td.n
    Wp = {(0, 0): dense(chart, td.W(), n), (1, 0): dense(chart, td.F(0), n), (0, 1): dense(chart, td.F(1), n)}
    # Neumann series built from the Y-matrices:
    # W_p^{-1} = sum_k (-1)^k sum_{i_1..i_k} p_{i_1}..p_{i_k} Y^{i_1..i_k}
    series = {(0, 0): dense(chart, td.Y(), n)}
    for k in (1, 2):
        for seq in [(0,) * k, (1,) * k] + ([(0, 1), (1, 0)] if k == 2 else []):
            key = (seq.count(0), seq.count(1))
            M = [[f.scale((-1) ** k) for f in row] for row in dense(chart, td.Y(seq), n)]
            series[key] = add(series[key], M) if key in series else M
    prod = trunc_mul(Wp, series, order)
    identity = [[const(chart, int(i == j)) for j in range(n)] for i in range(n)]
    for key, M in prod.items():
        if key == (0, 0):
            assert M == identity
        else:
            assert all(f.is_zero() for row in M for f in row)


def test_cross_check_with_linfty(td, chart):
    """Generator-by-generator equality with the derived-bracket table of the
    worked example, under the frame identification dF_ph_a <-> delta_a."""
    table = MultibracketTable(torus_jacobi(chart))
    rng = random.Random(2)
    delta = frame_forms(chart)

    for _ in range(4):
        f = LeafForm.function(random_base_scalar(chart, rng))
        g = LeafForm.function(random_base_scalar(chart, rng))
        for args in (
            [f],  # m_1 on functions
            [f, g],  # m_2 generator families
            [f, delta[0]],
            [f, delta[1]],
            delta,
            [delta[0]],  # m_1 on the frame forms
            [f, g, f],  # three functions, with and without a form: the degree-0 zero
            [f, g, f, delta[0]],
        ):
            assert td.multibracket(args) == table.m(args)
        # m_k = 0 for k > 2 (transversally integrable)
        for k in (3, 4):
            assert td.multibracket([f] + [delta[i % 2] for i in range(k - 1)]).is_zero()


def test_refuses_other_leaf_forms(td, chart):
    """A leaf form that is neither a function nor a frame form delta_i has
    no generator formula: a degree-2 form, 2 delta_0 and a degree-1 form
    with a non-constant coefficient."""
    f = LeafForm.function(ScalarFn.one(chart))
    delta = frame_forms(chart)
    for xi in (
        delta[0].wedge(delta[1]),
        delta[0].scale(2),
        LeafForm(chart, 1, {(0,): ScalarFn.sin_phi(chart, "ph_1")}),
    ):
        for args in ([xi], [f, xi]):
            with pytest.raises(ContentError, match="frame forms"):
                td.multibracket(args)


def _transverse_disagreements(edit):
    """The ordered pairs of transverse probes f, g (sin ph_3, sin ph_4,
    sin ph_5, cos ph_4 sin ph_3) on which the engine's m_2(f, g) differs
    from the table's, on torus-obstructed after edit(transversal block)."""
    data = json.loads(resources.files("coiso").joinpath("scenarios", "torus-obstructed.json").read_text())
    edit(data["transversal"])
    scenario = Scenario(data)
    chart, td, table = scenario.chart, scenario.transversal(), scenario.table()
    sin = [ScalarFn.sin_phi(chart, c) for c in ("ph_3", "ph_4", "ph_5")]
    probes = sin + [ScalarFn.cos_phi(chart, "ph_4") * sin[0]]
    args = [[LeafForm.function(f), LeafForm.function(g)] for f, g in product(probes, repeat=2)]
    return sum(td.multibracket(a) != table.m(a) for a in args)


def _double_omega(block):
    block["omega"] = [["0", "-2"], ["2", "0"]]


def _set_c(block):
    block["C"] = ["1", "0"]


def _scale_frame_a(block):
    block["frame_a"][0] = {"ph_3": "2"}


@pytest.mark.parametrize(
    "edit, pairs",
    [(lambda block: None, 0), (_double_omega, 10), (_set_c, 4), (_scale_frame_a, 10)],
    ids=["shipped", "omega-doubled", "C", "frame_a"],
)
def test_transverse_probes_detect_a_wrong_block(edit, pairs):
    """Probes that vary across the leaves see the transversal block: the
    shipped block agrees with the derived brackets on every pair, and each
    edit that breaks the match makes pairs disagree."""
    assert _transverse_disagreements(edit) == pairs


def test_involutive_brackets_vanish_above_two(chart):
    rng = random.Random(3)
    delta = frame_forms(chart)
    for _ in range(3):
        td = random_td(chart, rng)
        f = LeafForm.function(random_base_scalar(chart, rng))
        for k in (3, 4, 5):
            assert td.multibracket([delta[i % 2] for i in range(k)]).is_zero()
            assert td.multibracket([f] + [delta[i % 2] for i in range(k - 1)]).is_zero()


def test_dG_extension(td, chart):
    X, Y = fields_XY(chart)
    rng = random.Random(4)
    # on functions: d_G f = (G_a f, G f) in the transverse coframe
    for _ in range(4):
        f = random_base_scalar(chart, rng)
        out = d_G(td, LeafForm.function(f))
        assert out[0].as_function() == MultiVectorField.basis_vector(chart, "ph_3").apply([f])
        assert out[1].as_function() == X.apply([f])
        assert out[2].as_function() == Y.apply([f])
    # [eps, d_F] = 0 on random degree-1 forms
    for _ in range(4):
        w = LeafForm(
            chart,
            1,
            {(0,): random_base_scalar(chart, rng), (1,): random_base_scalar(chart, rng)},
        )
        left = d_G(td, w.d_leaf())
        right = {al: form.d_leaf() for al, form in d_G(td, w).items()}
        for al in left:
            assert left[al] == right[al]
    # leafwise-constant f: d_F d_G f = 0
    f = ScalarFn.cos_phi(chart, "ph_4") * random_base_scalar(
        chart, rng, max_terms=1
    ).zero_mode(range(chart.k, chart.dim))
    f = ScalarFn(chart, {e: c for e, c in f.terms.items() if e[0] == 0 and e[1] == 0})
    out = d_G(td, LeafForm.function(f))
    for al in out:
        assert out[al].d_leaf().is_zero()


def test_j1G_prolong(td, chart):
    rng = random.Random(5)
    f = random_base_scalar(chart, rng)
    out = j1_G(td, LeafForm.function(f))
    comps = td.jG0(f)
    for al in range(4):
        assert out[al].as_function() == comps.get(al, ScalarFn.zero(chart))
    # [delta, d_F] = 0 on random functions
    left = j1_G(td, LeafForm.function(f).d_leaf())
    right = {al: form.d_leaf() for al, form in j1_G(td, LeafForm.function(f)).items()}
    for al in left:
        assert left[al] == right[al]


def curved_td(chart, rng):
    """random_td with a skew F_ab block and an F_a vector on both leaf
    directions, so that every Y-matrix is nonzero."""
    td = random_td(chart, rng)
    zero = ScalarFn.zero(chart)
    Fab, Fa = {}, {}
    for i in range(len(chart.leaf)):
        f = random_base_scalar(chart, rng)
        Fab[i] = [[zero, f], [-f, zero]]
        Fa[i] = [random_base_scalar(chart, rng) for _ in range(td.A)]
    return with_curvature(td, Fab, Fa)


def permutation_multibracket(td, args):
    """m_k summed over every permutation of the frame-form letters, each
    Y = W^-1 F^{i_1} W^-1 ... F^{i_k} W^-1 multiplied out from the left."""
    chart = td.chart
    fns = [a.as_function() for a in args if a.degree == 0]
    forms = [i for a in args if a.degree == 1 for (i,) in a.terms]
    frame, leaf = range(td.n), range(len(chart.leaf))
    zero = ScalarFn.zero(chart)

    def y(letters):
        out = dense(chart, td.Y(), td.n)
        for i in letters:
            out = dense_mul(chart, dense_mul(chart, out, dense(chart, td.F(i), td.n)), dense(chart, td.Y(), td.n))
        return out

    def jet(f):
        comps = td.jG0(f)
        return [comps.get(al, zero) for al in frame]

    def jet1(i):
        return dense(chart, td.jG1(i), len(leaf), td.n)

    if len(fns) == 2:
        jf, jg = jet(fns[0]), jet(fns[1])
        out = ScalarFn.zero(chart)
        for sigma in permutations(forms):
            Y = y(sigma)
            for al in frame:
                for be in frame:
                    out = out + Y[al][be] * jf[al] * jg[be]
        return LeafForm.function(-out)
    out = LeafForm.zero(chart, 2 - len(fns))
    for sigma in permutations(forms):
        if fns:
            Y, jf, jlast = y(sigma[:-1]), jet(fns[0]), jet1(sigma[-1])
            for al in frame:
                for be in frame:
                    for h in leaf:
                        c = Y[al][be] * jf[al] * jlast[h][be]
                        out = out - LeafForm(chart, 1, {(h,): c})
        else:
            Y, j1, j2 = y(sigma[:-2]), jet1(sigma[-2]), jet1(sigma[-1])
            for al in frame:
                for be in frame:
                    for s in leaf:
                        for t in leaf:
                            if s != t:
                                c = (Y[al][be] * j1[s][al] * j2[t][be]).scale(Fraction(1, 2))
                                out = out + LeafForm(chart, 2, {(s, t): c})
    return out


@settings(max_examples=30, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    nfns=st.integers(0, 2),
    letters=st.lists(st.integers(0, 1), min_size=0, max_size=4),
)
def test_multibracket_matches_permutation_sum(rng, nfns, letters):
    """The prefix-shared, multiset-weighted multibracket equals the sum over
    every permutation of the letters with each Y multiplied out, on curved
    random data, for k = 2 .. 4 arguments."""
    chart = torus_chart()
    td = curved_td(chart, rng)
    delta = frame_forms(chart)
    args = [LeafForm.function(random_base_scalar(chart, rng)) for _ in range(nfns)]
    args += [delta[i] for i in letters[: 4 - nfns]]
    assume(len(args) >= 2)
    assert td.multibracket(args) == permutation_multibracket(td, args)


def test_y_table_is_kept_on_the_data(monkeypatch):
    """W^-1, each factor F^i W^-1 and each prefix Y are built once per
    TransversalData: a second evaluation of orders 3 and 4 builds no matrix
    product, and W is inverted once."""
    chart = torus_chart()
    rng = random.Random(3)
    td = curved_td(chart, rng)
    delta = frame_forms(chart)
    f, g = (LeafForm.function(random_base_scalar(chart, rng)) for _ in range(2))
    calls = []

    def spy(name, original):
        def wrapped(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(transversal, name, wrapped)

    spy("mat_mul", transversal.mat_mul)
    spy("inverse_unit", transversal.inverse_unit)
    jobs = [[f, delta[0], delta[1]], [f, g, delta[1], delta[0]], [f, delta[1], delta[0], delta[1]]]
    first = [td.multibracket(args) for args in jobs]
    assert calls.count("inverse_unit") == 1 and "mat_mul" in calls
    calls.clear()
    assert [td.multibracket(args) for args in jobs] == first
    assert calls == []


def test_jets_are_kept_on_the_data(monkeypatch):
    """Each distinct function's transversal jet is built once per
    TransversalData, keyed by exact equality: the probes of a
    transversal-crosscheck, each met in many multibrackets and again as an
    equal function built anew, apply every frame field to it once."""
    td = load_scenario("torus-obstructed").transversal()
    chart = td.chart
    delta = frame_forms(chart)
    applied = []
    apply = MultiVectorField.apply

    def spy(self, fns):
        applied.append(fns[0])
        return apply(self, fns)

    monkeypatch.setattr(MultiVectorField, "apply", spy)

    def probes():
        return [ScalarFn.one(chart)] + [ScalarFn.sin_phi(chart, c) for c in chart.torus[:2]]

    def run(fns):
        fns = [LeafForm.function(f) for f in fns]
        return [td.multibracket([f, g]) for f in fns for g in fns + delta]

    first = run(probes())
    frame = len(td.Ga) + 1
    assert len(applied) == 3 * frame
    assert all(applied.count(f) == frame for f in probes())
    assert run(probes()) == first and len(applied) == 3 * frame
    assert td.jG0(probes()[1]) is td.jG0(probes()[1])


def test_transversal_matrices_store_no_zero():
    """W, each F^i, each j^1_G matrix and every Y that a run of
    multibrackets keeps are sparse tables without a zero value: on
    torus-obstructed, whose W, F^i and frame leave most entries zero, and
    on curved random data, whose Y are nonzero."""
    for td in (load_scenario("torus-obstructed").transversal(), curved_td(torus_chart(), random.Random(6))):
        chart = td.chart
        delta = frame_forms(chart)
        f = LeafForm.function(ScalarFn.sin_phi(chart, "ph_3"))
        for k in (2, 3, 4):
            td.multibracket([delta[i % chart.m] for i in range(k)])
            td.multibracket([f] + [delta[i % chart.m] for i in range(k - 1)])
        leaf = range(len(chart.leaf))
        matrices = [td.W(), *(td.F(i) for i in leaf), *(td.jG1(i) for i in leaf), *td._ys.values()]
        assert len(td._ys) > 1
        assert all(stores_no_zero(M) for M in matrices)
