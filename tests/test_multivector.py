"""Multivector fields: wedge, evaluation, the Gerstenhaber product and the
Schouten-Nijenhuis bracket built from two of its signed products."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coiso.rational import GaussianRational
from coiso.ring import Chart, ContentError, ScalarFn
from coiso.multivector import MultiVectorField
from coiso.leafform import LeafForm
from coiso.geom import Form

from helpers import (
    dense_gerstenhaber,
    dense_sn_bracket,
    leibniz_apply,
    random_mvf,
    random_scalar,
    torus_chart,
)
from paper import sn_bracket


@pytest.fixture
def chart():
    return torus_chart()


def commutator(X, Y):
    """Independent Lie bracket of vector fields, straight from components."""
    chart = X.chart
    comps = {}
    for i in range(chart.dim):
        xi = X.coefficient((i,))
        yi = Y.coefficient((i,))
        acc = ScalarFn.zero(chart)
        for j in range(chart.dim):
            xj = X.coefficient((j,))
            yj = Y.coefficient((j,))
            acc = acc + xj * yi.partial(j) - yj * xi.partial(j)
        if not acc.is_zero():
            comps[(i,)] = acc
    return MultiVectorField(chart, 1, comps)


def test_wedge_antisymmetry(chart):
    rng = random.Random(2)
    X = random_mvf(chart, rng, 1)
    Y = random_mvf(chart, rng, 1)
    assert X.wedge(Y) == Y.wedge(X).scale(-1)
    assert X.wedge(X).is_zero()


def test_apply_determinant_convention(chart):
    X = MultiVectorField.basis_vector(chart, "ph_1")
    Y = MultiVectorField.basis_vector(chart, "y_1")
    w = X.wedge(Y)
    f = ScalarFn.sin_phi(chart, "ph_1")
    g = ScalarFn.y(chart, "y_1")
    # (X ^ Y)(f, g) = X(f) Y(g) - X(g) Y(f)
    assert w.apply([f, g]) == ScalarFn.cos_phi(chart, "ph_1")
    assert w.apply([g, f]) == -ScalarFn.cos_phi(chart, "ph_1")


def test_apply_refuses_a_function_on_another_chart():
    """apply compares each function's chart with the field's before any
    product: a constant on another chart, which takes no product, and a
    nonconstant one both raise ContentError, and an equal chart passes."""
    line = Chart(torus=("x",), fiber=("y",))
    d_x = MultiVectorField.basis_vector(line, "x")
    plane = Chart(torus=("u", "v"))
    message = "^MultiVectorField applied to a function on another chart$"
    for f in (ScalarFn.const(plane, 3), ScalarFn.exp_phi(plane, "u")):
        with pytest.raises(ContentError, match=message):
            d_x.apply([f])
    with pytest.raises(ContentError, match=message):
        d_x.wedge(MultiVectorField.basis_vector(line, "y")).apply([ScalarFn.y(line, "y"), f])
    twin = Chart(torus=("x",), fiber=("y",))
    assert d_x.apply([ScalarFn.exp_phi(twin, "x")]) == ScalarFn.exp_phi(line, "x").scale(GaussianRational(0, 1))


@pytest.mark.parametrize(
    "chart",
    [torus_chart(), Chart(torus=("ph_1", "ph_2", "ph_3"))],
    ids=["with-fiber", "fiberless"],
)
def test_apply_matches_leibniz_expansion(chart):
    """Evaluation by successive first-slot insertions equals the determinant
    expansion over the slots of each key, in degrees 0 to 3."""
    rng = random.Random(21)
    for degree in range(4):
        for _ in range(4):
            P = random_mvf(chart, rng, degree)
            fns = [random_scalar(chart, rng) for _ in range(degree)]
            assert P.apply(fns) == leibniz_apply(P, fns)


def test_sn_vector_fields_is_commutator(chart):
    rng = random.Random(4)
    for _ in range(10):
        X = random_mvf(chart, rng, 1)
        Y = random_mvf(chart, rng, 1)
        assert sn_bracket(X, Y) == commutator(X, Y)


def test_sn_with_function_is_insertion(chart):
    rng = random.Random(6)
    for deg in (1, 2, 3):
        P = random_mvf(chart, rng, deg)
        f = random_scalar(chart, rng)
        F = MultiVectorField.function(f)
        expected = P.gerstenhaber(F).scale((-1) ** (deg - 1))
        assert sn_bracket(P, F) == expected


def test_sn_graded_skew(chart):
    rng = random.Random(8)
    for _ in range(8):
        p, q = rng.choice([(1, 1), (1, 2), (2, 2), (2, 3)])
        P = random_mvf(chart, rng, p)
        Q = random_mvf(chart, rng, q)
        lhs = sn_bracket(P, Q)
        rhs = sn_bracket(Q, P).scale(-((-1) ** ((p - 1) * (q - 1))))
        assert lhs == rhs


def test_sn_leibniz(chart):
    # [[P, Q ^ R]] = [[P, Q]] ^ R + (-1)^{(p-1) q} Q ^ [[P, R]]
    rng = random.Random(10)
    for _ in range(6):
        p, q, r = rng.choice([(1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2)])
        P = random_mvf(chart, rng, p)
        Q = random_mvf(chart, rng, q)
        R = random_mvf(chart, rng, r)
        lhs = sn_bracket(P, Q.wedge(R))
        rhs = sn_bracket(P, Q).wedge(R) + Q.wedge(sn_bracket(P, R)).scale(
            (-1) ** ((p - 1) * q)
        )
        assert lhs == rhs


def test_sn_graded_jacobi(chart):
    # [[P, [[Q, R]]]] = [[[[P, Q]], R]] + (-1)^{(p-1)(q-1)} [[Q, [[P, R]]]]
    rng = random.Random(12)
    for _ in range(5):
        p, q, r = rng.choice([(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)])
        P = random_mvf(chart, rng, p)
        Q = random_mvf(chart, rng, q)
        R = random_mvf(chart, rng, r)
        lhs = sn_bracket(P, sn_bracket(Q, R))
        rhs = sn_bracket(sn_bracket(P, Q), R) + sn_bracket(Q, sn_bracket(P, R)).scale(
            (-1) ** ((p - 1) * (q - 1))
        )
        assert lhs == rhs


def test_sn_coordinate_cases(chart):
    # [[d/dph_1 ^ d/dph_2, d/dph_1 ^ d/dph_2]] = 0 (constant bivector)
    b = MultiVectorField.basis_vector(chart, "ph_1").wedge(
        MultiVectorField.basis_vector(chart, "ph_2")
    )
    assert sn_bracket(b, b).is_zero()

    # [[y_1 d/dph_1, y_2 d/dph_2]] = 0: coefficients do not depend on ph_1, ph_2
    v1 = MultiVectorField.vector(chart, {"ph_1": ScalarFn.y(chart, "y_1")})
    v2 = MultiVectorField.vector(chart, {"ph_2": ScalarFn.y(chart, "y_2")})
    assert sn_bracket(v1, v2).is_zero()


def test_sn_extensional_oracle(chart):
    """Nested first-slot insertions reproduce the bracket's evaluation:
    for W = [[P, Q]] of degree 2, the determinant expansion of W(f, g)
    agrees with inserting f then g."""
    rng = random.Random(14)
    for _ in range(5):
        P = random_mvf(chart, rng, 2)
        Q = random_mvf(chart, rng, 1)
        W = sn_bracket(P, Q)
        f = random_scalar(chart, rng)
        g = random_scalar(chart, rng)
        via_apply = leibniz_apply(W, [f, g])
        via_insert = W.apply([f, g])
        assert via_apply == via_insert


_CHARTS = [torus_chart(), Chart(torus=("ph_1", "ph_2", "ph_3"))]
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_coefs = st.builds(GaussianRational, _fractions, _fractions)


@st.composite
def _field_pairs(draw):
    """Two random multivector fields of degree 0-3 on one chart, their
    coefficients Fourier polynomials of fiber degree at most 1."""
    chart = draw(st.sampled_from(_CHARTS))
    exps = st.tuples(*[st.integers(-1, 1)] * chart.k, *[st.integers(0, 1)] * chart.m)
    scalars = st.dictionaries(exps, _coefs, min_size=1, max_size=2).map(
        lambda t: ScalarFn(chart, t)
    )

    def field(degree):
        keys = st.lists(st.integers(0, chart.dim - 1), min_size=degree, max_size=degree)
        terms = draw(st.dictionaries(keys.map(tuple), scalars, max_size=3))
        return MultiVectorField(chart, degree, terms)

    return field(draw(st.integers(0, 3))), field(draw(st.integers(0, 3)))


@settings(max_examples=120, deadline=None)
@given(_field_pairs())
def test_gerstenhaber_matches_dense_expansion(pq):
    """The term-driven product and bracket equal the key-by-key unshuffle
    expansion, on charts with and without fiber."""
    P, Q = pq
    assert P.gerstenhaber(Q) == dense_gerstenhaber(P, Q)
    assert sn_bracket(P, Q) == dense_sn_bracket(P, Q)



@pytest.mark.parametrize("index", [0.5, True], ids=["float", "bool"])
def test_non_integer_index_is_refused(chart, index):
    """A key of a skew container holds integer indices only: (0.5,) was kept
    and failed later in a bracket with a TypeError."""
    with pytest.raises(ContentError, match=r"^MultiVectorField index out of range in \("):
        MultiVectorField(chart, 1, {(index,): ScalarFn.one(chart)})


@pytest.mark.parametrize("cls", [MultiVectorField, LeafForm, Form], ids=lambda cls: cls.__name__)
def test_negative_degree_is_refused(chart, cls):
    with pytest.raises(ContentError, match=f"^{cls.__name__} degree must be >= 0$"):
        cls(chart, -1)
