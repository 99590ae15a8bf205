"""The sparse-term invariant of every container: after random sums,
differences, scalings and products, keys are canonical and no stored value
is zero."""

import random
from fractions import Fraction

import pytest

from coiso.geom import Form
from coiso.graded import DX, DXI, DXIS, M, XI, XIS, GradedElement, normalize
from coiso.leafform import LeafForm
from coiso.multivector import MultiVectorField
from coiso.multider import MultiDerivation
from coiso.rational import GaussianRational
from coiso.ring import Chart, ContentError, ScalarFn

from helpers import random_base_scalar, random_scalar
from paper import graded_product

CHART = Chart(torus=("ph_1", "ph_2"), fiber=("y_1", "y_2"), leaf=("ph_1", "ph_2"))


def _raw_key(rng, bound, degree):
    """An index tuple in any order, repeats allowed."""
    return tuple(rng.randrange(bound) for _ in range(degree))


def _skew(cls, bound, coefficient):
    def make(rng):
        degree = rng.randint(0, 2)
        terms = {_raw_key(rng, bound, degree): coefficient(CHART, rng) for _ in range(3)}
        return cls(CHART, degree, terms)

    return make


def _scalar(rng):
    return random_scalar(CHART, rng, max_terms=3, freq=1, fiber_deg=1)


def _graded(rng):
    letters = [(XI, 0), (XI, 1), (XIS, 0), (XIS, 1), (M,), (DX, 0), (DXI, 1), (DXIS, 0)]
    terms = {}
    for _ in range(4):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        terms[word] = _scalar(rng)
    return GradedElement(CHART, terms)


CONTAINERS = {
    "ScalarFn": (_scalar, lambda a, b: a * b),
    "MultiVectorField": (_skew(MultiVectorField, CHART.dim, random_scalar), lambda a, b: a.wedge(b)),
    "LeafForm": (_skew(LeafForm, CHART.m, random_base_scalar), lambda a, b: a.wedge(b)),
    "Form": (_skew(Form, CHART.dim, random_scalar), lambda a, b: a.wedge(b)),
    "MultiDerivation": (_skew(MultiDerivation, CHART.dim + 1, random_scalar), lambda a, b: a.wedge(b)),
    "GradedElement": (_graded, graded_product),
}


def _assert_canonical(x):
    assert isinstance(x.terms, dict)
    for key, value in x.terms.items():
        assert not value.is_zero(), (key, value)
        if isinstance(x, ScalarFn):
            assert type(key) is tuple and len(key) == CHART.dim
            assert all(a >= 0 for a in key[CHART.k :])
            assert isinstance(value, GaussianRational)
            continue
        _assert_canonical(value)
        if isinstance(x, GradedElement):
            assert normalize(key) == (1, key)
        else:
            bound = x._index_bound()
            assert len(key) == x.degree
            assert list(key) == sorted(set(key)) and all(0 <= i < bound for i in key)


def _same_shape(rng, make, like):
    while True:
        x = make(rng)
        if getattr(x, "degree", None) == getattr(like, "degree", None):
            return x


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_sparse_terms_stay_canonical(name):
    make, product = CONTAINERS[name]
    rng = random.Random(7)
    for _ in range(25):
        a = make(rng)
        b = _same_shape(rng, make, a)
        c = GaussianRational(Fraction(rng.randint(-2, 2), 2), rng.randint(-1, 1))
        results = [a, a + b, a - b, -a, a.scale(c), a.scale(0), a - a, (a + b) - b, product(a, b)]
        for r in results:
            _assert_canonical(r)
        assert (a - a).is_zero() and a.scale(0).is_zero()
        assert (a + b) - b == a
        assert a + b == b + a


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_scale_by_a_sign_is_a_negation(name):
    """scale(1) is the container itself and scale(-1) its negation."""
    make, _ = CONTAINERS[name]
    rng = random.Random(5)
    for _ in range(10):
        x = make(rng)
        assert x.scale(1) is x and x.scale(GaussianRational(1)) is x
        assert x.scale(-1) == -x and x.scale(Fraction(-1)) == -x


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_operands_on_an_equal_chart_combine(name):
    """The check compares shapes by value: an operand on an equal chart
    that is another object combines as one on the same chart; another
    chart, or for a skew container another degree, raises ContentError."""
    make, _ = CONTAINERS[name]
    rng = random.Random(13)
    twin = Chart(torus=CHART.torus, fiber=CHART.fiber, leaf=CHART.leaf)
    other = Chart(torus=("th_1", "th_2"), fiber=("y_1", "y_2"), leaf=("th_1", "th_2"))
    for _ in range(5):
        a = make(rng)
        b = _same_shape(rng, make, a)
        on_twin, on_other = b._like(b.terms), b._like(b.terms)
        on_twin.chart, on_other.chart = twin, other
        assert twin is not CHART
        assert a + on_twin == a + b and a - on_twin == a - b and a.plus([on_twin]) == a + b
        if isinstance(a, ScalarFn):
            assert a * on_twin == a * b
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x.plus([y])):
            with pytest.raises(ContentError, match="differ in chart or shape"):
                op(a, on_other)
        if hasattr(a, "degree"):
            c = make(rng)
            while c.degree == a.degree:
                c = make(rng)
            with pytest.raises(ContentError, match="differ in chart or shape"):
                a + c


def _reordered(x):
    """x rebuilt through its constructor from its terms in reverse order."""
    items = list(x.terms.items())[::-1]
    if isinstance(x, ScalarFn):
        return ScalarFn(x.chart, dict(items))
    return type(x)(x.chart, x.degree, dict(items))


@pytest.mark.parametrize("name", ["ScalarFn", "MultiVectorField", "LeafForm"])
def test_equal_containers_hash_equal(name):
    """Equal containers built in different term orders hash equal and are
    one dict key, the memo key of MultibracketTable.derived."""
    make, _ = CONTAINERS[name]
    rng = random.Random(11)
    for _ in range(25):
        x = make(rng)
        y = _reordered(x)
        assert y == x and hash(y) == hash(x)
        memo = {(x, x): "kept"}
        assert memo[(y, y)] == "kept" and len(memo | {(y, y): "again"}) == 1


def _fresh(x):
    """x rebuilt with new objects down to its coefficients, so no hash of
    it or of a value is kept yet."""
    if isinstance(x, ScalarFn):
        return ScalarFn(x.chart, dict(x.terms))
    return x._like({k: _fresh(v) for k, v in x.terms.items()})


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_kept_hash_is_the_fresh_hash(name):
    """A container computes its hash on first use and keeps it; the kept
    hash is the one a freshly built equal container computes."""
    make, _ = CONTAINERS[name]
    rng = random.Random(17)
    for _ in range(10):
        x = make(rng)
        first = hash(x)
        assert x._hash == first and hash(x) == first
        fresh = _fresh(x)
        assert fresh == x and not hasattr(fresh, "_hash") and hash(fresh) == first


def test_containers_of_other_type_or_shape_differ():
    """One term table in containers of different type, degree or chart
    gives different values and different dict keys."""
    f = random_base_scalar(CHART, random.Random(3))
    other_chart = Chart(torus=("th_1", "th_2"), fiber=("y_1", "y_2"), leaf=("th_1", "th_2"))
    same_terms = [
        MultiVectorField(CHART, 1, {(0,): f}),
        LeafForm(CHART, 1, {(0,): f}),
        Form(CHART, 1, {(0,): f}),
        MultiVectorField(CHART, 0, {(): f}),
        LeafForm(CHART, 0, {(): f}),
    ]
    empty = [
        ScalarFn.zero(CHART),
        ScalarFn.zero(other_chart),
        MultiVectorField.zero(CHART, 1),
        MultiVectorField.zero(CHART, 2),
        LeafForm.zero(CHART, 1),
        GradedElement(CHART),
        GradedElement(other_chart),
    ]
    for group in (same_terms, empty):
        assert len({x: i for i, x in enumerate(group)}) == len(group)
        for i, x in enumerate(group):
            assert all(x != y for y in group[i + 1 :])
    g = ScalarFn(other_chart, {key: c for key, c in f.terms.items()})
    assert g.terms == f.terms and g != f and len({f, g}) == 2


def test_skew_coefficients_on_another_chart_are_rejected():
    """A skew container takes coefficients on its own chart only: the same
    chart object or an equal one passes, another chart raises ContentError."""
    other_chart = Chart(torus=("th_1", "th_2"), fiber=("y_1", "y_2"), leaf=("th_1", "th_2"))
    twin = Chart(torus=("ph_1", "ph_2"), fiber=("y_1", "y_2"), leaf=("ph_1", "ph_2"))
    f_b = ScalarFn.sin_phi(other_chart, "th_1")
    with pytest.raises(ContentError, match="another chart"):
        LeafForm.section(CHART, [f_b, ScalarFn.zero(CHART)])
    with pytest.raises(ContentError, match="another chart"):
        MultiVectorField(CHART, 1, {(0,): f_b})
    f = ScalarFn.sin_phi(twin, "ph_1")
    assert twin is not CHART and LeafForm.section(CHART, [f, f]).components() == [f, f]
    assert MultiVectorField(CHART, 1, {(0,): f}).terms == {(0,): f}


def test_graded_coefficients_on_another_chart_are_rejected():
    """GradedElement takes coefficients on its own chart only, as the skew
    containers do: a coefficient on another chart raises ContentError before
    any sum (g + g added the foreign coefficients), an equal chart passes."""
    chart = Chart(torus=("x",), fiber=("y",))
    word = ((XI, 0),)
    with pytest.raises(ContentError, match="^GradedElement coefficient on another chart$"):
        GradedElement(chart, {word: ScalarFn.one(Chart(torus=("u", "v"), fiber=("w",)))})
    with pytest.raises(ContentError, match="^GradedElement coefficient on another chart$"):
        GradedElement(chart, {(): ScalarFn.one(chart), word: ScalarFn.y(CHART, "y_1")})
    f = ScalarFn.y(Chart(torus=("x",), fiber=("y",)), "y")
    g = GradedElement(chart, {word: f})
    assert f.chart is not chart and (g + g).terms == GradedElement(chart, {word: f + f}).terms
