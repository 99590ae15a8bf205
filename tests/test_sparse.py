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
from coiso.rational import GaussianRational
from coiso.ring import Chart, ScalarFn

from helpers import random_base_scalar, random_scalar

CHART = Chart(torus=("ph_1", "ph_2"), fiber=("y_1", "y_2"), leaf=("ph_1", "ph_2"))
RANK = 2


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
    return GradedElement(CHART, RANK, terms)


CONTAINERS = {
    "ScalarFn": (_scalar, lambda a, b: a * b),
    "MultiVectorField": (_skew(MultiVectorField, CHART.dim, random_scalar), lambda a, b: a.wedge(b)),
    "LeafForm": (_skew(LeafForm, CHART.m, random_base_scalar), lambda a, b: a.wedge(b)),
    "Form": (_skew(Form, CHART.dim, random_scalar), lambda a, b: a.wedge(b)),
    "GradedElement": (_graded, lambda a, b: a.mul(b)),
}


def _assert_canonical(x):
    assert isinstance(x.terms, dict)
    for key, value in x.terms.items():
        assert not value.is_zero(), (key, value)
        if isinstance(x, ScalarFn):
            n, alpha = key
            assert len(n) == CHART.k and len(alpha) == CHART.m
            assert all(a >= 0 for a in alpha)
            assert isinstance(value, GaussianRational)
            continue
        _assert_canonical(value)
        if isinstance(x, GradedElement):
            assert normalize(key) == (1, key)
        else:
            bound = CHART.m if isinstance(x, LeafForm) else CHART.dim
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
