"""sympy as an independent oracle of the ring.

A ScalarFn becomes the sympy sum of c * exp(I*n.phi) * y**alpha; products,
partial derivatives, torus integrals, fiber substitution and the path
integral must then agree with sympy's expand, diff and integrate (its
heuristics, without the Risch algorithm, which these integrands of
exponentials and polynomials do not need and which doubles the time).
sympy is a test dependency only: without it this module is skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from coiso.rational import GaussianRational  # noqa: E402
from coiso.ring import Chart, PowerTable, ScalarFn  # noqa: E402

CHART = Chart(torus=("ph_1", "ph_2"), fiber=("y_1", "y_2"))
PHI = sp.symbols("ph_1 ph_2", real=True)
Y = sp.symbols("y_1 y_2")
T = sp.Symbol("t")
SYMBOL = dict(zip(CHART.coords, PHI + Y))


def to_sympy(f: ScalarFn):
    out = sp.Integer(0)
    for e, c in f.terms.items():
        term = sp.Rational(c.re.numerator, c.re.denominator)
        term += sp.I * sp.Rational(c.im.numerator, c.im.denominator)
        for nj, ph in zip(e, PHI):
            term *= sp.exp(sp.I * nj * ph)
        for a, y in zip(e[CHART.k :], Y):
            term *= y**a
        out += term
    return out


def agrees(f: ScalarFn, expr) -> bool:
    """f equals the sympy expression: their difference expands to 0 (expand
    splits each exp of a sum, so every term is one product of
    exp(I*n_j*ph_j) and powers of y)."""
    return sp.expand(to_sympy(f) - expr) == 0


_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_coefs = st.builds(GaussianRational, _fractions, _fractions)


def _scalars(max_fiber_degree=2, max_size=3):
    keys = st.tuples(
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(0, max_fiber_degree),
        st.integers(0, max_fiber_degree),
    )
    return st.dictionaries(keys, _coefs, max_size=max_size).map(lambda t: ScalarFn(CHART, t))


def _targets(name):
    """Zero, the identity y_name, base-only and fiber-linear targets."""
    identity = ScalarFn.y(CHART, name)
    return st.one_of(
        st.just(ScalarFn.zero(CHART)), st.just(identity), _scalars(0, 2), _scalars(1, 2)
    )


_target_pairs = st.tuples(_targets("y_1"), _targets("y_2"))


@settings(max_examples=40, deadline=None)
@given(_scalars(), _scalars())
def test_product_matches_sympy_expand(f, g):
    assert agrees(f * g, sp.expand(to_sympy(f) * to_sympy(g)))


@settings(max_examples=40, deadline=None)
@given(_scalars(), st.sampled_from(CHART.coords))
def test_partial_matches_sympy_diff(f, coord):
    assert agrees(f.partial(CHART.index(coord)), sp.diff(to_sympy(f), SYMBOL[coord]))


@settings(max_examples=15, deadline=None)
@given(_scalars(), st.sampled_from([("ph_1",), ("ph_2",), ("ph_1", "ph_2")]))
def test_integrate_torus_matches_sympy_integrate(f, coords):
    expr = to_sympy(f)
    for c in coords:
        expr = sp.integrate(expr, (SYMBOL[c], 0, 2 * sp.pi), risch=False)
    # the integral is (2 pi)^len(coords) times the zero mode along coords
    zero_mode = f.zero_mode([CHART.torus.index(c) for c in coords])
    assert sp.expand(to_sympy(zero_mode) * (2 * sp.pi) ** len(coords) - expr) == 0


@settings(max_examples=40, deadline=None)
@given(_scalars(), _target_pairs)
def test_substitute_fiber_matches_sympy_substitution(f, targets):
    expr = to_sympy(f).xreplace({y: to_sympy(g) for y, g in zip(Y, targets)})
    assert agrees(f.substitute_fiber(PowerTable(CHART, targets)), sp.expand(expr))


@settings(max_examples=15, deadline=None)
@given(_scalars(), _target_pairs, st.integers(0, 2))
def test_path_integral_matches_sympy_integrate(f, targets, power):
    path = {y: (1 - T) * y + T * to_sympy(g) for y, g in zip(Y, targets)}
    integrand = sp.expand((1 - T) ** power * to_sympy(f).xreplace(path))
    assert agrees(f.path_integral(PowerTable(CHART, targets), power), sp.integrate(integrand, (T, 0, 1), risch=False))


def test_sympy_conversion_of_a_known_function():
    """The conversion itself, on 2/3 i y_1^2 cos(ph_1) - y_2."""
    f = ScalarFn.cos_phi(CHART, "ph_1") * ScalarFn.y(CHART, "y_1", 2)
    f = f.scale(GaussianRational(0, Fraction(2, 3))) - ScalarFn.y(CHART, "y_2")
    ph_1, _ = PHI
    y_1, y_2 = Y
    assert agrees(f, sp.Rational(2, 3) * sp.I * y_1**2 * sp.cos(ph_1).rewrite(sp.exp) - y_2)
