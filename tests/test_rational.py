"""GaussianRational against a pair-of-Fractions oracle (hypothesis)."""

import operator
import re
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from coiso.rational import ONE, GaussianRational
from coiso.ring import Chart, ScalarFn

ZERO = GaussianRational(0)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))

prop = settings(max_examples=200, deadline=None)

fractions = st.builds(
    Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 6, 9, 12])
)
pairs = st.tuples(fractions, fractions)
rationals = st.one_of(st.integers(-30, 30), fractions)


# -- the oracle: (re, im) pairs of Fractions ---------------------------------


def o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def gr(x):
    # integer parts go in as ints, which the constructor takes without Fraction
    return GaussianRational(*(v.numerator if v.denominator == 1 else v for v in x))


def o_str(x):
    """The display of a pair of Fractions: the real part, then the signed
    imaginary part with *i; a zero part is left out (0 when both are)."""
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def assert_is(z, x):
    """z is canonical and equals the oracle pair x."""
    a, b, d = z._a, z._b, z._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (z.re, z.im) == x


# -- arithmetic ---------------------------------------------------------------


@prop
@given(pairs, pairs)
def test_ring_operations(x, y):
    assert_is(gr(x) + gr(y), (x[0] + y[0], x[1] + y[1]))
    assert_is(gr(x) - gr(y), (x[0] - y[0], x[1] - y[1]))
    assert_is(gr(x) * gr(y), o_mul(x, y))
    assert_is(-gr(x), (-x[0], -x[1]))
    if y != (0, 0):
        assert_is(gr(x) / gr(y), o_div(x, y))


@prop
@given(pairs, rationals)
def test_mixed_operands(x, r):
    """Arithmetic takes Gaussian rationals only: an int or a Fraction operand,
    on either side, raises a TypeError that names the operator (x - 1 and
    1 - x name -, not the + of a negated sum); GaussianRational.of(r) is
    the way in, and meets the oracle."""
    q = (Fraction(r), Fraction(0))
    z, w = gr(x), GaussianRational.of(r)
    for op, symbol in ((operator.add, "+"), (operator.sub, "-"), (operator.mul, "*"), (operator.truediv, "/")):
        for a, b in ((z, r), (r, z)):
            with pytest.raises(TypeError, match=rf"for {re.escape(symbol)}: "):
                op(a, b)
    assert_is(z + w, (x[0] + r, x[1]))
    assert_is(w + z, (x[0] + r, x[1]))
    assert_is(z - w, (x[0] - r, x[1]))
    assert_is(z * w, o_mul(x, q))
    assert_is(w * z, o_mul(x, q))
    if r:
        assert_is(z / w, o_div(x, q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
def test_scaled_is_the_fraction_product(x, num, den):
    """scaled(num, den) is the product with Fraction(num, den), canonical,
    for a zero num, a num and den with a common factor, and any sign."""
    z = gr(x)
    q = (Fraction(num, den), Fraction(0))
    assert_is(z.scaled(num, den), o_mul(x, q))
    assert z.scaled(num, den) == z * GaussianRational(Fraction(num, den))
    assert_is(z.scaled(num * 6, den * 6), o_mul(x, q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs, st.integers(-(10**6), 10**6))
def test_scaled_i_is_the_product_with_i_n(x, n):
    """scaled_i(n), the torus derivative's factor, is the product with i n,
    canonical, for a zero n, an n with a factor in common with the
    denominator, and any sign."""
    z = gr(x)
    assert_is(z.scaled_i(n), o_mul(x, (Fraction(0), Fraction(n))))
    assert z.scaled_i(n) == z * GaussianRational(0, n)


def test_scaled_by_beta_ratios():
    """The ratios a! b! / (a + b + 1)! of ScalarFn.path_integral."""
    for x in ((Fraction(3, 4), Fraction(-5, 6)), (Fraction(7), Fraction(0)), (Fraction(0), Fraction(-2, 9))):
        for a in range(7):
            for b in range(7):
                num, den = factorial(a) * factorial(b), factorial(a + b + 1)
                assert_is(gr(x).scaled(num, den), o_mul(x, (Fraction(num, den), Fraction(0))))


@prop
@given(pairs)
def test_division_by_zero(x):
    for zero in (ZERO, GaussianRational(0, 0), GaussianRational(0), GaussianRational(Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            gr(x) / zero


# -- representation -----------------------------------------------------------


@prop
@given(pairs)
def test_constructor_and_parts(x):
    z = gr(x)
    assert_is(z, x)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert gr((z.re, z.im)) == z
    assert z.parts() == (x[0].numerator, x[0].denominator, x[1].numerator, x[1].denominator)
    assert str(z) == o_str(x)
    assert GaussianRational.of(z) is z
    assert z.is_zero() == (x == (0, 0))
    assert (z.im == 0) == (x[1] == 0)


def test_zero_is_canonical():
    for z in (ZERO, GaussianRational(), ONE - ONE, I * GaussianRational(0), HALF - HALF, GaussianRational(0, 0) / I):
        assert (z._a, z._b, z._d) == (0, 0, 1)


@prop
@given(pairs, pairs)
def test_equality_and_hash(x, y):
    zx, zy = gr(x), gr(y)
    assert (zx == zy) == (x == y)
    assert (zx != zy) == (x != y)
    # the same value reached two ways
    w = zx * zy - zy * zx + zx
    assert w == zx and hash(w) == hash(zx)


@prop
@given(rationals)
def test_equality_with_rationals(r):
    z = GaussianRational(r)
    assert z == r and r == z
    assert z == Fraction(r)
    assert z + I != r
    assert GaussianRational.of(r) == z
    assert z != "r"


def test_display_unchanged():
    cases = [
        (ZERO, "0", "GaussianRational(Fraction(0, 1), Fraction(0, 1))"),
        (ONE, "1", "GaussianRational(Fraction(1, 1), Fraction(0, 1))"),
        (HALF, "1/2", "GaussianRational(Fraction(1, 2), Fraction(0, 1))"),
        (I, "1*i", "GaussianRational(Fraction(0, 1), Fraction(1, 1))"),
        (-I / GaussianRational(2), "-1/2*i", "GaussianRational(Fraction(0, 1), Fraction(-1, 2))"),
        (GaussianRational(3, -2), "3-2*i", "GaussianRational(Fraction(3, 1), Fraction(-2, 1))"),
        (
            GaussianRational(Fraction(-1, 3), Fraction(2, 3)),
            "-1/3+2/3*i",
            "GaussianRational(Fraction(-1, 3), Fraction(2, 3))",
        ),
        (
            GaussianRational("5/4", Fraction(-7, 6)),
            "5/4-7/6*i",
            "GaussianRational(Fraction(5, 4), Fraction(-7, 6))",
        ),
    ]
    for z, text, rep in cases:
        assert str(z) == text
        assert repr(z) == rep



@pytest.mark.parametrize("op", [operator.add, operator.mul, operator.truediv], ids=lambda op: op.__name__)
def test_foreign_operand_is_not_implemented(op):
    """An operand that is neither a Gaussian nor a plain rational gets
    NotImplemented, so Python raises TypeError rather than a wrong value."""
    x = GaussianRational(1, 2)
    assert getattr(x, f"__{op.__name__}__")("1") is NotImplemented
    with pytest.raises(TypeError):
        op(x, "1")


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussianRational(0.1),
        lambda: GaussianRational(1, -1.0),
        lambda: GaussianRational.of(-1.0),
        lambda: ScalarFn.one(Chart(torus=("ph",))).scale(-1.0),
    ],
    ids=["float real part", "float imaginary part", "of(-1.0)", "scale(-1.0)"],
)
def test_a_float_part_raises(make):
    """No float becomes a coefficient, not even an exact one: (-1) ** n is
    the float -1.0 for a negative n, and Fraction(0.1) is
    3602879701896397/36028797018963968, not 1/10."""
    with pytest.raises(TypeError, match="must be exact, not a float"):
        make()
