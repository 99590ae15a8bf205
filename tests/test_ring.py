"""The exact Fourier-polynomial ring: arithmetic, calculus, integration."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coiso import rational
from coiso.rational import GaussianRational
from coiso.ring import (
    Chart,
    ContentError,
    PowerTable,
    ScalarFn,
    inverse_unit,
    mat_identity,
    mat_mul,
    sum_of_products,
    unit_inverse,
)
from coiso.expr import _tokenize, parse_scalar, scalar_to_json, scalar_to_text
from coiso.scenario import load_scenario

from helpers import (
    TPoly,
    cofactor_inverse,
    conjugate,
    dense,
    scalar_from_json,
    random_real_scalar,
    random_scalar,
    random_unimodular,
    stores_no_zero,
    substitute_fiber_t,
    sum_of_products_oracle,
    torus_chart,
)


@pytest.fixture
def chart():
    return torus_chart()


def test_chart_validation():
    with pytest.raises(ContentError, match="^coordinate names must be unique$"):
        Chart(torus=("a", "a"))
    with pytest.raises(ContentError, match="^coordinate names must be unique$"):
        Chart(torus=("a",), fiber=("a",))
    with pytest.raises(ContentError, match="^leaf coordinate 'b' is not a torus coordinate$"):
        Chart(torus=("a",), leaf=("b",))
    c = Chart(torus=(), fiber=("x", "y", "z"))
    assert c.k == 0 and c.m == 3


def test_pythagorean_identity(chart):
    s = ScalarFn.sin_phi(chart, "ph_1")
    c = ScalarFn.cos_phi(chart, "ph_1")
    assert s * s + c * c == ScalarFn.one(chart)


@pytest.mark.parametrize("name", ["torus-obstructed", "legendrian-jet"])
def test_factor_builders_are_the_validated_builds(name):
    """exp_phi, y, sin_phi and cos_phi build their terms directly; each
    equals, term order included, the function the validating constructor
    builds from the same exponent keys, on both built-in charts, and a
    coordinate of the wrong kind or a negative fiber exponent is refused."""
    chart = load_scenario(name).chart
    half, half_i = Fraction(1, 2), GaussianRational(0, Fraction(1, 2))

    def key(j, v):
        return tuple(v if i == j else 0 for i in range(chart.dim))

    for j, c in enumerate(chart.torus):
        for n in (-2, -1, 0, 1, 3):
            assert ScalarFn.exp_phi(chart, c, n) == ScalarFn(chart, {key(j, n): 1})
        sin, cos = ScalarFn.sin_phi(chart, c), ScalarFn.cos_phi(chart, c)
        want_sin = ScalarFn(chart, {key(j, 1): -half_i, key(j, -1): half_i})
        want_cos = ScalarFn(chart, {key(j, 1): half, key(j, -1): half})
        assert sin == want_sin and list(sin.terms) == list(want_sin.terms)
        assert cos == want_cos and list(cos.terms) == list(want_cos.terms)
        with pytest.raises(ContentError, match="is not a fiber coordinate"):
            ScalarFn.y(chart, c)
    for j, c in enumerate(chart.fiber, chart.k):
        for p in (0, 1, 4):
            assert ScalarFn.y(chart, c, p) == ScalarFn(chart, {key(j, p): 1})
        with pytest.raises(ContentError, match="^fiber exponents must be nonnegative$"):
            ScalarFn.y(chart, c, -1)
        for make in (ScalarFn.exp_phi, ScalarFn.sin_phi, ScalarFn.cos_phi):
            with pytest.raises(ContentError, match="is not a torus coordinate"):
                make(chart, c)


@pytest.mark.parametrize("exponent", [1.5, "2", True], ids=["float", "str", "bool"])
def test_non_integer_exponent_key_is_refused(chart, exponent):
    """A term key holds integer exponents only: int(1.5) would build exp(i x),
    int("2") exp(2ix), and True would count as 1."""
    key = (exponent,) + (0,) * (chart.dim - 1)
    with pytest.raises(ContentError, match="^term exponents must be integers"):
        ScalarFn(chart, {key: 1})


def test_non_integer_exp_phi_exponent_is_refused(chart):
    with pytest.raises(ContentError, match="^term exponents must be integers, not 1.5$"):
        ScalarFn.exp_phi(chart, "ph_1", 1.5)


def test_non_integer_y_exponent_is_refused(chart):
    with pytest.raises(ContentError, match="^term exponents must be integers, not 2.0$"):
        ScalarFn.y(chart, "y_1", 2.0)


def test_fiber_monomial_product(chart):
    y1 = ScalarFn.y(chart, "y_1")
    y2 = ScalarFn.y(chart, "y_2")
    prod = y1 * y2
    assert list(prod.terms) == [(0, 0, 0, 0, 0, 1, 1)]


def test_sin_cos_product_is_half_sin_double(chart):
    # sin(ph_3)cos(ph_3) = (E(2) - E(-2)) / (4i), expanded by hand:
    # sin = (E(1)-E(-1))/(2i), cos = (E(1)+E(-1))/2, product telescopes.
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    c3 = ScalarFn.cos_phi(chart, "ph_3")
    e2 = ScalarFn.exp_phi(chart, "ph_3", 2)
    em2 = ScalarFn.exp_phi(chart, "ph_3", -2)
    half_sin_2 = (e2 - em2).scale(GaussianRational(0, Fraction(-1, 4)))
    assert s3 * c3 == half_sin_2


def test_partials(chart):
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    c3 = ScalarFn.cos_phi(chart, "ph_3")
    assert s3.partial(2) == c3
    y1, y2 = ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")
    f = y1 * y1 * y2
    assert f.partial(chart.index("y_1")) == (y1 * y2).scale(2)
    c4 = ScalarFn.cos_phi(chart, "ph_4")
    assert c4.partial(0).is_zero()
    with pytest.raises(ContentError, match=f"^coordinate index {chart.dim} out of range"):
        c4.partial(chart.dim)


def test_partials_commute(chart):
    rng = random.Random(7)
    coords = range(chart.dim)
    for _ in range(25):
        f = random_scalar(chart, rng, max_terms=3, freq=2, fiber_deg=2)
        a, b = rng.choice(coords), rng.choice(coords)
        assert f.partial(a).partial(b) == f.partial(b).partial(a)


def test_ring_axioms(chart):
    rng = random.Random(13)
    for _ in range(25):
        f = random_scalar(chart, rng)
        g = random_scalar(chart, rng)
        h = random_scalar(chart, rng)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert f + g == g + f


def test_substitute_fiber_with_t_integral(chart):
    # f = y_1^2, y_1 -> y_1 - t y_1, integrate over t in [0,1]: y_1^2 / 3
    y1 = ScalarFn.y(chart, "y_1")
    f = y1 * y1
    t = TPoly.t(chart)
    path = TPoly.const(y1) - t.scale_fn(y1)
    res = substitute_fiber_t(f, {"y_1": path})
    assert res.integrate01() == (y1 * y1).scale(Fraction(1, 3))


def test_substitute_fiber_at_section(chart):
    # f = y_1, y_1 -> g(u): result is g(u)
    g = ScalarFn.cos_phi(chart, "ph_4")
    y1 = ScalarFn.y(chart, "y_1")
    assert y1.substitute_fiber(PowerTable(chart, [g, ScalarFn.y(chart, "y_2")])) == g


def test_substitute_fiber_mixed(chart):
    # f = y_1 sin(ph_4), y_1 -> cos(ph_4): sin cos = half sin(2 ph_4)
    s4 = ScalarFn.sin_phi(chart, "ph_4")
    c4 = ScalarFn.cos_phi(chart, "ph_4")
    f = ScalarFn.y(chart, "y_1") * s4
    expected = s4 * c4
    assert f.substitute_fiber(PowerTable(chart, [c4, ScalarFn.y(chart, "y_2")])) == expected


def test_integrate_torus(chart):
    """The integral over the torus directions js is (2 pi)^len(js) times
    the zero mode along js."""
    js = [0, 1]  # ph_1, ph_2
    c4 = ScalarFn.cos_phi(chart, "ph_4")
    assert c4.zero_mode(js) == c4

    s1 = ScalarFn.sin_phi(chart, "ph_1")
    assert s1.zero_mode(js).is_zero()

    s3 = ScalarFn.sin_phi(chart, "ph_3")
    s4, c4 = ScalarFn.sin_phi(chart, "ph_4"), ScalarFn.cos_phi(chart, "ph_4")
    f = (c4 * c4 + s4 * s4) * s3
    assert f.zero_mode(js) == s3


def test_integral_of_derivative_vanishes(chart):
    rng = random.Random(3)
    for _ in range(20):
        f = random_scalar(chart, rng, max_terms=3, freq=2)
        assert f.partial(0).zero_mode([0, 1]).is_zero()


def test_reality_preserved(chart):
    rng = random.Random(5)
    for _ in range(20):
        f = random_real_scalar(chart, rng)
        g = random_real_scalar(chart, rng)
        for x in (f, g, f + g, f * g, f.partial(1), f.partial(chart.index("y_1"))):
            assert conjugate(x) == x
        h = random_real_scalar(chart, rng, fiber_deg=0)
        x = f.substitute_fiber(PowerTable(chart, [h, ScalarFn.y(chart, "y_2")]))
        assert conjugate(x) == x


def test_unit_inverse(chart):
    u = ScalarFn.exp_phi(chart, "ph_1", 3).scale(GaussianRational(2, 1))
    assert u * unit_inverse(u) == ScalarFn.one(chart)
    with pytest.raises(ContentError, match="^not a unit: fiber-dependent monomial$"):
        unit_inverse(ScalarFn.y(chart, "y_1"))
    with pytest.raises(ContentError, match="^not a unit: expected a single monomial$"):
        unit_inverse(ScalarFn.zero(chart))


def test_parse_scalar(chart):
    f = parse_scalar(chart, "2/3*sin(ph_1)*y_1^2 - cos(ph_2) + exp(I*-2*ph_3)*i")
    expected = (
        ScalarFn.sin_phi(chart, "ph_1").scale(Fraction(2, 3)) * ScalarFn.y(chart, "y_1", 2)
        - ScalarFn.cos_phi(chart, "ph_2")
        + ScalarFn.exp_phi(chart, "ph_3", -2).scale(GaussianRational(0, 1))
    )
    assert f == expected


def test_parse_whitespace_insensitive(chart):
    a = parse_scalar(chart, "1/2 * sin( ph_1 ) + y_1")
    b = parse_scalar(chart, "1/2*sin(ph_1)+y_1")
    assert a == b


def test_tokens_keep_kind_value_and_position():
    """A token is (kind, value, position), the position where the match of
    the token and the whitespace before it starts; the end token sits at
    the length of the text."""
    assert _tokenize(" 12*y_1 ^ 3 - (x)") == [
        ("num", 12, 0),
        ("op", "*", 3),
        ("name", "y_1", 4),
        ("op", "^", 7),
        ("num", 3, 9),
        ("op", "-", 11),
        ("op", "(", 13),
        ("name", "x", 15),
        ("op", ")", 16),
        ("end", None, 17),
    ]


def test_long_sums_parse_term_by_term(chart):
    """A sum of many terms, cancelling ones included, is the sum of its
    terms in order."""
    rng = random.Random(17)
    terms = [random_scalar(chart, rng, max_terms=1) for _ in range(40)]
    terms += [-t for t in terms[::3]]
    text = " + ".join(f"({scalar_to_text(t)})" for t in terms)
    expected = ScalarFn.zero(chart)
    for t in terms:
        expected = expected + t
    assert parse_scalar(chart, text) == expected
    # a leading sign applies to the first term only
    assert parse_scalar(chart, "-" + text) == expected - terms[0] - terms[0]


def test_json_round_trip(chart):
    rng = random.Random(11)
    for _ in range(20):
        f = random_scalar(chart, rng, max_terms=4, freq=2, fiber_deg=2)
        assert scalar_from_json(chart, scalar_to_json(f)) == f


# T^1 x R^2: two fiber coordinates, so one path can mix zero, base-only and
# fiber-dependent targets
PATH_CHART = Chart(torus=("ph_1",), fiber=("y_1", "y_2"))

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_coefs = st.builds(GaussianRational, _fractions, _fractions)


def _fourier_polys(max_fiber_degree):
    keys = st.tuples(
        st.integers(-1, 1), st.integers(0, max_fiber_degree), st.integers(0, max_fiber_degree)
    )
    return st.dictionaries(keys, _coefs, max_size=3).map(lambda t: ScalarFn(PATH_CHART, t))


_targets = st.one_of(st.just(ScalarFn.zero(PATH_CHART)), _fourier_polys(0), _fourier_polys(1))


@settings(max_examples=150, deadline=None)
@given(_fourier_polys(3), st.lists(_targets, min_size=2, max_size=2), st.integers(0, 3))
@example(
    ScalarFn(PATH_CHART, {(1, 3, 2): GaussianRational(Fraction(-5, 2), 1), (0, 0, 1): GaussianRational(0, 3), (-1, 0, 0): 1}),
    [ScalarFn.zero(PATH_CHART)] * 2,
    3,
)
def test_path_integral_matches_tpoly_route(f, targets, power):
    """The closed form equals substituting y -> y - t (y - g), multiplying by
    (1-t)^power and integrating the t-polynomial over [0, 1]; the explicit
    example has no live target, the s = 0 homotopy."""
    chart = PATH_CHART
    t = TPoly.t(chart)
    one = ScalarFn.one(chart)
    path = {}
    for name, g in zip(chart.fiber, targets):
        y = ScalarFn.y(chart, name)
        path[name] = TPoly.const(y) - t.scale_fn(y - g)
    tp = substitute_fiber_t(f, path)
    for _ in range(power):
        tp = tp * TPoly(chart, [one, -one])
    assert f.path_integral(PowerTable(chart, targets), power) == tp.integrate01()


def test_path_integral_needs_one_target_per_fiber_coordinate():
    f = ScalarFn.y(PATH_CHART, "y_1")
    with pytest.raises(ContentError, match="^a fiber substitution needs one target per fiber coordinate$"):
        f.path_integral(PowerTable(PATH_CHART, [ScalarFn.zero(PATH_CHART)]), 0)
    other = ScalarFn.one(Chart(torus=("ph_2",), fiber=("y_1", "y_2")))
    with pytest.raises(ContentError, match="differ in chart"):
        f.path_integral(PowerTable(other.chart, [other, other]), 0)
    # an equal chart that is another object passes the check
    twin = Chart(torus=PATH_CHART.torus, fiber=PATH_CHART.fiber)
    g = ScalarFn.y(twin, "y_2")
    assert twin is not PATH_CHART
    assert f.path_integral(PowerTable(twin, [g, g]), 1) == f.path_integral(
        PowerTable(PATH_CHART, [ScalarFn.y(PATH_CHART, "y_2")] * 2), 1
    )


def _substitution_targets(name):
    """Zero, the identity y_name, base-only and fiber-linear targets."""
    identity = ScalarFn.y(PATH_CHART, name)
    return st.one_of(st.just(ScalarFn.zero(PATH_CHART)), st.just(identity), _fourier_polys(0), _fourier_polys(1))


@settings(max_examples=100, deadline=None)
@given(_fourier_polys(3), st.tuples(_substitution_targets("y_1"), _substitution_targets("y_2")))
def test_substitute_fiber_matches_tpoly_route(f, targets):
    """The power-table substitution equals the t-free case of the
    t-polynomial route: each target a constant TPoly, read at degree 0.  A
    table passed for the targets gives the same, also to a second function
    that reads the powers the first one built."""
    path = {name: TPoly.const(g) for name, g in zip(PATH_CHART.fiber, targets)}
    assert f.substitute_fiber(PowerTable(PATH_CHART, targets)) == substitute_fiber_t(f, path).at_zero_degree()
    table = PowerTable(PATH_CHART, targets)
    for g in (f.partial(PATH_CHART.index("y_1")), f):
        assert g.substitute_fiber(table) == substitute_fiber_t(g, path).at_zero_degree()


def test_substitute_fiber_needs_one_target_per_fiber_coordinate():
    f = ScalarFn.y(PATH_CHART, "y_1")
    y1, y2 = ScalarFn.y(PATH_CHART, "y_1"), ScalarFn.y(PATH_CHART, "y_2")
    other = ScalarFn.one(Chart(torus=("ph_2",), fiber=("y_1", "y_2")))
    for targets, message in [
        ([y1], "needs one target per fiber coordinate"),
        ([y1, y2, y1], "needs one target per fiber coordinate"),
        ([y1, other], "targets differ in chart"),
    ]:
        with pytest.raises(ContentError, match=message):
            f.substitute_fiber(PowerTable(PATH_CHART, targets))
    with pytest.raises(ContentError, match="differ in chart"):
        f.substitute_fiber(PowerTable(other.chart, [other, other]))


MATRIX_CHART = Chart(torus=("ph_1", "ph_2"), fiber=("y_1",))


@pytest.mark.parametrize("n", range(7))
def test_inverse_unit_matches_cofactor_adjugate(n):
    """On random unimodular matrices the inverse is two-sided and equals the
    Leibniz cofactor adjugate divided by the Leibniz determinant."""
    chart = MATRIX_CHART
    rng = random.Random(100 + n)
    for _ in range(3):
        A = random_unimodular(chart, rng, n)
        inv = inverse_unit(chart, A, n)
        assert mat_mul(chart, A, inv) == mat_identity(chart, n)
        assert mat_mul(chart, inv, A) == mat_identity(chart, n)
        assert dense(chart, inv, n) == cofactor_inverse(chart, dense(chart, A, n))


def test_inverse_unit_needs_a_unit_determinant():
    chart = MATRIX_CHART
    y = ScalarFn.y(chart, "y_1")
    one = ScalarFn.one(chart)
    # det = 1 - y^2 is not a monomial; det = 0 is not a unit either
    for A in ({(0, 0): one, (0, 1): y, (1, 0): y, (1, 1): one}, {(i, j): y for i in range(2) for j in range(2)}):
        with pytest.raises(ContentError, match="^matrix determinant is not a unit of the ring: "):
            inverse_unit(chart, A, 2)


@pytest.mark.parametrize("n", range(7))
def test_ring_matrices_store_no_zero(n):
    """mat_mul and inverse_unit return sparse tables without a zero value:
    on random unimodular matrices, whose factors leave entries out, the
    product L U, the inverse and both products with the inverse.  The
    inverse of the empty 0 x 0 matrix is the empty table."""
    chart = MATRIX_CHART
    rng = random.Random(200 + n)
    assert inverse_unit(chart, {}, 0) == {}
    for _ in range(3):
        A = random_unimodular(chart, rng, n)
        inv = inverse_unit(chart, A, n)
        for M in (A, inv, mat_mul(chart, A, inv), mat_mul(chart, inv, A), mat_identity(chart, n)):
            assert stores_no_zero(M)


# -- structural zeros: the coordinate mask ------------------------------------

MASK_CHARTS = [PATH_CHART, torus_chart()]


def _sparse_polys(chart):
    """Fourier polynomials on chart whose terms mostly leave a coordinate
    out, so that masks are neither empty nor full."""
    keys = st.tuples(
        *[st.sampled_from((0, 0, 0, 1, -1, 2))] * chart.k,
        *[st.sampled_from((0, 0, 1, 2))] * chart.m,
    )
    return st.dictionaries(keys, _coefs, max_size=4).map(lambda t: ScalarFn(chart, t))


@pytest.mark.parametrize("chart", MASK_CHARTS, ids=["path", "torus"])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_mask_bit_iff_partial_nonzero(chart, data):
    f = data.draw(_sparse_polys(chart))
    assert 0 <= f.mask < 1 << chart.dim
    for i in range(chart.dim):
        assert bool(f.mask >> i & 1) == (not f.partial(i).is_zero())


@pytest.mark.parametrize("chart", MASK_CHARTS, ids=["path", "torus"])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_mask_of_sum_and_product_within_union(chart, data):
    f, g = data.draw(_sparse_polys(chart)), data.draw(_sparse_polys(chart))
    union = f.mask | g.mask
    # f - f and f * conj(f) cancel terms, so their masks shrink
    for h in (f + g, f * g, f - f, f * conjugate(f), f + g - f):
        assert h.mask & ~union == 0
    assert (f - f).mask == 0 and ScalarFn.zero(chart).mask == 0


@pytest.mark.parametrize("chart", MASK_CHARTS, ids=["path", "torus"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_operand_gives_zero_on_its_chart(chart, data):
    f = data.draw(_sparse_polys(chart))
    zero = ScalarFn.zero(chart)
    for h in (f * zero, zero * f, zero * zero):
        assert h.is_zero() and h.chart == chart and h.mask == 0
    other = ScalarFn.zero(Chart(torus=("th",), fiber=chart.fiber))
    for a, b in ((f, other), (other, f), (zero, other), (other, zero)):
        with pytest.raises(ContentError, match="differ in chart"):
            a * b


@pytest.mark.parametrize("chart", MASK_CHARTS, ids=["path", "torus"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_keys_stay_flat_exponent_tuples(chart, data):
    """Every key of a product, a derivative, a substitution and a path
    integral is one int tuple of length chart.dim in chart order: the torus
    frequencies, then nonnegative fiber exponents."""
    f, g = data.draw(_sparse_polys(chart)), data.draw(_sparse_polys(chart))
    powers = PowerTable(chart, [g] * chart.m)
    results = [f * g, f.substitute_fiber(powers), f.path_integral(powers, 1)]
    results += [f.partial(i) for i in range(chart.dim)]
    for h in results:
        for key in h.terms:
            assert type(key) is tuple and len(key) == chart.dim
            assert all(type(v) is int for v in key)
            assert all(v >= 0 for v in key[chart.k :])


def test_partial_index_rejects_out_of_range():
    chart = Chart(torus=("ph",), fiber=("y",))
    f = ScalarFn.y(chart, "y", 2)
    assert f.partial(1) == ScalarFn.y(chart, "y").scale(2)
    for i in (-1, -2, 2, 7):
        with pytest.raises(ContentError, match=rf"^coordinate index {i} out of range"):
            f.partial(i)


def test_coordinate_constructors_check_the_kind():
    chart = Chart(torus=("ph",), fiber=("y",))
    for make in (ScalarFn.exp_phi, ScalarFn.sin_phi, ScalarFn.cos_phi):
        with pytest.raises(ContentError, match="^'y' is not a torus coordinate$"):
            make(chart, "y")
    with pytest.raises(ContentError, match="^'ph' is not a fiber coordinate$"):
        ScalarFn.y(chart, "ph")
    with pytest.raises(ContentError, match="^'x' is not a fiber coordinate$"):
        ScalarFn.y(chart, "x")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda chart: ScalarFn(chart, {(0,) * (chart.dim - 1): 1}), "exponent arity does not match chart"),
        (lambda chart: ScalarFn(chart, {(0,) * (chart.dim - 1) + (-1,): 1}), "fiber exponents must be nonnegative"),
    ],
    ids=["short-key", "negative-fiber-exponent"],
)
def test_constructor_checks(chart, make, message):
    """ScalarFn refuses a term table of the wrong shape with a ContentError,
    and a comparison with a foreign type is NotImplemented (so == reads
    False)."""
    with pytest.raises(ContentError, match=message):
        make(chart)
    one = ScalarFn.one(chart)
    assert one.__eq__(1) is NotImplemented and one != 1


def test_sum_of_products_is_the_per_product_oracle():
    """Derandomized keys, signs and operands (zeros included), each list
    with a key whose products cancel only in part, so some coefficients
    cancel and others stay, and a key whose whole sum is zero."""
    chart = Chart(torus=("a", "b"), fiber=("y",))
    rng = random.Random("sum-of-products")
    zero = ScalarFn.zero(chart)
    for _ in range(60):
        fns = [random_scalar(chart, rng, max_terms=3) for _ in range(4)] + [zero]
        items = [
            (rng.choice("pqr"), rng.choice(fns), rng.choice(fns), rng.random() < 0.5)
            for _ in range(rng.randint(0, 8))
        ]
        f, g, k = (random_scalar(chart, rng, max_terms=3) for _ in range(3))
        items += [("part", f, g, False), ("part", f, g + k, True)]  # -f k
        items += [("none", f, g, False), ("none", g, f, True)]
        rng.shuffle(items)
        sums = sum_of_products(chart, items)
        assert sums == sum_of_products_oracle(chart, items)
        assert "none" not in sums and sums["part"] == -(f * k)
        assert all(not s.is_zero() and s.chart is chart for s in sums.values())


# T^1 x R^1 with few exponents, so that term products meet on one exponent
TRIPLE_CHART = Chart(torus=("a",), fiber=("y",))


def _triple_operand(rng, max_terms):
    """A nonzero function on TRIPLE_CHART whose coefficients have
    denominators 1 to 6, an imaginary part about half the time, and now and
    then numerators above 2^64."""

    def part():
        big = 2**70 + 3 if rng.random() < 0.2 else 1
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) * big, rng.randint(1, 6))

    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        im = part() if rng.random() < 0.5 else 0
        terms[rng.randint(-1, 1), rng.randint(0, 1)] = GaussianRational(part(), im)
    return ScalarFn(TRIPLE_CHART, terms)


def test_sum_of_products_accumulates_exact_triples():
    """The integer accumulation equals the per-term oracle of helpers, which
    multiplies and adds Gaussian rationals: derandomized operands with
    mixed denominators 1 to 6, imaginary parts and numerators above 2^64,
    negative flags and repeated keys, a key whose terms all cancel (absent
    from the result), and exponents that cancel and then grow again."""
    chart = TRIPLE_CHART
    rng = random.Random("integer-triples")
    e = (1, 1)
    m = ScalarFn(chart, {e: GaussianRational(Fraction(2**65, 3), Fraction(-1, 5))})
    n = ScalarFn(chart, {e: GaussianRational(Fraction(1, 6), 1)})
    # the exponent 2e cancels between the first two items and grows again
    again = sum_of_products(chart, [("k", m, n, False), ("k", n, m, True), ("k", m, m, False)])
    assert again == {"k": m * m}
    big = False
    for _ in range(80):
        fns = [_triple_operand(rng, 4) for _ in range(4)]
        items = [
            (rng.choice("pq"), rng.choice(fns), rng.choice(fns), rng.random() < 0.5)
            for _ in range(rng.randint(1, 8))
        ]
        f, g, h = fns[:3]
        items += [("gone", f, g, False), ("gone", g, f, True)]
        items += [("again", f, g, True), ("again", f, g, False), ("again", f, h, rng.random() < 0.5)]
        sums = sum_of_products(chart, items)
        assert sums == sum_of_products_oracle(chart, items)
        assert "gone" not in sums and sums["again"] in (f * h, -(f * h))
        big = big or any(abs(x) > 2**64 for s in sums.values() for c in s.terms.values() for x in c.parts())
    assert big


def test_sum_of_products_makes_one_rational_per_output_coefficient(monkeypatch):
    """The kernel sums integer triples: it runs no Gaussian-rational
    operator, and it makes one GaussianRational per nonzero coefficient of
    its result, none per term product or partial sum."""
    chart = TRIPLE_CHART
    rng = random.Random("one-rational-each")
    fns = [_triple_operand(rng, 4) for _ in range(5)]
    items = [(rng.choice("pq"), rng.choice(fns), rng.choice(fns), rng.random() < 0.5) for _ in range(12)]
    items += [("gone", fns[0], fns[1], False), ("gone", fns[1], fns[0], True)]
    expected = sum_of_products_oracle(chart, items)
    made = []
    new = rational._new

    def counted(cls):
        made.append(cls)
        return new(cls)

    def refuse(*args):
        raise AssertionError("the kernel ran a GaussianRational operator")

    monkeypatch.setattr(rational, "_new", counted)
    for name in ("__mul__", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(GaussianRational, name, refuse)
    sums = sum_of_products(chart, items)
    monkeypatch.undo()
    assert sums == expected
    coefficients = sum(len(s.terms) for s in sums.values())
    assert made == [GaussianRational] * coefficients
    assert sum(len(f.terms) * len(g.terms) for _, f, g, _ in items) > 2 * coefficients


def test_sum_of_products_refuses_an_operand_on_another_chart():
    chart = Chart(torus=("a", "b"), fiber=("y",))
    twin, other = Chart(torus=("a", "b"), fiber=("y",)), Chart(torus=("a", "c"), fiber=("y",))
    f = ScalarFn.sin_phi(chart, "a")
    assert sum_of_products(chart, [(0, f, ScalarFn.cos_phi(twin, "b"), False)]) == {0: f * ScalarFn.cos_phi(chart, "b")}
    for g in (ScalarFn.sin_phi(other, "c"), ScalarFn.zero(other), GaussianRational(2), f.terms):
        for pair in ((f, g), (g, f)):
            with pytest.raises(ContentError, match="ScalarFn operands differ in chart or shape"):
                sum_of_products(chart, [(0, *pair, False)])
