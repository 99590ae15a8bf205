"""Exact Fourier-polynomial functions on a chart T^k x R^m.

A ScalarFn is a finite sum  sum_c c * exp(i n.phi) * y^alpha  with Gaussian
rational coefficients, integer torus frequencies n and nonnegative fiber
exponents alpha.  A term's key is one exponent tuple of length chart.dim in
chart order, n followed by alpha, so the product of two basis monomials is
the basis monomial of the sum of their keys, and a derivative along chart
coordinate i reads entry i of each key.  The representation is canonical:
two functions are equal iff their term tables coincide.

Charts may be degenerate (k = 0 or m = 0); the torus coordinates are
angles (only exp(i n phi) of them occurs, never phi itself) and the fiber
coordinates are ordinary polynomial variables.

Sparse terms.  ScalarFn and the other containers of the library
(MultiVectorField, MultiDerivation, LeafForm, geom.Form, GradedElement) are
SparseTerms: a shape (the chart, plus a degree for the skew ones) and a
dict ``terms`` from canonical keys to nonzero values.  Keys are canonical
(exponent tuples here, sorted skew index tuples or normalized letter words
elsewhere) and no value is ever zero, so equality is equality of term
tables.  Every
container is built through the one kernel ``accumulate``, which adds
(key, value) pairs into a dict and deletes a key whose sum is zero.  A
term table is never changed once its container is built, so a container
hashes by its type, shape and terms and can key a dict.

Fiber substitution.  ``ScalarFn.substitute_fiber`` replaces every fiber
coordinate by a target function, and ``ScalarFn.path_integral`` integrates
exactly along the straight path from the fiber point to the targets, in
closed form (binomial expansion and the Beta integral).  Each Beta ratio
is an integer quotient num/den, which scales a coefficient through
``GaussianRational.scaled`` with one gcd and no Fraction.  Both take the
targets as a ``PowerTable``, which computes each product of powers of the
targets once, however often a caller substitutes into them (a section).

Structural zeros.  Most coefficients of the calculus depend on few of the
chart's coordinates, so most of their partial derivatives, and the products
with them, are zero before anything is computed.  ``ScalarFn.mask`` is the
set of coordinates a function depends on, as an int: bit i is set iff some
key has a nonzero entry at index i.  The mask is exact: it is computed from
the terms themselves, never taken from a caller's claim, the first time it
is read, and then kept in a slot.  A term's derivative along a coordinate
it carries is a nonzero multiple of it, and distinct terms stay distinct,
so ``partial(i)`` is zero iff bit i is clear; callers test the bit and skip
the derivative (and every product with it).  A product with a zero operand
is the zero of the same chart, and ``mat_mul`` shares one zero among its
empty entries.

Matrices over the ring are lists of rows of ScalarFns.  ``inverse_unit``
is the one matrix inverse of the library; it needs a determinant that is
a unit of the ring, which ``unit_inverse`` then inverts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial
from operator import add, sub

from .rational import GaussianRational, ONE


class ContentError(ValueError):
    """The base of every error the library raises for invalid input: the
    command line exits 2 on any of them."""


class ChartError(ContentError):
    pass


class Chart:
    """Coordinate chart T^k x R^m with designated leaf directions.

    Coordinate order is torus coordinates first, then fiber coordinates;
    all index-based APIs refer to this order.
    """

    __slots__ = ("torus", "fiber", "leaf", "leaf_indices", "coords", "k", "m", "dim")

    def __init__(self, torus=(), fiber=(), leaf=()):
        torus = tuple(torus)
        fiber = tuple(fiber)
        leaf = tuple(leaf)
        names = torus + fiber
        if len(set(names)) != len(names):
            raise ChartError("coordinate names must be unique")
        for n, c in enumerate(leaf):
            if c not in torus:
                raise ChartError(f"leaf coordinate {c!r} is not a torus coordinate")
            if c in leaf[:n]:
                raise ChartError(f"leaf coordinate {c!r} is repeated")
        self.torus = torus
        self.fiber = fiber
        self.leaf = leaf
        # the chart index of each leaf coordinate (torus coordinates come first)
        self.leaf_indices = tuple(torus.index(c) for c in leaf)
        self.coords = names
        self.k, self.m, self.dim = len(torus), len(fiber), len(names)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartError(f"unknown coordinate {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.torus == other.torus
            and self.fiber == other.fiber
            and self.leaf == other.leaf
        )

    def __hash__(self):
        return hash((self.torus, self.fiber, self.leaf))


def accumulate(out, pairs):
    """Add (key, value) pairs into the dict out, deleting a key whose sum is
    zero; returns out.  Values are nonzero and have + and is_zero().  out
    becomes a container's term table, which nothing changes afterwards:
    SparseTerms.__hash__ relies on it."""
    get = out.get
    for key, value in pairs:
        prev = get(key)
        if prev is None:
            out[key] = value
        else:
            value = prev + value
            if value.is_zero():
                del out[key]
            else:
                out[key] = value
    return out


class SparseTerms:
    """The linear structure shared by every sparse container.

    A subclass keeps its shape next to ``terms`` and supplies two hooks:
    ``_shape()``, the tuple that must agree for two containers to add, and
    ``_like(terms)``, a container of the same shape holding terms that are
    already canonical.
    """

    __slots__ = ("chart", "terms")

    def _shape(self):
        return (self.chart,)

    def _check(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ChartError(f"{type(self).__name__} operands differ in chart or shape")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        self._check(other)
        return self._like(
            accumulate(dict(self.terms), ((k, -v) for k, v in other.terms.items()))
        )

    def plus(self, others):
        """self + sum(others), accumulated in one dict."""
        out = dict(self.terms)
        for x in others:
            self._check(x)
            accumulate(out, x.terms.items())
        return self._like(out)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = GaussianRational.of(c)
        if c.is_zero():
            return self._like({})
        if c == 1:
            return self
        if c == -1:  # a sign flip is a negation, not a product
            return -self
        return self._like({k: v * c for k, v in self.terms.items()})

    def scale_fn(self, f):
        """Multiply every value by the ScalarFn f (containers whose values
        are ScalarFns).  The ring has no zero divisors, so no value becomes
        zero unless f is."""
        if f.is_zero():
            return self._like({})
        return self._like({k: v * f for k, v in self.terms.items()})

    def leaf_zero_mode(self):
        """Pi_0 of a container whose values are ScalarFns: keep the terms of
        each value with zero frequency in every leaf direction."""
        leaf = self.chart.leaf_indices
        modes = ((k, f.zero_mode(leaf)) for k, f in self.terms.items())
        return self._like({k: g for k, g in modes if not g.is_zero()})

    def __eq__(self, other):
        if not isinstance(other, SparseTerms):
            return NotImplemented
        return (
            type(other) is type(self)
            and other._shape() == self._shape()
            and other.terms == self.terms
        )

    def __hash__(self):
        # agrees with __eq__; term tables are never changed after construction
        return hash((type(self), self._shape(), frozenset(self.terms.items())))


def _monomial(chart, key, c):
    """The ScalarFn c * exp(i n.phi) * y^alpha of a nonzero c and a key of
    the chart's shape, built without revalidating them."""
    f = object.__new__(ScalarFn)
    f.chart, f.terms, f._mask = chart, {key: c}, None
    return f


def _mask_of(terms) -> int:
    """The coordinates the terms depend on: bit i set iff some key has a
    nonzero entry at chart index i."""
    mask = 0
    for key in terms:
        bit = 1
        for v in key:
            if v:
                mask |= bit
            bit <<= 1
    return mask


def _checked_terms(chart, terms):
    """Validated (key, coefficient) pairs of outside input; zeros dropped."""
    for key, c in terms.items():
        c = GaussianRational.of(c)
        if c.is_zero():
            continue
        key = tuple(int(v) for v in key)
        if len(key) != chart.dim:
            raise ChartError("term exponent arity does not match chart")
        if any(a < 0 for a in key[chart.k :]):
            raise ChartError("fiber exponents must be nonnegative")
        yield key, c


class PowerTable:
    """``table(ks)`` = prod_C g_C^k_C for the targets g of a fiber
    substitution, one ScalarFn per fiber coordinate of the chart in chart
    order (a ChartError otherwise).  Each power g_C^k and each product is
    computed once per table; g_C^0 = 1, also for a zero target."""

    __slots__ = ("chart", "live", "_powers", "_products")

    def __init__(self, chart: Chart, targets):
        targets = list(targets)
        if len(targets) != chart.m:
            raise ChartError("a fiber substitution needs one target per fiber coordinate")
        if any(type(g) is not ScalarFn or g.chart != chart for g in targets):
            raise ChartError("fiber substitution targets differ in chart")
        self.chart = chart
        self.live = [not g.is_zero() for g in targets]
        self._powers = [[None, g] for g in targets]  # _powers[C][k] = g_C^k, k >= 1
        self._products = {}  # k tuple -> prod_C g_C^k_C

    def __call__(self, ks) -> "ScalarFn":
        prod = self._products.get(ks)
        if prod is None:
            for C, k in enumerate(ks):
                if k:
                    pw = self._powers[C]
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1])
                    prod = pw[k] if prod is None else prod * pw[k]
            if prod is None:  # every k_C = 0
                prod = ScalarFn.one(self.chart)
            self._products[ks] = prod
        return prod


class ScalarFn(SparseTerms):
    """Exact function sum c * exp(i n.phi) * y^alpha on a chart.

    terms maps n + alpha -> GaussianRational with n in Z^k, alpha in N^m: one
    exponent tuple of length chart.dim in chart order.
    """

    __slots__ = ("_mask",)

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        self.terms = accumulate({}, _checked_terms(chart, terms)) if terms else {}
        self._mask = None

    def _like(self, terms):
        r = object.__new__(ScalarFn)
        r.chart, r.terms, r._mask = self.chart, terms, None
        return r

    @property
    def mask(self) -> int:
        """The coordinates this function depends on, as a bit mask over chart
        indices (see the module docstring); computed from the terms on first
        read and kept."""
        mask = self._mask
        if mask is None:
            mask = self._mask = _mask_of(self.terms)
        return mask

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "ScalarFn":
        return ScalarFn(chart)

    @staticmethod
    def const(chart: Chart, c) -> "ScalarFn":
        c = GaussianRational.of(c)
        if c.is_zero():
            return ScalarFn(chart)
        return _monomial(chart, (0,) * chart.dim, c)

    @staticmethod
    def one(chart: Chart) -> "ScalarFn":
        return _monomial(chart, (0,) * chart.dim, ONE)

    @staticmethod
    def exp_phi(chart: Chart, coord: str, n: int = 1) -> "ScalarFn":
        """exp(i n phi_coord)."""
        if coord not in chart.torus:
            raise ChartError(f"{coord!r} is not a torus coordinate")
        key = [0] * chart.dim
        key[chart.torus.index(coord)] = n
        return ScalarFn(chart, {tuple(key): ONE})

    @staticmethod
    def sin_phi(chart: Chart, coord: str) -> "ScalarFn":
        e = ScalarFn.exp_phi(chart, coord, 1)
        em = ScalarFn.exp_phi(chart, coord, -1)
        return (e - em).scale(GaussianRational(0, Fraction(-1, 2)))

    @staticmethod
    def cos_phi(chart: Chart, coord: str) -> "ScalarFn":
        e = ScalarFn.exp_phi(chart, coord, 1)
        em = ScalarFn.exp_phi(chart, coord, -1)
        return (e + em).scale(GaussianRational(Fraction(1, 2)))

    @staticmethod
    def y(chart: Chart, coord: str, p: int = 1) -> "ScalarFn":
        if coord not in chart.fiber:
            raise ChartError(f"{coord!r} is not a fiber coordinate")
        key = [0] * chart.dim
        key[chart.index(coord)] = p
        return ScalarFn(chart, {tuple(key): ONE})

    # -- predicates -------------------------------------------------------

    def is_base_only(self) -> bool:
        """No dependence on fiber coordinates."""
        return not self.mask >> self.chart.k

    def fiber_degree(self) -> int:
        k = self.chart.k
        return max((sum(key[k:]) for key in self.terms), default=0)

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other: "ScalarFn") -> "ScalarFn":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        return self._like(
            accumulate(
                {},
                (
                    (tuple(map(add, e1, e2)), c1 * c2)
                    for e1, c1 in self.terms.items()
                    for e2, c2 in other.terms.items()
                ),
            )
        )

    # -- calculus ---------------------------------------------------------

    def partial(self, i: int) -> "ScalarFn":
        """Partial derivative along chart coordinate i; zero iff bit i of
        the mask is clear.

        Torus coordinate: each term is multiplied by sqrt(-1) times its
        frequency e[i].  Fiber coordinate: ordinary polynomial derivative.
        """
        dim = self.chart.dim
        if not 0 <= i < dim:
            raise ChartError(f"coordinate index {i} out of range for a chart of dimension {dim}")
        if i < self.chart.k:
            return self._like(
                {e: c * GaussianRational(0, e[i]) for e, c in self.terms.items() if e[i]}
            )
        # lowering the exponent maps distinct keys to distinct keys
        return self._like(
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]}
        )

    def substitute_fiber(self, powers: PowerTable) -> "ScalarFn":
        """f(u, g): every fiber coordinate y_C replaced by its target g_C,
        the targets given as a PowerTable (the target ScalarFn.y(chart, y_C)
        keeps y_C).

        A term c * exp(i n.phi) * y^alpha becomes
        c * exp(i n.phi) * prod_C g_C^alpha_C, read from the power table.
        """
        if powers.chart is not self.chart and powers.chart != self.chart:
            raise ChartError("fiber substitution targets differ in chart")
        k, zm = self.chart.k, (0,) * self.chart.m

        def pairs():
            for e, c in self.terms.items():
                base = e[:k] + zm
                for e2, c2 in powers(e[k:]).terms.items():
                    yield tuple(map(add, base, e2)), c * c2

        return self._like(accumulate({}, pairs()))

    def path_integral(self, powers: PowerTable, power: int) -> "ScalarFn":
        """int_0^1 (1-t)^power f((1-t) y + t g) dt along the straight path
        from the fiber point y to the targets g, given as a PowerTable.

        Computed in closed form, term by term: y_C^alpha_C on the path
        expands binomially into the sum over k_C of
        C(alpha_C, k_C) (1-t)^(alpha_C - k_C) t^k_C y_C^(alpha_C - k_C) g_C^k_C,
        and each power product of t integrates by the Beta integral

            int_0^1 (1-t)^a t^b dt = a! b! / (a + b + 1)!,

        with a = power + sum_C (alpha_C - k_C) and b = sum_C k_C.  The
        products of powers of g come from the power table.
        """
        if powers.chart is not self.chart and powers.chart != self.chart:
            raise ChartError("fiber substitution targets differ in chart")
        k = self.chart.k
        # a zero target contributes only k_C = 0
        live = powers.live

        def pairs():
            for e, c in self.terms.items():
                alpha = e[k:]
                top = power + sum(alpha)
                ranges = [range(a + 1) if on else (0,) for a, on in zip(alpha, live)]
                for ks in product(*ranges):
                    b = sum(ks)
                    a = top - b
                    num = factorial(a) * factorial(b)
                    for aC, kC in zip(alpha, ks):
                        num *= comb(aC, kC)
                    coef = c.scaled(num, factorial(a + b + 1))
                    if not b:
                        yield e, coef
                        continue
                    rest = e[:k] + tuple(map(sub, alpha, ks))
                    for e2, c2 in powers(ks).terms.items():
                        yield tuple(map(add, rest, e2)), coef * c2

        return self._like(accumulate({}, pairs()))

    def zero_mode(self, js) -> "ScalarFn":
        """Keep only the terms whose exponent is zero at every chart index
        of js: the zero frequency along torus indices, y = 0 along fiber
        ones (zero_mode(range(chart.k, chart.dim)) restricts to the zero
        section)."""
        return self._like({e: c for e, c in self.terms.items() if not any(e[j] for j in js)})

    # -- comparison / display ----------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if not self.terms:
            return "ScalarFn(0)"
        chart, bits = self.chart, []
        for e, c in self.sorted_terms():
            parts = [f"({c})"]
            for j, (name, v) in enumerate(zip(chart.coords, e)):
                if j < chart.k and v:
                    parts.append(f"E({name},{v})")
                elif v:
                    parts.append(name if v == 1 else f"{name}^{v}")
            bits.append("*".join(parts))
        return " + ".join(bits)


def unit_inverse(f: ScalarFn) -> ScalarFn:
    """Invert a unit of the ring: a single monomial c * exp(i n.phi).

    Raises ChartError when f is not a unit (zero, several terms, or any
    fiber dependence).
    """
    if len(f.terms) != 1:
        raise ChartError("not a unit: expected a single monomial")
    (e, c), = f.terms.items()
    if not f.is_base_only():
        raise ChartError("not a unit: fiber-dependent monomial")
    return _monomial(f.chart, tuple(-v for v in e), ONE / c)


# ---------------------------------------------------------------------------
# matrices over the ring: lists of rows of ScalarFns
# ---------------------------------------------------------------------------


def dot(chart: Chart, row, col) -> ScalarFn:
    """sum_k row[k] * col[k]."""
    return ScalarFn.zero(chart).plus(
        a * b for a, b in zip(row, col) if not (a.is_zero() or b.is_zero())
    )


def mat_mul(chart: Chart, A, B):
    """A B, reading the nonzero entries of each column of B once; an entry
    with no nonzero product is one zero shared by the whole result."""
    zero = ScalarFn.zero(chart)
    cols = [[(k, b) for k, b in enumerate(col) if not b.is_zero()] for col in zip(*B)]
    out = []
    for row in A:
        out_row = []
        for col in cols:
            products = [row[k] * b for k, b in col if not row[k].is_zero()]
            out_row.append(zero.plus(products) if products else zero)
        out.append(out_row)
    return out


def mat_identity(chart: Chart, n: int):
    zero, one = ScalarFn.zero(chart), ScalarFn.one(chart)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def inverse_unit(chart: Chart, A):
    """Exact inverse of a square matrix whose determinant is a unit of the
    ring; raises ChartError naming the determinant otherwise.

    Faddeev-LeVerrier: from M_1 = I, for k = 1..n, c_(n-k) = -tr(A M_k) / k
    and M_(k+1) = A M_k + c_(n-k) I.  Then det A = (-1)^n c_0 and
    adj A = (-1)^(n-1) M_n.  Only ring products and division by the
    integers 1..n occur, which is exact over Q(i).
    """
    n = len(A)
    if not n:
        return []
    zero = ScalarFn.zero(chart)
    M = mat_identity(chart, n)
    for k in range(1, n):
        AM = mat_mul(chart, A, M)
        c = zero.plus(AM[i][i] for i in range(n)).scale(Fraction(-1, k))
        M = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(AM)]
    # tr(A M_n) = -n c_0, so det A = (-1)^(n-1) tr(A M_n) / n
    det = zero.plus(dot(chart, row, col) for row, col in zip(A, zip(*M)))
    det = det.scale(Fraction((-1) ** (n - 1), n))
    try:
        det_inv = unit_inverse(det)
    except ChartError:
        raise ChartError(f"matrix determinant is not a unit of the ring: {det!r}") from None
    # A^-1 = adj A / det A = (-1)^(n-1) M_n / det A
    det_inv = det_inv.scale((-1) ** (n - 1))
    return [[x * det_inv for x in row] for row in M]
