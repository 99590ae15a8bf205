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
tables.  Two kernels build every sum: ``accumulate`` adds (key, value)
pairs into a dict and deletes a key whose sum is zero, and
``sum_of_products`` sums signed products of ScalarFns per key as exact
integer triples, building no product or partial sum on the way (the ring
product ``f * g`` is its one-key case, and every bracket, wedge, matrix
product and fiber substitution of the library is one call).  The public
constructors validate outside input (scenario data, callers of the API);
the parser, which checks its text itself, and every kernel make their
canonical terms into a container through the one unchecked maker of the
family (``_scalar`` here, ``SkewTerms._raw``, ``GradedElement._raw``, or
``_like`` for the shape at hand).  Nothing changes a built term table, so
a container hashes by its type, shape and terms, keeps that hash after its
first use, and can key a dict.

Fiber substitution.  ``ScalarFn.substitute_fiber`` replaces every fiber
coordinate by a target function, one ``sum_of_products`` item per fiber
exponent of its terms; a ``PowerTable`` computes each product of powers of
the targets once, however often a caller substitutes into them (a section,
or the translations y -> y + g and y -> y - g that carry the homotopy along
the zero section to the one along a section g, graded.ContractionTwo).
``ScalarFn.path_integral`` is that zero-section integral of a fiber
derivative, with one integer scaling per term.

Structural zeros.  Most coefficients of the calculus depend on few of the
chart's coordinates, so most of their partial derivatives, and the products
with them, are zero before anything is computed.  ``ScalarFn.mask`` is the
set of coordinates a function depends on, as an int: bit i is set iff some
key has a nonzero entry at index i, computed from the terms themselves on
first read, never taken from a caller's claim.  A term's derivative along a
coordinate it carries is a nonzero multiple of it, and distinct terms stay
distinct, so ``partial(i)`` is zero iff bit i is clear; callers test the
bit and skip the derivative (and every product with it), and take it only
where a product needs it.  A product with a zero operand is the zero of
the same chart.

Matrices over the ring are sparse tables too: a dict {(i, j): ScalarFn}
that holds no zero entry, the dict ``sum_of_products`` returns when it is
keyed by entry.  A matrix does not know its size, so ``inverse_unit``, the
one matrix inverse of the library, takes it; it needs a determinant that
is a unit of the ring, which ``unit_inverse`` then inverts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add

from .rational import GaussianRational, ONE, _reduced


class ContentError(ValueError):
    """The one error the library raises for invalid input, whichever layer
    finds it: the command line exits 2 on it.  Its one subclass,
    scenario.ScenarioFileError, is a scenario that cannot be read as JSON,
    on which the command line exits 1."""


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
            raise ContentError("coordinate names must be unique")
        for n, c in enumerate(leaf):
            if c not in torus:
                raise ContentError(f"leaf coordinate {c!r} is not a torus coordinate")
            if c in leaf[:n]:
                raise ContentError(f"leaf coordinate {c!r} is repeated")
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
            raise ContentError(f"unknown coordinate {name!r}") from None

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
    SparseTerms.__hash__ relies on it.  This is the kernel for sums of
    values already built; a sum of products of ScalarFns goes through
    sum_of_products, which never builds the products."""
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


def _differ(cls) -> ContentError:
    return ContentError(f"{cls.__name__} operands differ in chart or shape")


class SparseTerms:
    """The linear structure shared by every sparse container.

    A subclass keeps its shape next to ``terms`` and supplies two hooks:
    ``_shape()``, the tuple that must agree for two containers to add, and
    ``_like(terms)``, a container of the same shape holding terms that are
    already canonical, built unchecked through the family's maker.
    """

    __slots__ = ("chart", "terms", "_hash")

    def _shape(self):
        return (self.chart,)

    def _check(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise _differ(type(self))

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
        are ScalarFns), as one sum_of_products call."""
        return self._like(sum_of_products(self.chart, ((k, v, f, False) for k, v in self.terms.items())))

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
        # agrees with __eq__; term tables are never changed after
        # construction, so the hash is computed on first use and kept
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((type(self), self._shape(), frozenset(self.terms.items())))
            return h


_HALF = GaussianRational(Fraction(1, 2))
_HALF_I = GaussianRational(0, Fraction(1, 2))
_MINUS_HALF_I = -_HALF_I


def _scalar(chart, terms):
    """The ScalarFn of canonical terms (nonzero values on keys of the chart's shape), unchecked."""
    f = object.__new__(ScalarFn)
    f.chart, f.terms, f._mask = chart, terms, None
    return f


def sum_of_products(chart: Chart, items) -> dict:
    """{key: sum of the signed products of the items on that key} over items
    (key, f, g, negative), f and g ScalarFns on chart, whose product is f g,
    or -f g when negative is true.

    Each term product c1 c2 of f g goes straight into one exponent table per
    key as an unreduced integer triple (a, b, d), standing for (a + b i)/d:
    four integer products and one product of denominators, read off the
    canonical triples of c1 and c2.  A triple adds to the one already on
    its exponent by numerators over a common denominator, the lcm of the
    two, and a triple that sums to zero stays in the table until the end,
    so an exponent that cancels can grow again.  Then each nonzero triple
    is reduced once into a GaussianRational, a zero one is left out, as is
    a key with no term left, and each sum is built once, unchecked: no
    product, partial sum or GaussianRational of either is built on the way.
    An operand that is not a ScalarFn on chart is refused with the
    ContentError of SparseTerms._check."""
    tables = {}
    for key, f, g, negative in items:
        if type(f) is not ScalarFn or type(g) is not ScalarFn or f.chart is not chart or g.chart is not chart:
            if any(type(x) is not ScalarFn or x.chart != chart for x in (f, g)):
                raise _differ(ScalarFn)
        table = tables.get(key)
        if table is None:
            table = tables[key] = {}
        get, g_terms = table.get, g.terms.items()
        for e1, c1 in f.terms.items():
            a1, b1, d1 = c1._a, c1._b, c1._d
            if negative:
                a1, b1 = -a1, -b1
            for e2, c2 in g_terms:
                e = tuple(map(add, e1, e2))
                a2, b2 = c2._a, c2._b
                a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * c2._d
                prev = get(e)
                if prev is None:
                    table[e] = a, b, d
                else:
                    pa, pb, pd = prev
                    if pd == d:
                        table[e] = pa + a, pb + b, d
                    else:  # over the lcm of the two denominators
                        h = gcd(pd, d)
                        p, q = d // h, pd // h
                        table[e] = pa * p + a * q, pb * p + b * q, pd * p
    out = {}
    for key, table in tables.items():
        terms = {e: _reduced(a, b, d) for e, (a, b, d) in table.items() if a or b}
        if terms:
            out[key] = _scalar(chart, terms)
    return out


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
        key = tuple(key)
        if any(type(v) is not int for v in key):
            raise ContentError(f"term exponents must be integers, not {key!r}")
        if len(key) != chart.dim:
            raise ContentError("term exponent arity does not match chart")
        if any(a < 0 for a in key[chart.k :]):
            raise ContentError("fiber exponents must be nonnegative")
        yield key, c


class PowerTable:
    """``table(ks)`` = prod_C g_C^k_C for the targets g of a fiber
    substitution, one ScalarFn per fiber coordinate in chart order (a
    ContentError otherwise); each power and product is computed once."""

    __slots__ = ("chart", "_powers", "_products")

    def __init__(self, chart: Chart, targets):
        targets = list(targets)
        if len(targets) != chart.m:
            raise ContentError("a fiber substitution needs one target per fiber coordinate")
        if any(type(g) is not ScalarFn or g.chart != chart for g in targets):
            raise ContentError("fiber substitution targets differ in chart")
        self.chart = chart
        self._powers = [[None, g] for g in targets]  # _powers[C][k] = g_C^k, k >= 1
        self._products = {(0,) * chart.m: ScalarFn.one(chart)}  # k tuple -> prod_C g_C^k_C

    def __call__(self, ks) -> "ScalarFn":
        prod = self._products.get(ks)
        if prod is None:  # some k_C > 0
            for C, k in enumerate(ks):
                if k:
                    pw = self._powers[C]
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1])
                    prod = pw[k] if prod is None else prod * pw[k]
            self._products[ks] = prod
        return prod


class ScalarFn(SparseTerms):
    """Exact function sum c * exp(i n.phi) * y^alpha on a chart.

    terms maps n + alpha -> GaussianRational with n in Z^k, alpha in N^m: one
    exponent tuple of length chart.dim in chart order.
    """

    __slots__ = ("_mask",)

    def __init__(self, chart: Chart, terms=None):
        self.chart, self._mask = chart, None
        self.terms = accumulate({}, _checked_terms(chart, terms)) if terms else {}

    def _like(self, terms):
        r = object.__new__(ScalarFn)
        r.chart, r.terms, r._mask = self.chart, terms, None
        return r

    @property
    def mask(self) -> int:
        """The coordinates this function depends on, as a bit mask over chart
        indices (see the module docstring), computed on first read and kept."""
        mask = self._mask
        if mask is None:
            mask = self._mask = _mask_of(self.terms)
        return mask

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "ScalarFn":
        return ScalarFn(chart)

    @staticmethod
    def one(chart: Chart) -> "ScalarFn":
        return _scalar(chart, {(0,) * chart.dim: ONE})

    @staticmethod
    def _trig(chart: Chart, coord: str, c_plus, c_minus) -> "ScalarFn":
        """c_plus exp(i phi_coord) + c_minus exp(-i phi_coord)."""
        if coord not in chart.torus:
            raise ContentError(f"{coord!r} is not a torus coordinate")
        j = chart.torus.index(coord)
        head, tail = (0,) * j, (0,) * (chart.dim - j - 1)
        return _scalar(chart, {head + (1,) + tail: c_plus, head + (-1,) + tail: c_minus})

    @staticmethod
    def sin_phi(chart: Chart, coord: str) -> "ScalarFn":
        """(exp(i phi) - exp(-i phi)) / 2i."""
        return ScalarFn._trig(chart, coord, _MINUS_HALF_I, _HALF_I)

    @staticmethod
    def cos_phi(chart: Chart, coord: str) -> "ScalarFn":
        """(exp(i phi) + exp(-i phi)) / 2."""
        return ScalarFn._trig(chart, coord, _HALF, _HALF)

    @staticmethod
    def y(chart: Chart, coord: str, p: int = 1) -> "ScalarFn":
        if coord not in chart.fiber:
            raise ContentError(f"{coord!r} is not a fiber coordinate")
        if type(p) is not int:
            raise ContentError(f"term exponents must be integers, not {p!r}")
        if p < 0:
            raise ContentError("fiber exponents must be nonnegative")
        key = [0] * chart.dim
        key[chart.index(coord)] = p
        return _scalar(chart, {tuple(key): ONE})

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
        sums = sum_of_products(self.chart, (((), self, other, False),))
        return sums[()] if sums else self._like({})

    # -- calculus ---------------------------------------------------------

    def partial(self, i: int) -> "ScalarFn":
        """Partial derivative along chart coordinate i; zero iff bit i of
        the mask is clear.

        Torus coordinate: each term is scaled by i e[i] (scaled_i).  Fiber
        coordinate: ordinary polynomial derivative.
        """
        dim = self.chart.dim
        if not 0 <= i < dim:
            raise ContentError(f"coordinate index {i} out of range for a chart of dimension {dim}")
        if i < self.chart.k:
            return self._like({e: c.scaled_i(e[i]) for e, c in self.terms.items() if e[i]})
        # lowering the exponent maps distinct keys to distinct keys
        return self._like(
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c.scaled(e[i], 1) for e, c in self.terms.items() if e[i]}
        )

    def substitute_fiber(self, powers: PowerTable) -> "ScalarFn":
        """f(u, g): every fiber coordinate y_C replaced by its target g_C from
        a PowerTable (the target ScalarFn.y(chart, y_C) keeps y_C).  The terms
        c * exp(i n.phi) * y^alpha of one alpha make one base function, one
        sum_of_products item with prod_C g_C^alpha_C."""
        if powers.chart is not self.chart and powers.chart != self.chart:
            raise ContentError("fiber substitution targets differ in chart")
        chart, k, zm = self.chart, self.chart.k, (0,) * self.chart.m
        bases = {}  # alpha -> {n + 0: c} of the terms with fiber exponent alpha
        for e, c in self.terms.items():
            bases.setdefault(e[k:], {})[e[:k] + zm] = c
        sums = sum_of_products(chart, (((), _scalar(chart, b), powers(alpha), False) for alpha, b in bases.items()))
        return sums[()] if sums else self._like({})

    def path_integral(self, i: int, power: int) -> "ScalarFn":
        """int_0^1 (1-t)^power (d f / d y)((1-t) y) dt for the fiber
        coordinate y at chart index i, along the straight path from the
        fiber point to the zero section: c * exp(i n.phi) * y^alpha becomes
        c alpha_i / (power + |alpha|) y^(alpha - e_i), one scaling per term."""
        k = self.chart.k
        if not k <= i < self.chart.dim:
            raise ContentError(f"coordinate index {i} is not a fiber index")
        return self._like(
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c.scaled(e[i], power + sum(e[k:])) for e, c in self.terms.items() if e[i]}
        )

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

    Raises ContentError when f is not a unit (zero, several terms, or any
    fiber dependence).
    """
    if len(f.terms) != 1:
        raise ContentError("not a unit: expected a single monomial")
    (e, c), = f.terms.items()
    if not f.is_base_only():
        raise ContentError("not a unit: fiber-dependent monomial")
    return _scalar(f.chart, {tuple(-v for v in e): ONE / c})


# ---------------------------------------------------------------------------
# matrices over the ring: sparse tables {(i, j): nonzero ScalarFn}
# ---------------------------------------------------------------------------


def mat_mul(chart: Chart, A: dict, B: dict) -> dict:
    """A B as one sum of products keyed by entry, B grouped by row."""
    rows = {}
    for (k, j), b in B.items():
        rows.setdefault(k, []).append((j, b))
    items = (((i, j), a, b, False) for (i, k), a in A.items() for j, b in rows.get(k, ()))
    return sum_of_products(chart, items)


def mat_identity(chart: Chart, n: int) -> dict:
    one = ScalarFn.one(chart)
    return {(i, i): one for i in range(n)}


def inverse_unit(chart: Chart, A: dict, n: int) -> dict:
    """Exact inverse of an n x n matrix whose determinant is a unit of the
    ring; raises ContentError naming the determinant otherwise.

    Faddeev-LeVerrier: from M_1 = I, for k = 1..n, c_(n-k) = -tr(A M_k) / k
    and M_(k+1) = A M_k + c_(n-k) I.  Then det A = (-1)^n c_0 and
    adj A = (-1)^(n-1) M_n.  Only ring products and division by the
    integers 1..n occur, which is exact over Q(i).
    """
    if not n:
        return {}
    M = mat_identity(chart, n)
    for k in range(1, n):
        AM = mat_mul(chart, A, M) if k > 1 else A  # M_1 = I
        trace = accumulate({}, ((0, f) for (i, j), f in AM.items() if i == j))
        if trace:
            c = trace[0].scale(Fraction(-1, k))
            M = accumulate(dict(AM), (((i, i), c) for i in range(n)))
        else:
            M = AM
    # tr(A M_n) = -n c_0, so det A = (-1)^(n-1) tr(A M_n) / n, with
    # tr(A M_n) = sum_ik A_ik M_ki over the pairs where both are present
    sums = sum_of_products(chart, ((0, a, M[k, i], False) for (i, k), a in A.items() if (k, i) in M))
    det = sums[0].scale(Fraction(1 if n % 2 else -1, n)) if sums else ScalarFn.zero(chart)
    try:
        det_inv = unit_inverse(det)
    except ContentError:
        raise ContentError(f"matrix determinant is not a unit of the ring: {det!r}") from None
    # A^-1 = adj A / det A = (-1)^(n-1) M_n / det A
    return sum_of_products(chart, ((key, x, det_inv, n % 2 == 0) for key, x in M.items()))
