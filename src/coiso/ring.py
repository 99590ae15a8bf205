"""Exact Fourier-polynomial functions on a chart T^k x R^m.

A ScalarFn is a finite sum  sum_c c * exp(i n.phi) * y^alpha  with Gaussian
rational coefficients, integer torus frequencies n and nonnegative fiber
exponents alpha.  Products of basis monomials are again basis monomials, so
the representation is canonical: two functions are equal iff their term
tables coincide.

Charts may be degenerate (k = 0 or m = 0); the torus coordinates are
angles (only exp(i n phi) of them occurs, never phi itself) and the fiber
coordinates are ordinary polynomial variables.

Sparse terms.  ScalarFn and the other containers of the library
(MultiVectorField, LeafForm, geom.Form, GradedElement) are SparseTerms: a
shape (the chart, plus a degree or a ghost rank) and a dict ``terms`` from
canonical keys to nonzero values.  Keys are canonical (exponent tuples
here, sorted skew index tuples or normalized letter words elsewhere) and no
value is ever zero, so equality is equality of term tables.  Every
container is built through the one kernel ``accumulate``, which adds
(key, value) pairs into a dict and deletes a key whose sum is zero.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .rational import GaussianRational, ONE, ZERO


class ChartError(ValueError):
    pass


class Chart:
    """Coordinate chart T^k x R^m with designated leaf directions.

    Coordinate order is torus coordinates first, then fiber coordinates;
    all index-based APIs refer to this order.
    """

    __slots__ = ("torus", "fiber", "leaf")

    def __init__(self, torus=(), fiber=(), leaf=()):
        torus = tuple(torus)
        fiber = tuple(fiber)
        leaf = tuple(leaf)
        names = torus + fiber
        if len(set(names)) != len(names):
            raise ChartError("coordinate names must be unique")
        for c in leaf:
            if c not in torus:
                raise ChartError(f"leaf coordinate {c!r} is not a torus coordinate")
        self.torus = torus
        self.fiber = fiber
        self.leaf = leaf

    @property
    def k(self) -> int:
        return len(self.torus)

    @property
    def m(self) -> int:
        return len(self.fiber)

    @property
    def dim(self) -> int:
        return self.k + self.m

    @property
    def coords(self):
        return self.torus + self.fiber

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartError(f"unknown coordinate {name!r}") from None

    def leaf_indices(self):
        return tuple(self.torus.index(c) for c in self.leaf)

    def is_fiber_index(self, i: int) -> bool:
        return i >= self.k

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.torus == other.torus
            and self.fiber == other.fiber
            and self.leaf == other.leaf
        )

    def __hash__(self):
        return hash((self.torus, self.fiber, self.leaf))

    def __repr__(self):
        return f"Chart(torus={self.torus}, fiber={self.fiber}, leaf={self.leaf})"


def accumulate(out, pairs):
    """Add (key, value) pairs into the dict out, deleting a key whose sum is
    zero; returns out.  Values are nonzero and have + and is_zero()."""
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

    def _like(self, terms):
        r = object.__new__(type(self))
        r.chart, r.terms = self.chart, terms
        return r

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
        return self._like({k: v * c for k, v in self.terms.items()})

    def scale_fn(self, f):
        """Multiply every value by the ScalarFn f (containers whose values
        are ScalarFns).  The ring has no zero divisors, so no value becomes
        zero unless f is."""
        if f.is_zero():
            return self._like({})
        return self._like({k: v * f for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SparseTerms):
            return NotImplemented
        return (
            type(other) is type(self)
            and other._shape() == self._shape()
            and other.terms == self.terms
        )


def _checked_terms(chart, terms):
    """Validated (key, coefficient) pairs of outside input; zeros dropped."""
    for (n, alpha), c in terms.items():
        c = GaussianRational.of(c)
        if c.is_zero():
            continue
        n = tuple(int(v) for v in n)
        alpha = tuple(int(v) for v in alpha)
        if len(n) != chart.k or len(alpha) != chart.m:
            raise ChartError("term exponent arity does not match chart")
        if any(a < 0 for a in alpha):
            raise ChartError("fiber exponents must be nonnegative")
        yield (n, alpha), c


class ScalarFn(SparseTerms):
    """Exact function sum c * exp(i n.phi) * y^alpha on a chart.

    terms maps (n, alpha) -> GaussianRational with n in Z^k, alpha in N^m.
    """

    __slots__ = ()

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        self.terms = accumulate({}, _checked_terms(chart, terms)) if terms else {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "ScalarFn":
        return ScalarFn(chart)

    @staticmethod
    def const(chart: Chart, c) -> "ScalarFn":
        c = GaussianRational.of(c)
        if c.is_zero():
            return ScalarFn(chart)
        zk = (0,) * chart.k
        zm = (0,) * chart.m
        return ScalarFn(chart, {(zk, zm): c})

    @staticmethod
    def one(chart: Chart) -> "ScalarFn":
        return ScalarFn.const(chart, 1)

    @staticmethod
    def exp_phi(chart: Chart, coord: str, n: int = 1) -> "ScalarFn":
        """exp(i n phi_coord)."""
        j = chart.torus.index(coord)
        nn = [0] * chart.k
        nn[j] = n
        return ScalarFn(chart, {(tuple(nn), (0,) * chart.m): ONE})

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
        a = chart.fiber.index(coord)
        alpha = [0] * chart.m
        alpha[a] = p
        return ScalarFn(chart, {((0,) * chart.k, tuple(alpha)): ONE})

    # -- predicates -------------------------------------------------------

    def is_constant(self) -> bool:
        zk = (0,) * self.chart.k
        zm = (0,) * self.chart.m
        return all(key == (zk, zm) for key in self.terms)

    def constant_value(self) -> GaussianRational:
        zk = (0,) * self.chart.k
        zm = (0,) * self.chart.m
        return self.terms.get((zk, zm), ZERO)

    def is_real(self) -> bool:
        """f is real iff coeff(-n, alpha) = conj(coeff(n, alpha))."""
        for (n, alpha), c in self.terms.items():
            mirror = (tuple(-v for v in n), alpha)
            if self.terms.get(mirror, ZERO) != c.conjugate():
                return False
        return True

    def is_base_only(self) -> bool:
        """No dependence on fiber coordinates."""
        return all(all(a == 0 for a in alpha) for (_, alpha) in self.terms)

    def depends_only_on(self, coord_names) -> bool:
        allowed_t = {self.chart.torus.index(c) for c in coord_names if c in self.chart.torus}
        allowed_f = {self.chart.fiber.index(c) for c in coord_names if c in self.chart.fiber}
        for (n, alpha) in self.terms:
            for j, v in enumerate(n):
                if v != 0 and j not in allowed_t:
                    return False
            for a, v in enumerate(alpha):
                if v != 0 and a not in allowed_f:
                    return False
        return True

    def fiber_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(alpha) for (_, alpha) in self.terms)

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other: "ScalarFn") -> "ScalarFn":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        return self._like(
            accumulate(
                {},
                (
                    ((tuple(map(add, n1, n2)), tuple(map(add, a1, a2))), c1 * c2)
                    for (n1, a1), c1 in self.terms.items()
                    for (n2, a2), c2 in other.terms.items()
                ),
            )
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def conjugate(self) -> "ScalarFn":
        return self._like(
            {(tuple(-v for v in n), alpha): c.conjugate() for (n, alpha), c in self.terms.items()}
        )

    # -- calculus ---------------------------------------------------------

    def partial(self, coord: str) -> "ScalarFn":
        """Partial derivative wrt a chart coordinate.

        Torus coordinate: each term is multiplied by (i * n_coord).
        Fiber coordinate: ordinary polynomial derivative.
        """
        chart = self.chart
        if coord in chart.torus:
            j = chart.torus.index(coord)
            return self._like(
                {
                    (n, alpha): c * GaussianRational(0, n[j])
                    for (n, alpha), c in self.terms.items()
                    if n[j]
                }
            )
        if coord in chart.fiber:
            # lowering alpha_a maps distinct keys to distinct keys
            a = chart.fiber.index(coord)
            return self._like(
                {
                    (n, alpha[:a] + (alpha[a] - 1,) + alpha[a + 1 :]): c * alpha[a]
                    for (n, alpha), c in self.terms.items()
                    if alpha[a]
                }
            )
        raise ChartError(f"unknown coordinate {coord!r}")

    def partial_index(self, i: int) -> "ScalarFn":
        return self.partial(self.chart.coords[i])

    def substitute_fiber(self, assignment: dict) -> "ScalarFn":
        """Substitute fiber coordinates by ScalarFn expressions.

        assignment maps fiber coordinate names to ScalarFn on the same
        chart; unlisted fiber coordinates are left alone.
        """
        res = self.substitute_fiber_t({k: TPoly.const(v) for k, v in assignment.items()})
        return res.at_zero_degree()

    def substitute_fiber_t(self, assignment: dict) -> "TPoly":
        """Substitute fiber coordinates by TPoly expressions (polynomial in
        an auxiliary parameter t), returning a TPoly."""
        chart = self.chart
        for name in assignment:
            if name not in chart.fiber:
                raise ChartError(f"{name!r} is not a fiber coordinate")
        idx = {chart.fiber.index(name): tp for name, tp in assignment.items()}
        out = []  # terms of the coefficient of t^p, p = 0, 1, ...
        for (n, alpha), c in self.terms.items():
            kept = list(alpha)
            factor = TPoly.const(ScalarFn.const(chart, c))
            for a, tp in idx.items():
                p = alpha[a]
                kept[a] = 0
                for _ in range(p):
                    factor = factor * tp
            base = ScalarFn(chart, {(n, tuple(kept)): ONE})
            out += [{} for _ in range(len(factor.coeffs) - len(out))]
            for p, coeff in enumerate(factor.coeffs):
                accumulate(out[p], (coeff * base).terms.items())
        return TPoly(chart, [self._like(t) for t in out])

    def restrict_zero_section(self) -> "ScalarFn":
        """Restrict to y = 0: keep only terms with zero fiber exponent."""
        zm = (0,) * self.chart.m
        return self._like({(n, a): c for (n, a), c in self.terms.items() if a == zm})

    def integrate_torus(self, coords) -> "TorusIntegral":
        """Integrate over the listed torus coordinates.

        Keeps only terms with zero frequency in every integrated direction;
        the resulting symbolic (2*pi)^d factor is recorded exactly.
        """
        chart = self.chart
        js = []
        for c in coords:
            if c not in chart.torus:
                raise ChartError(f"{c!r} is not a torus coordinate")
            js.append(chart.torus.index(c))
        kept = {(n, alpha): c for (n, alpha), c in self.terms.items() if all(n[j] == 0 for j in js)}
        return TorusIntegral(self._like(kept), len(js))

    # -- comparison / display ----------------------------------------------

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if not self.terms:
            return "ScalarFn(0)"
        bits = []
        for (n, alpha), c in self.sorted_terms():
            parts = [f"({c})"]
            for j, v in enumerate(n):
                if v:
                    parts.append(f"E({self.chart.torus[j]},{v})")
            for a, v in enumerate(alpha):
                if v == 1:
                    parts.append(self.chart.fiber[a])
                elif v > 1:
                    parts.append(f"{self.chart.fiber[a]}^{v}")
            bits.append("*".join(parts))
        return " + ".join(bits)


class TPoly:
    """Polynomial in an auxiliary parameter t with ScalarFn coefficients.

    Used by fiber substitutions along homotopy paths y -> y - t(y - g) and
    their exact definite integrals over t in [0, 1].
    """

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs):
        self.chart = chart
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def zero(chart: Chart) -> "TPoly":
        return TPoly(chart, [])

    @staticmethod
    def const(f: ScalarFn) -> "TPoly":
        return TPoly(f.chart, [f])

    @staticmethod
    def t(chart: Chart) -> "TPoly":
        return TPoly(chart, [ScalarFn.zero(chart), ScalarFn.one(chart)])

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else ScalarFn.zero(self.chart)
            b = other.coeffs[i] if i < len(other.coeffs) else ScalarFn.zero(self.chart)
            out.append(a + b)
        return TPoly(self.chart, out)

    def __neg__(self):
        return TPoly(self.chart, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        out = [ScalarFn.zero(self.chart) for _ in range(len(self.coeffs) + len(other.coeffs))]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(self.chart, out)

    def scale_fn(self, f: ScalarFn) -> "TPoly":
        return TPoly(self.chart, [c * f for c in self.coeffs])

    def at_zero_degree(self) -> ScalarFn:
        if len(self.coeffs) > 1:
            raise ChartError("expression still depends on the parameter t")
        return self.coeffs[0] if self.coeffs else ScalarFn.zero(self.chart)

    def at_one(self) -> ScalarFn:
        return ScalarFn.zero(self.chart).plus(self.coeffs)

    def integrate01(self) -> ScalarFn:
        """Exact integral over t in [0, 1]."""
        return ScalarFn.zero(self.chart).plus(
            c.scale(Fraction(1, p + 1)) for p, c in enumerate(self.coeffs)
        )


class TorusIntegral:
    """Result of an exact torus integration: value * (2*pi)^two_pi_power."""

    __slots__ = ("value", "two_pi_power")

    def __init__(self, value: ScalarFn, two_pi_power: int):
        self.value = value
        self.two_pi_power = two_pi_power

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __eq__(self, other):
        if not isinstance(other, TorusIntegral):
            return NotImplemented
        if self.value.is_zero() and other.value.is_zero():
            return True
        return self.value == other.value and self.two_pi_power == other.two_pi_power

    def __repr__(self):
        return f"TorusIntegral({self.value!r}, (2*pi)^{self.two_pi_power})"


def unit_inverse(f: ScalarFn) -> ScalarFn:
    """Invert a unit of the ring: a single monomial c * exp(i n.phi).

    Raises ChartError when f is not a unit (zero, several terms, or any
    fiber dependence).
    """
    if len(f.terms) != 1:
        raise ChartError("not a unit: expected a single monomial")
    ((n, alpha), c), = f.terms.items()
    if any(alpha):
        raise ChartError("not a unit: fiber-dependent monomial")
    inv = GaussianRational(1) / c
    return ScalarFn(f.chart, {(tuple(-v for v in n), alpha): inv})
