"""Sparse multivector fields on a chart and the Schouten-Nijenhuis bracket.

A MultiVectorField of degree d stores coefficients on strictly increasing
coordinate-index tuples of length d (indices in chart order, torus first).
Degree 0 is a plain ScalarFn wrapped with an empty key.

The Schouten-Nijenhuis bracket is computed through the Gerstenhaber-product
expansion: all coefficient formulas below come from evaluating the insertion
composition on coordinate slots.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .ring import Chart, ChartError, ScalarFn, SparseTerms, accumulate


def sort_key_sign(indices):
    """Sort an index tuple, returning (sign, sorted tuple); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, tuple(idx)
    return sign, tuple(idx)


def merge_sign(a, b):
    """Sign of merging two increasing tuples into one increasing tuple.

    Returns (sign, merged) with sign 0 when the tuples intersect.
    """
    return sort_key_sign(tuple(a) + tuple(b))


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def unshuffles(indices, r):
    """All splits of a tuple into (first r, rest) keeping relative order,
    together with the permutation sign relative to the original order."""
    n = len(indices)
    pos = range(n)
    for chosen in combinations(pos, r):
        rest = tuple(p for p in pos if p not in chosen)
        perm = chosen + rest
        sign = perm_sign(tuple(perm))
        yield sign, tuple(indices[p] for p in chosen), tuple(indices[p] for p in rest)


class SkewTerms(SparseTerms):
    """Sparse skew container of a given degree: terms map strictly
    increasing index tuples of that length to ScalarFn coefficients.

    Keys index chart coordinates (torus first) unless a subclass narrows
    the range through _index_bound."""

    __slots__ = ("degree",)

    def __init__(self, chart: Chart, degree: int, terms=None):
        if degree < 0:
            raise ChartError(f"{type(self).__name__} degree must be >= 0")
        self.chart = chart
        self.degree = degree
        self.terms = accumulate({}, self._canonical(terms.items())) if terms else {}

    def _shape(self):
        return (self.chart, self.degree)

    def _like(self, terms):
        r = object.__new__(type(self))
        r.chart, r.degree, r.terms = self.chart, self.degree, terms
        return r

    def _index_bound(self) -> int:
        return self.chart.dim

    def _canonical(self, pairs):
        """Sorted keys with the sign of the sort; repeated indices and zero
        coefficients dropped, wrong lengths and indices out of range
        rejected."""
        bound = self._index_bound()
        for key, f in pairs:
            key = tuple(key)
            if len(key) != self.degree:
                raise ChartError("key length does not match degree")
            if any(i < 0 or i >= bound for i in key):
                raise ChartError(f"{type(self).__name__} index out of range in {key}")
            sign, skey = sort_key_sign(key)
            if sign and not f.is_zero():
                yield skey, (f if sign == 1 else -f)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree)

    @classmethod
    def function(cls, f: ScalarFn):
        return cls(f.chart, 0, {(): f})

    def as_function(self) -> ScalarFn:
        if self.degree != 0:
            raise ChartError(f"not a degree-0 {type(self).__name__}")
        return self.terms.get((), ScalarFn.zero(self.chart))

    def coefficient(self, indices) -> ScalarFn:
        """Coefficient on an arbitrary index tuple (skew in the indices)."""
        sign, key = sort_key_sign(tuple(indices))
        f = self.terms.get(key) if sign else None
        if f is None:
            return ScalarFn.zero(self.chart)
        return f if sign == 1 else -f

    def wedge(self, other):
        def pairs():
            for k1, f1 in self.terms.items():
                for k2, f2 in other.terms.items():
                    sign, key = merge_sign(k1, k2)
                    if sign:
                        yield key, (f1 * f2 if sign == 1 else -(f1 * f2))

        return type(self)(self.chart, self.degree + other.degree, accumulate({}, pairs()))

    def _exterior_d(self, directions):
        """sum_i d_i f  e_i ^ e_key over (index i, coordinate name) directions."""

        def pairs():
            for k, f in self.terms.items():
                for i, name in directions:
                    df = f.partial(name)
                    if df.is_zero():
                        continue
                    sign, key = merge_sign((i,), k)
                    if sign:
                        yield key, (df if sign == 1 else -df)

        return type(self)(self.chart, self.degree + 1, accumulate({}, pairs()))


class MultiVectorField(SkewTerms):
    """Sparse skew multivector field; terms: increasing index tuple -> ScalarFn."""

    __slots__ = ()

    @staticmethod
    def vector(chart: Chart, components: dict) -> "MultiVectorField":
        """Vector field from {coordinate name: ScalarFn}."""
        return MultiVectorField(
            chart, 1, {(chart.index(name),): f for name, f in components.items()}
        )

    @staticmethod
    def basis_vector(chart: Chart, name: str) -> "MultiVectorField":
        return MultiVectorField(chart, 1, {(chart.index(name),): ScalarFn.one(chart)})

    # -- evaluation --------------------------------------------------------------

    def apply(self, fns) -> ScalarFn:
        """Evaluate on ScalarFn arguments: P(f_1, ..., f_d) with the
        determinant convention (X ^ Y)(f, g) = X(f) Y(g) - X(g) Y(f)."""
        fns = list(fns)
        if len(fns) != self.degree:
            raise ChartError("argument count does not match degree")
        chart = self.chart
        if self.degree == 0:
            return self.as_function()
        partials = [
            {i: f.partial_index(i) for i in range(chart.dim)} for f in fns
        ]

        def products():
            for key, c in self.terms.items():
                for perm in permutations(range(self.degree)):
                    factors = [partials[which][key[slot]] for slot, which in enumerate(perm)]
                    if any(p.is_zero() for p in factors):
                        continue
                    prod = c.scale(perm_sign(perm))
                    for p in factors:
                        prod = prod * p
                    yield prod

        return ScalarFn.zero(chart).plus(products())

    def insert_differential(self, g: ScalarFn) -> "MultiVectorField":
        """First-slot insertion P(g, -, ..., -) for degree >= 1."""
        if self.degree == 0:
            raise ChartError("cannot insert into a degree-0 multivector")
        dg = [g.partial_index(i) for i in range(self.chart.dim)]
        pairs = (
            (key[:pos] + key[pos + 1 :], dg[i] * c if pos % 2 == 0 else -(dg[i] * c))
            for key, c in self.terms.items()
            for pos, i in enumerate(key)
            if not dg[i].is_zero()
        )
        return MultiVectorField(self.chart, self.degree - 1, accumulate({}, pairs))

    # -- Schouten-Nijenhuis ----------------------------------------------------

    def gerstenhaber(self, other: "MultiVectorField") -> "MultiVectorField":
        """Gerstenhaber product P o Q: insert Q-output into the first slot
        of P, expanded coefficient-wise over unshuffled slot indices."""
        p, q = self.degree, other.degree
        if p == 0:
            return MultiVectorField.zero(self.chart, max(p + q - 1, 0))
        deg = p + q - 1
        dim = self.chart.dim
        zero = ScalarFn.zero(self.chart)

        def products(key):
            for sign, first, rest in unshuffles(key, q):
                inner = other.coefficient(first)
                if inner.is_zero():
                    continue
                for i in range(dim):
                    di = inner.partial_index(i)
                    if di.is_zero():
                        continue
                    co = self.coefficient((i,) + rest)
                    if co.is_zero():
                        continue
                    yield di * co if sign == 1 else -(di * co)

        out = MultiVectorField.zero(self.chart, deg)
        for key in _increasing_tuples(dim, deg):
            acc = zero.plus(products(key))
            if not acc.is_zero():
                out.terms[key] = acc
        return out

    def sn_bracket(self, other: "MultiVectorField") -> "MultiVectorField":
        """Schouten-Nijenhuis bracket, [[P,Q]] = (-1)^{kk'} P o Q - Q o P
        with k = deg P - 1, k' = deg Q - 1."""
        if self.chart != other.chart:
            raise ChartError("operands live on different charts")
        k = self.degree - 1
        kp = other.degree - 1
        a = self.gerstenhaber(other).scale((-1) ** (k * kp))
        b = other.gerstenhaber(self)
        return a - b

    def lie_derivative_fn(self, f: ScalarFn) -> ScalarFn:
        """X(f) for a vector field."""
        if self.degree != 1:
            raise ChartError("lie_derivative_fn needs a vector field")
        return ScalarFn.zero(self.chart).plus(
            c * f.partial_index(i) for (i,), c in self.terms.items()
        )

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return f"MVF(deg={self.degree}, 0)"
        names = self.chart.coords
        bits = []
        for key in sorted(self.terms):
            wedge = "^".join(f"d_{names[i]}" for i in key) or "1"
            bits.append(f"({self.terms[key]!r})*{wedge}")
        return " + ".join(bits)


def _increasing_tuples(n, d):
    return combinations(range(n), d)
