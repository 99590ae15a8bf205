"""Sparse multivector fields on a chart and their Gerstenhaber product.

A MultiVectorField of degree d stores coefficients on strictly increasing
coordinate-index tuples of length d (indices in chart order, torus first).
Degree 0 is a plain ScalarFn wrapped with an empty key.  The constructor
checks outside input; every kernel below (wedge, the exterior derivative,
the Gerstenhaber product, apply) builds its result through SkewTerms._raw.

The Gerstenhaber product P o Q, the insertion of Q into the first slot of
P, is in coordinates

    (P o Q)^K = sum_{unshuffles K -> (I, R)} sign * sum_i d_i Q^I * P^{(i,) + R}.

It is driven by the terms: for each Q term (I, g) and each coordinate i in
g's mask (so d_i g != 0), every P term (L, f) with i = L[pos] contributes
(-1)^pos d_i g * f to the key K = sort(I + R), R = L without i, with the
sign of that merge (nothing when I and R meet).  The wedge and the product
yield their signed products as (key, factor, factor, negative) items of
ring.sum_of_products, the sign a flag and no operand negated, so a bracket
built from several signed products and wedges (the Schouten-Jacobi bracket
of multider) is one call of that kernel: one table, and no product or
negated copy of a table built on the way.  Inserting g into the first slot
of P is P o g, which is how apply works.
"""

from __future__ import annotations

from .ring import Chart, ContentError, ScalarFn, SparseTerms, _scalar, accumulate, sum_of_products


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


class SkewTerms(SparseTerms):
    """Sparse skew container of a given degree: terms map strictly
    increasing index tuples of that length to ScalarFn coefficients.

    Keys index chart coordinates (torus first) unless a subclass narrows
    the range through _index_bound."""

    __slots__ = ("degree",)

    def __init__(self, chart: Chart, degree: int, terms=None):
        if degree < 0:
            raise ContentError(f"{type(self).__name__} degree must be >= 0")
        self.chart, self.degree = chart, degree
        self.terms = accumulate({}, self._canonical(terms.items())) if terms else {}

    def _shape(self):
        return (self.chart, self.degree)

    @classmethod
    def _raw(cls, chart: Chart, degree: int, terms):
        """The container of sorted keys in range and nonzero values on chart, unchecked."""
        r = object.__new__(cls)
        r.chart, r.degree, r.terms = chart, degree, terms
        return r

    def _like(self, terms):
        return self._raw(self.chart, self.degree, terms)

    def _index_bound(self) -> int:
        return self.chart.dim

    def _canonical(self, pairs):
        """Sorted keys with the sign of the sort; repeated indices and zero
        coefficients dropped, wrong lengths, indices out of range and
        coefficients on another chart rejected."""
        bound, chart = self._index_bound(), self.chart
        for key, f in pairs:
            key = tuple(key)
            if len(key) != self.degree:
                raise ContentError("key length does not match degree")
            if any(type(i) is not int or not 0 <= i < bound for i in key):
                raise ContentError(f"{type(self).__name__} index out of range in {key}")
            if f.chart is not chart and f.chart != chart:
                raise ContentError(f"{type(self).__name__} coefficient on another chart")
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
        """The coefficient of a degree-0 container; the empty zero is built
        unchecked."""
        f = self.terms.get(())
        return _scalar(self.chart, {}) if f is None else f

    def wedge(self, other):
        if type(other) is not type(self):  # its keys would not index this type's range
            raise ContentError(f"{type(self).__name__} wedge with a {type(other).__name__}")
        products = sum_of_products(self.chart, self._wedge_products(other))
        return self._raw(self.chart, self.degree + other.degree, products)

    def _wedge_products(self, other, negative=False):
        """The signed products of self ^ other, negated when negative: items
        (sort(K1 + K2), f1, f2, negative) over the term pairs whose keys do
        not meet, negative flipped by the sign of the sort."""
        for k1, f1 in self.terms.items():
            for k2, f2 in other.terms.items():
                sign, key = sort_key_sign(k1 + k2)
                if sign:
                    yield key, f1, f2, (sign < 0) != negative

    def _exterior_d(self, directions):
        """sum_i d_c f  e_i ^ e_key over (key index i, chart index c)
        directions; only the coordinates f depends on are differentiated."""

        def pairs():
            for k, f in self.terms.items():
                mask = f.mask
                for i, c in directions:
                    if not mask >> c & 1:
                        continue
                    sign, key = sort_key_sign((i,) + k)
                    if sign:
                        df = f.partial(c)
                        yield key, (df if sign == 1 else -df)

        return self._raw(self.chart, self.degree + 1, accumulate({}, pairs()))


def function_field(f: ScalarFn) -> "MultiVectorField":
    """The degree-0 field of f, unchecked: the operand that inserts f."""
    return MultiVectorField._raw(f.chart, 0, {} if f.is_zero() else {(): f})


class MultiVectorField(SkewTerms):
    """Sparse skew multivector field; terms: increasing index tuple -> ScalarFn."""

    __slots__ = ()

    @staticmethod
    def vector(chart: Chart, components: dict) -> "MultiVectorField":
        """Vector field from {coordinate name: ScalarFn}."""
        return MultiVectorField(chart, 1, {(chart.index(name),): f for name, f in components.items()})

    @staticmethod
    def basis_vector(chart: Chart, name: str) -> "MultiVectorField":
        return MultiVectorField(chart, 1, {(chart.index(name),): ScalarFn.one(chart)})

    # -- evaluation --------------------------------------------------------------

    def apply(self, fns) -> ScalarFn:
        """Evaluate on ScalarFn arguments: P(f_1, ..., f_d) with the
        determinant convention (X ^ Y)(f, g) = X(f) Y(g) - X(g) Y(f), on
        exactly d = degree functions."""
        fns = list(fns)
        if len(fns) != self.degree:
            raise ContentError(f"arity {self.degree} operator applied to {len(fns)} functions")
        if any(f.chart is not self.chart and f.chart != self.chart for f in fns):
            raise ContentError(f"{type(self).__name__} applied to a function on another chart")
        out = self
        for f in fns:
            out = out._insert(f)
        return out.as_function()

    def _insert(self, f: ScalarFn) -> "MultiVectorField":
        """Insert the function f into the first slot: self o f."""
        return self.gerstenhaber(function_field(f))

    # -- Gerstenhaber product ---------------------------------------------------

    def gerstenhaber(self, other: "MultiVectorField") -> "MultiVectorField":
        """Gerstenhaber product P o Q: insert Q into the first slot of P."""
        degree = max(self.degree + other.degree - 1, 0)
        return self._raw(self.chart, degree, sum_of_products(self.chart, self._products(other)))

    def _products(self, other, sign=1):
        """The signed products of sign * (P o Q): items (sort(I + R), d_i Q^I,
        P^L, negative) over the Q terms (I, Q^I), the coordinates i with
        d_i Q^I != 0 and the P terms (L, P^L) with L[pos] = i and R = L
        without i; the product is negative when sign(I, R) (-1)^pos differs
        from sign, where sign(I, R) is the sign of merging I and R (no item
        when they meet), the sign of the unshuffle of the output key into
        (I, R)."""
        slots = {}  # i -> (L without i, P^L, pos odd)
        for key, f in self.terms.items():
            for pos, i in enumerate(key):
                slots.setdefault(i, []).append((key[:pos] + key[pos + 1 :], f, pos & 1))
        for qk, g in other.terms.items():
            mask = g.mask
            for i, entries in slots.items():
                if not mask >> i & 1:
                    continue
                di = g.partial(i)
                for rest, f, odd in entries:
                    s, key = sort_key_sign(qk + rest)
                    if s:
                        yield key, di, f, (s != sign) != odd
