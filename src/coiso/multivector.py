"""Sparse multivector fields on a chart and the Schouten-Nijenhuis bracket.

A MultiVectorField of degree d stores coefficients on strictly increasing
coordinate-index tuples of length d (indices in chart order, torus first).
Degree 0 is a plain ScalarFn wrapped with an empty key.

The Schouten-Nijenhuis bracket is computed through the Gerstenhaber product
P o Q, the insertion of Q into the first slot of P, in coordinates:

    (P o Q)^K = sum_{unshuffles K -> (I, R)} sign * sum_i d_i Q^I * P^{(i,) + R}.

It is driven by the terms: for each Q term (I, g) and each coordinate i in
g's mask (so d_i g != 0), every P term (L, f) with i = L[pos] contributes
(-1)^pos d_i g * f to the key K = sort(I + R), R = L without i, with the
sign of that merge.  Intersecting I and R contribute nothing.  Inserting
a function g into the first slot of P is P o g, the product with the degree-0
field of g: apply evaluates P on functions that way.
"""

from __future__ import annotations

from .ring import Chart, ChartError, ContentError, ScalarFn, SparseTerms, accumulate


class ArityError(ContentError):
    pass


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
        coefficients dropped, wrong lengths, indices out of range and
        coefficients on another chart rejected."""
        bound, chart = self._index_bound(), self.chart
        for key, f in pairs:
            key = tuple(key)
            if len(key) != self.degree:
                raise ChartError("key length does not match degree")
            if any(i < 0 or i >= bound for i in key):
                raise ChartError(f"{type(self).__name__} index out of range in {key}")
            if f.chart is not chart and f.chart != chart:
                raise ChartError(f"{type(self).__name__} coefficient on another chart")
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
        """The coefficient of a degree-0 container."""
        f = self.terms.get(())
        return ScalarFn.zero(self.chart) if f is None else f

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
                    sign, key = sort_key_sign(k1 + k2)
                    if sign:
                        yield key, (f1 * f2 if sign == 1 else -(f1 * f2))

        return type(self)(self.chart, self.degree + other.degree, accumulate({}, pairs()))

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
        determinant convention (X ^ Y)(f, g) = X(f) Y(g) - X(g) Y(f), on
        exactly d = degree functions."""
        fns = list(fns)
        if len(fns) != self.degree:
            raise ArityError(f"arity {self.degree} operator applied to {len(fns)} functions")
        out = self
        for f in fns:
            out = out.gerstenhaber(MultiVectorField.function(f))
        return out.as_function()

    # -- Schouten-Nijenhuis ----------------------------------------------------

    def gerstenhaber(self, other: "MultiVectorField") -> "MultiVectorField":
        """Gerstenhaber product P o Q: insert Q into the first slot of P.

        (P o Q)^{sort(I + R)} collects sign(I, R) (-1)^pos d_i Q^I P^L over
        the Q terms (I, Q^I), the coordinates i with d_i Q^I != 0 and the P
        terms (L, P^L) with L[pos] = i and R = L without i; sign(I, R) is
        the sign of merging I and R (zero when they meet), the sign of the
        unshuffle of the output key into (I, R)."""
        p, q = self.degree, other.degree
        out = type(self).zero(self.chart, max(p + q - 1, 0))
        if p == 0:
            return out
        slots = {}
        for key, f in self.terms.items():
            for pos, i in enumerate(key):
                slots.setdefault(i, []).append(
                    (key[:pos] + key[pos + 1 :], f if pos % 2 == 0 else -f)
                )

        def pairs():
            for qk, g in other.terms.items():
                mask = g.mask
                for i, entries in slots.items():
                    if not mask >> i & 1:
                        continue
                    di = g.partial(i)
                    for rest, c in entries:
                        sign, key = sort_key_sign(qk + rest)
                        if sign:
                            yield key, di * c if sign == 1 else -(di * c)

        out.terms = accumulate({}, pairs())
        return out

    def sn_bracket(self, other: "MultiVectorField") -> "MultiVectorField":
        """Schouten-Nijenhuis bracket, [[P,Q]] = (-1)^{kk'} P o Q - Q o P
        with k = deg P - 1, k' = deg Q - 1."""
        k = self.degree - 1
        kp = other.degree - 1
        a = self.gerstenhaber(other).scale((-1) ** (k * kp))
        b = other.gerstenhaber(self)
        return a - b
