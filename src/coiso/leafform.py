"""Leaf forms: the carrier of the deformation calculus.

A LeafForm of degree d is an element of Gamma(wedge^d N_l S (x) l) written
on the normal frame of the zero section: keys are strictly increasing tuples
of fiber indices (0-based, into chart.fiber) and coefficients are base-only
ScalarFns.  On charts whose a-th fiber direction matches the a-th leaf
coordinate (as in the torus examples, where T^*F is trivialized by
dph_a |_F), degree-d leaf forms display as leafwise differential forms.
"""

from __future__ import annotations

from .rational import GaussianRational
from .ring import Chart, ChartError, ScalarFn, accumulate
from .multivector import SkewTerms


class LeafForm(SkewTerms):
    __slots__ = ()

    def _index_bound(self) -> int:
        return self.chart.m

    def _canonical(self, pairs):
        for key, f in super()._canonical(pairs):
            if not f.is_base_only():
                raise ChartError("leaf form coefficients must be base-only")
            yield key, f

    # -- leafwise calculus (needs the fiber <-> leaf correspondence) ----------

    def _leaf_names(self):
        chart = self.chart
        if len(chart.leaf) != chart.m:
            raise ChartError(
                "leafwise calculus needs one leaf coordinate per fiber direction"
            )
        return chart.leaf

    def d_leaf(self) -> "LeafForm":
        """Leafwise exterior derivative d_F, using the a-th leaf coordinate
        as the direction paired with the a-th normal frame vector."""
        return self._exterior_d(list(enumerate(self._leaf_names())))

    def leaf_zero_mode(self) -> "LeafForm":
        """Projector Pi_0: keep only terms with zero frequency in every leaf
        direction (the leaf-torus zero mode)."""
        chart = self.chart
        leaf_idx = [chart.torus.index(c) for c in self._leaf_names()]
        out = {}
        for key, f in self.terms.items():
            kept = {
                (n, alpha): c
                for (n, alpha), c in f.terms.items()
                if all(n[j] == 0 for j in leaf_idx)
            }
            if kept:
                out[key] = ScalarFn(chart, kept)
        return LeafForm(chart, self.degree, out)

    def homotopy_K(self) -> "LeafForm":
        """The exact torus homotopy: K(e^{i n.phi} alpha) =
        (i n_j)^{-1} iota_j (e^{i n.phi} alpha) with j the least leaf index
        carrying a nonzero frequency; kills leaf-zero modes."""
        if self.degree == 0:
            raise ChartError("homotopy K lowers degree; got degree 0")
        chart = self.chart
        leaf_idx = [chart.torus.index(c) for c in self._leaf_names()]

        def pairs():
            for key, f in self.terms.items():
                for (n, alpha), c in f.terms.items():
                    j = next((a for a, ji in enumerate(leaf_idx) if n[ji] != 0), None)
                    if j is None or j not in key:
                        continue
                    pos = key.index(j)
                    coeff = c / GaussianRational(0, n[leaf_idx[j]])
                    if pos % 2:
                        coeff = -coeff
                    yield key[:pos] + key[pos + 1 :], ScalarFn(chart, {(n, alpha): coeff})

        return LeafForm(chart, self.degree - 1, accumulate({}, pairs()))

    # -- display ----------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return f"LeafForm(deg={self.degree}, 0)"
        chart = self.chart
        display = (
            [f"dF_{c}" for c in chart.leaf]
            if len(chart.leaf) == chart.m
            else [f"delta_{c}" for c in chart.fiber]
        )
        bits = []
        for key in sorted(self.terms):
            word = "^".join(display[a] for a in key) or "1"
            bits.append(f"({self.terms[key]!r})*{word}")
        return " + ".join(bits)


class SectionOfNormalBundle:
    """s = sum_a g_a(u) * (d/dy_a): base-only components, one per fiber
    coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components):
        components = tuple(components)
        if len(components) != chart.m:
            raise ChartError("one component per fiber coordinate required")
        for f in components:
            if not f.is_base_only():
                raise ChartError("section components must be base-only")
        self.chart = chart
        self.components = components

    @staticmethod
    def zero(chart: Chart) -> "SectionOfNormalBundle":
        return SectionOfNormalBundle(chart, [ScalarFn.zero(chart)] * chart.m)

    def to_leafform(self) -> LeafForm:
        return LeafForm(
            self.chart,
            1,
            {(a,): f for a, f in enumerate(self.components) if not f.is_zero()},
        )

    @staticmethod
    def from_leafform(w: LeafForm) -> "SectionOfNormalBundle":
        if w.degree != 1:
            raise ChartError("expected a degree-1 leaf form")
        comps = [w.coefficient((a,)) for a in range(w.chart.m)]
        return SectionOfNormalBundle(w.chart, comps)

    def scale(self, c) -> "SectionOfNormalBundle":
        return SectionOfNormalBundle(self.chart, [f.scale(c) for f in self.components])

    def __add__(self, other):
        return SectionOfNormalBundle(
            self.chart, [a + b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return SectionOfNormalBundle(self.chart, [-f for f in self.components])

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def assignment(self) -> dict:
        """Fiber substitution dict y_a -> g_a(u)."""
        return {name: f for name, f in zip(self.chart.fiber, self.components)}

    def __eq__(self, other):
        return (
            isinstance(other, SectionOfNormalBundle)
            and self.chart == other.chart
            and self.components == other.components
        )

    def __repr__(self):
        return f"SectionOfNormalBundle({self.components!r})"
