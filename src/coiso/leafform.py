"""Leaf forms: the carrier of the deformation calculus.

A LeafForm of degree d is an element of Gamma(wedge^d N_l S (x) l) written
on the normal frame of the zero section: keys are strictly increasing tuples
of fiber indices (0-based, into chart.fiber) and coefficients are base-only
ScalarFns.  On charts whose a-th fiber direction matches the a-th leaf
coordinate (as in the torus examples, where T^*F is trivialized by
dph_a |_F), degree-d leaf forms display as leafwise differential forms.

A section s = sum_a g_a delta_a of the normal bundle is the degree-1 leaf
form with one base-only component g_a per fiber coordinate:
LeafForm.section builds it from its components and components() lists
them back, zeros included.
"""

from __future__ import annotations

from .rational import GaussianRational
from .ring import Chart, ContentError, ScalarFn, _scalar
from .multivector import SkewTerms


class LeafForm(SkewTerms):
    __slots__ = ()

    def _index_bound(self) -> int:
        return self.chart.m

    def _canonical(self, pairs):
        for key, f in super()._canonical(pairs):
            if not f.is_base_only():
                raise ContentError("leaf form coefficients must be base-only")
            yield key, f

    # -- normal sections: degree 1 ----------------------------------------------

    @classmethod
    def section(cls, chart: Chart, components) -> "LeafForm":
        """s = sum_a g_a delta_a, from one component g_a per fiber coordinate."""
        components = list(components)
        if len(components) != chart.m:
            raise ContentError("one component per fiber coordinate required")
        return cls(chart, 1, {(a,): g for a, g in enumerate(components)})

    def components(self) -> list:
        """The components g_a of a degree-1 form, one per fiber coordinate;
        the missing ones share one zero."""
        if self.degree != 1:
            raise ContentError("expected a degree-1 leaf form")
        terms, m = self.terms, self.chart.m
        zero = ScalarFn.zero(self.chart) if len(terms) < m else None
        return [terms.get((a,), zero) for a in range(m)]

    def to_leafform(self) -> "LeafForm":
        """self, under the name that the input check of perfbench/run.py
        calls on a scenario's section; library code and tests use the form
        itself."""
        return self

    # -- leafwise calculus (needs the fiber <-> leaf correspondence) ----------

    def _leaf_names(self):
        chart = self.chart
        if len(chart.leaf) != chart.m:
            raise ContentError(
                "leafwise calculus needs one leaf coordinate per fiber direction"
            )
        return chart.leaf

    def d_leaf(self) -> "LeafForm":
        """Leafwise exterior derivative d_F, using the a-th leaf coordinate
        as the direction paired with the a-th normal frame vector."""
        self._leaf_names()  # ContentError unless one leaf coordinate per fiber direction
        return self._exterior_d(list(enumerate(self.chart.leaf_indices)))

    def homotopy_K(self) -> "LeafForm":
        """The exact torus homotopy: K(e^{i n.phi} alpha) =
        (i n_j)^{-1} iota_j (e^{i n.phi} alpha) with j the least leaf index
        carrying a nonzero frequency; kills leaf-zero modes.  It lowers the
        degree, so the form has degree >= 1.  The exponent fixes j, so K
        takes distinct (key, exponent) pairs to distinct pairs: each term
        goes into the output table as it is, and nothing adds."""
        self._leaf_names()  # ContentError unless one leaf coordinate per fiber direction
        chart, leaf_idx = self.chart, self.chart.leaf_indices
        out = {}
        for key, f in self.terms.items():
            for e, c in f.terms.items():
                j = next((a for a, ji in enumerate(leaf_idx) if e[ji] != 0), None)
                if j is None or j not in key:
                    continue
                pos = key.index(j)
                coeff = c / GaussianRational(0, e[leaf_idx[j]])
                out.setdefault(key[:pos] + key[pos + 1 :], {})[e] = -coeff if pos % 2 else coeff
        return LeafForm._raw(chart, self.degree - 1, {key: _scalar(chart, t) for key, t in out.items()})
