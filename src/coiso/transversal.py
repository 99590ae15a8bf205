"""The contact-case multibracket engine from the transversal geometry of the
characteristic foliation.

Inputs are the adapted-frame data on the base S: the matrix blocks C_a and
omega_ab of the transversal bi-linear form, curvature blocks F^i_{ab} and
F^i_a of the chosen complement G, and the frame fields used by the
transversal jet tables.  The k-th multibracket is evaluated through the
matrices

    W_p = W + p_i F^i,
    d^k W_p^{-1} / dp_{i_1} .. dp_{i_k} |_0
        = (-1)^k sum_{sigma} W^{-1} F^{i_sigma(1)} W^{-1} ... F^{i_sigma(k)} W^{-1},

with W inverted exactly by ``ring.inverse_unit``, a Faddeev-LeVerrier
adjugate (the determinant must be a unit of the ring; no rational functions
are ever formed).  W, F^i, the Y products and the j^1_G component matrices
are ring matrices, sparse tables {(row, column): ScalarFn} that hold no
zero entry, and a jet j_G f is the table {frame index: component} of its
nonzero components, so the multibracket sums over present entries only.
``TransversalData.Y`` keeps W^{-1}, each F^i W^{-1} and each Y product by
its prefix, and ``TransversalData.jG0`` the transversal jet of each
function it meets (keyed by exact equality, so an equal function built
anew finds it), for every multibracket on the data.

``TransversalData.multibracket`` takes the LeafForm arguments that
``linfty.MultibracketTable.m`` takes, so the two engines compare on one
argument list; it evaluates the generators, functions and the fiber frame
forms delta_i, and m_1 is the leafwise differential d_F.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from fractions import Fraction

from .ring import Chart, ContentError, ScalarFn, accumulate, inverse_unit, mat_identity, mat_mul, sum_of_products
from .leafform import LeafForm


class TransversalData:
    """Adapted-frame data (W, F^i, G-frame) over the leaf ring of the base.

    * chart: the ambient model chart; leaf coordinates are the x^i.
    * Ga_fields: the fields G_a spanning the C_S-part of G (base-only).
    * G_field: the field G spanning the remaining direction (base-only).
    * C: the structure entries C_a = -theta(du_a-direction) of the frame,
      one per G_a field.
    * omega: the skew matrix omega_ab = theta([G_a-flat, G_b-flat]).
    * Fab, Fa: curvature blocks of G per leaf direction i (dicts i -> block),
      absent entries meaning zero.
    Every entry and every frame coefficient must be base-only.  The data is
    never changed after construction, so Y keeps every matrix it builds
    and jG0 every jet.
    """

    def __init__(self, chart: Chart, Ga_fields, G_field, C, omega, Fab=None, Fa=None):
        self.chart = chart
        self.Ga = list(Ga_fields)
        self.G = G_field
        self.A = len(self.Ga)
        self.C = list(C)
        self.omega = omega
        self.Fab = dict(Fab or {})
        self.Fa = dict(Fa or {})
        self.n = self.A + 2  # frame order (bullet, a-block, circ)
        entries = [self.C, *omega, *self.Fa.values(), *(row for m in self.Fab.values() for row in m)]
        entries += [X.terms.values() for X in self.Ga + [self.G]]
        if not all(f.is_base_only() for block in entries for f in block):
            raise ContentError("transversal data must be base-only")
        # i -> F^i W^{-1}, letters -> Y(letters), f -> jG0(f)
        self._factors, self._ys, self._jets = {}, {}, {}

    # -- the W and F matrices -----------------------------------------------

    def W(self):
        n, one = self.n, ScalarFn.one(self.chart)
        M = {(0, n - 1): -one, (n - 1, 0): one}
        for a, c in enumerate(self.C):
            if not c.is_zero():
                M[0, 1 + a], M[1 + a, 0] = c, -c
        for a, row in enumerate(self.omega):
            M.update(((1 + a, 1 + b), f) for b, f in enumerate(row) if not f.is_zero())
        return M

    def F(self, i):
        n, M = self.n, {}
        for a, row in enumerate(self.Fab.get(i, ())):
            M.update(((1 + a, 1 + b), f) for b, f in enumerate(row) if not f.is_zero())
        for a, f in enumerate(self.Fa.get(i, ())):
            if not f.is_zero():
                M[1 + a, n - 1], M[n - 1, 1 + a] = f, -f
        return M

    def Y(self, letters=()):
        """W^{-1} for no letters, else Y(letters[:-1]) F^{i_k} W^{-1}; summed
        over the orderings of the k letters, (-1)^k times the p-derivative
        d^k W_p^{-1} / dp_{i_1} .. dp_{i_k} at p = 0.
        Each Y and each factor F^i W^{-1} is built on first use and kept, and
        W^{-1} is checked against W W^{-1} = I as it is built."""
        chart, out = self.chart, self._ys.get(letters)
        if out is None and letters:
            i = letters[-1]
            if i not in self._factors:
                self._factors[i] = mat_mul(chart, self.F(i), self.Y())
            out = self._ys[letters] = mat_mul(chart, self.Y(letters[:-1]), self._factors[i])
        elif out is None:
            w = self.W()
            out = inverse_unit(chart, w, self.n)
            if mat_mul(chart, w, out) != mat_identity(chart, self.n):
                raise AssertionError("adjugate inversion failed")
            self._ys[()] = out
        return out

    # -- transversal jet tables ------------------------------------------------

    def jG0(self, f: ScalarFn):
        """The nonzero components of (f, G_a f, G f), the transversal jet of
        a base function, by frame index; built on first use for each
        function (by exact equality) and kept."""
        jet = self._jets.get(f)
        if jet is None:
            comps = [f, *(X.apply([f]) for X in self.Ga + [self.G])]
            jet = self._jets[f] = {al: g for al, g in enumerate(comps) if not g.is_zero()}
        return jet

    def jG1(self, i):
        """Component matrix of j^1_G(d_F x^i (x) mu): entry (h, alpha) is 1 at
        (i, 0) and, for alpha = 1 + a, the d / d x^h of the x^i-component of
        G_a (a < A) or of G (a = A), present only where that component
        depends on x^h."""
        leaf = self.chart.leaf_indices
        out = {(i, 0): ScalarFn.one(self.chart)}
        for al, field in enumerate(self.Ga + [self.G], 1):
            g = field.terms.get((leaf[i],))
            if g is not None:
                out.update(((h, al), g.partial(c)) for h, c in enumerate(leaf) if g.mask >> c & 1)
        return out

    # -- multibrackets -----------------------------------------------------------

    def multibracket(self, args) -> LeafForm:
        """Evaluate m_k on the arguments that MultibracketTable.m takes, when
        each is a generator: a function (a degree-0 leaf form) or a fiber
        frame form delta_i = {(i,): 1}, the d_F x^i (x) mu of leaf direction
        i.  Any other leaf form raises ContentError.

        m_1 is the leafwise differential d_F.  With more than two functions
        the value is the degree-0 zero, as MultibracketTable.m gives it: the
        derived bracket has arity 2 - (number of functions) < 0.
        """
        chart = self.chart
        one = ScalarFn.one(chart)
        fns, forms = [], []
        for xi in args:
            if xi.degree == 0:
                fns.append(xi.as_function())
            elif xi.degree == 1 and list(xi.terms.values()) == [one]:
                forms += [i for (i,) in xi.terms]
            else:
                raise ContentError(
                    f"m_k takes functions and frame forms delta_i, not a degree-{xi.degree}"
                    f" form on the keys {sorted(xi.terms)}"
                )
        if len(fns) > 2:
            return LeafForm.zero(chart, 0)
        if len(args) == 1:
            return args[0].d_leaf()
        # sum over the orderings of the form letters, each distinct ordering
        # once with its multiplicity, of Y(prefix)[al, be] u[al] v[be]: u, v
        # are the jets of the functions, then those of the last letters (one
        # j^1_G row per leaf key)
        degree = 2 - len(fns)
        jets = [{(): self.jG0(f)} for f in fns]
        rows = {i: {} for i in forms}
        for i, row in rows.items():
            for (h, al), f in self.jG1(i).items():
                row.setdefault((h,), {})[al] = f
        weight = Fraction(1, 2) if degree == 2 else -1

        def items():
            for letters, mult in Counter(permutations(forms)).items():
                cut = len(letters) - degree
                left, right = jets + [rows[i] for i in letters[cut:]]
                w = weight * mult
                for (al, be), y in self.Y(letters[:cut]).items():
                    for u, a in left.items():
                        if al not in a:
                            continue
                        ya = None  # y a[al], once for all its v
                        for v, b in right.items():
                            if u and u == v or be not in b:
                                continue  # d_F x^s ^ d_F x^s = 0, or no product
                            if ya is None:
                                ya = y * a[al]
                            yield (abs(w), u + v), ya, b[be], w < 0

        # each weight scales its sum once; LeafForm sorts u + v = (s, t) with sign
        sums = sum_of_products(chart, items())
        return LeafForm(chart, degree, accumulate({}, ((key, f.scale(w)) for (w, key), f in sums.items())))
