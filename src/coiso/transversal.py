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
are ever formed).
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from fractions import Fraction

from .ring import Chart, ContentError, ScalarFn, accumulate, inverse_unit, mat_identity, mat_mul
from .leafform import LeafForm


class TransversalError(ContentError):
    pass


class TransversalData:
    """Adapted-frame data (W, F^i, G-frame) over the leaf ring of the base.

    * chart: the ambient model chart; leaf coordinates are the x^i.
    * Ga_fields: the fields G_a spanning the C_S-part of G (base-only).
    * G_field: the field G spanning the remaining direction (base-only).
    * C: the structure entries C_a = -theta(du_a-direction) of the frame.
    * omega: the skew matrix omega_ab = theta([G_a-flat, G_b-flat]).
    * Fab, Fa: curvature blocks of G per leaf direction i (dicts i -> block),
      absent entries meaning zero.
    """

    def __init__(self, chart: Chart, Ga_fields, G_field, C, omega, Fab=None, Fa=None):
        self.chart = chart
        self.leaf = chart.leaf
        self.nleaf = len(chart.leaf)
        self.Ga = list(Ga_fields)
        self.G = G_field
        self.A = len(self.Ga)
        self.C = list(C)
        if len(self.C) != self.A:
            raise TransversalError("need one C_a entry per G_a field")
        self.omega = omega
        self.Fab = dict(Fab or {})
        self.Fa = dict(Fa or {})
        self.n = self.A + 2  # frame order (bullet, a-block, circ)
        for f in self.C:
            if not f.is_base_only():
                raise TransversalError("transversal data must be base-only")
        self._w_inv = None

    # -- the W and F matrices -----------------------------------------------

    def W(self):
        chart = self.chart
        n = self.n
        A = self.A
        zero = ScalarFn.zero(chart)
        one = ScalarFn.one(chart)
        M = [[zero for _ in range(n)] for _ in range(n)]
        for b in range(A):
            M[0][1 + b] = self.C[b]
        M[0][n - 1] = -one
        for a in range(A):
            M[1 + a][0] = -self.C[a]
            for b in range(A):
                M[1 + a][1 + b] = self.omega[a][b]
        M[n - 1][0] = one
        return M

    def F(self, i):
        chart = self.chart
        n = self.n
        A = self.A
        zero = ScalarFn.zero(chart)
        M = [[zero for _ in range(n)] for _ in range(n)]
        fab = self.Fab.get(i)
        fa = self.Fa.get(i)
        for a in range(A):
            for b in range(A):
                if fab is not None:
                    M[1 + a][1 + b] = fab[a][b]
            if fa is not None:
                M[1 + a][n - 1] = fa[a]
                M[n - 1][1 + a] = -fa[a]
        return M

    def W_inv(self):
        if self._w_inv is None:
            self._w_inv = inverse_unit(self.chart, self.W())
            if mat_mul(self.chart, self.W(), self._w_inv) != mat_identity(self.chart, self.n):
                raise AssertionError("adjugate inversion failed")  # pragma: no cover
        return self._w_inv

    def _y_matrices(self):
        """Y as a function of a tuple of letters, for the length of one call:
        each factor F^i W^{-1} is built once and Y(letters) is kept by
        prefix, Y(letters) = Y(letters[:-1]) F^{i_k} W^{-1}."""
        chart, w_inv = self.chart, self.W_inv()
        factors = {}
        ys = {(): w_inv}

        def y(letters):
            out = ys.get(letters)
            if out is None:
                i = letters[-1]
                if i not in factors:
                    factors[i] = mat_mul(chart, self.F(i), w_inv)
                out = ys[letters] = mat_mul(chart, y(letters[:-1]), factors[i])
            return out

        return y

    # -- transversal jet tables ------------------------------------------------

    def _leaf_chart_index(self, i):
        return self.chart.index(self.leaf[i])

    def G_comp(self, a, i) -> ScalarFn:
        """G^i_a: the x^i-component of G_a (a < A), or of G (a = A)."""
        field = self.Ga[a] if a < self.A else self.G
        return field.coefficient((self._leaf_chart_index(i),))

    def jG0(self, f: ScalarFn):
        """Components (f, G_a f, G f) of the transversal jet of a function."""
        if not f.is_base_only():
            raise TransversalError("transversal jets act on base functions")
        comps = [f]
        for a in range(self.A):
            comps.append(self.Ga[a].lie_derivative_fn(f))
        comps.append(self.G.lie_derivative_fn(f))
        return comps

    def _d_leaf(self, f: ScalarFn, h, zero: ScalarFn) -> ScalarFn:
        """d f / d x^h, skipped (the caller's one zero) when f does not
        depend on x^h."""
        c = self._leaf_chart_index(h)
        return f.partial(c) if f.mask >> c & 1 else zero

    def jG1(self, i):
        """Component matrix of j^1_G(d_F x^i (x) mu): entry [h][alpha]."""
        chart = self.chart
        zero = ScalarFn.zero(chart)
        comps = [self.G_comp(a, i) for a in range(self.A + 1)]
        rows = []
        for h in range(self.nleaf):
            row = [ScalarFn.one(chart) if h == i else zero]
            row += [self._d_leaf(g, h, zero) for g in comps]
            rows.append(row)
        return rows

    # -- multibrackets -----------------------------------------------------------

    def multibracket(self, args) -> LeafForm:
        """Evaluate m_k on generator arguments.

        args: list of ('fn', ScalarFn) and ('form', leaf index) entries.
        With more than two 'fn' entries the value is the degree-0 zero, as
        MultibracketTable.m gives it: the derived bracket has arity
        2 - (number of functions) < 0.
        """
        chart = self.chart
        k = len(args)
        fns = [a[1] for a in args if a[0] == "fn"]
        forms = [a[1] for a in args if a[0] == "form"]
        if len(fns) > 2:
            return LeafForm.zero(chart, 0)
        if k == 1:
            if fns:
                f = fns[0]
                zero = ScalarFn.zero(chart)
                return LeafForm(chart, 1, {(h,): self._d_leaf(f, h, zero) for h in range(self.nleaf)})
            (i,) = forms
            # d_F of d_F x^i (x) mu is zero: the frame forms are d_F-closed
            return LeafForm.zero(chart, 2)
        # sum over the orderings of the form letters, each distinct ordering
        # once with its multiplicity, of Y(prefix)[al][be] u[al] v[be]: u, v
        # are the jets of the functions, then those of the last letters (one
        # j^1_G row per leaf key); keys (s, t) are sorted by LeafForm
        y = self._y_matrices()
        degree = 2 - len(fns)
        jets = [{(): self.jG0(f)} for f in fns]
        rows = {i: {(h,): row for h, row in enumerate(self.jG1(i))} for i in set(forms)}
        weight = Fraction(1, 2) if degree == 2 else -1
        frame = range(self.n)

        def pairs():
            for letters, mult in Counter(permutations(forms)).items():
                cut = len(letters) - degree
                Y = y(letters[:cut])
                left, right = jets + [rows[i] for i in letters[cut:]]
                for al in frame:
                    for be in frame:
                        if Y[al][be].is_zero():
                            continue
                        for u, a in left.items():
                            if a[al].is_zero():
                                continue
                            for v, b in right.items():
                                if u and u == v:
                                    continue  # d_F x^s ^ d_F x^s = 0
                                if not b[be].is_zero():
                                    # the ring has no zero divisors
                                    yield u + v, (Y[al][be] * a[al] * b[be]).scale(weight * mult)

        return LeafForm(chart, degree, accumulate({}, pairs()))
