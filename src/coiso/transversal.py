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

``TransversalData.multibracket`` takes the LeafForm arguments that
``linfty.MultibracketTable.m`` takes, so the two engines compare on one
argument list; it evaluates the generators, functions and the fiber frame
forms delta_i, and m_1 is the leafwise differential d_F.
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
    * C: the structure entries C_a = -theta(du_a-direction) of the frame,
      one per G_a field.
    * omega: the skew matrix omega_ab = theta([G_a-flat, G_b-flat]).
    * Fab, Fa: curvature blocks of G per leaf direction i (dicts i -> block),
      absent entries meaning zero.
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
            w = self.W()
            self._w_inv = inverse_unit(self.chart, w)
            if mat_mul(self.chart, w, self._w_inv) != mat_identity(self.chart, self.n):
                raise AssertionError("adjugate inversion failed")
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

    def G_comp(self, a, i) -> ScalarFn:
        """G^i_a: the x^i-component of G_a (a < A), or of G (a = A)."""
        field = self.Ga[a] if a < self.A else self.G
        return field.coefficient((self.chart.leaf_indices[i],))

    def jG0(self, f: ScalarFn):
        """Components (f, G_a f, G f) of the transversal jet of a base
        function."""
        comps = [f]
        for a in range(self.A):
            comps.append(self.Ga[a].apply([f]))
        comps.append(self.G.apply([f]))
        return comps

    def jG1(self, i):
        """Component matrix of j^1_G(d_F x^i (x) mu): entry [h][alpha]; the
        d / d x^h of a G-component that does not depend on x^h is one
        shared zero."""
        chart = self.chart
        zero = ScalarFn.zero(chart)
        comps = [self.G_comp(a, i) for a in range(self.A + 1)]
        rows = []
        for h, c in enumerate(chart.leaf_indices):
            row = [ScalarFn.one(chart) if h == i else zero]
            row += [g.partial(c) if g.mask >> c & 1 else zero for g in comps]
            rows.append(row)
        return rows

    # -- multibrackets -----------------------------------------------------------

    def multibracket(self, args) -> LeafForm:
        """Evaluate m_k on the arguments that MultibracketTable.m takes, when
        each is a generator: a function (a degree-0 leaf form) or a fiber
        frame form delta_i = {(i,): 1}, the d_F x^i (x) mu of leaf direction
        i.  Any other leaf form raises TransversalError.

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
                raise TransversalError(f"m_k takes functions and frame forms delta_i, not {xi!r}")
        if len(fns) > 2:
            return LeafForm.zero(chart, 0)
        if len(args) == 1:
            return args[0].d_leaf()
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
