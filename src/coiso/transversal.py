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

with W inverted exactly through its adjugate (the determinant must be a unit
of the ring; no rational functions are ever formed).
"""

from __future__ import annotations

from itertools import permutations
from fractions import Fraction

from .ring import Chart, ScalarFn, accumulate
from .geom import matrix_inverse_unit
from .leafform import LeafForm


class TransversalError(ValueError):
    pass


def mat_mul(chart, A, B):
    n = len(A)
    zero = ScalarFn.zero(chart)
    return [
        [
            zero.plus(
                A[i][k] * B[k][j]
                for k in range(n)
                if not (A[i][k].is_zero() or B[k][j].is_zero())
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_identity(chart, n):
    return [
        [ScalarFn.one(chart) if i == j else ScalarFn.zero(chart) for j in range(n)]
        for i in range(n)
    ]


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
            self._w_inv = matrix_inverse_unit(self.chart, self.W())
            if not mat_eq(mat_mul(self.chart, self.W(), self._w_inv), mat_identity(self.chart, self.n)):
                raise AssertionError("adjugate inversion failed")  # pragma: no cover
        return self._w_inv

    def y_matrix(self, indices):
        """Y^{i_1 .. i_k} = W^{-1} F^{i_1} W^{-1} ... F^{i_k} W^{-1}."""
        out = self.W_inv()
        for i in indices:
            out = mat_mul(self.chart, out, mat_mul(self.chart, self.F(i), self.W_inv()))
        return out

    # -- transversal jet tables ------------------------------------------------

    def _leaf_coord(self, i):
        return self.leaf[i]

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

    def jG1(self, i):
        """Component matrix of j^1_G(d_F x^i (x) mu): entry [h][alpha]."""
        chart = self.chart
        rows = []
        for h in range(self.nleaf):
            xh = self._leaf_coord(h)
            row = [ScalarFn.one(chart) if h == i else ScalarFn.zero(chart)]
            for a in range(self.A):
                row.append(self.G_comp(a, i).partial(xh))
            row.append(self.G_comp(self.A, i).partial(xh))
            rows.append(row)
        return rows

    # -- multibrackets -----------------------------------------------------------

    def multibracket(self, args) -> LeafForm:
        """Evaluate m_k on generator arguments.

        args: list of ('fn', ScalarFn) and ('form', leaf index) entries; at
        most two 'fn' entries may appear (higher function multiplicities
        vanish by symmetry of the L-infinity[1] brackets).
        """
        chart = self.chart
        k = len(args)
        fns = [a[1] for a in args if a[0] == "fn"]
        forms = [a[1] for a in args if a[0] == "form"]
        if len(fns) > 2:
            return LeafForm.zero(chart, 2 - len(fns))
        if k == 1:
            if fns:
                f = fns[0]
                return LeafForm(
                    chart,
                    1,
                    {
                        (h,): f.partial(self._leaf_coord(h))
                        for h in range(self.nleaf)
                        if not f.partial(self._leaf_coord(h)).is_zero()
                    },
                )
            (i,) = forms
            # d_F of d_F x^i (x) mu is zero: the frame forms are d_F-closed
            return LeafForm.zero(chart, 2)
        if len(fns) == 2:
            f, g = fns
            jf, jg = self.jG0(f), self.jG0(g)
            out = ScalarFn.zero(chart).plus(
                Y[al][be] * jf[al] * jg[be]
                for Y in map(self.y_matrix, permutations(forms))
                for al in range(self.n)
                for be in range(self.n)
                if not Y[al][be].is_zero()
            )
            return LeafForm.function(-out)
        if len(fns) == 1:
            jf = self.jG0(fns[0])

            def pairs():
                for tail in range(len(forms)):
                    jlast = self.jG1(forms[tail])
                    for sigma in permutations(forms[:tail] + forms[tail + 1 :]):
                        Y = self.y_matrix(sigma)
                        for al in range(self.n):
                            for be in range(self.n):
                                if Y[al][be].is_zero():
                                    continue
                                for h in range(self.nleaf):
                                    c = Y[al][be] * jf[al] * jlast[h][be]
                                    if not c.is_zero():
                                        yield (h,), -c

            return LeafForm(chart, 1, accumulate({}, pairs()))

        # all arguments are frame 1-forms; keys (s, t) are sorted by LeafForm
        def pairs():
            half = Fraction(1, 2)
            for sigma in permutations(range(k)):
                Y = self.y_matrix([forms[sigma[t]] for t in range(k - 2)])
                j1 = self.jG1(forms[sigma[k - 2]])
                j2 = self.jG1(forms[sigma[k - 1]])
                for al in range(self.n):
                    for be in range(self.n):
                        if Y[al][be].is_zero():
                            continue
                        for s in range(self.nleaf):
                            for t in range(self.nleaf):
                                if s == t:
                                    continue
                                c = (Y[al][be] * j1[s][al] * j2[t][be]).scale(half)
                                if not c.is_zero():
                                    yield (s, t), c

        return LeafForm(chart, 2, accumulate({}, pairs()))

    # -- transversal differential operators ----------------------------------------

    def d_G(self, omega: LeafForm):
        """The extension eps of the transversal de Rham differential d_G:
        returns {alpha: LeafForm} over the transverse coframe (du^a..., dz)."""
        chart = self.chart
        pieces = {al: [] for al in range(self.A + 1)}
        for key, c in omega.terms.items():
            jc = self.jG0(c)
            for al in pieces:
                pieces[al].append(LeafForm(chart, omega.degree, {key: jc[al + 1]}))
            # eps(e_K) = sum_j (-1)^{j-1} d_F(G^{i_j}_alpha) ^ e_{K minus j}
            for pos, i in enumerate(key):
                rest = LeafForm(chart, len(key) - 1, {key[:pos] + key[pos + 1 :]: c})
                for al in pieces:
                    dG = LeafForm(
                        chart,
                        1,
                        {
                            (h,): self.G_comp(al, i).partial(self._leaf_coord(h))
                            for h in range(self.nleaf)
                        },
                    )
                    if not dG.is_zero():
                        pieces[al].append(dG.wedge(rest).scale((-1) ** (pos % 2)))
        zero = LeafForm.zero(chart, omega.degree)
        return {al: zero.plus(p) for al, p in pieces.items()}

    def j1_G(self, omega: LeafForm):
        """The extension delta of the transversal jet prolongation:
        {alpha: LeafForm} over the frame (j, j^a..., j^circ); alpha = 0 is
        the j-component, 1..A the j^a block, A+1 the j^circ one.

        delta(omega) = omega (x) j + [d_G extension](omega) in the
        transverse slots, through the embedding N^*F (x) l -> J^1_perp l.
        """
        out = {0: omega}
        for al, form in self.d_G(omega).items():
            out[al + 1] = form
        return out

    def d_F(self, omega: LeafForm) -> LeafForm:
        return omega.d_leaf()
