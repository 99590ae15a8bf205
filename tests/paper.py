"""Constructions of the paper that no command-line task reaches.

The twelve tasks of ``coiso.cli`` are the library's only production
callers, so a construction without a task lives here, beside the tests
that check it, written on the library's public API:

* the Hamiltonian derivation Delta_lam of a Jacobi bi-derivation and its
  bi-symbol Lambda_J (multi-derivations);
* the Hamiltonian gauge direction and the extended brackets of
  simultaneous deformations of structure and submanifold (L-infinity);
* the graded bracket [[a, b]] of any two elements (the library takes only
  the square [[a, a]] of an odd one) and the graded symmetric product;
* the first contraction data (p, i_nabla, the weight splitting, H~ and
  H_nabla) of a connection in the ghost bundle, with the inverse
  from_graded of to_graded and the diagonal bidegree filtration, and the
  lift along a curved connection, which runs bfv.sbso along that
  filtration (the library lifts along the trivial connection only);
* the gauge ladder between MC elements by exp(ad_R), the BFV coisotropy
  residual, the lifting conditions of a lifted structure and the zero locus
  of a geometric MC element (BFV);
* the transversal differential d_G and the jet prolongation j^1_G
  (transversal engine).

Giving one of them a task would add a report, which is feature work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from coiso.ring import ChartError, PowerTable, ScalarFn, accumulate, dot, inverse_unit
from coiso.multivector import MultiVectorField
from coiso.multider import ArityError, MultiDerivation
from coiso.leafform import LeafForm
from coiso.geom import injection_I, projection_P
from coiso.linfty import DeformationError, MultibracketTable
from coiso.graded import (
    DX,
    DXI,
    DXIS,
    M,
    XI,
    XIS,
    ContractionTwo,
    GradedElement,
    GradedError,
    _check_cancelled,
    bidegree,
    decode,
    encode,
    jacobi_bracket,
    normalize,
    tautological_G,
    term_degree,
    to_graded,
)
from coiso.bfv import BFVError, Lift, sbso
from coiso.transversal import TransversalData


# ---------------------------------------------------------------------------
# Hamiltonians and the bi-symbol
# ---------------------------------------------------------------------------


def hamiltonian(j: MultiDerivation, lam: ScalarFn) -> MultiDerivation:
    """Delta_lam = -[[J, lam]] = {lam, -}, an arity-1 derivation; its
    p-part is the Hamiltonian vector field X_lam."""
    if j.arity != 2:
        raise ArityError("hamiltonian needs arity 2")
    return j.sj_bracket(MultiDerivation.function(lam)).scale(-1)


def bisymbol(j: MultiDerivation) -> MultiVectorField:
    """Lambda_J: in the trivialized case the p-part of J."""
    if j.arity != 2:
        raise ArityError("bisymbol needs arity 2")
    return j.p_part


# ---------------------------------------------------------------------------
# the gauge direction and the extended brackets
# ---------------------------------------------------------------------------


def exp_series(x: MultiDerivation, v: MultiDerivation, bound: int, start: int) -> LeafForm:
    """sum_{k >= start} (1/k!) P([[..[[x, v]].., v]]) with k brackets: the
    terms up to k = bound + 1, whose last must vanish."""
    terms = []
    for k in range(bound + 2):
        if k:
            x = x.sj_bracket(v)
        if k >= start:
            terms.append(projection_P(x).scale(Fraction(1, math.factorial(k))))
    if not terms[-1].is_zero():
        raise AssertionError("derived-bracket series failed to terminate")
    return terms[0].plus(terms[1:])


def delta_mc(table: MultibracketTable, s: LeafForm, lam: ScalarFn) -> LeafForm:
    """Hamiltonian gauge direction sum_k (1/k!) m_{k+1}(-s, ..., -s, lam).

    lam is base-only and I(-s) a fiber-constant vertical field, so
    [[I(-s), I(lam)]] = 0 and, by the graded Jacobi identity, ad_{I(-s)}
    commutes with ad_{I(lam)}: the series is that of [[J, I(lam)]]."""
    if not lam.is_base_only():
        raise DeformationError("gauge parameter must be base-only")
    minus = injection_I(-s)
    x = table.j.sj_bracket(injection_I(LeafForm.function(lam)))
    return exp_series(x, minus, table.series_bound(), 0)


def extended_n1(j: MultiDerivation, box: MultiDerivation, xi: LeafForm):
    """n_1(box, xi) = (-[[J, box]], P box + m_1 xi)."""
    first = j.sj_bracket(box).scale(-1)
    second = projection_P(box) + projection_P(j.sj_bracket(injection_I(xi)))
    return first, second


def extended_mc_residual(j: MultiDerivation, box: MultiDerivation, s: LeafForm):
    """The full extended MC residual of the geometric pair (box, s):

        ( -1/2 [[J + box, J + box]],  P(exp L_{I(s)} (J + box)) ).

    Both components vanish iff J + box is Jacobi and s is a coisotropic
    section for it; the corresponding formal MC element is (box, -s), so for
    box = 0 the second component is the ordinary series MC(-s).  I(s) has
    arity 1, so L_{I(s)} x = [[I(s), x]] = [[x, I(-s)]]."""
    total = j + box
    first = total.sj_bracket(total).scale(Fraction(-1, 2))
    minus = injection_I(-s)
    bound = max((f.fiber_degree() for f in total.terms.values()), default=0) + 2  # as in series_bound
    return first, exp_series(total, minus, bound, 0)


# ---------------------------------------------------------------------------
# the graded bracket and the graded symmetric product
# ---------------------------------------------------------------------------


def homogeneous_pieces(x: GradedElement) -> list:
    """The parts of x of each shifted degree."""
    by_deg = {}
    for word, f in x.terms.items():
        by_deg.setdefault(term_degree(word), {})[word] = f
    return [x._like(t) for t in by_deg.values()]


def graded_bracket(a: GradedElement, b: GradedElement) -> GradedElement:
    """The graded Schouten-Jacobi bracket [[a, b]] = a o b -+ b o a (+ when
    both degrees are odd), over the homogeneous pieces of a and b, from the
    library's Gerstenhaber product.

    The second-order words must cancel: the tallies are merged, a key
    (word, y, x) of b o a flipped to (word, x, y) with its count signed by
    the -+, as both stand for a.terms[x] * b.terms[y], and multiplied out
    by _check_cancelled, which raises on a surviving word."""

    def pieces():
        for pa in homogeneous_pieces(a):
            for pb in homogeneous_pieces(b):
                ab, tally = pa._compose(pb)
                ba, t_ba = pb._compose(pa)
                sign = 1 if pa.is_homogeneous_degree() * pb.is_homogeneous_degree() % 2 else -1
                for (word, y, x), n in t_ba.items():
                    tally[word, x, y] = tally.get((word, x, y), 0) + sign * n
                _check_cancelled(tally.items(), pa.terms, pb.terms)
                yield ab + ba if sign == 1 else ab - ba

    return a._like({}).plus(pieces())


def graded_product(a: GradedElement, b: GradedElement) -> GradedElement:
    """The graded symmetric product a b (the exterior product on ghost
    letters): each pair of words joined and normalized with its graded
    sign."""
    return a._sum((wa + wb, fa * fb) for wa, fa in a.terms.items() for wb, fb in b.terms.items())


# ---------------------------------------------------------------------------
# the first contraction data and the lift along a curved connection
# ---------------------------------------------------------------------------


def from_graded(op: GradedElement) -> MultiDerivation:
    """Inverse of to_graded on bidegree-(0,0) ghost-free words (the image of
    the projection p); other terms must be absent."""
    chart = op.chart
    words = []  # (number of m slots, dx indices, coefficient)
    for letters, f in op.terms.items():
        letters = decode(letters)
        if not all(l[0] in (M, DX) for l in letters):
            raise GradedError("from_graded needs a ghost-free operator")
        # m is odd, so a canonical word holds it at most once, first
        mcount = letters.count((M,))
        words.append((mcount, tuple(l[1] for l in letters[mcount:]), f))
    if not words:
        return MultiDerivation.zero(chart, 0)
    n = max(mcount + len(key) for mcount, key, _ in words)
    qsgn = (-1) ** (n % 2)
    p_terms = accumulate({}, ((key, f) for mcount, key, f in words if mcount == 0))
    q_terms = accumulate({}, ((key, f.scale(qsgn)) for mcount, key, f in words if mcount == 1))
    p = MultiVectorField(chart, n, p_terms)
    q = MultiVectorField(chart, n - 1, q_terms) if n > 0 else None
    return MultiDerivation.from_parts(p, q)


def diag_filtration(x: GradedElement) -> int:
    """Min over terms of the antighost bidegree entry k (the filtration of
    the lifting recursion on operators); 10^9 for 0."""
    degs = [bidegree(l)[1] for l in x.terms]
    return min(degs) if degs else 10 ** 9


class Connection:
    """DL-connection coefficients in the ghost bundle: Gamma_id[A][B] for the
    id direction and Gamma[i][A][B] per base coordinate; zero by default."""

    def __init__(self, chart, gamma_id=None, gamma=None):
        self.chart = chart
        zero = ScalarFn.zero(chart)
        self.gamma_id = gamma_id or [[zero] * chart.m for _ in range(chart.m)]
        self.gamma = gamma or {}

    def gamma_i(self, i):
        zero, m = ScalarFn.zero(self.chart), self.chart.m
        return self.gamma.get(i, [[zero] * m for _ in range(m)])


# An adapted word tags each slot letter (m or dx(i)) that stands for its
# i_nabla image.  The tag is bit 1 of the letter's code, which graded keeps
# clear in its own letters, so normalize sorts a tagged slot right after
# its plain letter, with the same parity.
_TAG = 2


def _canonical_sum(pairs) -> dict:
    """Sum (word, coefficient) pairs over their canonical words, each with
    its graded sign; words with a repeated odd letter and zeros dropped."""

    def signed():
        for word, f in pairs:
            sign, canon = normalize(word)
            if sign and not f.is_zero():
                yield canon, f if sign == 1 else -f

    return accumulate({}, signed())


class ContractionOne:
    """Contraction data from graded operators onto ungraded multiderivations
    determined by a connection: (p, i_nabla, H_nabla, weight)."""

    def __init__(self, chart, connection: Connection | None = None):
        self.chart = chart
        self.connection = connection or Connection(chart)
        self._images = {}  # slot letter -> its i_nabla image

    def _image(self, slot) -> GradedElement:
        """i_nabla of the slot letter m or dx(i): the slot plus the ghost
        rotation by its Gamma, less the ghost Euler field for the id slot."""
        if slot not in self._images:
            (letter,) = decode((slot,))
            if letter == (M,):
                gamma = self.connection.gamma_id
            elif letter[0] == DX:
                gamma = self.connection.gamma_i(letter[1])
            else:
                raise GradedError("i_nabla substitutes only mu* and base-derivative slots")
            one = ScalarFn.one(self.chart)
            terms = {(letter,): one}
            for A in range(self.chart.m):
                for B in range(self.chart.m):
                    rotation = gamma[A][B] - one if letter == (M,) and A == B else gamma[A][B]
                    terms[(XI, B), (DXI, A)] = rotation
                    terms[(XIS, B), (DXIS, A)] = -gamma[B][A]
            self._images[slot] = GradedElement(self.chart, terms)
        return self._images[slot]

    def i_nabla(self, sq: MultiDerivation) -> GradedElement:
        """i_nabla: substitute each slot symbol by its connection-corrected
        graded word; an algebra morphism on the symbol generators."""
        chart = self.chart

        def products():
            for letters, f in to_graded(sq).terms.items():
                prod = GradedElement.section(chart, f)
                for l in letters:
                    prod = graded_product(prod, self._image(l))
                yield prod

        return GradedElement.zero(chart).plus(products())

    def p(self, op: GradedElement) -> MultiDerivation:
        """Keep ghost-free bidegree-(0,0) words and read them as an ungraded
        multiderivation."""
        kept = {decode(l): f for l, f in op.terms.items() if all(M <= x < DXI for x in l)}
        return from_graded(GradedElement(self.chart, kept))

    # -- adapted basis, weight, homotopy --------------------------------------

    def _to_adapted(self, op: GradedElement) -> dict:
        """Rewrite wordwise so that weight counting sees the adapted slots:
        the first untagged slot l of a word becomes the tagged l, which
        stands for i_nabla(l), less the word with l replaced by each
        correction term of i_nabla(l), rewritten in turn.  Returns a dict
        from adapted words to coefficients, in which tagged slots have
        weight zero."""

        def expand(letters, f, acc):
            for pos, l in enumerate(letters):
                if M <= l < DXI and not l & _TAG:
                    acc.append((letters[:pos] + (l | _TAG,) + letters[pos + 1 :], f))
                    for cls, cf in self._image(l).terms.items():
                        if cls != (l,):
                            expand(letters[:pos] + cls + letters[pos + 1 :], -(f * cf), acc)
                    return
            acc.append((letters, f))

        acc = []
        for letters, f in op.terms.items():
            expand(letters, f, acc)
        return _canonical_sum(acc)

    def _from_adapted(self, adapted: dict) -> GradedElement:
        chart = self.chart
        one = ScalarFn.one(chart)

        def products():
            for letters, f in adapted.items():
                prod = GradedElement.section(chart, f)
                for l in letters:
                    if l & _TAG:
                        prod = graded_product(prod, self._image(l ^ _TAG))
                    else:
                        prod = graded_product(prod, GradedElement(chart, {decode((l,)): one}))
                yield prod

        return GradedElement.zero(chart).plus(products())

    def weight_split(self, op: GradedElement) -> dict:
        """Split into eigencomponents of the weight derivation, which counts
        the ghost letters and ghost derivatives of an adapted word."""
        buckets = {}
        for letters, f in self._to_adapted(op).items():
            w = sum(1 for l in letters if l < M or l >= DXI)
            buckets.setdefault(w, {})[letters] = f
        return {w: self._from_adapted(t) for w, t in buckets.items()}

    def H_tilde(self, op: GradedElement) -> GradedElement:
        """The odd derivation sending Dxi(A) -> xis_A and Dxis(A) -> xi^A in
        the adapted basis (zero on everything else)."""

        def pairs():
            for letters, f in self._to_adapted(op).items():
                for pos, l in enumerate(letters):
                    if l < DXI:
                        continue
                    repl = l - DXI + XIS if l < DXIS else l - DXIS + XI
                    # odd derivation: sign from passing the letters left of pos
                    reach = sum(x & 1 for x in letters[:pos])
                    yield letters[:pos] + (repl,) + letters[pos + 1 :], -f if reach & 1 else f

        return self._from_adapted(_canonical_sum(pairs()))

    def H(self, op: GradedElement) -> GradedElement:
        """H_nabla = -(1/k) H_tilde on the weight-k eigenspace, 0 on weight 0."""
        return GradedElement.zero(self.chart).plus(
            self.H_tilde(comp).scale(Fraction(-1, w))
            for w, comp in self.weight_split(op).items()
            if w
        )


class CurvedLift:
    """The lift of a Jacobi structure along a connection, with the
    attributes of bfv.Lift.  qbar = G + i_nabla(J) is the lift when it
    squares to zero.  Otherwise the flatness test decides: for a flat
    connection the lifting has failed, for a curved one bfv.sbso deforms
    qbar into an MC element along the diagonal bidegree filtration, and
    corrections lists what it added."""

    def __init__(self, j: MultiDerivation, connection: Connection | None = None):
        chart = j.chart
        self.chart = chart
        self.j = j
        self.c1 = ContractionOne(chart, connection)
        self.G = tautological_G(chart)
        qbar = self.G + self.c1.i_nabla(j)
        sq = qbar.bracket()
        if sq.is_zero():
            self.j_hat, self.corrections = qbar, []
        elif self.flat:
            raise AssertionError("flat lifting failed: [[J^, J^]] != 0")
        elif diag_filtration(sq) < 0:
            raise BFVError("[qbar, qbar] sits below the starting filtration level")
        else:
            # sbso squares (bracket(q, q)); its applicability square is sq
            zero = GradedElement.zero(chart)
            self.j_hat, self.corrections = sbso(
                lambda q, _: sq if q is qbar else q.bracket(),
                self.c1.H,
                lambda x: zero if self.c1.p(x).is_zero() else x,
                qbar,
            )

    def flatness_probes(self):
        """The structure and the first two coordinate derivations."""
        probes = [self.j]
        for i in range(min(self.chart.dim, 2)):
            probes.append(
                MultiDerivation.from_parts(MultiVectorField.basis_vector(self.chart, self.chart.coords[i]))
            )
        return probes

    @cached_property
    def flat(self) -> bool:
        """Whether the connection passes the flatness test: i_nabla is a
        bracket morphism on the probes.

        Each unordered pair is checked once, (a, a) included: both brackets
        are graded antisymmetric with one sign rule and i_nabla is linear
        and keeps degrees, so the pair (b, a) is -(-1)^{|a||b|} times the
        pair (a, b) on both sides."""
        probes = self.flatness_probes()
        images = [self.c1.i_nabla(a) for a in probes]
        for n, (a, ia) in enumerate(zip(probes, images)):
            for b, ib in zip(probes[n:], images[n:]):
                if not (graded_bracket(ia, ib) - self.c1.i_nabla(a.sj_bracket(b))).is_zero():
                    return False
        return True


# ---------------------------------------------------------------------------
# BFV: gauge ladder, coisotropy residual, lifting conditions, zero locus
# ---------------------------------------------------------------------------


def exp_ad(r, x, bracket, max_terms=16):
    """exp(ad_r) x = sum 1/k! ad_r^k x; finite by filtration."""
    out = x
    term = x
    for k in range(1, max_terms):
        term = bracket(r, term)
        if term.is_zero():
            return out
        out = out + term.scale(Fraction(1, math.factorial(k)))
    raise BFVError("exp(ad) failed to terminate")


def sbso_gauge(q0, q1, bracket, homotopy, filtration, max_steps=16):
    """Gauge ladder between MC elements agreeing to leading filtration
    order: a sequence of R with exp(ad_R) steps carrying q0 to q1."""
    if not bracket(q0, q0).is_zero() or not bracket(q1, q1).is_zero():
        raise BFVError("gauge ladder endpoints must be MC elements")
    ladder = []
    current = q0
    for _ in range(max_steps):
        diff = q1 - current
        if diff.is_zero():
            return ladder, current
        r = homotopy(diff)
        if r.is_zero():
            raise BFVError("gauge ladder stalled")
        ladder.append(r)
        current = exp_ad(r, current, bracket)
        if not bracket(current, current).is_zero():
            raise BFVError("gauge step failed to preserve the MC equation")
    raise BFVError("gauge ladder failed to terminate")


def pr(x: GradedElement, h: int, k: int) -> GradedElement:
    """The bidegree-(h, k) part of x."""
    return x._like({l: f for l, f in x.terms.items() if bidegree(l) == (h, k)})


def bfv_coisotropy_residual(lift: Lift, s: LeafForm) -> GradedElement:
    """{Omega_E[s], Omega_E[s]}_BFV."""
    om = ContractionTwo(s).omega_E()
    return jacobi_bracket(lift.j_hat, om, om)


def lifting_conditions_hold(lift: Lift, samples) -> bool:
    """pr(0,0) of the lifted bracket agrees with {-,-}_G on mixed
    ghost/antighost generators and with {-,-}_J on plain sections."""
    chart = lift.chart
    one = ScalarFn.one(chart)
    for A in range(chart.m):
        u = GradedElement(chart, {((XI, A),): one})
        for B in range(chart.m):
            al = GradedElement(chart, {((XIS, B),): one})
            lhs = pr(jacobi_bracket(lift.j_hat, u, al), 0, 0)
            rhs = pr(jacobi_bracket(lift.G, u, al), 0, 0)
            if not (lhs - rhs).is_zero():
                return False
    for f, g in samples:
        sf, sg = GradedElement.section(chart, f), GradedElement.section(chart, g)
        lhs = pr(jacobi_bracket(lift.j_hat, sf, sg), 0, 0)
        expected = GradedElement.section(chart, lift.j.apply([f, g]))
        if not (lhs - expected).is_zero():
            return False
    return True


def geometric_mc_zero_locus(omega: GradedElement, max_iter=12) -> LeafForm:
    """Solve pr(1,0) Omega = sum e_A(u, y) xi^A for the section graph
    y = g(u) with e_A(u, g(u)) = 0, as the normal section sum_A g_A delta_A.

    The linear-in-y part along y = 0 must be invertible (unit determinant);
    the solution is found by the exact Newton iteration, which terminates
    for graphs of polynomial sections.  Returns the section or raises
    BFVError with a structured message."""
    chart = omega.chart
    pr10 = pr(omega, 1, 0)
    e = [pr10.terms.get(encode(((XI, A),)), ScalarFn.zero(chart)) for A in range(chart.m)]
    # linear part L[A][B] = d e_A / d y_B |_{y=0}
    L = [
        [e[A].partial(chart.k + B).zero_mode(range(chart.k, chart.dim)) for B in range(chart.m)]
        for A in range(chart.m)
    ]
    try:
        L_inv = inverse_unit(chart, L)
    except ChartError as exc:
        raise BFVError(f"zero locus is not a section graph: {exc}") from None
    g = [ScalarFn.zero(chart) for _ in range(chart.m)]
    for _ in range(max_iter):
        powers = PowerTable(chart, g)
        vals = [eA.substitute_fiber(powers) for eA in e]
        if all(v.is_zero() for v in vals):
            return LeafForm.section(chart, g)
        g = [gA - dot(chart, row, vals) for gA, row in zip(g, L_inv)]
    raise BFVError("zero locus iteration failed: locus is not a polynomial section graph")


# ---------------------------------------------------------------------------
# transversal differential operators
# ---------------------------------------------------------------------------


def d_G(td: TransversalData, omega: LeafForm):
    """The extension eps of the transversal de Rham differential d_G:
    returns {alpha: LeafForm} over the transverse coframe (du^a..., dz)."""
    chart = td.chart
    pieces = {al: [] for al in range(td.A + 1)}
    for key, c in omega.terms.items():
        jc = td.jG0(c)
        for al in pieces:
            pieces[al].append(LeafForm(chart, omega.degree, {key: jc[al + 1]}))
        # eps(e_K) = sum_j (-1)^{j-1} d_F(G^{i_j}_alpha) ^ e_{K minus j}
        for pos, i in enumerate(key):
            rest = LeafForm(chart, len(key) - 1, {key[:pos] + key[pos + 1 :]: c})
            for al in pieces:
                dG = LeafForm.function(td.G_comp(al, i)).d_leaf()
                if not dG.is_zero():
                    pieces[al].append(dG.wedge(rest).scale((-1) ** (pos % 2)))
    zero = LeafForm.zero(chart, omega.degree)
    return {al: zero.plus(p) for al, p in pieces.items()}


def j1_G(td: TransversalData, omega: LeafForm):
    """The extension delta of the transversal jet prolongation:
    {alpha: LeafForm} over the frame (j, j^a..., j^circ); alpha = 0 is
    the j-component, 1..A the j^a block, A+1 the j^circ one.

    delta(omega) = omega (x) j + [d_G extension](omega) in the
    transverse slots, through the embedding N^*F (x) l -> J^1_perp l.
    """
    out = {0: omega}
    for al, form in d_G(td, omega).items():
        out[al + 1] = form
    return out
