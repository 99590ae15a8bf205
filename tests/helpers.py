"""Shared fixtures: the T^5 x R^2 contact chart and its Jacobi structure,
small random generators used by the algebraic property suites, and the
oracles and conveniences of the tests, which no command-line task needs
(the paper's constructions without a task are in paper.py)."""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations

from coiso.rational import GaussianRational
from coiso.ring import Chart, ScalarFn, accumulate, mat_mul, unit_inverse
from coiso.multivector import MultiVectorField
from coiso.multider import ArityError, MultiDerivation
from coiso.leafform import LeafForm
from coiso.geom import ContactChart, injection_I
from coiso.graded import DX, DXI, DXIS, M, PAIR, XI, XIS, GradedElement, GradedError, decode, encode

from paper import exp_series, graded_bracket, hamiltonian


def torus_chart():
    """T^5 x R^2 with leaf directions ph_1, ph_2."""
    return Chart(
        torus=("ph_1", "ph_2", "ph_3", "ph_4", "ph_5"),
        fiber=("y_1", "y_2"),
        leaf=("ph_1", "ph_2"),
    )


def fields_XY(chart):
    """X = cos(ph_3) d/dph_4 - sin(ph_3) d/dph_5,
    Y = sin(ph_3) d/dph_4 + cos(ph_3) d/dph_5 (the Reeb field)."""
    s3 = ScalarFn.sin_phi(chart, "ph_3")
    c3 = ScalarFn.cos_phi(chart, "ph_3")
    X = MultiVectorField.vector(chart, {"ph_4": c3, "ph_5": -s3})
    Y = MultiVectorField.vector(chart, {"ph_4": s3, "ph_5": c3})
    return X, Y


def torus_jacobi(chart=None) -> MultiDerivation:
    """The Jacobi structure of theta = y_1 dph_1 + y_2 dph_2 + sin(ph_3) dph_4
    + cos(ph_3) dph_5, written directly in its displayed (P, Q) form:
    P = dph_3 ^ X + Y ^ Euler - dph_1 ^ dy_1 - dph_2 ^ dy_2, Q = Y."""
    chart = chart or torus_chart()
    X, Y = fields_XY(chart)
    d3 = MultiVectorField.basis_vector(chart, "ph_3")
    euler = MultiVectorField.vector(
        chart,
        {"y_1": ScalarFn.y(chart, "y_1"), "y_2": ScalarFn.y(chart, "y_2")},
    )
    lam = d3.wedge(X) + Y.wedge(euler)
    for a in (1, 2):
        dphi = MultiVectorField.basis_vector(chart, f"ph_{a}")
        dy = MultiVectorField.basis_vector(chart, f"y_{a}")
        lam = lam - dphi.wedge(dy)
    return MultiDerivation.from_parts(lam, Y)


def jet_chart(b: int) -> Chart:
    """The 1-jet model J^1(T^b): fiber (z, p_1..p_b) over the torus base."""
    return Chart(
        torus=tuple(f"ph_{i + 1}" for i in range(b)),
        fiber=("z",) + tuple(f"p_{i + 1}" for i in range(b)),
        leaf=tuple(f"ph_{i + 1}" for i in range(b)),
    )


def jet_contact_chart(chart) -> ContactChart:
    """theta = dz - sum_i p_i dph_i on a jet chart, with the Reeb field d_z
    and the frame d_{p_i}, d_{ph_i} + p_i d_z of ker theta: the contact
    route through this frame is the oracle of the closed-form jet model."""
    z = chart.fiber[0]
    ps = chart.fiber[1:]
    dz = MultiVectorField.basis_vector(chart, z)
    theta = {z: ScalarFn.one(chart)}
    frame = [MultiVectorField.basis_vector(chart, p) for p in ps]
    for ph, p in zip(chart.torus, ps):
        theta[ph] = -ScalarFn.y(chart, p)
        frame.append(MultiVectorField.basis_vector(chart, ph) + dz.scale_fn(ScalarFn.y(chart, p)))
    return ContactChart(chart, theta, dz, frame)


def generator_postcondition(theta, J) -> bool:
    """theta(X_f) = f on the ring generators 1, y_a and exp(i ph_j), one
    Hamiltonian field each: the generator-by-generator form of the contact
    postcondition that geom.check_contact_jacobi reads off i_theta J = -id."""
    chart = J.chart
    gens = [ScalarFn.one(chart)]
    gens += [ScalarFn.y(chart, nm) for nm in chart.fiber]
    gens += [ScalarFn.exp_phi(chart, nm, 1) for nm in chart.torus]
    return all(theta.pair_vector(hamiltonian(J, f).p_part) == f for f in gens)


def nested_derived(j: MultiDerivation, args) -> MultiDerivation:
    """[[..[[j, I xi_1]].., I xi_k]] by a plain fold over the LeafForm args:
    the oracle of MultibracketTable.derived, which keeps its prefixes."""
    for xi in args:
        j = j.sj_bracket(injection_I(xi))
    return j


def exp_series_mc(table, s):
    """MC(-s) by the exponential series of ad_{I(-s)} on J, each order one
    bracket more than the last: the oracle of linfty.mc_series, which reads
    m_k(s, .., s) from the table and signs them by multilinearity."""
    minus = injection_I(-s)
    return exp_series(table.j, minus, table.series_bound(), 1)


def eval_nested(sq: MultiDerivation, fns) -> ScalarFn:
    """Iterated single brackets [[...[[sq, f_1]], ...]], f_n]].

    Differs from apply() by the sign (-1)^{n(n-1)/2} coming from the skew
    Gerstenhaber product; apply() is normalized so that apply([lam, mu]) =
    {lam, mu} for a Jacobi bi-derivation.  graded.to_graded is normalized
    so that iterated insertions reproduce these nested brackets."""
    out = sq
    for f in fns:
        out = out.sj_bracket(MultiDerivation.function(f))
    if out.degree != 0:
        raise ArityError("argument count does not match arity")
    return out.as_function()


def arity(word) -> int:
    """The number of symbol letters of a canonical int word (they come last)."""
    return len(word) - bisect_left(word, M)


def is_section(x: GradedElement) -> bool:
    """No term of x carries a symbol letter."""
    return not any(map(arity, x.terms))


def graded_eval(op: GradedElement, args) -> GradedElement:
    """op(a_1, .., a_n) on graded sections: each argument inserted in turn
    into the first slot; raises unless the result is a section."""
    for a in args:
        op = op.insert(a)
    if not is_section(op):
        raise GradedError("argument count does not match arity")
    return op


def jacobi_pair(j: MultiDerivation):
    """(Lambda, Gamma, report) with J = Lambda - Gamma ^ id.

    report['lie'] is L_Gamma Lambda = [[Gamma, Lambda]], report['mc'] is
    [[Lambda, Lambda]] + 2 Gamma ^ Lambda; the pair is a Jacobi pair iff
    both vanish, which is equivalent to is_jacobi()."""
    if j.degree != 2:
        raise ArityError("jacobi_pair needs arity 2")
    lam, gam = j.p_part, j.q_part
    lie = gam.sn_bracket(lam)
    mc = lam.sn_bracket(lam) + gam.wedge(lam).scale(2)
    return lam, gam, {"lie": lie, "mc": mc, "valid": lie.is_zero() and mc.is_zero()}


def leibniz_defect(a: MultiDerivation, f: ScalarFn, b: MultiDerivation) -> MultiDerivation:
    """[[a, f b]] - X_a(f) b - f [[a, b]] for a derivation a (arity 1)."""
    if a.degree != 1:
        raise ArityError("leibniz_defect supports arity-1 a only")
    whole = a.sj_bracket(b.scale_fn(f))
    return whole.plus([-b.scale_fn(a.p_part.apply([f])), -a.sj_bracket(b).scale_fn(f)])


def closed_apply(sq: MultiDerivation, fns) -> ScalarFn:
    """square(f_1, ..., f_n) = P(f..) + sum_i (-1)^{n-1-i} Q(f..^i) f_i on
    exactly n = arity functions: the (P, Q)-expansion, the oracle of
    MultiDerivation.apply."""
    fns = list(fns)
    out, q, n = sq.p_part.apply(fns), sq.q_part, sq.degree
    for i in range(1, n + 1):
        term = q.apply(fns[: i - 1] + fns[i:]) * fns[i - 1]
        out = out + term.scale((-1) ** ((n - 1 - i) % 2))
    return out


def closed_sj_bracket(a: MultiDerivation, b: MultiDerivation) -> MultiDerivation:
    """[[a, b]] by the closed (P, Q)-decomposition

        [[P - Q^id, P' - Q'^id]] = ( [[P,P']] - (-1)^{k'} k P^Q' + k' Q^P' )
            - ( [[P,Q']] + (-1)^{k'} [[Q,P']] - (k-k') Q^Q' ) ^ id

    with k = arity - 1, k' = arity' - 1 and [[-,-]] the Schouten-Nijenhuis
    bracket of multivector fields, a section having no Q: the oracle of
    MultiDerivation.sj_bracket, the twisted Schouten bracket of TM x R."""
    k, kp = a.degree - 1, b.degree - 1
    n_out = a.degree + b.degree - 1
    if n_out < 0:
        return MultiDerivation.zero(a.chart, 0)
    P, Q = a.p_part, (a.q_part if a.degree else None)
    Pp, Qp = b.p_part, (b.q_part if b.degree else None)

    new_p = P.sn_bracket(Pp)
    if Qp is not None and k != 0:
        new_p = new_p - P.wedge(Qp).scale(((-1) ** (kp % 2)) * k)
    if Q is not None and kp != 0:
        new_p = new_p + Q.wedge(Pp).scale(kp)
    if n_out == 0:
        return MultiDerivation.from_parts(new_p)

    new_q = MultiVectorField.zero(a.chart, n_out - 1)
    if Qp is not None:
        new_q = new_q + P.sn_bracket(Qp)
    if Q is not None:
        new_q = new_q + Q.sn_bracket(Pp).scale((-1) ** (kp % 2))
    if Q is not None and Qp is not None and k != kp:
        new_q = new_q - Q.wedge(Qp).scale(k - kp)
    return MultiDerivation.from_parts(new_p, new_q)


def i_then_p_defect(c1, op: GradedElement, d_G: GradedElement) -> GradedElement:
    """[d_G, H](op) - (i_nabla p - id)(op) for the first contraction data
    c1; zero by the contraction identities."""
    lhs = graded_bracket(d_G, c1.H(op)) + c1.H(graded_bracket(d_G, op))
    rhs = c1.i_nabla(c1.p(op)) - op
    return lhs - rhs


def antighost_filtration(x: GradedElement) -> int:
    """Min over terms of the antighost letter count (the filtration degree
    of the BRST recursion on sections); 10^9 for 0."""
    degs = [sum(1 for l in decode(word) if l[0] == XIS) for word in x.terms]
    return min(degs) if degs else 10 ** 9


def ghost(chart, A) -> GradedElement:
    """The ghost xi^A."""
    return GradedElement(chart, {((XI, A),): ScalarFn.one(chart)})


def antighost(chart, A) -> GradedElement:
    """The antighost xis_A."""
    return GradedElement(chart, {((XIS, A),): ScalarFn.one(chart)})


def scalar_from_json(chart, data) -> ScalarFn:
    """The inverse of expr.scalar_to_json."""
    terms = {}
    for item in data:
        key = tuple(item["torus"] + item["fiber"])
        terms[key] = GaussianRational(Fraction(item["re"]), Fraction(item["im"]))
    return ScalarFn(chart, terms)


# The generator formulas (coordinate corollary) of the multibrackets on the
# normal frame: oracles of MultibracketTable.m.  J = Lambda - Gamma ^ id with
# the families J^{ij} = P^{ij}, J^i = -Q^i, J^{ai} = -P^{ia}, J^a = -Q^a and
# J^{ab} = P^{ab} (i, j torus and a, b fiber indices, Lambda^{mu nu} =
# 2 J^{mu nu}).


def jet(f: ScalarFn, aa) -> ScalarFn:
    """d_aa f |_{y=0}: the fiber derivatives along the normal directions aa,
    restricted to the zero section."""
    for a in aa:
        f = f.partial(f.chart.k + a)
    return f.zero_mode(range(f.chart.k, f.chart.dim))


def gen_two_functions(table, aa, f: ScalarFn, g: ScalarFn) -> ScalarFn:
    """m_{k+1}(d_{a_1}, .., d_{a_{k-1}}, f mu, g mu) for constant normal
    directions aa: (-1)^k d_aa [2 J^{ij} d_i f d_j g - J^i (f d_i g - g d_i f)]|_0."""
    j, k = table.j, table.chart.k
    df = [f.partial(i) for i in range(k)]
    dg = [g.partial(i) for i in range(k)]
    inner = ScalarFn.zero(table.chart).plus(
        [J * (df[i] * dg[jj] - df[jj] * dg[i]) for (i, jj), J in j.p_part.terms.items() if jj < k]
        + [Q * (f * dg[i] - g * df[i]) for (i,), Q in j.q_part.terms.items() if i < k]
    )
    return jet(inner, aa).scale((-1) ** ((len(aa) + 1) % 2))


def gen_one_function(table, aa, f: ScalarFn) -> LeafForm:
    """m_{k+1}(d_{a_1}, .., d_{a_k}, f mu) = (-1)^k d_aa (2 J^{ai} d_i f
    + J^a f)|_0 d_a."""
    chart, j = table.chart, table.j
    k = chart.k
    inner = [ScalarFn.zero(chart) for _ in range(chart.m)]
    for (i, b), P in j.p_part.terms.items():
        if i < k <= b:
            inner[b - k] -= P * f.partial(i)
    for (b,), Q in j.q_part.terms.items():
        if b >= k:
            inner[b - k] -= Q * f
    sign = (-1) ** (len(aa) % 2)
    return LeafForm(chart, 1, {(a,): jet(g, aa).scale(sign) for a, g in enumerate(inner)})


def gen_no_function(table, aa) -> LeafForm:
    """m_{k+1}(d_{a_1}, .., d_{a_{k+1}}) = -(-1)^k d_aa J^{ab}|_0
    delta_a ^ delta_b (x) mu."""
    k = table.chart.k
    sign = -((-1) ** ((len(aa) - 1) % 2))
    return LeafForm(
        table.chart,
        2,
        {(a - k, b - k): jet(P, aa).scale(sign) for (a, b), P in table.j.p_part.terms.items() if a >= k},
    )


class TPoly:
    """Polynomial in an auxiliary parameter t with ScalarFn coefficients,
    with the exact integral over t in [0, 1]: the t-polynomial route that is
    the oracle of ScalarFn.substitute_fiber and ScalarFn.path_integral."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart, coeffs):
        self.chart = chart
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def const(f: ScalarFn) -> "TPoly":
        return TPoly(f.chart, [f])

    @staticmethod
    def t(chart) -> "TPoly":
        return TPoly(chart, [ScalarFn.zero(chart), ScalarFn.one(chart)])

    def __add__(self, other: "TPoly") -> "TPoly":
        zero = ScalarFn.zero(self.chart)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [zero] * (n - len(self.coeffs))
        b = other.coeffs + [zero] * (n - len(other.coeffs))
        return TPoly(self.chart, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return TPoly(self.chart, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        out = [ScalarFn.zero(self.chart) for _ in range(len(self.coeffs) + len(other.coeffs))]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(self.chart, out)

    def scale_fn(self, f: ScalarFn) -> "TPoly":
        return TPoly(self.chart, [c * f for c in self.coeffs])

    def at_zero_degree(self) -> ScalarFn:
        assert len(self.coeffs) <= 1, "expression still depends on the parameter t"
        return self.coeffs[0] if self.coeffs else ScalarFn.zero(self.chart)

    def integrate01(self) -> ScalarFn:
        return ScalarFn.zero(self.chart).plus(
            c.scale(Fraction(1, p + 1)) for p, c in enumerate(self.coeffs)
        )


def substitute_fiber_t(f: ScalarFn, assignment: dict) -> TPoly:
    """f with the fiber coordinates named in assignment replaced by TPoly
    expressions, term by term: c exp(i n.phi) y^alpha becomes the TPoly
    c * prod_a tp_a^alpha_a times the unsubstituted rest of the monomial."""
    chart = f.chart
    idx = {chart.index(name): tp for name, tp in assignment.items()}
    out = []  # terms of the coefficient of t^p, p = 0, 1, ...
    for e, c in f.terms.items():
        kept = list(e)
        factor = TPoly.const(ScalarFn.const(chart, c))
        for i, tp in idx.items():
            kept[i] = 0
            for _ in range(e[i]):
                factor = factor * tp
        base = ScalarFn(chart, {tuple(kept): 1})
        out += [{} for _ in range(len(factor.coeffs) - len(out))]
        for p, coeff in enumerate(factor.coeffs):
            accumulate(out[p], (coeff * base).terms.items())
    return TPoly(chart, [f._like(t) for t in out])


def random_scalar(chart, rng: random.Random, max_terms=2, freq=1, fiber_deg=1) -> ScalarFn:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = tuple(rng.randint(-freq, freq) for _ in range(chart.k))
        alpha = tuple(rng.randint(0, fiber_deg) for _ in range(chart.m))
        c = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
        terms[n + alpha] = c
    return ScalarFn(chart, terms)


def conjugate(f: ScalarFn) -> ScalarFn:
    """The complex conjugate: c exp(i n.phi) y^alpha -> conj(c) exp(-i n.phi) y^alpha."""
    k = f.chart.k
    terms = {tuple(-v for v in e[:k]) + e[k:]: GaussianRational(c.re, -c.im) for e, c in f.terms.items()}
    return ScalarFn(f.chart, terms)


def random_real_scalar(chart, rng, **kw) -> ScalarFn:
    f = random_scalar(chart, rng, **kw)
    return f + conjugate(f)


def random_base_scalar(chart, rng, max_terms=2, freq=1) -> ScalarFn:
    f = random_scalar(chart, rng, max_terms=max_terms, freq=freq, fiber_deg=0)
    return f


def random_mvf(chart, rng: random.Random, degree, **kw) -> MultiVectorField:
    keys = list(combinations(range(chart.dim), degree))
    terms = {}
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(keys)
        terms[key] = random_scalar(chart, rng, **kw)
    return MultiVectorField(chart, degree, terms)


def random_multider(chart, rng: random.Random, arity, **kw) -> MultiDerivation:
    p = random_mvf(chart, rng, arity, **kw)
    q = random_mvf(chart, rng, arity - 1, **kw) if arity > 0 else None
    return MultiDerivation.from_parts(p, q)


def random_unimodular(chart, rng: random.Random, n):
    """L U with L unit lower triangular and U upper triangular with unit
    monomials c exp(i k.phi) on the diagonal; off-diagonal entries are
    random (fiber-dependent) ScalarFns or zero."""
    zero = ScalarFn.zero(chart)

    def entry():
        return random_scalar(chart, rng, max_terms=1) if rng.random() < 0.5 else zero

    def unit():
        k = tuple(rng.randint(-1, 1) for _ in range(chart.k))
        c = GaussianRational(rng.choice([1, -1, 2, Fraction(1, 3)]), rng.randint(-1, 1))
        return ScalarFn(chart, {k + (0,) * chart.m: c})

    one = ScalarFn.one(chart)
    L = [[entry() if j < i else one if j == i else zero for j in range(n)] for i in range(n)]
    U = [[entry() if j > i else unit() if j == i else zero for j in range(n)] for i in range(n)]
    return mat_mul(chart, L, U)


def dense_curvature(cc):
    """theta([E_i, E_j]) for every ordered pair of the contact frame."""
    return [[cc.theta.pair_vector(E.sn_bracket(F)) for F in cc.frame] for E in cc.frame]


def _sign(perm) -> int:
    """(-1)^(number of inversions)."""
    return (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))


def leibniz_det(chart, M) -> ScalarFn:
    """det M = sum over permutations p of sign(p) prod_i M[i][p(i)]."""
    out = ScalarFn.zero(chart)
    for perm in permutations(range(len(M))):
        factors = [M[i][j] for i, j in enumerate(perm)]
        if any(f.is_zero() for f in factors):
            continue
        prod = ScalarFn.const(chart, _sign(perm))
        for f in factors:
            prod = prod * f
        out = out + prod
    return out


def cofactor_inverse(chart, M):
    """M^-1 = adj M / det M with every cofactor a Leibniz determinant:
    (M^-1)[i][j] = (-1)^(i+j) det(M without row j and column i) / det M."""
    n = len(M)
    det_inv = unit_inverse(leibniz_det(chart, M))
    return [
        [
            leibniz_det(
                chart, [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            ).scale((-1) ** (i + j))
            * det_inv
            for j in range(n)
        ]
        for i in range(n)
    ]


def leibniz_apply(P: MultiVectorField, fns) -> ScalarFn:
    """P(f_1, ..., f_d) by the determinant expansion over the slots of each
    key: sum over permutations p of sign(p) c prod_slot d_key[slot] f_p(slot)."""
    out = ScalarFn.zero(P.chart)
    for key, c in P.terms.items():
        for perm in permutations(range(P.degree)):
            prod = c.scale(_sign(perm))
            for slot, which in enumerate(perm):
                prod = prod * fns[which].partial(key[slot])
            out = out + prod
    return out


def dense_gerstenhaber(P: MultiVectorField, Q: MultiVectorField) -> MultiVectorField:
    """P o Q key by key: for every increasing key K of degree p + q - 1 and
    every unshuffle of K into (I, R) with |I| = q, add
    sign * d_i Q^I * P^{(i,) + R} over all coordinates i."""
    chart = P.chart
    p, q = P.degree, Q.degree
    deg = max(p + q - 1, 0)
    if p == 0:
        return MultiVectorField.zero(chart, deg)
    terms = {}
    for key in combinations(range(chart.dim), deg):
        acc = ScalarFn.zero(chart)
        for chosen in combinations(range(deg), q):
            rest = tuple(s for s in range(deg) if s not in chosen)
            inner = Q.coefficient(tuple(key[s] for s in chosen))
            outer = tuple(key[s] for s in rest)
            for i in range(chart.dim):
                acc = acc + (inner.partial(i) * P.coefficient((i,) + outer)).scale(
                    _sign(chosen + rest)
                )
        terms[key] = acc
    return MultiVectorField(chart, deg, terms)


def dense_sn_bracket(P: MultiVectorField, Q: MultiVectorField) -> MultiVectorField:
    """[[P, Q]] = (-1)^{kk'} P o Q - Q o P with k = deg P - 1, k' = deg Q - 1,
    both products taken by dense_gerstenhaber."""
    k, kp = P.degree - 1, Q.degree - 1
    return dense_gerstenhaber(P, Q).scale((-1) ** (k * kp)) - dense_gerstenhaber(Q, P)


# The graded oracles below work on tuple letters, (XI, A), (M,), (DX, i),
# (PAIR, a, b) and so on, with their own order, degrees and sort: they share
# no code with graded's int letter codes.
_ORDER = {XI: 0, XIS: 1, M: 2, DX: 3, DXI: 4, DXIS: 5, PAIR: 6}
_DEGREE = {XI: 1, XIS: -1, M: 1, DX: 1, DXI: 0, DXIS: 2}


def _letter_degree(letter) -> int:
    if letter[0] == PAIR:
        return _letter_degree(letter[1]) + _letter_degree(letter[2]) - 1
    return _DEGREE[letter[0]]


def _is_symbol(letter) -> bool:
    return letter[0] not in (XI, XIS)


def _untwisted_parity(letter) -> int:
    """d/dx even, d/dtheta and d/dtheta* odd."""
    return 1 if letter[0] in (DXI, DXIS) else 0


def _sort_key(letter):
    return (_ORDER[letter[0]],) + tuple(x if isinstance(x, int) else str(x) for x in letter[1:])


def dense_term_degree(letters) -> int:
    return sum(_letter_degree(l) for l in letters) - 1


def dense_normalize(letters):
    """Sort tuple letters into canonical order (kind, then index) by
    insertion, counting graded transpositions; returns (sign, tuple) with
    sign 0 when an odd letter repeats."""
    entries = [(_sort_key(l), _letter_degree(l) % 2, l) for l in letters]
    sign = 1
    for i in range(1, len(entries)):
        cur = entries[i]
        j = i
        while j > 0 and entries[j - 1][0] > cur[0]:
            if cur[1] and entries[j - 1][1]:
                sign = -sign
            entries[j] = entries[j - 1]
            j -= 1
        entries[j] = cur
    out = tuple(e[2] for e in entries)
    for i in range(1, len(entries)):
        if entries[i][1] and out[i - 1] == out[i]:
            return 0, out
    return sign, out


def _dense_compose_symbols(s, sp):
    """Ordered composite s o sp of two symbol letters as (letter, sign):
    s itself when sp is m, None for an odd derivative squared, else the
    PAIR of the two in canonical order, signed by the commutation of the
    underlying derivatives."""
    if sp[0] == M:
        return s, 1
    if s == sp and _untwisted_parity(s):
        return None, 1
    if _sort_key(s) > _sort_key(sp):
        return (PAIR, sp, s), -1 if _untwisted_parity(s) and _untwisted_parity(sp) else 1
    return (PAIR, s, sp), 1


def _dense_act(symbol, letters, f):
    """One basic symbol applied to a section term (letters, f): a list of
    (sign, letters, ScalarFn)."""
    if symbol[0] == M:
        return [(1, letters, f)]
    if symbol[0] == DX:
        df = f.partial(symbol[1])
        return [] if df.is_zero() else [(1, letters, df)]
    target = (XI if symbol[0] == DXI else XIS, symbol[1])
    for pos, l in enumerate(letters):
        if l == target:
            return [((-1) ** pos, letters[:pos] + letters[pos + 1 :], f)]
    return []


def _decoded(x):
    """(tuple-letter word, coefficient) of each term of a GradedElement."""
    return [(decode(word), f) for word, f in x.terms.items()]


def _dense_sum(like, pairs):
    """The element of like's shape summing (tuple-letter word, ScalarFn)
    pairs, each word normalized with its graded sign by dense_normalize."""
    out = {}
    for letters, f in pairs:
        sign, canon = dense_normalize(letters)
        if sign:
            accumulate(out, [(canon, f if sign == 1 else -f)])
    return GradedElement(like.chart, out)


def dense_compose(a, b):
    """a o b with every composite multiplied out, the second-order words
    kept as PAIR letters: for each symbol s of an a word and each b term,
    s acts on the b term's coefficient and ghost letters, and a derivative
    s composes with each symbol of the b word, reaching past the letters
    left of it with the untwisted parity of s."""

    def pairs():
        for letters, c in _decoded(a):
            for ol, oc in _decoded(b):
                ghost = tuple(l for l in ol if not _is_symbol(l))
                syms = tuple(l for l in ol if _is_symbol(l))
                for p, s in enumerate(letters):
                    if not _is_symbol(s):
                        continue
                    travel = sum(_letter_degree(l) for l in letters[p + 1 :])
                    sign0 = (-1) ** (dense_term_degree(ol) * travel % 2)
                    left, right = letters[:p], letters[p + 1 :]
                    for sa, res_letters, res_f in _dense_act(s, ghost, oc):
                        yield left + res_letters + syms + right, (c * res_f).scale(sign0 * sa)
                    if s[0] == M:
                        continue
                    reach = sum(_letter_degree(x) for x in ghost)
                    for idx, sp in enumerate(syms):
                        twist = (-1) ** (reach * _untwisted_parity(s) % 2)
                        comp, csign = _dense_compose_symbols(s, sp)
                        if comp is not None:
                            word = left + ghost + syms[:idx] + (comp,) + syms[idx + 1 :] + right
                            yield word, (c * oc).scale(sign0 * twist * csign)
                        reach += _letter_degree(sp)

    return _dense_sum(a, pairs())


def dense_insert(op, lam):
    """[[op, lam]] for a graded section lam by the insertion loop: lam
    enters each word from the right and moves left to a symbol, passing
    its letters with lam's shifted degree."""

    def pairs():
        for letters, c in _decoded(op):
            for al, b in _decoded(lam):
                for p, s in enumerate(letters):
                    if not _is_symbol(s):
                        continue
                    travel = sum(_letter_degree(l) for l in letters[p + 1 :])
                    sign0 = (-1) ** (dense_term_degree(al) * travel % 2)
                    for sa, res_letters, res_f in _dense_act(s, al, b):
                        yield letters[:p] + res_letters + letters[p + 1 :], (c * res_f).scale(sign0 * sa)

    return _dense_sum(op, pairs())


# ---------------------------------------------------------------------------
# the general routes of the HPL kernels, as oracles
# ---------------------------------------------------------------------------


def integrate_then_normalize_h(c2, lam: GradedElement) -> GradedElement:
    """h[s] of the ContractionTwo c2 by the route partial -> path_integral
    -> normalize: P_A is integrated for every A along which a coefficient
    depends on y_A, signed by -(-1)^{letter degrees}, and only then is the
    word w xis_A sorted (and dropped if xis_A repeats)."""
    chart = c2.chart

    def pairs():
        for letters, f in lam.terms.items():
            nxis = sum(1 for x in letters if XIS <= x < M)
            sign = 1 if sum(x & 1 for x in letters) & 1 else -1
            for A in range(chart.m):
                i = chart.k + A
                if f.mask >> i & 1:
                    p_a = f.partial(i).path_integral(c2.powers, nxis)
                    yield letters + encode(((XIS, A),)), p_a.scale(sign)

    return lam._sum(pairs())


def summed_series_homotopy_projection(pert, y):
    """(h s, wp s) for the series s = (1 - delta h)^{-1} y of the
    PerturbedContraction pert, with h applied once more to the summed s."""
    h, delta = pert.base.h, pert.delta
    s = term = y
    for _ in range(16):
        term = delta(h(term))
        if term.is_zero():
            return h(s), pert.base.wp(s)
        s = s + term
    raise AssertionError("perturbation series failed to terminate")
