"""The L-infinity[1]-algebra of the zero-section coisotropic submanifold.

Multibrackets come from higher derived brackets

    m_k(xi_1, ..., xi_k) = P [[ ... [[J, I(xi_1)]], ... ]], I(xi_k)]]

and are stored through the MultibracketTable: the restricted fiber jets of
the five component families of J (J^{ab}, J^{ai}, J^{ij}, J^a, J^i in the
splitting base/fiber).  Evaluation rebuilds the fiberwise Taylor expansion
from the jets -- exact for the fiberwise-polynomial structures this library
works with -- and expands the nested brackets by multilinearity and the
Leibniz rule of the Schouten-Jacobi calculus.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .ring import Chart, ScalarFn
from .multivector import MultiVectorField
from .multider import MultiDerivation
from .leafform import LeafForm, SectionOfNormalBundle
from .geom import injection_I, projection_P


class DeformationError(ValueError):
    pass


def _multi_indices(m, order):
    """All fiber multi-indices of the given total order."""
    if order == 0:
        yield (0,) * m
        return
    for idx in combinations(range(order + m - 1), m - 1):
        beta = []
        prev = -1
        for x in idx + (order + m - 1,):
            beta.append(x - prev - 1)
            prev = x
        yield tuple(beta)


def _jets_of(f: ScalarFn):
    """All fiber jets d^beta_y f|_{y=0} of a polynomial ScalarFn, as
    {beta: base-only ScalarFn}; finite because f is fiberwise polynomial."""
    chart = f.chart
    out = {}
    for order in range(f.fiber_degree() + 1):
        for beta in _multi_indices(chart.m, order):
            g = f
            for a, p in enumerate(beta):
                for _ in range(p):
                    g = g.partial(chart.fiber[a])
            g = g.restrict_zero_section()
            if not g.is_zero():
                out[beta] = g
    return out


def _taylor_from_jets(chart: Chart, jets) -> ScalarFn:
    def terms():
        for beta, g in jets.items():
            coeff = Fraction(1)
            mono = ScalarFn.one(chart)
            for a, p in enumerate(beta):
                coeff /= math.factorial(p)
                if p:
                    mono = mono * ScalarFn.y(chart, chart.fiber[a], p)
            yield (g * mono).scale(coeff)

    return ScalarFn.zero(chart).plus(terms())


class MultibracketTable:
    """Restricted jets of the J-components; the generator values of every
    multibracket m_k are determined by these exactly."""

    def __init__(self, j: MultiDerivation):
        if j.arity != 2:
            raise DeformationError("multibracket extraction needs a bi-derivation")
        if not j.is_jacobi():
            raise DeformationError("multibracket extraction needs a Jacobi structure")
        chart = j.chart
        self.chart = chart
        k = chart.k
        # families of Lambda = p-part: keys over chart indices, J^{key} with
        # the Einstein normalization Lambda^{mu nu} = 2 J^{mu nu}
        self.jets = {}
        for (mu, nu), f in j.p_part.terms.items():
            if mu >= k and nu >= k:
                fam, key = "ab", (mu - k, nu - k)
            elif mu < k and nu >= k:
                fam, key = "ai", (nu - k, mu)
            elif mu < k and nu < k:
                fam, key = "ij", (mu, nu)
            else:
                raise AssertionError("unsorted multivector key")
            coeff = f if fam != "ai" else -f  # Lambda^{mu,a} = -Lambda^{a,mu}
            self.jets[(fam, key)] = _jets_of(coeff)
        for (mu,), f in j.q_part.terms.items():
            # J^alpha nabla_alpha ^ id = -Gamma ^ id
            fam, key = ("a", (mu - k,)) if mu >= k else ("i", (mu,))
            self.jets[(fam, key)] = _jets_of(-f)
        self.max_jet_order = max(
            (max((sum(b) for b in jets), default=0) for jets in self.jets.values()),
            default=0,
        )
        self._reconstructed = None

    # -- reconstruction -----------------------------------------------------

    def component(self, fam, key) -> ScalarFn:
        jets = self.jets.get((fam, key))
        if not jets:
            return ScalarFn.zero(self.chart)
        return _taylor_from_jets(self.chart, jets)

    def reconstruct(self) -> MultiDerivation:
        """The fiberwise Taylor expansion of J rebuilt from the stored jets."""
        if self._reconstructed is not None:
            return self._reconstructed
        chart = self.chart
        k = chart.k
        lam_terms = {}
        q_terms = {}
        for (fam, key), jets in self.jets.items():
            f = _taylor_from_jets(chart, jets)
            if fam == "ab":
                lam_terms[(key[0] + k, key[1] + k)] = f
            elif fam == "ai":
                lam_terms[(key[1], key[0] + k)] = -f
            elif fam == "ij":
                lam_terms[key] = f
            elif fam == "a":
                q_terms[(key[0] + k,)] = -f
            elif fam == "i":
                q_terms[key] = -f
        self._reconstructed = MultiDerivation(
            MultiVectorField(chart, 2, lam_terms), MultiVectorField(chart, 1, q_terms)
        )
        return self._reconstructed

    # -- evaluation ----------------------------------------------------------

    def m(self, args) -> LeafForm:
        """m_k on LeafForm arguments via the derived-bracket expansion of the
        reconstructed structure."""
        current = self.reconstruct()
        for xi in args:
            current = current.sj_bracket(injection_I(xi))
        return projection_P(current)

    def m_sections(self, sections) -> LeafForm:
        return self.m([s.to_leafform() for s in sections])

    def m1(self, omega: LeafForm) -> LeafForm:
        return self.m([omega])

    def series_bound(self) -> int:
        """All m_k with k > series_bound() vanish on degree <= 1 arguments."""
        return self.max_jet_order + 2

    # -- generator formulas (coordinate corollary) --------------------------------

    def gen_two_functions(self, aa, f: ScalarFn, g: ScalarFn) -> ScalarFn:
        """m_{k+1}(d_{a_1}, .., d_{a_{k-1}}, f mu, g mu) for constant normal
        directions aa: (-1)^k d_aa [2 J^{ij} d_i f d_j g - J^i (f d_i g - g d_i f)]|_0."""
        chart = self.chart
        k = len(aa) + 1
        inner = ScalarFn.zero(chart)
        for (fam, key), _ in self.jets.items():
            if fam == "ij":
                i, j = key
                Jij = self.component(fam, key)  # = Lambda^{ij}/... full skew entry
                di, dj = chart.coords[i], chart.coords[j]
                inner = inner + Jij * (
                    f.partial(di) * g.partial(dj) - f.partial(dj) * g.partial(di)
                )
            elif fam == "i":
                (i,) = key
                Ji = self.component(fam, key)
                di = chart.coords[i]
                inner = inner - Ji * (f * g.partial(di) - g * f.partial(di))
        for a in aa:
            inner = inner.partial(chart.fiber[a])
        return inner.restrict_zero_section().scale((-1) ** (k % 2))

    def gen_one_function(self, aa, f: ScalarFn) -> LeafForm:
        """m_{k+1}(d_{a_1}, .., d_{a_k}, f mu) = (-1)^k d_aa (2 J^{ai} d_i f
        + J^a f)|_0 d_a."""
        chart = self.chart
        k = len(aa)
        out = {}
        for a in range(chart.m):
            inner = ScalarFn.zero(chart)
            for (fam, key), _ in self.jets.items():
                if fam == "ai" and key[0] == a:
                    i = key[1]
                    inner = inner + self.component(fam, key) * f.partial(chart.coords[i])
                elif fam == "a" and key[0] == a:
                    inner = inner + self.component(fam, key) * f
            for b in aa:
                inner = inner.partial(chart.fiber[b])
            out[(a,)] = inner.restrict_zero_section().scale((-1) ** (k % 2))
        return LeafForm(chart, 1, out)

    def gen_no_function(self, aa) -> LeafForm:
        """m_{k+1}(d_{a_1}, .., d_{a_{k+1}}) = -(-1)^k d_aa J^{ab}|_0
        delta_a ^ delta_b (x) mu."""
        chart = self.chart
        k = len(aa) - 1
        out = {}
        for (fam, key), _ in self.jets.items():
            if fam != "ab":
                continue
            inner = self.component(fam, key)
            for c in aa:
                inner = inner.partial(chart.fiber[c])
            out[key] = inner.restrict_zero_section().scale(-((-1) ** (k % 2)))
        return LeafForm(chart, 2, out)


def extract_multibrackets(j: MultiDerivation) -> MultibracketTable:
    return MultibracketTable(j)


# ---------------------------------------------------------------------------
# leafwise homotopy: solving d_F eta = omega
# ---------------------------------------------------------------------------


def solve_dF(omega: LeafForm):
    """Return ('solved', eta) with d_F eta = omega when the leaf-torus zero
    mode of omega vanishes, else ('obstructed', Pi_0 omega).  omega must be
    d_F closed."""
    if not omega.d_leaf().is_zero():
        raise DeformationError("solve_dF requires a d_F-closed form")
    obstruction = omega.leaf_zero_mode()
    if not obstruction.is_zero():
        return "obstructed", obstruction
    eta = omega.homotopy_K()
    if eta.d_leaf() != omega:
        raise AssertionError("homotopy identity violated")  # pragma: no cover
    return "solved", eta


# ---------------------------------------------------------------------------
# Maurer-Cartan series, Kuranishi map, formal prolongation
# ---------------------------------------------------------------------------


def mc_series(table: MultibracketTable, s: SectionOfNormalBundle) -> LeafForm:
    """MC(-s) = sum_k (1/k!) m_k(-s, ..., -s); finite for fiberwise
    polynomial structures."""
    chart = table.chart
    minus = injection_I((-s).to_leafform())
    out = LeafForm.zero(chart, 2)
    current = table.reconstruct()
    bound = table.series_bound()
    for k in range(1, bound + 2):
        current = current.sj_bracket(minus)
        term = projection_P(current)
        if k > bound and not term.is_zero():  # pragma: no cover
            raise AssertionError("MC series failed to terminate")
        if term.degree != 2:
            raise AssertionError("MC series terms must have degree 2")
        out = out + term.scale(Fraction(1, math.factorial(k)))
    return out


def kuranishi(table: MultibracketTable, s: SectionOfNormalBundle):
    """The Kuranishi class of an infinitesimal deformation.

    Returns (m2(s, s), obstruction) where the obstruction report is the
    leaf-torus zero mode of the order-2 prolongation obstruction
    (1/2) m_2(s, s), together with its symbolic (2 pi)^d factor.
    """
    sform = s.to_leafform()
    if not table.m1(sform).is_zero():
        raise DeformationError("kuranishi requires an infinitesimal deformation")
    kr = table.m([sform, sform])
    rhs2 = kr.scale(Fraction(1, 2))
    obstruction = rhs2.leaf_zero_mode()
    return kr, ObstructionReport(obstruction, len(table.chart.leaf))


class ObstructionReport:
    """Zero-mode representative of a prolongation obstruction with its
    exact (2 pi)^power factor."""

    __slots__ = ("zero_mode", "two_pi_power")

    def __init__(self, zero_mode: LeafForm, two_pi_power: int):
        self.zero_mode = zero_mode
        self.two_pi_power = two_pi_power

    def is_zero(self) -> bool:
        return self.zero_mode.is_zero()

    def __repr__(self):
        return f"ObstructionReport({self.zero_mode!r}, (2*pi)^{self.two_pi_power})"


class FormalDeformation:
    """Truncated formal series s(eps) = sum_{i=1}^{order} eps^i s_i."""

    __slots__ = ("order", "coefficients")

    def __init__(self, order: int, coefficients):
        self.order = order
        self.coefficients = list(coefficients)
        if len(self.coefficients) != order:
            raise DeformationError("need exactly `order` coefficients")


def _partitions(total, largest):
    """Non-increasing tuples of positive integers <= largest summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def prolong_formal(table: MultibracketTable, s1: SectionOfNormalBundle, order: int, history=None):
    """Solve the MC hierarchy order by order with the torus homotopy.

    The order-k right-hand side is sum_h (-1)^h / h! sum m_h(s_{p_1}, ..,
    s_{p_h}) over the compositions (p_1, .., p_h) of k with h >= 2.  The
    I(s_p) are fiber-constant vertical fields, so they commute, and the
    derived brackets [[..[[J, I s_{p_1}]].., I s_{p_h}]] are symmetric in
    their arguments.  The sum therefore runs over the partitions of k into
    parts < k, each taken once in non-increasing order with the weight
    (-1)^h / prod_j m_j!, m_j the multiplicity of the part j: the
    h! / prod_j m_j! orderings of a partition are the same bracket.  The
    nested brackets are kept for the length of the call, keyed by their
    non-increasing prefix, so orders share them.

    Returns ('prolonged', FormalDeformation) on success, or
    ('obstructed', k, ObstructionReport) at the first order k whose
    right-hand side has a nonzero leaf zero mode.  When a list is passed as
    `history`, one entry per order k is appended:
    {order_k, rhs, obstruction_zero_mode, two_pi_power, solved}.
    """
    chart = table.chart
    if not table.m1(s1.to_leafform()).is_zero():
        raise DeformationError("s1 is not an infinitesimal deformation")
    coeffs = [s1]
    nested = {(): table.reconstruct()}

    def bracket(parts):
        out = nested.get(parts)
        if out is None:
            lifted = injection_I(coeffs[parts[-1] - 1].to_leafform())
            out = nested[parts] = bracket(parts[:-1]).sj_bracket(lifted)
        return out

    def weight(parts):
        den = math.prod(math.factorial(parts.count(p)) for p in set(parts))
        return Fraction((-1) ** len(parts), den)

    for k in range(2, order + 1):
        rhs = LeafForm.zero(chart, 2).plus(
            projection_P(bracket(parts)).scale(weight(parts))
            for parts in _partitions(k, k - 1)
        )
        status, payload = solve_dF(rhs)
        if history is not None:
            history.append(
                {
                    "order_k": k,
                    "rhs": rhs,
                    "obstruction_zero_mode": rhs.leaf_zero_mode(),
                    "two_pi_power": len(chart.leaf),
                    "solved": status == "solved",
                }
            )
        if status == "obstructed":
            return "obstructed", k, ObstructionReport(payload, len(chart.leaf))
        sk = SectionOfNormalBundle.from_leafform(payload)
        coeffs.append(sk)
    return "prolonged", FormalDeformation(order, coeffs)


def delta_mc(table: MultibracketTable, s: SectionOfNormalBundle, lam: ScalarFn) -> LeafForm:
    """Hamiltonian gauge direction sum_k (1/k!) m_{k+1}(-s, ..., -s, lam)."""
    if not lam.is_base_only():
        raise DeformationError("gauge parameter must be base-only")
    chart = table.chart
    minus = injection_I((-s).to_leafform())
    lam_arg = injection_I(LeafForm.function(lam))
    out = LeafForm.zero(chart, 1)
    current = table.reconstruct()
    bound = table.series_bound()
    for k in range(0, bound + 2):
        term = projection_P(current.sj_bracket(lam_arg))
        if k > bound and not term.is_zero():  # pragma: no cover
            raise AssertionError("delta MC series failed to terminate")
        out = out + term.scale(Fraction(1, math.factorial(k)))
        current = current.sj_bracket(minus)
    return out


# ---------------------------------------------------------------------------
# extended (simultaneous-deformation) brackets
# ---------------------------------------------------------------------------


def extended_n1(j: MultiDerivation, box: MultiDerivation, xi: LeafForm):
    """n_1(box, xi) = (-[[J, box]], P box + m_1 xi)."""
    first = j.sj_bracket(box).scale(-1)
    table_m1 = projection_P(j.sj_bracket(injection_I(xi)))
    second = projection_P(box) + table_m1
    return first, second


def extended_mc_residual(j: MultiDerivation, box: MultiDerivation, s: SectionOfNormalBundle):
    """The full extended MC residual of the geometric pair (box, s):

        ( -1/2 [[J + box, J + box]],  P(exp L_{I(s)} (J + box)) ).

    Both components vanish iff J + box is Jacobi and s is a coisotropic
    section for it; the corresponding formal MC element is (box, -s), so for
    box = 0 the second component is the ordinary series MC(-s)."""
    total = j + box
    first = total.sj_bracket(total).scale(Fraction(-1, 2))
    flow = injection_I(s.to_leafform())
    chart = j.chart
    second = LeafForm.zero(chart, 2)
    current = total
    bound = (
        max(
            (f.fiber_degree() for f in list(total.p_part.terms.values())
             + list(total.q_part.terms.values())),
            default=0,
        )
        + 2
    )
    for k in range(0, bound + 2):
        term = projection_P(current)
        if k > bound and not term.is_zero():  # pragma: no cover
            raise AssertionError("extended MC series failed to terminate")
        second = second + term.scale(Fraction(1, math.factorial(k)))
        current = flow.sj_bracket(current)
    return first, second
