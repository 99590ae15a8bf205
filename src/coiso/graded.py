"""Ghost/antighost calculus: graded sections, graded symmetric
multi-derivations in the basic-symbol word basis, the graded Schouten-Jacobi
bracket, the tautological bracket G, and both contraction-data families.

Everything is written in one letter algebra.  A term is a Gaussian-rational
ScalarFn coefficient together with an ordered tuple of letters:

    ghost letters   xi(A)  [degree +1]   and  xis(A)  [degree -1],
    symbol letters  m      [degree +1]   (the mu*-slot, i.e. id),
                    dx(i)  [degree +1]   (base-coordinate derivative),
                    dxi(A) [degree  0]   (ghost derivative),
                    dxis(A)[degree +2]   (antighost derivative).

Degrees are the shifted (decalage) ones, so m and dx are odd while dxi and
dxis are even.  Every sign in the module is produced by counting
transpositions of these graded letters during normalization; no sign is
ever taken from a formula table.  The one free global convention (arguments
enter a word from the right) is pinned by requiring G(u, alpha) = alpha(u)
with positive sign; the test suite asserts this together with the local
tables of d_G, p, i_nabla and the worked example's BFV operator.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Chart, ScalarFn, SparseTerms, accumulate
from .multivector import MultiVectorField
from .multider import MultiDerivation
from .leafform import SectionOfNormalBundle


class GradedError(ValueError):
    pass


# letter kinds
XI, XIS, M, DX, DXI, DXIS, PAIR = "xi", "xis", "m", "dx", "dxi", "dxis", "pair"

_SYMBOL_KINDS = (M, DX, DXI, DXIS, PAIR)
_ORDER = {XI: 0, XIS: 1, M: 2, DX: 3, DXI: 4, DXIS: 5, PAIR: 6}
_DEGREE = {XI: 1, XIS: -1, M: 1, DX: 1, DXI: 0, DXIS: 2}


def letter_degree(letter) -> int:
    kind = letter[0]
    if kind == PAIR:
        return letter_degree(letter[1]) + letter_degree(letter[2]) - 1
    if kind not in _DEGREE:
        raise GradedError(f"unknown letter {letter!r}")
    return _DEGREE[kind]


def is_symbol(letter) -> bool:
    return letter[0] in _SYMBOL_KINDS


# letter -> (sort key, parity, letter), filled on first sight of a letter;
# bounded by the alphabet (letter kinds x indices, and the PAIR composites
# of two symbols)
_LETTERS = {}


def _tabulate(letter):
    entry = _LETTERS[letter] = (_key(letter), letter_degree(letter) % 2, letter)
    return entry


def _sort_key(letter):
    return (_LETTERS.get(letter) or _tabulate(letter))[0]


def _key(letter):
    return (_ORDER[letter[0]],) + tuple(
        x if isinstance(x, int) else str(x) for x in letter[1:]
    )


def normalize(letters):
    """Sort a letter tuple into canonical order, counting graded
    transpositions; returns (sign, tuple) with sign 0 when an odd letter
    repeats.  Each letter's sort key and parity is read once, from
    _LETTERS."""
    get = _LETTERS.get
    entries = [get(l) or _tabulate(l) for l in letters]
    sign = 1
    n = len(entries)
    for i in range(1, n):
        cur = entries[i]
        key, odd = cur[0], cur[1]
        j = i
        while j > 0 and entries[j - 1][0] > key:
            if odd and entries[j - 1][1]:
                sign = -sign
            entries[j] = entries[j - 1]
            j -= 1
        entries[j] = cur
    out = tuple(e[2] for e in entries)
    for i in range(1, n):
        if entries[i][1] and out[i - 1] == out[i]:
            return 0, out
    return sign, out


def term_degree(letters) -> int:
    """Total shifted degree of a term: letter degrees plus the -1 of the
    ubiquitous mu coefficient."""
    return sum(letter_degree(l) for l in letters) - 1


_BIDEGREE = {XI: (1, 0), XIS: (0, 1), DXI: (-1, 0), DXIS: (0, -1)}


def bidegree(letters):
    h = k = 0
    for l in letters:
        dh, dk = _BIDEGREE.get(l[0], (0, 0))
        h, k = h + dh, k + dk
    return h, k


def arity(letters) -> int:
    return sum(1 for l in letters if is_symbol(l))


def _signed(f, sign):
    return f if sign == 1 else -f


def _canonical(pairs):
    """Normalized (word, value) pairs: letters sorted with their graded
    sign; words with a repeated odd letter and zero values dropped."""
    for letters, f in pairs:
        if f.is_zero():
            continue
        sign, canon = normalize(letters)
        if sign:
            yield canon, _signed(f, sign)


class GradedElement(SparseTerms):
    """A sum of letter terms with ScalarFn coefficients.

    Terms with no symbol letters are graded sections of the ghost bundle;
    terms with symbols are graded symmetric multi-derivation words.
    """

    __slots__ = ("rank",)

    def __init__(self, chart: Chart, rank: int, terms=None):
        self.chart = chart
        self.rank = rank
        self.terms = accumulate({}, _canonical(terms.items())) if terms else {}

    def _shape(self):
        return (self.chart, self.rank)

    def _like(self, terms):
        r = object.__new__(type(self))
        r.chart, r.rank, r.terms = self.chart, self.rank, terms
        return r

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(chart: Chart, rank: int) -> "GradedElement":
        return GradedElement(chart, rank)

    @staticmethod
    def section(chart: Chart, rank: int, f: ScalarFn) -> "GradedElement":
        return GradedElement(chart, rank, {(): f})

    @staticmethod
    def ghost(chart: Chart, rank: int, A: int) -> "GradedElement":
        return GradedElement(chart, rank, {((XI, A),): ScalarFn.one(chart)})

    @staticmethod
    def antighost(chart: Chart, rank: int, A: int) -> "GradedElement":
        return GradedElement(chart, rank, {((XIS, A),): ScalarFn.one(chart)})

    @staticmethod
    def word(chart: Chart, rank: int, letters, f=None) -> "GradedElement":
        f = f if f is not None else ScalarFn.one(chart)
        return GradedElement(chart, rank, {tuple(letters): f})

    # -- predicates --------------------------------------------------------------

    def is_section(self) -> bool:
        return all(arity(l) == 0 for l in self.terms)

    def max_arity(self) -> int:
        return max((arity(l) for l in self.terms), default=0)

    def is_homogeneous_degree(self):
        degs = {term_degree(l) for l in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def mul(self, other: "GradedElement") -> "GradedElement":
        """Graded symmetric product (exterior product on ghost letters)."""

        def pairs():
            for l1, f1 in self.terms.items():
                for l2, f2 in other.terms.items():
                    sign, canon = normalize(l1 + l2)
                    if sign:
                        yield canon, _signed(f1 * f2, sign)

        return self._like(accumulate({}, pairs()))

    # -- bidegree projections ------------------------------------------------------------

    def pr(self, h: int, k: int) -> "GradedElement":
        return self._like({l: f for l, f in self.terms.items() if bidegree(l) == (h, k)})

    def antighost_filtration(self) -> int:
        """Min over terms of the antighost letter count (the filtration
        degree used by the BRST recursion); sections only."""
        degs = [sum(1 for x in l if x[0] == XIS) for l in self.terms]
        return min(degs) if degs else 10 ** 9

    def diag_filtration(self) -> int:
        """Min over terms of the antighost bidegree entry k (the filtration
        used by the lifting recursion on operators)."""
        degs = [bidegree(l)[1] for l in self.terms]
        return min(degs) if degs else 10 ** 9

    # -- insertion: [[op, section]] ------------------------------------------------------

    def insert(self, lam: "GradedElement") -> "GradedElement":
        """First-slot insertion of a graded section: [[self, lam]].

        The argument enters each word from the right; moving it left to a
        symbol position contributes the transposition signs of the letters
        it passes, with the argument's own shifted degree.  A section has
        no symbols, so this is the first-order part of self o lam."""
        return self._compose(lam)[0]

    def eval(self, args) -> "GradedElement":
        """Evaluate on graded sections by iterated first-slot insertion."""
        out = self
        for lam in args:
            out = out.insert(lam)
        if not out.is_section():
            raise GradedError("argument count does not match arity")
        return out

    # -- Gerstenhaber product and bracket -----------------------------------------------------

    def _compose(self, other: "GradedElement"):
        """Gerstenhaber product self o other: insert the full operator
        `other` into the first slot of `self`.  Returns (first, tally).

        `first` is the first-order product: a symbol of self acting on the
        coefficient and ghost letters of an other term, or composing with
        its identity slot m.  A derivative composed with a derivative of
        other gives a second-order (PAIR) word, which is counted instead of
        multiplied out: tally[(word, x, y)] is the signed number of times
        the normalized word arises from the self term x and the other term
        y, so it stands for count * self.terms[x] * other.terms[y].

        Term splits, parities and partial derivatives are read once per
        call; a word is normalized before its coefficient is multiplied."""
        others = []
        for ol, oc in other.terms.items():
            ghost = tuple(l for l in ol if not is_symbol(l))
            syms = tuple(l for l in ol if is_symbol(l))
            # parity of the letters of ol left of each symbol
            reach, reaches = sum(letter_degree(l) for l in ghost) % 2, []
            for sp in syms:
                reaches.append(reach)
                reach ^= letter_degree(sp) % 2
            others.append((ol, oc, ghost, syms, term_degree(ol) % 2, reaches, {}))
        selfs = []
        for letters, c in self.terms.items():
            slots, travel = [], 0  # (position, symbol, its untwisted parity, parity right of it)
            for p in range(len(letters) - 1, -1, -1):
                if is_symbol(letters[p]):
                    slots.append((p, letters[p], _untwisted_parity(letters[p]), travel))
                travel ^= letter_degree(letters[p]) % 2
            selfs.append((letters, c, slots[::-1]))
        tally = {}

        def pairs():
            for letters, c, slots in selfs:
                for ol, oc, ghost, syms, odd, reaches, partials in others:
                    for p, s, twisted, travel in slots:
                        sign0 = -1 if odd and travel else 1
                        left, right = letters[:p], letters[p + 1 :]
                        # s acts on the coefficient/ghost part of other; for
                        # the identity slot m this is already the whole
                        # action (m is not a derivation)
                        acted = _act(s, ghost, oc, partials)
                        if acted:
                            sa, res_letters, res_f = acted
                            sign, canon = normalize(left + res_letters + syms + right)
                            if sign:
                                yield canon, _signed(c * res_f, sign0 * sa * sign)
                        if s[0] == M:
                            continue
                        # s composes with one of other's symbols: first order
                        # when that symbol is m, else a tallied PAIR; reaching
                        # past the letters left of it carries the untwisted
                        # parity of s
                        for idx, sp in enumerate(syms):
                            comp, csign = _compose_symbols(s, sp)
                            if comp is None:
                                continue
                            sign, canon = normalize(left + ghost + syms[:idx] + (comp,) + syms[idx + 1 :] + right)
                            if not sign:
                                continue
                            sign *= sign0 * csign * (-1 if twisted and reaches[idx] else 1)
                            if comp[0] == PAIR:
                                key = (canon, letters, ol)
                                tally[key] = tally.get(key, 0) + sign
                            else:
                                yield canon, _signed(c * oc, sign)

        return self._like(accumulate({}, pairs())), tally

    def bracket(self, other: "GradedElement") -> "GradedElement":
        """Graded Schouten-Jacobi bracket [[self, other]] = a o b -+ b o a
        (+ when both degrees are odd), from the Gerstenhaber products.

        The second-order words must cancel; their tallies are merged, a key
        (word, y, x) of b o a flipped to (word, x, y) with its count signed
        by the -+, as both stand for a.terms[x] * b.terms[y].  A word's
        coefficient is the sum of count * product over its keys, so it
        vanishes formally when every count is zero; _check_cancelled
        multiplies out only the keys with a nonzero count.

        A square [[a, a]] (other is self) composes once: b o a = a o b, so
        it is 2 (a o a) for odd |a|, its tally merged with its own flip, and
        0 for even |a|."""
        self._check(other)
        da = self.is_homogeneous_degree()
        db = da if other is self else other.is_homogeneous_degree()
        if da is None or db is None:
            # split into homogeneous pieces
            pieces = self._homogeneous_pieces()
            return self._like({}).plus(
                pa.bracket(pb)
                for pa in pieces
                for pb in (pieces if other is self else other._homogeneous_pieces())
            )
        if other is self:
            if da % 2 == 0:
                return self._like({})
            ab, tally = self._compose(self)
            _check_cancelled(_merged(tally, tally, 1), self.terms, self.terms)
            return ab.scale(2)
        ab, t_ab = self._compose(other)
        ba, t_ba = other._compose(self)
        sign = 1 if (da * db) % 2 else -1
        _check_cancelled(_merged(t_ab, t_ba, sign), self.terms, other.terms)
        return ab + ba if sign == 1 else ab - ba

    def _homogeneous_pieces(self):
        by_deg = {}
        for l, f in self.terms.items():
            by_deg.setdefault(term_degree(l), {})[l] = f
        return [self._like(t) for t in by_deg.values()]

    # -- display --------------------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "GradedElement(0)"
        names = self.chart.coords
        shown = {XI: "xi^{}", XIS: "xis_{}", M: "ID", DXI: "D_xi^{}", DXIS: "D_xis_{}"}

        def show(l):
            return f"D_{names[l[1]]}" if l[0] == DX else shown[l[0]].format(*(i + 1 for i in l[1:]))

        return " + ".join(
            f"({self.terms[letters]!r})*" + (".".join(map(show, letters)) or "1")
            for letters in sorted(self.terms, key=lambda ls: tuple(_key(l) for l in ls))
        )


def _untwisted_parity(letter) -> int:
    """Parity of the underlying derivative: d/dx even, d/dtheta and
    d/dtheta* odd (the mu* twist accounts for the letter-degree shift)."""
    return 1 if letter[0] in (DXI, DXIS) else 0


def _compose_symbols(s, sp):
    """Ordered composite s o sp of two basic symbols as (letter, sign).

    m is the identity on untwisted coefficients, so composites with m
    reduce to first order; derivative pairs stay second order and are
    normalized with the commutation sign of the underlying derivatives."""
    if sp[0] == M:
        return s, 1
    if s == sp and _untwisted_parity(s):
        return None, 1  # odd derivative squares to zero
    a, b = (s, sp), 1
    if _sort_key(s) > _sort_key(sp):
        sign = -1 if (_untwisted_parity(s) and _untwisted_parity(sp)) else 1
        a, b = (sp, s), sign
    return (PAIR, a[0], a[1]), b


def _act(symbol, letters, f, partials):
    """Apply one basic symbol to a section term (letters, f): (sign,
    letters, ScalarFn) or None for zero; `partials` keeps f's derivatives."""
    kind = symbol[0]
    if kind == M:
        return 1, letters, f
    if kind == DX:
        df = partials.get(symbol[1])
        if df is None:
            df = partials[symbol[1]] = f.partial_index(symbol[1])
        return None if df.is_zero() else (1, letters, df)
    if kind in (DXI, DXIS):
        target = (XI if kind == DXI else XIS, symbol[1])
        for pos, l in enumerate(letters):
            if l == target:
                return (-1) ** (pos % 2), letters[:pos] + letters[pos + 1 :], f  # ghosts are odd
        return None
    raise GradedError(f"cannot act with {symbol!r}")


def _merged(t_ab, t_ba, sign):
    """The tally of a o b + sign (b o a): keys (word, y, x) of b o a
    flipped to (word, x, y)."""
    out = dict(t_ab)
    for (word, y, x), n in t_ba.items():
        out[word, x, y] = out.get((word, x, y), 0) + sign * n
    return out


def _check_cancelled(tally, a_terms, b_terms):
    """Multiply out the tally keys (word, x, y) with a nonzero count; raise
    when some word's sum of count * a_terms[x] * b_terms[y] is nonzero."""
    survivors = accumulate(
        {},
        ((word, (a_terms[x] * b_terms[y]).scale(n)) for (word, x, y), n in tally.items() if n),
    )
    if survivors:
        raise AssertionError("second-order composite survived the bracket")


# ---------------------------------------------------------------------------
# the tautological bracket G and Hamiltonian operators
# ---------------------------------------------------------------------------


def tautological_G(chart: Chart, rank: int) -> GradedElement:
    """G = sum_A Dxi(A) Dxis(A) (x) mu, the bidegree (-1,-1) pairing of
    ghosts with antighosts."""
    one = ScalarFn.one(chart)
    return GradedElement(chart, rank, {((DXI, A), (DXIS, A)): one for A in range(rank)})


def decal_sign(section: GradedElement) -> int:
    """(-1)^{shifted degree} of a homogeneous section, the decalage sign
    relating the symmetric bi-derivation to the Jacobi bracket."""
    d = section.is_homogeneous_degree()
    if d is None:
        raise GradedError("decalage sign needs a homogeneous section")
    return (-1) ** (d % 2)


def jacobi_bracket(jop: GradedElement, a: GradedElement, b: GradedElement) -> GradedElement:
    """{a, b}_J = (-1)^{|a|} J(a, b) on homogeneous sections (decalage)."""
    return jop.eval([a, b]).scale(decal_sign(a))


def hamiltonian_operator(jop: GradedElement, omega: GradedElement) -> GradedElement:
    """The derivation {omega, -}_J = (-1)^{|omega|} [[J, omega]]."""
    return jop.insert(omega).scale(decal_sign(omega))


# ---------------------------------------------------------------------------
# conversion between ungraded multiderivations and graded words
# ---------------------------------------------------------------------------


def to_graded(sq: MultiDerivation, rank: int) -> GradedElement:
    """Decalage embedding of a skew multiderivation into the graded word
    algebra, normalized so that iterated insertions reproduce the ungraded
    nested brackets: eval([f_1..f_n]) = sq.eval_nested([f_1..f_n]).

    The p-part words carry no sign at any arity; the q-part (the id-slot
    words) carries (-1)^arity."""
    terms = {tuple((DX, i) for i in key): f for key, f in sq.p_part.terms.items()}
    if sq.q_part is not None:
        qsgn = (-1) ** (sq.arity % 2)
        for key, f in sq.q_part.terms.items():
            terms[((M,),) + tuple((DX, i) for i in key)] = f.scale(qsgn)
    return GradedElement(sq.chart, rank, terms)


def from_graded(op: GradedElement) -> MultiDerivation:
    """Inverse of to_graded on bidegree-(0,0) ghost-free words (the image of
    the projection p); other terms must be absent."""
    chart = op.chart
    words = []  # (number of m slots, dx indices, coefficient)
    for letters, f in op.terms.items():
        if any(l[0] in (XI, XIS, DXI, DXIS) for l in letters):
            raise GradedError("from_graded needs a ghost-free operator")
        mcount = sum(1 for l in letters if l[0] == M)
        if mcount > 1:
            raise GradedError("repeated mu* slots do not correspond to a multiderivation")
        words.append((mcount, tuple(l[1] for l in letters if l[0] == DX), f))
    if not words:
        return MultiDerivation.zero(chart, 0)
    n = max(mcount + len(key) for mcount, key, _ in words)
    qsgn = (-1) ** (n % 2)
    p_terms = accumulate({}, ((key, f) for mcount, key, f in words if mcount == 0))
    q_terms = accumulate({}, ((key, f.scale(qsgn)) for mcount, key, f in words if mcount == 1))
    p = MultiVectorField(chart, n, p_terms)
    q = MultiVectorField(chart, n - 1, q_terms) if n > 0 else None
    return MultiDerivation(p, q)


# ---------------------------------------------------------------------------
# first contraction data: p, i_nabla, weight, H_nabla
# ---------------------------------------------------------------------------


class Connection:
    """DL-connection coefficients in the ghost bundle: Gamma_id[A][B] for the
    id direction and Gamma[i][A][B] per base coordinate; zero by default."""

    def __init__(self, chart: Chart, rank: int, gamma_id=None, gamma=None):
        self.chart = chart
        self.rank = rank
        zero = ScalarFn.zero(chart)
        self.gamma_id = gamma_id or [[zero] * rank for _ in range(rank)]
        self.gamma = gamma or {}

    def gamma_i(self, i):
        zero = ScalarFn.zero(self.chart)
        return self.gamma.get(i, [[zero] * self.rank for _ in range(self.rank)])


class ContractionOne:
    """Contraction data from graded operators onto ungraded multiderivations
    determined by a connection: (p, i_nabla, H_nabla, weight)."""

    def __init__(self, chart: Chart, rank: int, connection: Connection | None = None):
        self.chart = chart
        self.rank = rank
        self.connection = connection or Connection(chart, rank)
        self._inabla_m = self._expand_inabla((M,), self.connection.gamma_id)
        self._inabla_dx = {}

    def _expand_inabla(self, slot, gamma) -> GradedElement:
        """Local table of i_nabla on one slot generator: the slot plus the
        ghost rotation by gamma, less the ghost Euler field for the id slot."""
        chart, rank = self.chart, self.rank
        one = ScalarFn.one(chart)
        terms = {(slot,): one}
        for A in range(rank):
            for B in range(rank):
                euler = slot[0] == M and A == B
                terms[((XI, B), (DXI, A))] = (gamma[A][B] - one) if euler else gamma[A][B]
                terms[((XIS, B), (DXIS, A))] = -gamma[B][A]
        return GradedElement(chart, rank, terms)

    def inabla_symbol(self, letter) -> GradedElement:
        if letter[0] == M:
            return self._inabla_m
        if letter[0] == DX:
            if letter[1] not in self._inabla_dx:
                self._inabla_dx[letter[1]] = self._expand_inabla(letter, self.connection.gamma_i(letter[1]))
            return self._inabla_dx[letter[1]]
        raise GradedError("i_nabla substitutes only mu* and base-derivative slots")

    def i_nabla(self, sq: MultiDerivation) -> GradedElement:
        """i_nabla: substitute each slot symbol by its connection-corrected
        graded word; an algebra morphism on the symbol generators."""
        chart, rank = self.chart, self.rank

        def products():
            for letters, f in to_graded(sq, rank).terms.items():
                prod = GradedElement.section(chart, rank, f)
                for l in letters:
                    prod = prod.mul(self.inabla_symbol(l))
                yield prod

        return GradedElement.zero(chart, rank).plus(products())

    def p(self, op: GradedElement) -> MultiDerivation:
        """Keep ghost-free bidegree-(0,0) words and read them as an ungraded
        multiderivation."""
        kept = {}
        for letters, f in op.terms.items():
            if all(l[0] in (M, DX) for l in letters):
                kept[letters] = f
        return from_graded(GradedElement(self.chart, self.rank, kept))

    # -- adapted basis, weight, homotopy --------------------------------------

    def to_adapted(self, op: GradedElement):
        """Rewrite wordwise so weight counting sees the connection-adapted
        slots: returns a dict from adapted letter tuples to ScalarFn where
        m-markers ('m', '~') and ('dx', i, '~') have weight zero."""
        chart, rank = self.chart, self.rank

        def expand(letters, f, acc):
            for pos, l in enumerate(letters):
                if (l[0] == M and len(l) == 1) or (l[0] == DX and len(l) == 2):
                    if l[0] == M:
                        marker = ("m", "~")
                        corr = self._inabla_m - GradedElement.word(chart, rank, ((M,),))
                    else:
                        marker = ("dx", l[1], "~")
                        corr = self.inabla_symbol(l) - GradedElement.word(chart, rank, (l,))
                    # slot = marker - corrections, spliced at the slot position
                    acc.append((letters[:pos] + (marker,) + letters[pos + 1 :], f))
                    for cls, cf in corr.terms.items():
                        expand(letters[:pos] + cls + letters[pos + 1 :], -(f * cf), acc)
                    return
            acc.append((letters, f))

        acc = []
        for letters, f in op.terms.items():
            expand(letters, f, acc)
        return accumulate({}, _canonical(acc))

    def from_adapted(self, adapted) -> GradedElement:
        chart, rank = self.chart, self.rank

        def products():
            for letters, f in adapted.items():
                prod = GradedElement.section(chart, rank, f)
                for l in letters:
                    if l[0] == "m" and len(l) == 2:
                        prod = prod.mul(self._inabla_m)
                    elif l[0] == "dx" and len(l) == 3:
                        prod = prod.mul(self.inabla_symbol((DX, l[1])))
                    else:
                        prod = prod.mul(GradedElement.word(chart, rank, (l,)))
                yield prod

        return GradedElement.zero(chart, rank).plus(products())

    @staticmethod
    def _adapted_weight(letters) -> int:
        return sum(1 for l in letters if l[0] in (XI, XIS, DXI, DXIS))

    def weight_split(self, op: GradedElement):
        """Split into eigencomponents of the weight derivation."""
        adapted = self.to_adapted(op)
        buckets = {}
        for letters, f in adapted.items():
            w = self._adapted_weight(letters)
            buckets.setdefault(w, {})[letters] = f
        return {w: self.from_adapted(t) for w, t in buckets.items()}

    def weight(self, op: GradedElement) -> GradedElement:
        return GradedElement.zero(self.chart, self.rank).plus(
            comp.scale(w) for w, comp in self.weight_split(op).items()
        )

    def H_tilde(self, op: GradedElement) -> GradedElement:
        """The odd derivation sending Dxi(A) -> xis_A and Dxis(A) -> xi^A in
        the adapted basis (zero on everything else)."""

        def pairs():
            for letters, f in self.to_adapted(op).items():
                for pos, l in enumerate(letters):
                    if l[0] == DXI:
                        repl = (XIS, l[1])
                    elif l[0] == DXIS:
                        repl = (XI, l[1])
                    else:
                        continue
                    # odd derivation: sign from passing the letters left of pos
                    reach = sum(letter_degree(x) for x in letters[:pos])
                    yield letters[:pos] + (repl,) + letters[pos + 1 :], _signed(f, (-1) ** (reach % 2))

        return self.from_adapted(accumulate({}, _canonical(pairs())))

    def H(self, op: GradedElement) -> GradedElement:
        """H_nabla = -(1/k) H_tilde on the weight-k eigenspace, 0 on weight 0."""
        return GradedElement.zero(self.chart, self.rank).plus(
            self.H_tilde(comp).scale(Fraction(-1, w))
            for w, comp in self.weight_split(op).items()
            if w
        )

    def i_then_p_defect(self, op: GradedElement, d_G: GradedElement) -> GradedElement:
        """[d_G, H](op) - (i_nabla p - id)(op); zero by the contraction
        identities (used by tests)."""
        dg = lambda x: d_G.bracket(x)
        lhs = dg(self.H(op)) + self.H(dg(op))
        rhs = self.i_nabla(self.p(op)) - op
        return lhs - rhs


# ---------------------------------------------------------------------------
# second contraction data: wp[s], iota, h[s], d[s]
# ---------------------------------------------------------------------------


class ContractionTwo:
    """Contraction data on graded sections determined by a section s of the
    normal bundle: (wp[s], iota, h[s], d[s])."""

    def __init__(self, chart: Chart, rank: int, s: SectionOfNormalBundle):
        if rank != chart.m:
            raise GradedError("ghost rank must match the fiber dimension")
        self.chart = chart
        self.rank = rank
        self.s = s

    def omega_E(self) -> GradedElement:
        """Omega_E[s] = sum_A (y_A - g_A) xi^A."""
        chart = self.chart
        return GradedElement(
            chart,
            self.rank,
            {
                ((XI, A),): ScalarFn.y(chart, chart.fiber[A]) - self.s.components[A]
                for A in range(self.rank)
            },
        )

    def d_s(self, G: GradedElement) -> GradedElement:
        """d[s] = {Omega_E[s], -}_G as a graded operator."""
        return hamiltonian_operator(G, self.omega_E())

    def wp(self, lam: GradedElement) -> GradedElement:
        """Restrict to im s and kill positive antighost words."""
        assignment = self.s.assignment()
        out = {}
        for letters, f in lam.terms.items():
            if arity(letters):
                raise GradedError("wp acts on sections")
            if any(l[0] == XIS for l in letters):
                continue
            g = f.substitute_fiber(assignment)
            if not g.is_zero():
                out[letters] = g
        return GradedElement.zero(self.chart, self.rank)._like(out)

    def iota(self, lam: GradedElement) -> GradedElement:
        for letters, f in lam.terms.items():
            if any(l[0] == XIS for l in letters) or arity(letters):
                raise GradedError("iota embeds base ghost words")
            if not f.is_base_only():
                raise GradedError("iota embeds base-only coefficients")
        return lam

    def h(self, lam: GradedElement) -> GradedElement:
        """h[s] = int_0^1 j_t[s] dt, evaluated exactly on polynomial terms.

        A term f w whose word w holds N antighost letters maps to

            -(-1)^{sum of letter degrees of w} sum_A P_A w xis_A,
            P_A = int_0^1 (1-t)^N (d f / d y_A)((1-t) y + t g) dt,

        along the path y -> y - t (y - g) from the fiber point to the
        section g = s.  ScalarFn.path_integral evaluates P_A in closed form,
        expanding the path binomially and integrating each power product of
        t by the Beta integral int_0^1 (1-t)^a t^b dt = a! b! / (a + b + 1)!.
        """
        targets = self.s.components

        def pairs():
            for letters, f in lam.terms.items():
                if arity(letters):
                    raise GradedError("h acts on sections")
                nxis = sum(1 for l in letters if l[0] == XIS)
                sign = -((-1) ** (sum(letter_degree(l) for l in letters) % 2))
                for A, name in enumerate(self.chart.fiber):
                    dfa = f.partial(name)
                    if dfa.is_zero():
                        continue
                    yield letters + ((XIS, A),), _signed(dfa.path_integral(targets, nxis), sign)

        return lam._like(accumulate({}, _canonical(pairs())))
