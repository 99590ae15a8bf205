"""Ghost/antighost calculus: graded sections, graded symmetric
multi-derivations in the basic-symbol word basis, the square of the graded
Schouten-Jacobi bracket, the tautological bracket G, the embedding i_nabla
of ungraded multiderivations for the trivial connection, and the contraction
data on graded sections.

Everything is written in one letter algebra.  A term is a Gaussian-rational
ScalarFn coefficient together with an ordered tuple of letters (a word):

    ghost letters   xi(A)  [degree +1]   and  xis(A)  [degree -1],
    symbol letters  m      [degree +1]   (the mu*-slot, i.e. id),
                    dx(i)  [degree +1]   (base-coordinate derivative),
                    dxi(A) [degree  0]   (ghost derivative),
                    dxis(A)[degree +2]   (antighost derivative).

Degrees are the shifted (decalage) ones, so m and dx are odd while dxi and
dxis are even.

Inside the module a letter is one int,

    kind << 24 | index << 2 | parity,

with the kind field XI < XIS < M < DX < DXI < DXIS < PAIR.  Integer order
is therefore the canonical order (kind first, then index), the low bit is
the letter's parity, and a kind is read off by comparing with the kind
constants, which are the codes of the index-0 letters: ghosts are the
codes below M, symbols those from M on, ghost derivatives those from DXI
on.  Bit 1 is clear in every letter the module makes, so a caller may set
it to tag a letter: normalize sorts a tagged letter right after its plain
one, with the same parity.  A PAIR letter (the second-order composite of
two derivatives, which only ever appears in a tally key) packs its two
letters above the kind field.
The public form of a letter is a tuple, (XI, A), (M,), (DX, i) and so on:
GradedElement() and encode() read it, decode() writes it.

The Gerstenhaber product is a join by symbol: an element indexes the slots
of its symbols on its first composition and keeps the index, and a term of
the argument reads only the slots of the symbols that act on it.  The
graded bracket is only ever taken as a square, [[a, a]] = 2 (a o a) for odd
a: the MC equation [[J^, J^]] = 0 and d_BFV^2 = 0 are the BFV checks.

Every sign in the module is produced by counting the transpositions of two
odd letters while a word is sorted (normalize); no sign is ever taken from
a formula table.  The one free global convention (arguments enter a word
from the right) is pinned by requiring G(u, alpha) = alpha(u) with positive
sign; the test suite asserts this together with the local tables of d_G,
p, i_nabla and the worked example's BFV operator.
"""

from __future__ import annotations

from bisect import bisect_left

from .ring import Chart, ContentError, PowerTable, ScalarFn, SparseTerms, accumulate
from .multider import MultiDerivation
from .leafform import LeafForm


_KIND = 24  # first bit of the kind field; the index fills bits 2..23
_INDEX = (1 << _KIND - 2) - 1
_WIDTH = _KIND + 3  # bits of a letter that is not a PAIR

# letter kinds, as the codes of their index-0 letters
XI, XIS, M, DX, DXI, DXIS, PAIR = (kind << _KIND | odd for kind, odd in enumerate((1, 1, 1, 1, 0, 0, 0)))
_KINDS = (XI, XIS, M, DX, DXI, DXIS)
_DEGREES = (1, -1, 1, 1, 0, 2)  # shifted degree by kind field, XI to DXIS
# a ghost derivative less this is the ghost it removes: DXI(A) -> XI(A), DXIS(A) -> XIS(A)
_TARGET = DXI - XI


def _letter(kind, index=0) -> int:
    return kind | index << 2


def _pair(a, b) -> int:
    """The PAIR letter of the composite a o b of two derivatives; of degree
    |a| + |b| - 1, so odd when a and b have the same parity."""
    return (a << _WIDTH | b) << _WIDTH | PAIR | (1 ^ (a ^ b) & 1)


def encode(word) -> tuple:
    """Tuple letters (XI, A), (XIS, A), (M,), (DX, i), (DXI, A), (DXIS, A) or
    (PAIR, a, b) -> their int codes."""
    return tuple(map(_encode, word))


def _encode(letter) -> int:
    kind, *rest = letter
    if kind == PAIR and len(rest) == 2:
        return _pair(*map(_encode, rest))
    if kind in _KINDS and len(rest) == (kind != M) and all(
        type(i) is int and 0 <= i <= _INDEX for i in rest
    ):
        return _letter(kind, *rest)
    raise ContentError(f"unknown letter {letter!r}")


def decode(word) -> tuple:
    """Int codes -> tuple letters; the inverse of encode."""
    return tuple(map(_decode, word))


def _decode(code):
    if code >= PAIR:
        mask = (1 << _WIDTH) - 1
        return (PAIR, _decode(code >> 2 * _WIDTH), _decode(code >> _WIDTH & mask))
    kind = code & (7 << _KIND | 1)
    return (M,) if kind == M else (kind, code >> 2 & _INDEX)


def normalize(word):
    """Sort a word into canonical order by insertion, counting the
    transpositions of two odd letters; returns (sign, word), or (0, ()) when
    an odd letter repeats."""
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        cur = w[i]
        j = i
        while j and w[j - 1] > cur:
            if cur & w[j - 1] & 1:
                sign = -sign
            w[j] = w[j - 1]
            j -= 1
        if j and cur & 1 and w[j - 1] == cur:
            return 0, ()
        w[j] = cur
    return sign, tuple(w)


def term_degree(word) -> int:
    """Total shifted degree of a term: letter degrees plus the -1 of the
    ubiquitous mu coefficient."""
    return sum(_DEGREES[x >> _KIND] for x in word) - 1


def bidegree(word):
    """(ghosts - ghost derivatives, antighosts - antighost derivatives)."""
    h = k = 0
    for x in word:
        if x < XIS:
            h += 1
        elif x < M:
            k += 1
        elif x >= DXIS:
            k -= 1
        elif x >= DXI:
            h -= 1
    return h, k


def _canonical(pairs):
    """Normalized (word, value) pairs: letters sorted with their graded
    sign; words with a repeated odd letter and zero values dropped."""
    for letters, f in pairs:
        if f.is_zero():
            continue
        sign, canon = normalize(letters)
        if sign:
            yield canon, f if sign > 0 else -f


class GradedElement(SparseTerms):
    """A sum of letter terms with ScalarFn coefficients.

    Terms with no symbol letters are graded sections of the ghost bundle;
    terms with symbols are graded symmetric multi-derivation words.  The
    ghost indices A run over the chart's fiber coordinates: the ghosts are
    fiber coordinates of the normal bundle.  The constructor takes
    tuple-letter words; terms are kept with int words, which a kernel makes
    into an element through _raw when normalized, through _sum otherwise.
    """

    __slots__ = ("_by_symbol",)

    def __init__(self, chart: Chart, terms=None):
        if terms and any(f.chart is not chart and f.chart != chart for f in terms.values()):
            raise ContentError(f"{type(self).__name__} coefficient on another chart")
        pairs = ((encode(w), f) for w, f in terms.items()) if terms else ()
        self.chart, self.terms, self._by_symbol = chart, accumulate({}, _canonical(pairs)), None

    @classmethod
    def _raw(cls, chart: Chart, terms):
        """The element of normalized int words and nonzero values, unchecked."""
        r = object.__new__(cls)
        r.chart, r.terms, r._by_symbol = chart, terms, None
        return r

    def _like(self, terms):
        return self._raw(self.chart, terms)

    def _sum(self, pairs) -> "GradedElement":
        """The element of this shape summing (int word, ScalarFn) pairs,
        each word normalized with its graded sign."""
        return self._like(accumulate({}, _canonical(pairs)))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "GradedElement":
        return GradedElement(chart)

    @staticmethod
    def section(chart: Chart, f: ScalarFn) -> "GradedElement":
        return GradedElement(chart, {(): f})

    # -- predicates --------------------------------------------------------------

    def is_homogeneous_degree(self):
        degs = {term_degree(l) for l in self.terms}
        return degs.pop() if len(degs) == 1 else None

    # -- insertion: [[op, section]] ------------------------------------------------------

    def insert(self, lam: "GradedElement") -> "GradedElement":
        """First-slot insertion of a graded section: [[self, lam]].

        The argument enters each word from the right; moving it left to a
        symbol position contributes the transposition signs of the letters
        it passes, with the argument's own shifted degree.  A section has
        no symbols, so this is the first-order part of self o lam."""
        return self._compose(lam)[0]

    # -- Gerstenhaber product and the square of the bracket ------------------------------------

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

        An other term reads from self's index only the slots of m, of dx(i)
        where its coefficient depends on coordinate i (one derivative per
        term) and of the derivative of each ghost it carries.  A word is
        normalized before its coefficient is multiplied."""
        index = self._by_symbol
        if index is None:
            index = self._by_symbol = _slots_by_symbol(self.terms)
        tally = {}

        def pairs():
            for ol, oc in other.terms.items():
                g = bisect_left(ol, M)
                ghost, syms = ol[:g], ol[g:]
                # parity of the letters of ol left of each symbol; ghosts are odd
                reach, reaches = g & 1, []
                for sp in syms:
                    reaches.append(reach)
                    reach ^= sp & 1
                odd = 1 ^ reach  # the term degree of ol is its letter degrees less one
                # (symbol, sign, ghost letters left, coefficient) of each symbol
                # acting on ol; m, not a derivation, acts as the identity
                acting = [(M, 1, ghost, oc)]
                mask = oc.mask
                for i in range(mask.bit_length()):
                    if mask >> i & 1 and _letter(DX, i) in index:
                        acting.append((_letter(DX, i), 1, ghost, oc.partial(i)))
                for pos, x in enumerate(ghost):  # ghosts are odd
                    acting.append((x + _TARGET, -1 if pos & 1 else 1, ghost[:pos] + ghost[pos + 1 :], oc))
                for s, sa, rest, f in acting:
                    mid = rest + syms
                    # other enters from the right, passing the letters right of the slot
                    for letters, cs, left, right, travel in index.get(s, ()):
                        sign, canon = normalize(left + mid + right)
                        if sign:
                            # negative when exactly one of sign * sa < 0 and odd & travel
                            yield canon, cs[(sign != sa) ^ odd & travel] * f
                # a derivative s composes with one of ol's symbols: first order
                # when that symbol is m, else a tallied PAIR; reaching past the
                # letters left of it carries the untwisted parity of s
                for s, slots in index.items():
                    for idx, sp in enumerate(syms if s != M else ()):
                        comp, csign = _compose_symbols(s, sp)
                        if comp is None:
                            continue
                        mid = ghost + syms[:idx] + (comp,) + syms[idx + 1 :]
                        if reaches[idx] and not s & 1:  # s is untwisted odd
                            csign = -csign
                        for letters, cs, left, right, travel in slots:
                            sign, canon = normalize(left + mid + right)
                            if sign:
                                sign *= -csign if odd & travel else csign
                                if comp < PAIR:
                                    yield canon, cs[sign < 0] * oc
                                else:
                                    key = (canon, letters, ol)
                                    tally[key] = tally.get(key, 0) + sign

        return self._like(accumulate({}, pairs())), tally

    def bracket(self) -> "GradedElement":
        """The square [[a, a]] = 2 (a o a) of an element a of odd degree,
        the one graded bracket the BFV checks take ([[J^, J^]] = 0,
        d_BFV^2 = 0); the zero element is its own square.

        The second-order words of a o a must cancel.  A tally key
        (word, x, y) and its flip (word, y, x) both stand for
        a.terms[x] * a.terms[y], so each key is counted in place with its
        flip (twice without one); a word's coefficient then vanishes
        formally when every count is zero, and _check_cancelled multiplies
        out only the keys with a nonzero count."""
        if not self.terms:
            return self
        d = self.is_homogeneous_degree()
        if d is None or d % 2 == 0:
            raise ContentError("the bracket squares an element of odd degree")
        ab, tally = self._compose(self)
        counts = (((w, x, y), n + tally.get((w, y, x), n)) for (w, x, y), n in tally.items())
        _check_cancelled(counts, self.terms, self.terms)
        return ab.scale(2)


def _compose_symbols(s, sp):
    """Ordered composite s o sp of two basic symbols as (letter, sign).

    m is the identity on untwisted coefficients, so composites with m
    reduce to first order; derivative pairs stay second order and are
    normalized with the commutation sign of the underlying derivatives:
    d/dx is even, d/dtheta and d/dtheta* odd (the mu* twist shifts each
    letter's degree by one, so a derivative's untwisted parity is the
    opposite of its letter's)."""
    if sp == M:
        return s, 1
    if s == sp and not s & 1:
        return None, 1  # odd derivative squares to zero
    if s > sp:
        return _pair(sp, s), -1 if not (s | sp) & 1 else 1
    return _pair(s, sp), 1


def _slots_by_symbol(terms):
    """symbol -> [(word, (coefficient, its negative), letters left of the
    slot, letters right of it, parity of the letters right of it)] over the
    symbol slots of the terms; a signed product picks its factor, so it is
    one product and no negation."""
    index = {}
    for letters, c in terms.items():
        cs = (c, -c)
        travel = 0
        for p in range(len(letters) - 1, bisect_left(letters, M) - 1, -1):
            s = letters[p]
            index.setdefault(s, []).append((letters, cs, letters[:p], letters[p + 1 :], travel))
            travel ^= s & 1
    return index


def _check_cancelled(counts, a_terms, b_terms):
    """Multiply out the tally items ((word, x, y), n) with n != 0; raise
    when some word's sum of n * a_terms[x] * b_terms[y] is nonzero."""
    survivors = accumulate(
        {},
        ((word, (a_terms[x] * b_terms[y]).scale(n)) for (word, x, y), n in counts if n),
    )
    if survivors:
        raise AssertionError("second-order composite survived the bracket")


# ---------------------------------------------------------------------------
# the tautological bracket G and Hamiltonian operators
# ---------------------------------------------------------------------------


def tautological_G(chart: Chart) -> GradedElement:
    """G = sum_A Dxi(A) Dxis(A) (x) mu, the bidegree (-1,-1) pairing of
    ghosts with antighosts."""
    one = ScalarFn.one(chart)
    return GradedElement._raw(chart, {(_letter(DXI, A), _letter(DXIS, A)): one for A in range(chart.m)})


def ghost_section(chart: Chart, components) -> GradedElement:
    """The ghost-degree-1 section sum_A g_A xi^A of one ScalarFn g_A per
    fiber coordinate; a zero component has no term."""
    terms = {(_letter(XI, A),): g for A, g in enumerate(components) if not g.is_zero()}
    return GradedElement._raw(chart, terms)


def decal_sign(section: GradedElement) -> int:
    """(-1)^{shifted degree} of a homogeneous section, the decalage sign
    relating the symmetric bi-derivation to the Jacobi bracket."""
    d = section.is_homogeneous_degree()
    if d is None:
        raise ContentError("decalage sign needs a homogeneous section")
    return -1 if d % 2 else 1


def jacobi_bracket(jop: GradedElement, a: GradedElement, b: GradedElement) -> GradedElement:
    """{a, b}_J = (-1)^{|a|} J(a, b) on homogeneous sections (decalage), with
    J(a, b) = [[[[J, a]], b]]: b inserted into the Hamiltonian derivation of
    a (every word of a lift J^ has two symbols); zero for a = 0."""
    return hamiltonian_operator(jop, a).insert(b)


def hamiltonian_operator(jop: GradedElement, omega: GradedElement) -> GradedElement:
    """The derivation {omega, -}_J = (-1)^{|omega|} [[J, omega]]; zero for
    omega = 0, which has no single degree (the BRST charge of a chart
    without fiber coordinates)."""
    if omega.is_zero():
        return omega
    return jop.insert(omega).scale(decal_sign(omega))


# ---------------------------------------------------------------------------
# conversion between ungraded multiderivations and graded words
# ---------------------------------------------------------------------------


def to_graded(sq: MultiDerivation) -> GradedElement:
    """Decalage embedding of a skew multiderivation into the graded word
    algebra, normalized so that iterated insertions reproduce the ungraded
    nested brackets: inserting the sections f_1, .., f_n in turn gives
    [[..[[sq, f_1]].., f_n]].

    A key becomes the word of its letters in order, the id index the m
    letter; sorting m to the front of the word signs it, so the words of
    -Q ^ id carry (-1)^arity Q."""
    dim = sq.chart.dim
    words = ((tuple(M if i == dim else _letter(DX, i) for i in key), f) for key, f in sq.terms.items())
    return GradedElement._raw(sq.chart, accumulate({}, _canonical(words)))


def i_nabla(sq: MultiDerivation) -> GradedElement:
    """i_nabla of the trivial connection, an algebra morphism on the slot
    letters: m maps to m - sum_A xi^A Dxi(A) (the id slot less the ghost
    Euler field) and each dx(i) to itself.  So each word of to_graded(sq)
    is kept, and an id-slot word m w with coefficient f also gives the
    words xi^A Dxi(A) w with -f; only those new words are normalized."""
    op = to_graded(sq)

    def pairs():
        for letters, f in op.terms.items():
            yield letters, f
            if letters[:1] == (M,):  # m is the first letter of a word with it
                new = ((_letter(XI, A), _letter(DXI, A)) + letters[1:] for A in range(op.chart.m))
                yield from _canonical((w, -f) for w in new)

    return op._like(accumulate({}, pairs()))


# ---------------------------------------------------------------------------
# second contraction data: wp[s], h[s] and Omega_E[s]
# ---------------------------------------------------------------------------


class ContractionTwo:
    """Contraction data on graded sections determined by a normal section
    s = sum_A g_A delta_A, a degree-1 LeafForm on the chart of the data:
    (wp[s], iota, h[s], d[s]).  iota is the identity, as the images of wp
    (base-only ghost words without antighosts) are graded sections as they
    stand; d[s] is hamiltonian_operator(G, omega_E())."""

    def __init__(self, s: LeafForm):
        self.chart = s.chart
        self.components = s.components()
        self.powers = PowerTable(s.chart, self.components)  # wp and h substitute s

    def omega_E(self) -> GradedElement:
        """Omega_E[s] = sum_A (y_A - g_A) xi^A."""
        chart = self.chart
        gens = (ScalarFn.y(chart, y) - g for y, g in zip(chart.fiber, self.components))
        return ghost_section(chart, gens)

    def wp(self, lam: GradedElement) -> GradedElement:
        """Restrict to im s and kill positive antighost words."""
        live = ((w, f) for w, f in lam.terms.items() if not any(XIS <= x < M for x in w))
        subs = ((w, f.substitute_fiber(self.powers)) for w, f in live)
        return lam._like({w: g for w, g in subs if not g.is_zero()})

    def h(self, lam: GradedElement) -> GradedElement:
        """h[s] = int_0^1 j_t[s] dt, evaluated exactly on polynomial terms.

        A term f w whose word w holds N antighost letters maps to

            -(-1)^{sum of letter degrees of w} sum_A P_A w xis_A,
            P_A = int_0^1 (1-t)^N (d f / d y_A)((1-t) y + t g) dt,

        along the path y -> y - t (y - g) from the fiber point to the
        section g = s.  ScalarFn.path_integral evaluates P_A in closed form,
        expanding the path binomially and integrating each power product of
        t by the Beta integral int_0^1 (1-t)^a t^b dt = a! b! / (a + b + 1)!.

        The word w xis_A is normalized first: it vanishes when w already
        holds xis_A (xis_A is odd), and then P_A is never computed.  The
        sign above and the sign of the sort are applied as one negation.
        """
        chart, powers = self.chart, self.powers

        def pairs():
            for letters, f in lam.terms.items():
                nxis = sum(1 for x in letters if XIS <= x < M)
                # the sign above is -1 when the letter degrees sum to an even number
                even = not sum(x & 1 for x in letters) & 1
                mask = f.mask
                for A in range(chart.m):
                    i = chart.k + A
                    if mask >> i & 1:
                        sign, canon = normalize(letters + (_letter(XIS, A),))
                        if sign:
                            p_a = f.partial(i).path_integral(powers, nxis)
                            if not p_a.is_zero():
                                yield canon, -p_a if (sign < 0) != even else p_a

        return lam._like(accumulate({}, pairs()))
