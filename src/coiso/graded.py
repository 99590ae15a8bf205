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

with the kind field XI < XIS < M < DX < DXI < DXIS.  Integer order
is therefore the canonical order (kind first, then index), the low bit is
the letter's parity, and a kind is read off by comparing with the kind
constants, which are the codes of the index-0 letters: ghosts are the
codes below M, symbols those from M on, ghost derivatives those from DXI
on.  Bit 1 is clear in every letter the module makes, so a caller may set
it to tag a letter: normalize sorts a tagged letter right after its plain
one, with the same parity.
The public form of a letter is a tuple, (XI, A), (M,), (DX, i) and so on:
GradedElement() and encode() read it, decode() writes it.

The Gerstenhaber product is a join by symbol: an element indexes the slots
of its symbols on its first composition and keeps the index, and a term of
the argument reads only the slots of the symbols that act on it.  The
graded bracket is only ever taken as a square, [[a, a]] = 2 (a o a) for odd
a: the MC equation [[J^, J^]] = 0 and d_BFV^2 = 0 are the BFV checks.  The
product is made to first order: the second-order words of a square (a
derivative composed with a derivative) cancel, as the bracket of two
multi-derivations is again one, so they are never made.

Every sign in the module is produced by counting the transpositions of two
odd letters while a word is sorted (normalize); no sign is ever taken from
a formula table.  The one
free global convention (arguments enter a word from the right) is pinned
by requiring G(u, alpha) = alpha(u) with positive sign; the test suite
asserts this together with the local tables of d_G, p, i_nabla and the
worked example's BFV operator.
"""

from __future__ import annotations

from bisect import bisect_left

from .ring import Chart, ContentError, PowerTable, ScalarFn, SparseTerms, accumulate, sum_of_products
from .multider import MultiDerivation
from .leafform import LeafForm


_KIND = 24  # first bit of the kind field; the index fills bits 2..23
_INDEX = (1 << _KIND - 2) - 1

# letter kinds, as the codes of their index-0 letters
_KINDS = XI, XIS, M, DX, DXI, DXIS = tuple(kind << _KIND | odd for kind, odd in enumerate((1, 1, 1, 1, 0, 0)))
_DEGREES = (1, -1, 1, 1, 0, 2)  # shifted degree by kind field, XI to DXIS
# a ghost derivative less this is the ghost it removes: DXI(A) -> XI(A), DXIS(A) -> XIS(A)
_TARGET = DXI - XI


def _letter(kind, index=0) -> int:
    return kind | index << 2


def encode(word) -> tuple:
    """Tuple letters (XI, A), (XIS, A), (M,), (DX, i), (DXI, A) and (DXIS, A)
    -> their int codes."""
    return tuple(map(_encode, word))


def _encode(letter) -> int:
    kind, *rest = letter
    if kind in _KINDS and len(rest) == (kind != M) and all(
        type(i) is int and 0 <= i <= _INDEX for i in rest
    ):
        return _letter(kind, *rest)
    raise ContentError(f"unknown letter {letter!r}")


def decode(word) -> tuple:
    """Int codes -> tuple letters; the inverse of encode."""
    return tuple(map(_decode, word))


def _decode(code):
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
    into an element through _raw when normalized.
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

    # -- constructors --------------------------------------------------------

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
        no symbols, so this is the product self o lam."""
        return self._compose(lam)

    # -- Gerstenhaber product and the square of the bracket ------------------------------------

    def _compose(self, other: "GradedElement") -> "GradedElement":
        """The first-order part of the Gerstenhaber product self o other:
        insert the full operator `other` into the first slot of `self`.

        A symbol of self acts on the coefficient and ghost letters of an
        other term, or a derivative of self composes with the term's
        identity slot m.  A derivative composed with a derivative of other
        is a second-order word, which is not made: in a square those
        cancel (see bracket).

        An other term reads from self's index only the slots of m, of dx(i)
        where its coefficient depends on coordinate i (one derivative per
        term, taken at the first slot that leaves a word), of the
        derivative of each ghost it carries and, when it holds m, of every
        derivative.  A word is normalized before its signed product (the
        slot's coefficient, the term's coefficient and the parity of the
        sign) goes into the one sum_of_products table."""
        index = self._by_symbol
        if index is None:
            index = self._by_symbol = _slots_by_symbol(self.terms)

        def pairs():
            for ol, oc in other.terms.items():
                g = bisect_left(ol, M)
                ghost, syms = ol[:g], ol[g:]
                # the term degree of ol is its letter degrees less one; a
                # letter's parity is its low bit
                odd = 1 ^ sum(ol) & 1
                # (symbol, sign, letters of ol left after it acts, coefficient)
                # of each symbol acting on ol; m, not a derivation, acts as the
                # identity; dx(i) carries i until a slot of it leaves a word
                acting = [(M, 1, ol, oc)]
                mask = oc.mask
                for i in range(mask.bit_length()):
                    if mask >> i & 1 and _letter(DX, i) in index:
                        acting.append((_letter(DX, i), 1, ol, i))
                for pos, x in enumerate(ghost):  # ghosts are odd
                    acting.append((x + _TARGET, -1 if pos & 1 else 1, ghost[:pos] + ghost[pos + 1 :] + syms, oc))
                if syms[:1] == (M,):  # m is the least symbol
                    # m is the identity on untwisted coefficients, so a
                    # derivative s composed with it is s; reaching past the
                    # ghosts of ol carries the untwisted parity of s
                    reach = -1 if g & 1 else 1
                    acting += ((s, 1 if s & 1 else reach, ghost + (s,) + syms[1:], oc) for s in index if s != M)
                for s, sa, mid, f in acting:
                    # other enters from the right, passing the letters right of the slot
                    for letters, c, left, right, travel in index.get(s, ()):
                        sign, canon = normalize(left + mid + right)
                        if sign:
                            if type(f) is int:
                                f = oc.partial(f)
                            # negative when exactly one of sign * sa < 0 and odd & travel
                            yield canon, c, f, (sign != sa) ^ odd & travel

        return self._like(sum_of_products(self.chart, pairs()))

    def bracket(self) -> "GradedElement":
        """The square [[a, a]] = 2 (a o a) of an element a of odd degree,
        the one graded bracket the BFV checks take ([[J^, J^]] = 0,
        d_BFV^2 = 0); the zero element is its own square.

        The square is the first-order product: the bracket of two
        multi-derivations is again a multi-derivation, so the second-order
        words of a o a (a derivative composed with a derivative) cancel for
        every a, and _compose does not make them."""
        if not self.terms:
            return self
        d = self.is_homogeneous_degree()
        if d is None or d % 2 == 0:
            raise ContentError("the bracket squares an element of odd degree")
        return self._compose(self).scale(2)


def _slots_by_symbol(terms):
    """symbol -> [(word, coefficient, letters left of the slot, letters
    right of it, parity of the letters right of it)] over the symbol slots
    of the terms; a product's sign is the kernel's flag, so no coefficient
    is negated."""
    index = {}
    for letters, c in terms.items():
        travel = 0
        for p in range(len(letters) - 1, bisect_left(letters, M) - 1, -1):
            s = letters[p]
            index.setdefault(s, []).append((letters, c, letters[:p], letters[p + 1 :], travel))
            travel ^= s & 1
    return index


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
    stand; d[s] is hamiltonian_operator(G, omega_E()).  h[s] is h[0]
    carried over by the fiber translation T_s f(u, y) = f(u, y + s(u))."""

    def __init__(self, s: LeafForm):
        chart = self.chart = s.chart
        self.components = s.components()
        self.powers = PowerTable(chart, self.components)  # wp substitutes s
        ys = [ScalarFn.y(chart, y) for y in chart.fiber]
        self.gens = [y - g for y, g in zip(ys, self.components)]  # y_A - g_A
        # T_s and T_s^-1 substitute y_A + g_A and y_A - g_A; s = 0 needs neither
        self.translations = None if s.is_zero() else (
            PowerTable(chart, [y + g for y, g in zip(ys, self.components)]), PowerTable(chart, self.gens)
        )

    def omega_E(self) -> GradedElement:
        """Omega_E[s] = sum_A (y_A - g_A) xi^A."""
        return ghost_section(self.chart, self.gens)

    def wp(self, lam: GradedElement) -> GradedElement:
        """Restrict to im s and kill positive antighost words."""
        live = ((w, f) for w, f in lam.terms.items() if not any(XIS <= x < M for x in w))
        subs = ((w, f.substitute_fiber(self.powers)) for w, f in live)
        return lam._like({w: g for w, g in subs if not g.is_zero()})

    def h(self, lam: GradedElement) -> GradedElement:
        """h[s] = T_s^-1 h[0] T_s (s is base-only, and h differentiates and
        integrates in the fiber only), where h[0] = int_0^1 j_t[0] dt maps a
        term f w whose word w holds N antighost letters to

            -(-1)^{sum of letter degrees of w} sum_A P_A w xis_A,
            P_A = int_0^1 (1-t)^N (d f / d y_A)((1-t) y) dt,

        which is c alpha_A / (N + |alpha|) y^(alpha - e_A) for a term
        c exp(i n.phi) y^alpha of f (ScalarFn.path_integral).  T_s acts on
        the coefficient of each word h does not kill, T_s^-1 on the result.

        The word w xis_A is normalized first: it vanishes when w already
        holds xis_A (xis_A is odd), and then P_A is never computed.  The
        sign above and the sign of the sort are applied as one negation.
        """
        k, fiber = self.chart.k, range(self.chart.k, self.chart.dim)
        forward, back = self.translations or (None, None)

        def pairs():
            for letters, f in lam.terms.items():
                nxis = sum(1 for x in letters if XIS <= x < M)
                # the sign above is -1 when the letter degrees sum to an even number
                even = not sum(x & 1 for x in letters) & 1
                g = f if forward is None else None  # T_s f, made for the first live word
                for i in fiber:  # T_s f depends on the y_A that f depends on
                    if f.mask >> i & 1:
                        sign, canon = normalize(letters + (_letter(XIS, i - k),))
                        if sign:
                            if g is None:
                                g = f.substitute_fiber(forward)
                            p_a = g.path_integral(i, nxis)  # nonzero, as g depends on y_A
                            yield canon, -p_a if (sign < 0) != even else p_a

        out = accumulate({}, pairs())
        if back is not None:  # T_s^-1 keeps a nonzero coefficient nonzero
            out = {w: f.substitute_fiber(back) for w, f in out.items()}
        return lam._like(out)
