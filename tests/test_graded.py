"""Ghost algebra, graded Schouten-Jacobi bracket, contraction data."""

import json
import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

from coiso import graded
from coiso.rational import GaussianRational
from coiso.ring import Chart, ContentError, ScalarFn, accumulate
from coiso.leafform import LeafForm
from coiso.scenario import Scenario, load_scenario
from coiso.graded import (
    DX,
    DXI,
    DXIS,
    M,
    XI,
    XIS,
    ContractionTwo,
    GradedElement,
    encode,
    hamiltonian_operator,
    i_nabla,
    jacobi_bracket,
    tautological_G,
    term_degree,
    to_graded,
)

from helpers import (
    antighost,
    arity,
    benchmark_workloads,
    dense_compose,
    dense_insert,
    dense_normalize,
    eval_nested,
    ghost,
    graded_eval,
    i_then_p_defect,
    integrate_then_normalize_h,
    is_section,
    jet_scenario,
    random_base_scalar,
    random_multider,
    random_scalar,
    torus_chart,
    torus_jacobi,
)
import paper
from paper import (
    PAIR,
    Connection,
    ContractionOne,
    check_cancelled,
    decode_pairs,
    encode_pairs,
    from_graded,
    graded_bracket,
    graded_product,
    homogeneous_pieces,
    second_order_tally,
)



@pytest.fixture
def chart():
    return torus_chart()


@pytest.fixture
def G(chart):
    return tautological_G(chart)


def rand_section(chart, rng, nterms=2):
    terms = {}
    for _ in range(nterms):
        letters = []
        for _ in range(rng.randint(0, 2)):
            letters.append(rng.choice([(XI, rng.randrange(chart.m)), (XIS, rng.randrange(chart.m))]))
        sign, canon = dense_normalize(letters)
        if sign == 0:
            continue
        terms[canon] = random_scalar(chart, rng, max_terms=1)
    return GradedElement(chart, terms)


def rand_operator(chart, rng, max_arity=2, nterms=2):
    terms = {}
    deg = None
    while len(terms) < nterms:
        letters = []
        for _ in range(rng.randint(0, 2)):
            letters.append(rng.choice([(XI, rng.randrange(chart.m)), (XIS, rng.randrange(chart.m))]))
        for _ in range(rng.randint(1, max_arity)):
            letters.append(
                rng.choice(
                    [(M,), (DX, rng.randrange(chart.dim)), (DXI, rng.randrange(chart.m)), (DXIS, rng.randrange(chart.m))]
                )
            )
        sign, canon = dense_normalize(letters)
        if sign == 0:
            continue
        d = term_degree(encode(canon))
        if deg is None:
            deg = d
        if d != deg:
            continue
        terms[canon] = random_scalar(chart, rng, max_terms=1)
    return GradedElement(chart, terms)


def deg_of(x):
    d = x.is_homogeneous_degree()
    return 0 if d is None else d


def test_ghost_multiplication(chart):
    xi1 = ghost(chart, 0)
    xi2 = ghost(chart, 1)
    assert graded_product(xi1, xi2) == graded_product(xi2, xi1).scale(-1)
    assert graded_product(xi1, xi1).is_zero()
    # (y_1 xi^1)(y_2 xis_2) lands in canonical order with sign +1
    a = xi1.scale_fn(ScalarFn.y(chart, "y_1"))
    b = antighost(chart, 1).scale_fn(ScalarFn.y(chart, "y_2"))
    prod = graded_product(a, b)
    y12 = ScalarFn.y(chart, "y_1") * ScalarFn.y(chart, "y_2")
    assert prod == GradedElement(chart, {((XI, 0), (XIS, 1)): y12})


def test_tautological_G_evaluation(chart, G):
    rng = random.Random(1)
    for _ in range(4):
        u = GradedElement(chart)
        al = GradedElement(chart)
        pairing = ScalarFn.zero(chart)
        for A in range(chart.m):
            cu = random_scalar(chart, rng)
            ca = random_scalar(chart, rng)
            u = u + ghost(chart, A).scale_fn(cu)
            al = al + antighost(chart, A).scale_fn(ca)
            pairing = pairing + cu * ca
        expected = GradedElement.section(chart, pairing)
        assert graded_eval(G, [u, al]) == expected
        assert graded_eval(G, [al, u]) == expected
        u2 = ghost(chart, 1)
        assert graded_eval(G, [u, u2]).is_zero()
    # decalage bracket agrees on ghost-degree-1 arguments
    assert jacobi_bracket(G, u, al) == expected


def test_dG_local_table(chart, G):
    # d_G xi^A = Delta^A, d_G (xis_A mu) = Delta_A, d_G(f mu) = 0,
    # d_G(id) = G, d_G kills the Delta generators
    for A in range(chart.m):
        out = G.insert(ghost(chart, A))
        assert out == GradedElement(chart, {((DXIS, A),): ScalarFn.one(chart)})
        out = G.insert(antighost(chart, A))
        assert out == GradedElement(chart, {((DXI, A),): ScalarFn.one(chart)})
    f = GradedElement.section(chart, ScalarFn.sin_phi(chart, "ph_3"))
    assert G.insert(f).is_zero()
    id_op = GradedElement(chart, {((M,),): ScalarFn.one(chart)})
    assert graded_bracket(G, id_op) == G
    for letters in (((DX, 0),), ((DXI, 1),), ((DXIS, 0),)):
        assert graded_bracket(G, GradedElement(chart, {letters: ScalarFn.one(chart)})).is_zero()
    assert G.bracket().is_zero()


def test_dG_squares_to_zero(chart, G):
    rng = random.Random(2)
    for _ in range(6):
        op = rand_operator(chart, rng)
        assert graded_bracket(G, graded_bracket(G, op)).is_zero()


def test_graded_jacobi_and_skew(chart):
    rng = random.Random(3)
    for _ in range(10):
        a = rand_operator(chart, rng)
        b = rand_operator(chart, rng)
        c = rand_operator(chart, rng)
        da, db = deg_of(a), deg_of(b)
        skew = graded_bracket(a, b) + graded_bracket(b, a).scale((-1) ** ((da * db) % 2))
        assert skew.is_zero()
        lhs = graded_bracket(a, graded_bracket(b, c))
        rhs = graded_bracket(graded_bracket(a, b), c) + graded_bracket(b, graded_bracket(a, c)).scale(
            (-1) ** ((da * db) % 2)
        )
        assert (lhs - rhs).is_zero()


def _operators_by_parity(chart, rng, count=4):
    """count random operators of each degree parity, and count of mixed
    degree (the sum of an even and an odd one)."""
    by_parity = {0: [], 1: []}
    while min(len(v) for v in by_parity.values()) < count:
        x = rand_operator(chart, rng)
        by_parity[deg_of(x) % 2].append(x)
    return by_parity[1], by_parity[0], [a + b for a, b in zip(*by_parity.values())]


def test_square_composes_once(chart, monkeypatch):
    """[[x, x]] of an odd x composes x with itself once and equals the
    bracket with a distinct copy, which composes both ways."""
    odd, _, _ = _operators_by_parity(chart, random.Random(12))
    calls = []
    original = GradedElement._compose

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(GradedElement, "_compose", counted)
    for x in odd:
        copy = x._like(dict(x.terms))
        assert copy is not x and copy == x
        del calls[:]
        square = x.bracket()
        assert len(calls) == 1
        assert square == graded_bracket(x, copy)


def test_square_needs_odd_degree(chart):
    """The square of an even or a mixed-degree element raises, as the
    library takes only the squares of the odd BFV elements; the zero
    element, which has no single degree, is its own square."""
    _, even, mixed = _operators_by_parity(chart, random.Random(13))
    for x in even + mixed:
        with pytest.raises(ContentError, match="odd degree"):
            x.bracket()
    zero = GradedElement(chart)
    assert zero.bracket().is_zero()


# ghost rank -> a chart with that many fiber coordinates
_GRADED_CHARTS = {
    1: Chart(torus=("ph_1", "ph_2"), fiber=("y_1",), leaf=("ph_1",)),
    2: Chart(torus=("ph_1", "ph_2"), fiber=("y_1", "y_2"), leaf=("ph_1",)),
}


@st.composite
def _graded_pair(draw, kinds=("odd", "even", "mixed", "section"), other_kinds=None):
    """Two graded elements of one rank (1 or 2) on its chart, each an
    operator of homogeneous odd or even degree, of mixed degree, or a
    section; words have up to two ghost letters and, for operators, one or
    two symbols."""
    rank = draw(st.sampled_from(sorted(_GRADED_CHARTS)))
    chart = _GRADED_CHARTS[rank]
    exps = st.tuples(*[st.integers(-1, 1)] * chart.k, *[st.integers(0, 1)] * chart.m)
    coefs = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2))
    scalars = st.dictionaries(exps, coefs, min_size=1, max_size=2).map(lambda t: ScalarFn(chart, t))
    ghost = st.tuples(st.sampled_from((XI, XIS)), st.integers(0, rank - 1))
    symbol = st.one_of(
        st.just((M,)),
        st.tuples(st.just(DX), st.integers(0, chart.dim - 1)),
        st.tuples(st.sampled_from((DXI, DXIS)), st.integers(0, rank - 1)),
    )

    def element(kind):
        nsym = (0, 0) if kind == "section" else (1, 2)
        words = st.builds(
            lambda g, s: g + s,
            st.lists(ghost, max_size=2),
            st.lists(symbol, min_size=nsym[0], max_size=nsym[1]),
        )
        terms = {}
        for letters in draw(st.lists(words, min_size=1, max_size=3)):
            sign, canon = dense_normalize(letters)
            if sign:
                terms[canon] = draw(scalars)
        degrees = sorted({term_degree(encode(l)) for l in terms})
        if kind in ("odd", "even"):
            # one degree of the asked parity
            keep = [d for d in degrees if d % 2 == (kind == "odd")]
            assume(keep)
            terms = {l: f for l, f in terms.items() if term_degree(encode(l)) == keep[0]}
        elif kind == "mixed":
            assume(len(degrees) > 1)
        assume(terms)
        return GradedElement(chart, terms)

    return element(draw(st.sampled_from(kinds))), element(draw(st.sampled_from(other_kinds or kinds)))


# tuple letters of ghost rank 2 on a 3-dimensional chart: small enough that
# random words repeat letters
_WORD_LETTERS = st.one_of(
    st.tuples(st.sampled_from((XI, XIS, DXI, DXIS)), st.integers(0, 1)),
    st.just((M,)),
    st.tuples(st.just(DX), st.integers(0, 2)),
)
_DERIVATIVES = st.one_of(
    st.tuples(st.sampled_from((DXI, DXIS)), st.integers(0, 1)), st.tuples(st.just(DX), st.integers(0, 2))
)
_PAIRS = st.tuples(st.just(PAIR), _DERIVATIVES, _DERIVATIVES)


@st.composite
def _words(draw):
    """Up to 8 tuple letters, repeats allowed, with at most one PAIR letter
    (as in a tallied second-order word)."""
    word = draw(st.lists(_WORD_LETTERS, max_size=8))
    if draw(st.booleans()):
        word.insert(draw(st.integers(0, len(word))), draw(_PAIRS))
    return tuple(word)


@settings(max_examples=300, deadline=None)
@given(_words())
def test_letter_codes_normalize_like_tuple_letters(word):
    """Encoding, normalizing and decoding a word gives the tuple-letter
    insertion sort's sign and word; PAIR letters go through the tests'
    codec, which extends graded's."""
    assert decode_pairs(encode_pairs(word)) == word
    sign, canon = graded.normalize(encode_pairs(word))
    dsign, dcanon = dense_normalize(word)
    assert sign == dsign
    if sign:
        assert decode_pairs(canon) == dcanon


def test_letter_codes_order_letters_by_kind_then_index():
    """Up to ghost rank 4 and chart dimension 8, the integer codes order
    every letter but PAIR as (kind in the order xi, xis, m, dx, dxi, dxis,
    then index) does."""
    kinds = [XI, XIS, M, DX, DXI, DXIS]
    letters = [(M,)] + [(DX, i) for i in range(8)]
    letters += [(kind, A) for kind in (XI, XIS, DXI, DXIS) for A in range(4)]
    by_code = sorted(letters, key=lambda l: encode((l,)))
    assert by_code == sorted(letters, key=lambda l: (kinds.index(l[0]),) + l[1:])
    with pytest.raises(ContentError, match=r"^unknown letter \('xi', 0\)$"):
        encode((("xi", 0),))


def _dense_bracket(a, b):
    """[[a, b]] by the materializing products, over homogeneous pieces:
    a o b -+ b o a, where no second-order (PAIR) word may survive."""
    out = GradedElement(a.chart)
    for pa in homogeneous_pieces(a):
        for pb in homogeneous_pieces(b):
            da, db = deg_of(pa), deg_of(pb)
            ab, ba = dense_compose(pa, pb), dense_compose(pb, pa)
            raw = ab + ba if (da * db) % 2 else ab - ba
            assert not any(l[0] == PAIR for word in raw.terms for l in decode_pairs(word))
            out = out + raw
    return out


@settings(max_examples=60, deadline=None)
@given(_graded_pair())
def test_bracket_matches_dense_compose(pair):
    """The bracket's first-order kernel, and its tally check of the
    second-order words, agree with multiplying every composite out: on odd,
    even and mixed degrees, sections, rank 1 and 2, and squares; the
    library's square of an odd element is the same."""
    a, b = pair
    assert graded_bracket(a, b) == _dense_bracket(a, b)
    assert graded_bracket(a, a) == _dense_bracket(a, a)
    for x in pair:
        if (x.is_homogeneous_degree() or 0) % 2:
            assert x.bracket() == graded_bracket(x, x) == _dense_bracket(x, x)


@settings(max_examples=60, deadline=None)
@given(_graded_pair(kinds=("odd", "even", "mixed"), other_kinds=("section",)))
def test_insert_matches_dense_insertion(pair):
    """insert is the first-order part of the product with a section and
    equals the insertion loop."""
    op, lam = pair
    assert op.insert(lam) == dense_insert(op, lam)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_graded_pair())
def test_compose_tally_matches_dense_compose(pair):
    """The library's first-order product a o b, with the oracle's tally of
    the second-order words multiplied out (count * a.terms[x] * b.terms[y]
    on the PAIR word of each key), is the dense product: the first-order part
    gives its words without a PAIR letter, the tally those with one; no
    first-order coefficient is zero (a derivative zero by structure is
    skipped, not multiplied)."""
    a, b = pair
    first, tally = a._compose(b), second_order_tally(a, b)
    assert not any(f.is_zero() for f in first.terms.values())
    assert not any(l >= PAIR for word in first.terms for l in word)
    assert all(any(l >= PAIR for l in word) for word, _, _ in tally)
    second = ((word, (a.terms[x] * b.terms[y]).scale(n)) for (word, x, y), n in tally.items() if n)
    assert first._like(accumulate(dict(first.terms), second)) == dense_compose(a, b)


def test_symbol_index_is_built_once_per_element(chart):
    """An element builds its symbol index on its first composition and keeps
    it; an element made from it by _like, +, scale or homogeneous_pieces
    starts without one.  The index lists every symbol slot of every term."""
    rng = random.Random(5)
    op = rand_operator(chart, rng, nterms=3) + rand_operator(chart, rng, nterms=3)
    lam = rand_section(chart, rng)
    assert op._by_symbol is None
    op.insert(lam)
    index = op._by_symbol
    assert index is not None
    op.insert(rand_section(chart, rng))
    op._compose(op)
    assert op._by_symbol is index
    slots = sorted((word, s) for word in op.terms for s in word[len(word) - arity(word) :])
    assert sorted((word, s) for s, entries in index.items() for word, *_ in entries) == slots
    derived = [op._like(dict(op.terms)), op + op, op - op, op.scale(2), *homogeneous_pieces(op)]
    assert all(x._by_symbol is None for x in derived)


def _flip_dx1_dx0(monkeypatch):
    """Flip the sign of the composite dx(1) o dx(0) in the tests'
    compose_symbols, the sign source of the sort route."""
    original = paper.compose_symbols

    def flipped(s, sp):
        comp, sign = original(s, sp)
        return comp, -sign if (s, sp) == encode(((DX, 1), (DX, 0))) else sign

    monkeypatch.setattr(paper, "compose_symbols", flipped)


def test_uncancelled_composite_raises(chart, monkeypatch):
    """A sign error in one derivative composite leaves a second-order word
    in the tests' bracket of two elements, and its tally check reports it."""
    a = GradedElement(chart, {((DX, 0),): ScalarFn.sin_phi(chart, "ph_3")})
    b = GradedElement(chart, {((DX, 1),): ScalarFn.y(chart, "y_1")})
    assert graded_bracket(a, b) == _dense_bracket(a, b)
    _flip_dx1_dx0(monkeypatch)
    with pytest.raises(AssertionError, match="second-order composite survived the bracket"):
        graded_bracket(a, b)


# every letter of ghost rank 2 on the first three chart coordinates
_SMALL_LETTERS = encode(
    [(XI, A) for A in range(2)]
    + [(XIS, A) for A in range(2)]
    + [(M,)]
    + [(DX, i) for i in range(3)]
    + [(kind, A) for kind in (DXI, DXIS) for A in range(2)]
)


def _small_odd_elements(chart):
    """Every odd one-term element, and every two-term element of one odd
    degree, of the canonical words of at most 3 letters of _SMALL_LETTERS
    that hold a derivative (a symbol other than m), each term with
    coefficient 1."""
    words = set()
    for n in range(1, 4):
        for letters in combinations_with_replacement(_SMALL_LETTERS, n):
            sign, canon = graded.normalize(letters)
            if sign and canon[-1] >= DX:  # the last letter of a canonical word is its greatest
                words.add(canon)
    by_degree = {}
    for w in sorted(words):
        if term_degree(w) % 2:
            by_degree.setdefault(term_degree(w), []).append(w)
    one = ScalarFn.one(chart)
    for ws in by_degree.values():
        yield from (GradedElement._raw(chart, {w: one}) for w in ws)
        yield from (GradedElement._raw(chart, {v: one, w: one}) for v, w in combinations(ws, 2))


def _uncancelled_squares(chart):
    """(elements, those whose square's second-order tally does not cancel
    formally): a count (w, x, y) plus its mirror (w, y, x) is not 0, or a
    diagonal count (w, x, x) is not 0."""
    elements = failed = 0
    for x in _small_odd_elements(chart):
        tally = second_order_tally(x, x)
        elements += 1
        failed += any(n + (tally.get((w, b, a), 0) if a != b else 0) for (w, a, b), n in tally.items())
    return elements, failed


def test_second_order_composites_of_small_squares_cancel(chart, monkeypatch):
    """Bounded-exhaustive: over every odd one-term element and every
    two-term element of one odd degree of words of at most 3 letters (ghost
    rank 2, three coordinates), the second-order composites of the square
    cancel formally on the sort route, which is why the library's square is
    its first-order product.  With the sign of dx(1) o dx(0) flipped, some
    square keeps one."""
    elements, failed = _uncancelled_squares(chart)
    assert (elements, failed) == (4735, 0)
    _flip_dx1_dx0(monkeypatch)
    assert _uncancelled_squares(chart)[1]


# J^ and d_BFV of the jet models over T^1..T^3 and of torus-obstructed
_BFV_OPERATORS = ["jet-T1", "jet-T2", "jet-T3", "torus-obstructed"]


def _bfv_operators(name):
    scenario = load_scenario(name) if name == "torus-obstructed" else jet_scenario(int(name[-1]))
    return scenario.lift().j_hat, scenario.dbfv()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_graded_pair(kinds=("odd",)))
def test_square_matches_the_dense_bracket(pair):
    """Every odd element's square, the first-order product, is the bracket
    multiplied out by the materializing products."""
    for x in pair:
        assert x.bracket() == _dense_bracket(x, x)


@pytest.mark.parametrize("name", _BFV_OPERATORS)
def test_bfv_squares_match_the_dense_bracket(name):
    """[[J^, J^]] and d_BFV^2 vanish, as the materializing products give."""
    for op in _bfv_operators(name):
        assert op.bracket() == _dense_bracket(op, op) == GradedElement(op.chart)


def test_check_cancelled_multiplies_out_survivors(chart):
    """Tally entries that do not cancel formally are multiplied out per
    word: distinct factor pairs with equal products and opposite counts
    cancel, unequal products do not, and zero counts are never read."""
    f, g = ScalarFn.sin_phi(chart, "ph_3"), ScalarFn.y(chart, "y_1")
    word = ((PAIR, (DX, 0), (DX, 1)),)
    a_terms = {"x1": f.scale(2), "x2": f}
    tally = {(word, "x1", "y1"): 1, (word, "x2", "y2"): -1, (word, "x3", "y3"): 0}
    check_cancelled(tally.items(), a_terms, {"y1": g, "y2": g.scale(2)})
    with pytest.raises(AssertionError, match="second-order composite survived the bracket"):
        check_cancelled(tally.items(), a_terms, {"y1": g, "y2": g.scale(3)})


def test_bracket_insertion_recursion(chart):
    rng = random.Random(4)
    for _ in range(10):
        a = rand_operator(chart, rng, max_arity=3)
        b = rand_operator(chart, rng, max_arity=2)
        lam = rand_section(chart, rng)
        da, db = deg_of(a), deg_of(b)
        W = graded_bracket(a, b)
        lhs = GradedElement(chart) if is_section(W) else W.insert(lam)
        bl = b.insert(lam)
        al = a.insert(lam)
        t1 = a.insert(bl) if is_section(bl) else graded_bracket(a, bl)
        t2 = b.insert(al) if is_section(al) else graded_bracket(b, al)
        assert (lhs - (t1 - t2.scale((-1) ** ((da * db) % 2)))).is_zero()


def test_graded_leibniz(chart):
    # [[box, f box']] = X_box(f) box' + (-1)^{|f||box|} f [[box, box']]
    # for a derivation box without mu*-slots (so box(f mu) = X_box(f) mu)
    # and a ghost-free coefficient f (degree 0, no extra sign).
    rng = random.Random(5)
    done = 0
    while done < 6:
        box = rand_operator(chart, rng, max_arity=1, nterms=1)
        if any(M in word for word in box.terms):
            continue
        boxp = rand_operator(chart, rng, max_arity=1, nterms=1)
        f = random_scalar(chart, rng)
        lhs = graded_bracket(box, boxp.scale_fn(f))
        xf = box.insert(GradedElement.section(chart, f))
        assert is_section(xf)
        rhs = graded_product(xf, boxp) + graded_bracket(box, boxp).scale_fn(f)
        assert (lhs - rhs).is_zero()
        done += 1


def test_eval_graded_symmetry(chart):
    rng = random.Random(6)
    for _ in range(6):
        op = rand_operator(chart, rng, max_arity=2, nterms=2)
        if max(map(arity, op.terms), default=0) != 2:
            continue
        a = rand_section(chart, rng)
        b = rand_section(chart, rng)
        da, db = deg_of(a), deg_of(b)
        try:
            lhs = graded_eval(op, [a, b])
            rhs = graded_eval(op, [b, a]).scale((-1) ** ((da * db) % 2))
        except Exception:
            continue
        assert (lhs - rhs).is_zero()


def test_to_graded_matches_nested_eval(chart):
    rng = random.Random(7)
    J = torus_jacobi(chart)
    for sq in [J] + [random_multider(chart, rng, rng.choice([1, 2])) for _ in range(5)]:
        op = to_graded(sq)
        args = [random_scalar(chart, rng) for _ in range(sq.degree)]
        lhs = graded_eval(op, [GradedElement.section(chart, f) for f in args])
        expected = eval_nested(sq, args)
        assert lhs == GradedElement.section(chart, expected)
        assert from_graded(op) == sq


def test_contraction_one_tables(chart, G):
    c1 = ContractionOne(chart)
    rng = random.Random(8)
    J = torus_jacobi(chart)
    # p o i_nabla = id
    for sq in [J] + [random_multider(chart, rng, rng.choice([1, 2])) for _ in range(4)]:
        assert c1.p(c1.i_nabla(sq)) == sq
    # flat trivial connection: i_nabla is a bracket morphism
    for _ in range(4):
        a = random_multider(chart, rng, rng.choice([1, 2]))
        b = random_multider(chart, rng, rng.choice([1, 2]))
        lhs = graded_bracket(c1.i_nabla(a), c1.i_nabla(b))
        rhs = c1.i_nabla(a.sj_bracket(b))
        assert (lhs - rhs).is_zero()
    # d_G o i_nabla = 0
    for _ in range(3):
        a = random_multider(chart, rng, rng.choice([1, 2]))
        assert graded_bracket(G, c1.i_nabla(a)).is_zero()


def test_i_nabla_matches_the_connection_reference(chart):
    """The library's i_nabla (trivial connection) equals the first
    contraction data's i_nabla for the zero connection, which multiplies the
    slot images along each word, and p reads the multiderivation back."""
    rng = random.Random(12)
    jet = load_scenario("legendrian-jet").jacobi()
    cases = [torus_jacobi(chart), jet]
    cases += [random_multider(chart, rng, arity) for arity in (1, 2, 3) for _ in range(3)]
    for sq in cases:
        c1 = ContractionOne(sq.chart)
        assert i_nabla(sq) == c1.i_nabla(sq)
        assert c1.p(i_nabla(sq)) == sq


def test_contraction_one_homotopy(chart, G):
    rng = random.Random(9)
    for conn in (None, _random_connection(chart, rng)):
        c1 = ContractionOne(chart, conn)
        for _ in range(5):
            op = rand_operator(chart, rng, max_arity=2)
            # [H~, d_G] = weight
            lhs = c1.H_tilde(graded_bracket(G, op)) + graded_bracket(G, c1.H_tilde(op))
            weight = GradedElement(chart).plus(
                comp.scale(w) for w, comp in c1.weight_split(op).items()
            )
            assert (lhs - weight).is_zero()
            # i p - id = [d_G, H]
            assert i_then_p_defect(c1, op, G).is_zero()
            # side conditions
            assert c1.H(c1.H(op)).is_zero()
            assert c1.p(c1.H(op)).is_zero()
        for _ in range(3):
            sq = random_multider(chart, rng, rng.choice([1, 2]))
            assert c1.H(c1.i_nabla(sq)).is_zero()


def _random_connection(chart, rng):
    gid = [[random_base_scalar(chart, rng, max_terms=1) for _ in range(chart.m)] for _ in range(chart.m)]
    g0 = [[random_base_scalar(chart, rng, max_terms=1) for _ in range(chart.m)] for _ in range(chart.m)]
    return Connection(chart, gamma_id=gid, gamma={0: g0})


def test_weight_eigenspace_decomposition(chart, G):
    rng = random.Random(10)
    c1 = ContractionOne(chart)
    for _ in range(5):
        op = rand_operator(chart, rng, max_arity=2)
        pieces = c1.weight_split(op)
        total = GradedElement(chart)
        for w, comp in pieces.items():
            total = total + comp
            # eigenspaces invariant under d_G and H~
            dg = graded_bracket(G, comp)
            if not dg.is_zero():
                split = c1.weight_split(dg)
                assert set(split) <= {w}
            ht = c1.H_tilde(comp)
            if not ht.is_zero():
                split = c1.weight_split(ht)
                assert set(split) <= {w}
        assert (total - op).is_zero()


def test_contraction_two(chart, G):
    rng = random.Random(11)
    zero = LeafForm.zero(chart, 1)
    sections = [zero]
    for _ in range(2):
        sections.append(
            LeafForm.section(
                chart, [random_base_scalar(chart, rng), random_base_scalar(chart, rng)]
            )
        )
    for s in sections:
        c2 = ContractionTwo(s)
        ds = hamiltonian_operator(G, c2.omega_E())
        # d[s] is the displayed operator (y_A - g_A) Delta^A
        expected = GradedElement(chart)
        for A in range(chart.m):
            coeff = ScalarFn.y(chart, chart.fiber[A]) - s.components()[A]
            expected = expected + GradedElement(chart, {((DXIS, A),): coeff})
        assert (ds - expected).is_zero()
        # d[s]^2 = 0
        assert ds.bracket().is_zero()
        # Omega_E[s] is a G-MC element
        om = c2.omega_E()
        assert jacobi_bracket(G, om, om).is_zero()
        # side conditions and the homotopy identity on random sections
        for _ in range(6):
            lam = rand_section(chart, rng)
            lhs = ds.insert(c2.h(lam)) + c2.h(ds.insert(lam))
            rhs = c2.wp(lam) - lam
            assert (lhs - rhs).is_zero()
            assert c2.h(c2.h(lam)).is_zero()
            assert c2.wp(c2.h(lam)).is_zero()
        base = GradedElement(
            chart,
            {((XI, 0),): random_base_scalar(chart, rng), (): random_base_scalar(chart, rng)},
        )
        assert c2.h(base).is_zero()
        assert c2.wp(base) == base


def test_h0_frozen_value(chart, G):
    # h[0](y_1 mu) = -xis_1 mu and [d[0], h[0]](y_1 mu) = -y_1 mu
    c2 = ContractionTwo(LeafForm.zero(chart, 1))
    y1 = GradedElement.section(chart, ScalarFn.y(chart, "y_1"))
    hy = c2.h(y1)
    assert hy == GradedElement(chart, {((XIS, 0),): ScalarFn.one(chart).scale(-1)})
    ds = hamiltonian_operator(G, c2.omega_E())
    commutator = ds.insert(hy) + c2.h(ds.insert(y1))
    assert commutator == y1.scale(-1)
    assert (c2.wp(y1) - y1) == y1.scale(-1)


def test_h_is_the_integrate_then_normalize_route(chart):
    """ContractionTwo.h, which sorts w xis_A before it integrates and signs
    once, and takes a nonzero section as the zero one translated, equals
    the route that integrates along the straight path to the section in
    closed form (binomial and Beta), signs and only then sorts, for the
    zero section and nonzero ones, on words with and without antighosts
    (h^2 included, whose words already carry antighosts)."""
    rng = random.Random(29)
    sections = [LeafForm.zero(chart, 1)] + [
        LeafForm.section(chart, [random_base_scalar(chart, rng) for _ in range(chart.m)])
        for _ in range(3)
    ]
    letters = [(XI, 0), (XI, 1), (XIS, 0), (XIS, 1)]
    for s in sections:
        c2 = ContractionTwo(s)
        for _ in range(20):
            terms = {}
            for _ in range(3):
                word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                terms[word] = random_scalar(chart, rng, max_terms=3, fiber_deg=2)
            lam = GradedElement(chart, terms)
            hlam = c2.h(lam)
            assert hlam == integrate_then_normalize_h(c2, lam)
            assert c2.h(hlam) == integrate_then_normalize_h(c2, hlam)


def test_h_skips_a_word_that_holds_its_antighost(chart, monkeypatch):
    """w xis_A vanishes when w holds xis_A (xis_A is odd), so h integrates
    no derivative along y_A for it: h(y_1^2 xis_1) = 0 with no path
    integral, and h(y_1 y_2 xis_1) takes the one along y_2, for the zero
    section and along a nonzero one, where the word that h kills is not
    translated either."""
    integrals, substitutions = [], []
    integral, substitute = ScalarFn.path_integral, ScalarFn.substitute_fiber
    monkeypatch.setattr(ScalarFn, "path_integral", lambda f, i, n: integrals.append(i) or integral(f, i, n))
    monkeypatch.setattr(ScalarFn, "substitute_fiber", lambda f, p: substitutions.append(f) or substitute(f, p))
    y1, y2 = ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")
    g = ScalarFn.sin_phi(chart, "ph_3")
    for s in (LeafForm.zero(chart, 1), LeafForm.section(chart, [g, g])):
        c2 = ContractionTwo(s)
        integrals.clear()
        substitutions.clear()
        assert c2.h(GradedElement(chart, {((XIS, 0),): y1 * y1})).is_zero()
        assert integrals == [] and substitutions == []
        lam = GradedElement(chart, {((XIS, 0),): y1 * y2})
        hlam = c2.h(lam)
        assert integrals == [chart.k + 1]
        assert hlam == integrate_then_normalize_h(c2, lam) and not hlam.is_zero()


def test_h0_takes_no_partial(chart, monkeypatch):
    """h[0] integrates each fiber derivative in one scaling per term
    (ScalarFn.path_integral): it takes no ScalarFn.partial and makes no
    fiber substitution, and h[s] takes no partial either."""
    calls = []
    partial, substitute = ScalarFn.partial, ScalarFn.substitute_fiber
    monkeypatch.setattr(ScalarFn, "partial", lambda f, i: calls.append("partial") or partial(f, i))
    monkeypatch.setattr(ScalarFn, "substitute_fiber", lambda f, p: calls.append("substitute_fiber") or substitute(f, p))
    rng = random.Random(31)
    lam = rand_section(chart, rng, nterms=4) + GradedElement.section(chart, ScalarFn.y(chart, "y_1", 3))
    h0 = ContractionTwo(LeafForm.zero(chart, 1)).h(lam)
    assert calls == [] and not h0.is_zero()
    s = LeafForm.section(chart, [random_base_scalar(chart, rng) for _ in range(chart.m)])
    assert not ContractionTwo(s).h(lam).is_zero()
    assert "partial" not in calls and "substitute_fiber" in calls


def _h_sections():
    """Nonzero sections (LeafForms) of J^1(T^1)..J^1(T^3), torus-obstructed
    and both linfty-sections families, the jet and linfty ones from the
    benchmark's seeded generators."""
    workloads = benchmark_workloads()
    out = [pytest.param(load_scenario("torus-obstructed").section(), id="torus-obstructed")]
    for b in (1, 2, 3):
        data = workloads.jet_scenario(b, random.Random(f"h/jet/{b}"))
        out.append(pytest.param(Scenario(data, f"jet{b}").section(), id=f"jet-T{b}"))
    base = json.loads(workloads._builtin_bytes("torus-obstructed"))
    for family in (workloads.PROLONGED, workloads.OBSTRUCTED):
        for seed in range(2):
            data = workloads.section_scenario(base, family, random.Random(f"h/{family}/{seed}"))
            out.append(pytest.param(Scenario(data, family).section(), id=f"{family}-{seed}"))
    return out


@pytest.mark.parametrize("s", _h_sections())
def test_h_along_a_section_matches_the_beta_binomial_route(s):
    """h[s] = T_s^-1 h[0] T_s equals the closed-form path integral along the
    straight path to s (binomial expansion and Beta integrals), on random
    words of up to 3 ghost and antighost letters whose coefficients have
    fiber degree up to 3 per coordinate (2 on the four fiber coordinates
    of J^1(T^3), where degree 3 gives images of about 10^4 terms and takes
    the test to tens of seconds), and again on their images."""
    chart = s.chart
    assert not s.is_zero()
    rng = random.Random(f"h/{chart.torus}/{chart.fiber}")
    letters = [(kind, A) for kind in (XI, XIS) for A in range(chart.m)]
    c2 = ContractionTwo(s)
    for _ in range(8):
        terms = {}
        for _ in range(2):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            terms[word] = random_scalar(chart, rng, max_terms=2, fiber_deg=3 if chart.m < 4 else 2)
        lam = GradedElement(chart, terms)
        hlam = c2.h(lam)
        assert hlam == integrate_then_normalize_h(c2, lam)
        assert c2.h(hlam) == integrate_then_normalize_h(c2, hlam)


@pytest.mark.parametrize(
    "word, sign",
    [((), -1), (((XI, 0),), 1), (((XI, 0), (XI, 1)), -1), (None, None)],
    ids=["function", "ghost", "two-ghosts", "mixed"],
)
def test_decal_sign(chart, word, sign):
    """(-1)^{shifted degree} of a homogeneous section: a function has
    shifted degree -1 and each ghost adds 1; a section of two degrees has
    none."""
    one = ScalarFn.one(chart)
    if word is not None:
        assert graded.decal_sign(GradedElement(chart, {word: one})) == sign
        return
    mixed = GradedElement(chart, {((XI, 0),): one, (): one})
    with pytest.raises(ContentError, match="homogeneous section"):
        graded.decal_sign(mixed)
