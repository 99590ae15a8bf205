"""Schouten-Jacobi bracket, Hamiltonians, Jacobi pairs, bi-symbols."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coiso.ring import Chart, ContentError, ScalarFn
from coiso.multivector import MultiVectorField
from coiso.multider import MultiDerivation
from coiso.geom import contact_to_jacobi, fiberwise_linear_jacobi
from coiso.scenario import load_scenario

from helpers import (
    J_a,
    closed_apply,
    closed_sj_bracket,
    dense_gerstenhaber,
    dense_sn_bracket,
    eval_nested,
    exp_phi,
    jacobi_pair,
    leibniz_defect,
    fields_XY,
    jet_chart,
    jet_contact_data,
    random_multider,
    random_scalar,
    torus_chart,
    torus_jacobi,
)
from paper import bisymbol, hamiltonian, sn_bracket


@pytest.fixture
def chart():
    return torus_chart()


@pytest.fixture
def J(chart):
    return torus_jacobi(chart)


def test_sections_bracket_vanishes(chart):
    rng = random.Random(1)
    f = MultiDerivation.function(random_scalar(chart, rng))
    g = MultiDerivation.function(random_scalar(chart, rng))
    assert f.sj_bracket(g).is_zero()


def test_constant_bivector_is_jacobi(chart):
    lam = MultiVectorField.basis_vector(chart, "ph_1").wedge(
        MultiVectorField.basis_vector(chart, "ph_2")
    )
    J0 = MultiDerivation.from_parts(lam)
    assert J0.is_jacobi()


def test_torus_jacobi_is_jacobi(J):
    assert J.sj_bracket(J).is_zero()
    assert J.is_jacobi()


def test_scaled_bivector_is_still_jacobi(chart):
    # Lambda = y_1 dph_1 ^ dph_2: the sharp map kills dy_1, so the cyclic
    # Jacobiator vanishes identically even though the coefficient varies.
    y1 = ScalarFn.y(chart, "y_1")
    lam = (
        MultiVectorField.basis_vector(chart, "ph_1")
        .wedge(MultiVectorField.basis_vector(chart, "ph_2"))
        .scale_fn(y1)
    )
    assert MultiDerivation.from_parts(lam).is_jacobi()


def test_nonjacobi_bivector(chart):
    # Lambda = y_1 dph_1 ^ dph_2 + dy_1 ^ dph_3 has a nonzero Jacobiator
    # witnessed on argument triples; brute-force cyclic sums give the oracle.
    y1 = ScalarFn.y(chart, "y_1")
    lam = (
        MultiVectorField.basis_vector(chart, "ph_1")
        .wedge(MultiVectorField.basis_vector(chart, "ph_2"))
        .scale_fn(y1)
    ) + MultiVectorField.basis_vector(chart, "y_1").wedge(
        MultiVectorField.basis_vector(chart, "ph_3")
    )
    Jbad = MultiDerivation.from_parts(lam)
    jac = Jbad.sj_bracket(Jbad).scale(Fraction(1, 2))
    assert not jac.is_zero() and Jbad.sj_bracket(Jbad) == Jbad._bracket(Jbad)
    rng = random.Random(9)
    for _ in range(5):
        f, g, h = (random_scalar(chart, rng) for _ in range(3))
        cyc = (
            Jbad.apply([Jbad.apply([f, g]), h])
            + Jbad.apply([Jbad.apply([g, h]), f])
            + Jbad.apply([Jbad.apply([h, f]), g])
        )
        # nested-bracket evaluation of [[J, J]] gives twice the cyclic
        # Jacobiator; the direct (P,Q) evaluation differs by the sign
        # (-1)^{n(n-1)/2} = -1 at arity 3.
        assert eval_nested(Jbad.sj_bracket(Jbad), [f, g, h]) == cyc.scale(2)
        assert jac.apply([f, g, h]) == -cyc


def test_bracket_table(J, chart):
    """{y_a, y_b} = 0, {y_a, f} = df/dph_a, {f, g} = f_3 Xg - g_3 Xf + fYg - gYf."""
    X, Y = fields_XY(chart)
    y = [ScalarFn.y(chart, "y_1"), ScalarFn.y(chart, "y_2")]
    for a in range(2):
        for b in range(2):
            assert J.apply([y[a], y[b]]).is_zero()
    rng = random.Random(3)
    for _ in range(6):
        f = random_scalar(chart, rng, fiber_deg=0)
        g = random_scalar(chart, rng, fiber_deg=0)
        for a in range(2):
            assert J.apply([y[a], f]) == f.partial(a)
        expected = (
            f.partial(2) * X.apply([g])
            - g.partial(2) * X.apply([f])
            + f * Y.apply([g])
            - g * Y.apply([f])
        )
        assert J.apply([f, g]) == expected


def test_bracket_skew(J, chart):
    rng = random.Random(5)
    for _ in range(5):
        f = random_scalar(chart, rng)
        assert J.apply([f, f]).is_zero()


def test_hamiltonians(J, chart):
    X, Y = fields_XY(chart)
    one = ScalarFn.one(chart)
    # X_1 is the Reeb field Y
    assert hamiltonian(J, one).p_part == Y
    assert hamiltonian(J, ScalarFn.zero(chart)).is_zero()
    # Delta_{y_1} acts on base functions as d/dph_1
    d1 = hamiltonian(J, ScalarFn.y(chart, "y_1"))
    rng = random.Random(7)
    for _ in range(5):
        f = random_scalar(chart, rng, fiber_deg=0)
        assert d1.apply([f]) == f.partial(0)
    # Delta_lam(mu) = {lam, mu} for random sections
    for _ in range(5):
        lam = random_scalar(chart, rng)
        mu = random_scalar(chart, rng)
        assert hamiltonian(J, lam).apply([mu]) == J.apply([lam, mu])


def test_hamiltonian_generalized_leibniz(J, chart):
    # {lam, f mu} = f {lam, mu} + X_lam(f) mu
    rng = random.Random(11)
    for _ in range(5):
        lam = random_scalar(chart, rng)
        f = random_scalar(chart, rng)
        mu = random_scalar(chart, rng)
        lhs = J.apply([lam, f * mu])
        rhs = f * J.apply([lam, mu]) + hamiltonian(J, lam).p_part.apply([f]) * mu
        assert lhs == rhs


def test_jacobi_pair_dictionary(J, chart):
    X, Y = fields_XY(chart)
    lam, gam, report = jacobi_pair(J)
    assert gam == Y
    assert report["valid"]

    # Poisson specialization: Gamma = 0, validity iff [[Lambda, Lambda]] = 0
    b = MultiVectorField.basis_vector(chart, "ph_1").wedge(
        MultiVectorField.basis_vector(chart, "ph_2")
    )
    _, _, rep = jacobi_pair(MultiDerivation.from_parts(b))
    assert rep["valid"]

    # Lambda = dph_1 ^ dph_2, Gamma = dph_3: L_Gamma Lambda = 0 and
    # [[Lambda, Lambda]] = 0 but 2 Gamma ^ Lambda != 0, so invalid.
    g3 = MultiVectorField.basis_vector(chart, "ph_3")
    _, _, rep = jacobi_pair(MultiDerivation.from_parts(b, g3))
    assert rep["lie"].is_zero()
    assert not rep["mc"].is_zero()
    assert not rep["valid"]


def test_bisymbol(J, chart):
    X, Y = fields_XY(chart)
    # Lambda_J = p-part in the trivialized case
    assert bisymbol(J) == J.p_part
    # sharp evaluator vs X_{f 1} - f X_1 (eq. for the sharp of the bi-symbol)
    rng = random.Random(13)
    one = ScalarFn.one(chart)
    for _ in range(5):
        f = random_scalar(chart, rng)
        lhs = bisymbol(J).gerstenhaber(MultiVectorField.function(f))
        rhs = hamiltonian(J, f).p_part - hamiltonian(J, one).p_part.scale_fn(f)
        assert lhs == rhs
    # frozen value from that oracle: sharp(y_1) = X_{y_1} - y_1 X_1
    # = d/dph_1 - y_1 Y
    y1 = ScalarFn.y(chart, "y_1")
    expected = MultiVectorField.basis_vector(chart, "ph_1") - Y.scale_fn(y1)
    assert bisymbol(J).gerstenhaber(MultiVectorField.function(y1)) == expected
    # antisymmetry of the bi-symbol on random pairs
    for _ in range(5):
        f = random_scalar(chart, rng)
        g = random_scalar(chart, rng)
        assert bisymbol(J).apply([f, g]) == -bisymbol(J).apply([g, f])


def test_sj_graded_skew_and_jacobi(chart):
    rng = random.Random(17)
    for _ in range(6):
        na, nb, nc = rng.choice([(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 1, 0)])
        a = random_multider(chart, rng, na)
        b = random_multider(chart, rng, nb)
        c = random_multider(chart, rng, nc)
        sign = (-1) ** (((na - 1) * (nb - 1)) % 2)
        assert a.sj_bracket(b) == b.sj_bracket(a).scale(-sign)
        lhs = a.sj_bracket(b.sj_bracket(c))
        x, y = a.sj_bracket(b).sj_bracket(c), b.sj_bracket(a.sj_bracket(c)).scale(sign)
        assert lhs == x + y


def test_sj_leibniz(chart):
    rng = random.Random(19)
    for _ in range(6):
        a = random_multider(chart, rng, 1)
        b = random_multider(chart, rng, rng.choice([1, 2]))
        f = random_scalar(chart, rng)
        assert leibniz_defect(a, f, b).is_zero()


def test_jj_is_twice_jacobiator_extensionally(chart):
    rng = random.Random(23)
    for _ in range(4):
        j = random_multider(chart, rng, 2)
        jj = j.sj_bracket(j)
        f, g, h = (random_scalar(chart, rng) for _ in range(3))
        cyc = (
            j.apply([j.apply([f, g]), h])
            + j.apply([j.apply([g, h]), f])
            + j.apply([j.apply([h, f]), g])
        )
        assert eval_nested(jj, [f, g, h]) == cyc.scale(2)


def test_eval_nested_insertion(J, chart):
    # square(lam_1, ..., lam_n) via iterated single brackets:
    # {lam, mu} = -[[ [[J, lam]], mu ]]
    rng = random.Random(29)
    for _ in range(5):
        lam = random_scalar(chart, rng)
        mu = random_scalar(chart, rng)
        step1 = J.sj_bracket(MultiDerivation.function(lam))
        step2 = step1.sj_bracket(MultiDerivation.function(mu))
        assert step2.p_part.as_function().scale(-1) == J.apply([lam, mu])


def test_square_is_kept_and_equals_the_bracket_with_a_copy(J, chart):
    """[[J, J]] is computed once per object and kept; the bracket with a
    distinct copy, which always computes, is the oracle.  is_jacobi reads
    the kept square, and half of it is the cyclic Jacobiator."""
    rng = random.Random(31)
    for j in [J] + [random_multider(chart, rng, n) for n in (0, 1, 2, 2, 3)]:
        copy = MultiDerivation.from_parts(j.p_part, j.q_part)
        sq = j.sj_bracket(j)
        assert j.sj_bracket(j) is sq
        assert sq == j.sj_bracket(copy) == copy.sj_bracket(j)
        assert j.is_jacobi() == (j.degree == 2 and sq.is_zero())
        if j.degree == 2:
            f, g, h = (random_scalar(chart, rng) for _ in range(3))
            cyc = (
                j.apply([j.apply([f, g]), h])
                + j.apply([j.apply([g, h]), f])
                + j.apply([j.apply([h, f]), g])
            )
            assert sq.scale(Fraction(1, 2)).apply([f, g, h]) == -cyc
    assert J.is_jacobi() and not random_multider(chart, rng, 2).is_jacobi()


@pytest.mark.parametrize(
    "parts, message",
    [
        (lambda chart: (MultiVectorField.zero(chart, 0), MultiVectorField.function(ScalarFn.one(chart))),
         "a section has no q-part"),
        (lambda chart: (MultiVectorField.zero(chart, 2), MultiVectorField.zero(chart, 2)),
         "q-part degree must be arity - 1"),
        (lambda chart: (MultiVectorField.zero(chart, 2), MultiVectorField.zero(Chart(torus=("t",)), 1)),
         "different charts"),
    ],
    ids=["section-q", "q-degree", "q-chart"],
)
def test_constructor_checks(chart, parts, message):
    """The constructor refuses a (P, Q) pair of the wrong shape, and a
    comparison with a foreign type is NotImplemented (so == reads False)."""
    with pytest.raises(ContentError, match=message):
        MultiDerivation.from_parts(*parts(chart))
    zero = MultiDerivation.zero(chart, 1)
    assert zero.__eq__(0) is NotImplemented and zero != 0


def _with_parts_dropped(chart, rng, arity):
    """A random multi-derivation of the arity and, above arity 0, the same
    with P = 0 and with Q = 0."""
    x = random_multider(chart, rng, arity)
    if not arity:
        return [x]
    return [x, MultiDerivation.from_parts(MultiVectorField.zero(chart, arity), x.q_part),
            MultiDerivation.from_parts(x.p_part)]


def test_sj_bracket_is_the_closed_formula(chart):
    """The twisted Schouten bracket of TM x R is the closed (P, Q)-formula
    of tests/helpers.py on random multi-derivations of arities 0-3, either
    way round, with P = 0, with Q = 0, on sections and on squares."""
    rng = random.Random(37)
    for na in range(4):
        for nb in range(na, 4):
            for a in _with_parts_dropped(chart, rng, na):
                assert a.sj_bracket(a) == closed_sj_bracket(a, a)
                for b in _with_parts_dropped(chart, rng, nb):
                    assert a.sj_bracket(b) == closed_sj_bracket(a, b)
                    assert b.sj_bracket(a) == closed_sj_bracket(b, a)


def _field(chart, rng, degree, size):
    """A multivector field of the degree on `size` random keys (one for
    degree 0), each coefficient a random function of exactly `size` terms."""
    keys = list(combinations(range(chart.dim), degree))
    terms = {}
    for key in rng.sample(keys, min(size, len(keys))):
        f = ScalarFn.zero(chart)
        while len(f.terms) < size:
            f = f + random_scalar(chart, rng, max_terms=1)
        terms[key] = f
    return MultiVectorField(chart, degree, terms)


@pytest.mark.parametrize("sizes", [(1, 3), (3, 1), (2, 2)], ids=["first-fewer", "second-fewer", "ties"])
def test_signed_products_are_the_dense_and_closed_oracles(sizes):
    """Each sign rides along with one product: gerstenhaber, and the
    Schouten-Nijenhuis bracket of paper.py built from it, equal the
    key-by-key unshuffle expansion of tests/helpers.py, and
    sj_bracket, of distinct operands and squared, the closed (P, Q)-formula
    over that expansion, at arities 0-3, on operands whose coefficients
    (and keys) are fewer in the first operand, in the second, or as many:
    a negative product negates the operand with fewer terms, either one,
    and so does a twist wedge scaled by k."""
    chart = torus_chart()
    rng = random.Random(f"signed-products/{sizes}")
    first, second = sizes
    for p in range(4):
        for q in range(4):
            P, Q = _field(chart, rng, p, first), _field(chart, rng, q, second)
            assert P.gerstenhaber(Q) == dense_gerstenhaber(P, Q)
            assert sn_bracket(P, Q) == dense_sn_bracket(P, Q)
            a = MultiDerivation.from_parts(P, _field(chart, rng, p - 1, first) if p else None)
            b = MultiDerivation.from_parts(Q, _field(chart, rng, q - 1, second) if q else None)
            assert a.sj_bracket(b) == closed_sj_bracket(a, b)
            assert b.sj_bracket(b) == closed_sj_bracket(b, b)


@pytest.mark.parametrize(
    "structure",
    [torus_jacobi, lambda: contact_to_jacobi(*jet_contact_data(jet_chart(2))),
     lambda: fiberwise_linear_jacobi(jet_chart(2)),
     lambda: load_scenario("torus-obstructed").jacobi(),
     lambda: load_scenario("legendrian-jet").jacobi(),
     lambda: J_a(torus_jacobi(), exp_phi(torus_chart(), "ph_1"))],
    ids=["torus", "contact", "jet", "torus-obstructed", "legendrian-jet", "J_a"],
)
def test_square_of_each_structure_kind_is_the_closed_formula(structure):
    """The square rule of sj_bracket is the closed formula and the bracket
    of distinct operands, _bracket(J, J), on each structure kind, both
    built-in structures and a retrivialized J_a."""
    j = structure()
    assert j.sj_bracket(j) == closed_sj_bracket(j, j) == j._bracket(j)
    assert closed_sj_bracket(j, j).is_zero()


@pytest.mark.parametrize(
    "which, count",
    [("p", 1), ("p", 3), ("square", 1), ("square", 3), ("derivation", 0), ("derivation", 2)],
    ids=["p-one", "p-three", "square-one", "square-three", "derivation-zero", "derivation-two"],
)
def test_apply_refuses_a_wrong_count(which, count):
    """A bi-derivation and its P take exactly two functions, a derivation
    [[J, g]] exactly one: any other count raises a ContentError that names
    both counts."""
    j = load_scenario("torus-obstructed").jacobi()
    f, g = ScalarFn.y(j.chart, "y_1"), ScalarFn.cos_phi(j.chart, "ph_3")
    op = {"p": j.p_part, "square": j, "derivation": j.sj_bracket(MultiDerivation.function(g))}[which]
    with pytest.raises(
        ContentError, match=f"^arity {op.degree} operator applied to {count} functions$"
    ):
        op.apply([f, g, f][:count])


def test_apply_is_the_closed_expansion(chart):
    """apply, which inserts d_phi f = df + f phi in turn, is the closed
    (P, Q)-expansion of tests/helpers.py on random multi-derivations of
    arities 0-3, with P = 0 and with Q = 0, on sections and on the torus,
    contact and jet structures."""
    rng = random.Random(41)
    structures = [torus_jacobi(chart)]
    jc = jet_chart(2)
    structures += [contact_to_jacobi(*jet_contact_data(jc)), fiberwise_linear_jacobi(jc)]
    for n in range(4):
        for _ in range(3):
            structures += _with_parts_dropped(chart, rng, n)
    for sq in structures:
        fns = [random_scalar(sq.chart, rng) for _ in range(sq.degree)]
        assert sq.apply(fns) == closed_apply(sq, fns)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_square_rule_is_the_bracket_of_the_operand_with_itself(seed, arity, drop_q):
    """The square rule of sj_bracket (one A o A and one A ^ i_phi A at even
    arity, no product at odd arity) equals _bracket(A, A), the general
    formula for distinct operands applied to A twice, on random
    multi-derivations of arities 1-3, also with Q = 0; at odd arity both
    are identically zero."""
    chart = torus_chart()
    a = random_multider(chart, random.Random(seed), arity)
    if drop_q:
        a = MultiDerivation.from_parts(a.p_part)
    square = a.sj_bracket(a)
    assert square == a._bracket(a) and square.degree == 2 * arity - 1
    if arity % 2:
        assert square.is_zero()
