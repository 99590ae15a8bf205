"""Schouten-Jacobi bracket, Hamiltonians, Jacobi pairs, bi-symbols."""

import random
from fractions import Fraction

import pytest

from coiso.ring import ScalarFn
from coiso.multivector import MultiVectorField
from coiso.multider import MultiDerivation

from helpers import (
    eval_nested,
    jacobi_pair,
    leibniz_defect,
    fields_XY,
    random_multider,
    random_scalar,
    torus_chart,
    torus_jacobi,
)
from paper import bisymbol, hamiltonian


@pytest.fixture
def chart():
    return torus_chart()


@pytest.fixture
def J(chart):
    return torus_jacobi(chart)


def test_sections_bracket_vanishes(chart):
    rng = random.Random(1)
    f = MultiDerivation(MultiVectorField.function(random_scalar(chart, rng)))
    g = MultiDerivation(MultiVectorField.function(random_scalar(chart, rng)))
    assert f.sj_bracket(g).is_zero()


def test_constant_bivector_is_jacobi(chart):
    lam = MultiVectorField.basis_vector(chart, "ph_1").wedge(
        MultiVectorField.basis_vector(chart, "ph_2")
    )
    J0 = MultiDerivation(lam)
    assert J0.is_jacobi()


def test_torus_jacobi_is_jacobi(J):
    assert J.sj_bracket(J).is_zero()
    assert J.jacobiator().is_zero()


def test_scaled_bivector_is_still_jacobi(chart):
    # Lambda = y_1 dph_1 ^ dph_2: the sharp map kills dy_1, so the cyclic
    # Jacobiator vanishes identically even though the coefficient varies.
    y1 = ScalarFn.y(chart, "y_1")
    lam = (
        MultiVectorField.basis_vector(chart, "ph_1")
        .wedge(MultiVectorField.basis_vector(chart, "ph_2"))
        .scale_fn(y1)
    )
    assert MultiDerivation(lam).jacobiator().is_zero()


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
    Jbad = MultiDerivation(lam)
    jac = Jbad.jacobiator()
    assert not jac.is_zero()
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
            f.partial(2) * X.lie_derivative_fn(g)
            - g.partial(2) * X.lie_derivative_fn(f)
            + f * Y.lie_derivative_fn(g)
            - g * Y.lie_derivative_fn(f)
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
        rhs = f * J.apply([lam, mu]) + hamiltonian(J, lam).p_part.lie_derivative_fn(f) * mu
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
    _, _, rep = jacobi_pair(MultiDerivation(b))
    assert rep["valid"]

    # Lambda = dph_1 ^ dph_2, Gamma = dph_3: L_Gamma Lambda = 0 and
    # [[Lambda, Lambda]] = 0 but 2 Gamma ^ Lambda != 0, so invalid.
    g3 = MultiVectorField.basis_vector(chart, "ph_3")
    _, _, rep = jacobi_pair(MultiDerivation(b, g3))
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
        lhs = bisymbol(J).insert_differential(f)
        rhs = hamiltonian(J, f).p_part - hamiltonian(J, one).p_part.scale_fn(f)
        assert lhs == rhs
    # frozen value from that oracle: sharp(y_1) = X_{y_1} - y_1 X_1
    # = d/dph_1 - y_1 Y
    y1 = ScalarFn.y(chart, "y_1")
    expected = MultiVectorField.basis_vector(chart, "ph_1") - Y.scale_fn(y1)
    assert bisymbol(J).insert_differential(y1) == expected
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
        assert lhs.p_part == x.p_part + y.p_part and lhs.q_or_zero() == x.q_or_zero() + y.q_or_zero()


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
        step1 = J.sj_bracket(MultiDerivation(MultiVectorField.function(lam)))
        step2 = step1.sj_bracket(MultiDerivation(MultiVectorField.function(mu)))
        assert step2.p_part.as_function().scale(-1) == J.apply([lam, mu])


def test_square_is_kept_and_equals_the_bracket_with_a_copy(J, chart):
    """[[J, J]] is computed once per object and kept; the bracket with a
    distinct copy, which always computes, is the oracle.  is_jacobi and
    jacobiator read the kept square."""
    rng = random.Random(31)
    for j in [J] + [random_multider(chart, rng, n) for n in (0, 1, 2, 2, 3)]:
        copy = MultiDerivation(j.p_part, j.q_part)
        sq = j.sj_bracket(j)
        assert j.sj_bracket(j) is sq
        assert sq == j.sj_bracket(copy) == copy.sj_bracket(j)
        assert j.is_jacobi() == (j.arity == 2 and sq.is_zero())
        if j.arity == 2:
            assert j.jacobiator() == sq.scale(Fraction(1, 2))
    assert J.is_jacobi() and not random_multider(chart, rng, 2).is_jacobi()
