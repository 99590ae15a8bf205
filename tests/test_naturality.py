"""Naturality under a change of trivialization.

For a unit a of the ring, J_a(f, g) = a^-1 J(a f, a g) (helpers.J_a) is the
Jacobi bundle of J in the trivialization multiplied by a.  Multiplication
by a is an automorphism of the line bundle over the identity of M, so J_a
has the coisotropic submanifolds of J and the same formal coisotropic
curves.  Its multibrackets are natural: m_2^{J_a}(s, s) = a|_{y=0} m_2(s, s),
and so is MC(-s), the coisotropy residue of the graph of s, which J_a
multiplies by a.  Where a depends on a leaf angle, m_1^{J_a} is not d_F,
and the formal prolongation refuses the order it cannot certify.  Where a
depends only on transverse angles, a section obstructed at order 2 keeps
its verdict, with its zero mode multiplied by a; but m_1^{J_a} = a d_F is
not d_F either, so a nonzero s_2 that the homotopy solves for fails the
order-2 MC equation, and a section that prolongs for J is refused there.
"""

import random

import pytest

from coiso.ring import ContentError, ScalarFn, unit_inverse
from coiso.leafform import LeafForm
from coiso.linfty import MultibracketTable, prolong_formal

from helpers import J_a, exp_phi, random_scalar, residue_mc
from test_linfty import TORUS_OBSTRUCTED, _prolonging_section

CHART = TORUS_OBSTRUCTED.chart
J = TORUS_OBSTRUCTED.jacobi()


def _unit(angle):
    return exp_phi(CHART, angle)


@pytest.mark.parametrize("angle", CHART.torus)
def test_J_a_is_the_retrivialized_structure(angle):
    """J_a is Jacobi, and J_a(f, g) = a^-1 J(a f, a g) on seeded f and g."""
    a = _unit(angle)
    j_a, a_inv = J_a(J, a), unit_inverse(a)
    assert j_a.is_jacobi()
    rng = random.Random(angle)
    for _ in range(8):
        f, g = random_scalar(CHART, rng, fiber_deg=2), random_scalar(CHART, rng, fiber_deg=2)
        assert j_a.apply([f, g]) == a_inv * J.apply([a * f, a * g])


@pytest.mark.parametrize("angle", CHART.torus)
def test_m2_is_multiplied_by_a(angle):
    """m_2^{J_a}(s, s) = a m_2(s, s): a is base-only, so a|_{y=0} = a."""
    a = _unit(angle)
    table, table_a = TORUS_OBSTRUCTED.table(), MultibracketTable(J_a(J, a))
    for s in (TORUS_OBSTRUCTED.section(), _prolonging_section()):
        assert table_a.m([s, s]) == table.m([s, s]).scale_fn(a)


@pytest.mark.parametrize("angle", CHART.torus)
def test_mc_residue_is_multiplied_by_a(angle):
    """MC(-s) of J_a, its coisotropy residue, is a MC(-s) of J: on the graph
    y_a = g_a every term of a^-1 J(a f, a g) but a J(f, g) has a factor f
    or g, which vanishes there."""
    a = _unit(angle)
    j_a = J_a(J, a)
    for s in (TORUS_OBSTRUCTED.section(), _prolonging_section()):
        assert residue_mc(j_a, s) == residue_mc(J, s).scale_fn(a)


@pytest.mark.parametrize("angle", CHART.torus)
def test_kuranishi_verdict_under_retrivialization(angle):
    """The scenario's section is obstructed at order 2 for J.  For J_a with
    a transverse a it stays obstructed, with the zero mode multiplied by a;
    with a leaf a, order 2 solves d_F eta = rhs with m_1^{J_a} eta != rhs,
    and prolong_formal refuses it."""
    a, s = _unit(angle), TORUS_OBSTRUCTED.section()
    table_a = MultibracketTable(J_a(J, a))
    if angle in CHART.leaf:
        with pytest.raises(ContentError, match="^m_1 of this structure is not the leaf differential$"):
            prolong_formal(table_a, s, 2)
        return
    _, [(_, zero_mode)] = prolong_formal(TORUS_OBSTRUCTED.table(), s, 2)
    _, [(_, zero_mode_a)] = prolong_formal(table_a, s, 2)
    assert not zero_mode.is_zero() and zero_mode_a == zero_mode.scale_fn(a)


@pytest.mark.parametrize("angle", [c for c in CHART.torus if c not in CHART.leaf])
def test_prolonging_section_is_refused_under_a_transverse_unit(angle):
    """_prolonging_section solves every order for J; for J_a with a
    transverse a, m_1^{J_a} = a m_1 = a d_F on sections, so the nonzero
    solution s_2 of d_F eta = rhs has m_1^{J_a} s_2 = a rhs, and
    prolong_formal refuses it."""
    a, s = _unit(angle), _prolonging_section()
    table_a = MultibracketTable(J_a(J, a))
    w = LeafForm.section(CHART, [ScalarFn.sin_phi(CHART, "ph_2"), ScalarFn.zero(CHART)])
    assert not w.d_leaf().is_zero() and table_a.m1(w) == w.d_leaf().scale_fn(a)
    with pytest.raises(ContentError, match="^m_1 of this structure is not the leaf differential$"):
        prolong_formal(table_a, s, 3)
