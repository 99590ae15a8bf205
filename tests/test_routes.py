"""The obstruction routes agree as a property: on infinitesimal sections of
torus-obstructed, the Maurer-Cartan route (order 2 of the formal
prolongation, which the kuranishi task reads) and the BFV route (the
Kuranishi class of the canonical d_BFV-closed lift) find the same
obstruction, and the kuranishi task agrees with the class read on its own
(helpers.kuranishi).  On each route the class is gauge invariant: it does
not change when an exact term is added to the section (m_1 f) or to its
lift (d_BFV beta).

The Lift, d_BFV and the HPL resolution are built once for the module; each
example costs one derived bracket, one perturbed immersion and one graded
bracket."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from coiso.ring import ScalarFn
from coiso.leafform import LeafForm
from coiso.linfty import prolong_formal
from coiso.graded import XI, XIS, GradedElement, decode
from coiso.bfv import bfv_kuranishi, bfv_lift_cocycle
from coiso.scenario import load_scenario
from coiso.serialize import leafform_to_json
from coiso import cli

from helpers import kuranishi
from test_linfty import TORUS_OBSTRUCTED, _infinitesimal_sections, _polys, _prolonging_section

CHART = TORUS_OBSTRUCTED.chart
# base functions of every torus direction, leaf and transverse
_base_functions = _polys(CHART, tuple(range(CHART.k)))


@pytest.fixture(scope="module")
def routes():
    """(table, lift, HPL resolution) of torus-obstructed."""
    scenario = load_scenario("torus-obstructed")
    return scenario.table(), scenario.lift(), scenario.hpl()


def ghost_to_leafform(x: GradedElement, degree: int) -> LeafForm:
    """The ghost <-> leaf-form correspondence: the ghost word
    xi^{a_1} .. xi^{a_k} with coefficient f is f delta_{a_1} ^ .. ^ delta_{a_k}."""
    terms = {}
    for word, f in x.terms.items():
        letters = decode(word)
        assert all(l[0] == XI for l in letters) and len(letters) == degree
        terms[tuple(l[1] for l in letters)] = f
    return LeafForm(x.chart, degree, terms)


def _order_2_zero_mode(table, s) -> LeafForm:
    """The zero mode of order 2 of the formal prolongation: the MC route's
    reading of the Kuranishi class."""
    _, [(_, zero_mode)] = prolong_formal(table, s, 2)
    return zero_mode


@settings(derandomize=True, max_examples=40, deadline=None)
@given(s=_infinitesimal_sections())
@example(s=TORUS_OBSTRUCTED.section())  # (cos ph_4, sin ph_4): obstructed
@example(s=LeafForm.zero(TORUS_OBSTRUCTED.chart, 1))  # nu = 0 has no single degree
@example(s=_prolonging_section())  # order 2 solves with s_2 != 0
def test_kuranishi_and_bfv_kuranishi_agree(routes, s):
    """The kuranishi task reports the class and the zero mode of the oracle,
    and the BFV route reads the MC route's order-2 zero mode."""
    table, lift, pert = routes
    kr, zero_mode_l = kuranishi(table, s)
    task = SimpleNamespace(table=lambda: table, section=lambda: s, chart=CHART)
    report = cli.TASKS["kuranishi"](task, None)
    assert report["class"] == leafform_to_json(kr)
    assert report["zero_mode"] == leafform_to_json(zero_mode_l)
    nu = bfv_lift_cocycle(lift, pert, s)
    _, zero_mode = bfv_kuranishi(lift, pert, nu)
    assert ghost_to_leafform(zero_mode, 2) == _order_2_zero_mode(table, s) == zero_mode_l


@settings(derandomize=True, max_examples=12, deadline=None)
@given(s=_infinitesimal_sections(), f=_base_functions)
@example(s=TORUS_OBSTRUCTED.section(), f=ScalarFn.sin_phi(CHART, "ph_1") * ScalarFn.cos_phi(CHART, "ph_3"))
def test_kuranishi_class_is_gauge_invariant(routes, s, f):
    """s and s + m_1 f are both closed and have the same class: the zero
    mode of order 2 of the formal prolongation does not change."""
    table = routes[0]
    gauged = s + table.m1(LeafForm.function(f))
    assert table.m1(gauged).is_zero()
    assert _order_2_zero_mode(table, gauged) == _order_2_zero_mode(table, s)


def _gauge_parameters(fiber: bool):
    """Ghost-degree-0 graded sections beta = f + g xi^A xis_B, with base
    functions f and g times y^alpha, alpha in {0, 1}^m, when fiber is set
    (alpha = 0 otherwise)."""
    exponents = st.tuples(*[st.integers(0, 1 if fiber else 0)] * CHART.m)

    def coefficient(base, alpha):
        return base * ScalarFn(CHART, {(0,) * CHART.k + alpha: 1})

    coefficients = st.builds(coefficient, _base_functions, exponents)
    pairs = st.tuples(st.integers(0, CHART.m - 1), st.integers(0, CHART.m - 1))
    return st.builds(
        lambda f, g, ab: GradedElement(CHART, {(): f, ((XI, ab[0]), (XIS, ab[1])): g}),
        coefficients,
        coefficients,
        pairs,
    )


# a fiber-dependent gauge parameter: y_1 + sin(ph_3) y_2 xi^2 xis_1
_FIBER_BETA = GradedElement(
    CHART,
    {
        (): ScalarFn.y(CHART, "y_1"),
        ((XI, 1), (XIS, 0)): ScalarFn.sin_phi(CHART, "ph_3") * ScalarFn.y(CHART, "y_2"),
    },
)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(s=_infinitesimal_sections(), beta=_gauge_parameters(False) | _gauge_parameters(True))
@example(s=TORUS_OBSTRUCTED.section(), beta=GradedElement.section(CHART, ScalarFn.cos_phi(CHART, "ph_4")))
@example(s=TORUS_OBSTRUCTED.section(), beta=_FIBER_BETA)
def test_bfv_kuranishi_class_is_gauge_invariant(routes, s, beta):
    """nu and nu + d_BFV beta, for the canonical lift nu of s and a
    ghost-degree-0 beta, base-only or fiber-dependent, give the same
    bfv_kuranishi zero mode."""
    _, lift, pert = routes
    nu = bfv_lift_cocycle(lift, pert, s)
    gauged = nu + pert.differential(beta)
    assert bfv_kuranishi(lift, pert, gauged)[1] == bfv_kuranishi(lift, pert, nu)[1]
