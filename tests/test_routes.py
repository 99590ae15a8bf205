"""The obstruction routes agree as a property: on infinitesimal sections of
torus-obstructed, the Maurer-Cartan route (the Kuranishi map of the
multibracket table, and the formal prolongation at order 2) and the BFV
route (the Kuranishi class of the canonical d_BFV-closed lift) find the same
obstruction.

The Lift, d_BFV and the HPL resolution are built once for the module; each
example costs one derived bracket, one perturbed immersion and one graded
bracket."""

import pytest
from hypothesis import example, given, settings

from coiso.leafform import LeafForm
from coiso.linfty import kuranishi, prolong_formal
from coiso.graded import XI, GradedElement, decode
from coiso.bfv import bfv_kuranishi, bfv_lift_cocycle
from coiso.scenario import load_scenario

from test_linfty import TORUS_OBSTRUCTED, _infinitesimal_sections


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(s=_infinitesimal_sections())
@example(s=TORUS_OBSTRUCTED.section())  # (cos ph_4, sin ph_4): obstructed
@example(s=LeafForm.zero(TORUS_OBSTRUCTED.chart, 1))  # nu = 0 has no single degree
def test_kuranishi_and_bfv_kuranishi_agree(routes, s):
    table, lift, pert = routes
    _, zero_mode_l = kuranishi(table, s)
    nu = bfv_lift_cocycle(lift, pert, s)
    _, zero_mode = bfv_kuranishi(lift, pert, nu)
    assert ghost_to_leafform(zero_mode, 2) == zero_mode_l
    _, orders = prolong_formal(table, s, 2)
    assert (not orders[-1]["solved"]) == (not zero_mode.is_zero())
