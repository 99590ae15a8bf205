"""Solved orders of the formal prolongation are certified by the
Maurer-Cartan equation itself, with every m_h from the table and no solver:
r_n = sum_h ((-1)^h / h!) sum_{p_1+..+p_h = n} m_h(s_p1, .., s_ph) = 0
(helpers.mc_residual).  The composition_prolong oracle of test_linfty.py
shares solve_dF, so it cannot see a wrong solve; this check can.

The same check runs on the coefficients of a prolong report, parsed back by
helpers.section_from_json.  The Kuranishi report is parsed back by
helpers.leafform_from_json, and the operator of a dbfv report by
helpers.graded_from_json, which must square to zero.  A prolongation whose
m_1 is not d_F is refused (cubic-poisson).  Each parser is checked by a
round trip."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from coiso.ring import ContentError, ScalarFn
from coiso.leafform import LeafForm
from coiso.linfty import prolong_formal
from coiso.scenario import Scenario, load_scenario
from coiso.serialize import graded_to_json, leafform_to_json, section_to_json
from coiso import cli

from helpers import (
    graded_from_json,
    jet_chart,
    kuranishi,
    leafform_from_json,
    mc_residual,
    section_from_json,
)
from test_cli import PROLONGING_SECTION, _builtin_data
from test_linfty import (
    TABLES,
    TORUS_OBSTRUCTED,
    WORKLOADS,
    _infinitesimal_sections,
    _polys,
    _prolonging_section,
    _section_data,
)

CHART = TORUS_OBSTRUCTED.chart
# a ph3 section of linfty-sections: only s_1 is nonzero
PH3_SECTION = Scenario(_section_data(WORKLOADS.PROLONGED, 0), WORKLOADS.PROLONGED).section()


def _assert_certified(table, sections):
    """r_n = 0 for n = 1 (m_1 s_1 = 0) and every solved order n."""
    for n in range(1, len(sections) + 1):
        assert mc_residual(table, sections, n).is_zero(), n


@settings(derandomize=True, max_examples=20, deadline=None)
@given(s1=_infinitesimal_sections(), order=st.integers(2, 5))
@example(s1=_prolonging_section(), order=6)  # every s_p is nonzero
@example(s1=PH3_SECTION, order=6)
@example(s1=TORUS_OBSTRUCTED.section(), order=3)  # obstructed at order 2
def test_solved_orders_are_certified(s1, order):
    table = TABLES["torus-obstructed"]
    sections, orders = prolong_formal(table, s1, order)
    solved = [zero_mode.is_zero() for _, zero_mode in orders]
    assert len(sections) == 1 + sum(solved) and all(solved[:-1])
    _assert_certified(table, sections)


def test_prolong_refuses_cubic_poisson(tmp_path, capsys):
    """cubic-poisson vanishes to second order on the zero section, so its
    m_1 is 0 on sections, not d_F.  For s = (0, cos ph_2) order 2 solves
    with s_2 = 0, and r_2 = 0.  Order 3's rhs is d_F-exact, but its d_F
    solution leaves r_3 = cos^3(ph_2) dph_1^dph_2 under the table's m_1:
    prolong_formal refuses it, and prolong:3 exits 2 with one line."""
    table = TABLES["cubic-poisson"]
    chart = table.chart
    s1 = LeafForm.section(chart, [ScalarFn.zero(chart), ScalarFn.cos_phi(chart, "ph_2")])
    sections, orders = prolong_formal(table, s1, 2)
    assert [zero_mode.is_zero() for _, zero_mode in orders] == [True] and sections[1].is_zero()
    _assert_certified(table, sections)
    with pytest.raises(ContentError, match="^m_1 of this structure is not the leaf differential$"):
        prolong_formal(table, s1, 3)
    data = _builtin_data("torus-obstructed")
    del data["contact"]
    fy = [chart.index(y) for y in chart.fiber]
    data["jacobi"] = {"p": [{"idx": fy, "coef": "cos(ph_3)*y_1^2*y_2 + y_2^3"}]}
    data["section"]["components"] = ["0", "cos(ph_2)"]
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(data))
    assert load_scenario(str(path)).jacobi() == table.j
    assert cli.main(["--scenario", str(path), "--task", "prolong:3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "coiso: task prolong: m_1 of this structure is not the leaf differential\n"


# -- report parsers ---------------------------------------------------------------


def _leafforms(chart):
    """Leaf forms of every degree 0..m, each key with a base-only
    coefficient of at most two modes."""

    polys = _polys(chart, tuple(range(chart.k)))

    def of_degree(d):
        keys = list(combinations(range(chart.m), d))
        terms = st.dictionaries(st.sampled_from(keys), polys, max_size=len(keys))
        return terms.map(lambda t: LeafForm(chart, d, t))

    return st.integers(0, chart.m).flatmap(of_degree)


def _sections(chart):
    components = st.lists(_polys(chart, tuple(range(chart.k))), min_size=chart.m, max_size=chart.m)
    return components.map(lambda comps: LeafForm.section(chart, comps))


JET_CHART = jet_chart(2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(w=_leafforms(CHART) | _leafforms(JET_CHART))
def test_leafform_json_round_trip(w):
    assert leafform_from_json(w.chart, leafform_to_json(w)) == w


@settings(derandomize=True, max_examples=40, deadline=None)
@given(s=_sections(CHART) | _sections(JET_CHART))
def test_section_json_round_trip(s):
    assert section_from_json(s.chart, section_to_json(s)) == s


@pytest.mark.parametrize("name", ["torus-obstructed", "legendrian-jet"])
def test_graded_json_round_trip(name):
    """graded_from_json inverts graded_to_json on random graded sections,
    on J^ and on d_BFV, whose words carry symbols."""
    scenario = load_scenario(name)
    chart = scenario.chart
    rng = random.Random(0)
    samples = [cli._random_graded_section(chart, rng) for _ in range(40)]
    for x in samples + [scenario.lift().j_hat, scenario.dbfv()]:
        assert graded_from_json(chart, graded_to_json(x)) == x


# -- certificates read from reports -----------------------------------------------


def _report(tmp_path, capsys, data, *tasks):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli.main(["--scenario", str(path)] + [a for t in tasks for a in ("--task", t)]) == 0
    return load_scenario(str(path)), json.loads(capsys.readouterr().out)["tasks"]


def _prolonging_data():
    """torus-obstructed with the section of _prolonging_section."""
    data = _builtin_data("torus-obstructed")
    data["section"]["components"] = PROLONGING_SECTION
    return data


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(_section_data(WORKLOADS.PROLONGED, 0), id="ph3"),
        pytest.param(_prolonging_data(), id="prolonging"),
    ],
)
def test_prolong_report_is_certified(tmp_path, capsys, data):
    """A solved prolong:6 report, read back alone: its coefficients satisfy
    r_n = 0 on a fresh table of the scenario's structure, and each order's
    rhs is m_1 s_n, with a zero zero mode."""
    scenario, reports = _report(tmp_path, capsys, data, "prolong:6")
    report, chart = reports["prolong"], scenario.chart
    assert report["solved"] is True and report["order_k"] == 6
    sections = [section_from_json(chart, c) for c in report["coefficients"]]
    assert sections[0] == scenario.section() and len(sections) == 6
    table = scenario.table()
    _assert_certified(table, sections)
    for n, order in enumerate(report["orders"], 2):
        assert order["order_k"] == n and order["solved"] is True
        assert leafform_from_json(chart, order["rhs"]) == table.m1(sections[n - 1])
        assert leafform_from_json(chart, order["obstruction_zero_mode"]).is_zero()


@pytest.mark.parametrize("name", ["torus-obstructed", "legendrian-jet"])
def test_dbfv_report_is_certified(tmp_path, capsys, name):
    """The operator of a dbfv report, read back alone, is nonzero and
    squares to zero."""
    _, reports = _report(tmp_path, capsys, _builtin_data(name), "dbfv")
    dop = graded_from_json(load_scenario(name).chart, reports["dbfv"]["operator"])
    assert not dop.is_zero() and dop.bracket().is_zero()


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(_builtin_data("torus-obstructed"), id="torus-obstructed"),
        pytest.param(_prolonging_data(), id="prolonging"),
    ],
)
def test_kuranishi_report_matches_the_oracle(tmp_path, capsys, data):
    """The kuranishi report, read back, gives the class and the zero mode of
    helpers.kuranishi on a fresh table."""
    scenario, reports = _report(tmp_path, capsys, data, "kuranishi")
    report, chart = reports["kuranishi"], scenario.chart
    kr, zero_mode = kuranishi(scenario.table(), scenario.section())
    assert leafform_from_json(chart, report["class"]) == kr
    assert leafform_from_json(chart, report["zero_mode"]) == zero_mode
    assert report["obstructed"] is not zero_mode.is_zero()
