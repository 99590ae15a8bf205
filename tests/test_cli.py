"""Scenario front end: parsing, reports, determinism, exit codes."""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import random
import runpy
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import coiso
from coiso import bfv, geom, linfty, transversal
from coiso.cli import main, TASKS
from coiso.ring import Chart, ContentError, ScalarFn
from coiso.multider import MultiDerivation
from coiso.scenario import Scenario, ScenarioFileError, load_scenario
from coiso.expr import parse_scalar, scalar_to_json, scalar_to_text
from coiso.serialize import section_to_json
from coiso.graded import XI, XIS, GradedElement, encode
from coiso.leafform import LeafForm

from helpers import J_a, conjugate, exp_phi, leafform_from_json, random_scalar, scalar_from_json, torus_chart
from paper import mc_series


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builtin_scenarios_listed(capsys, monkeypatch):
    code, out, _ = run_cli(["--list-scenarios"], capsys)
    assert code == 0
    assert set(out.split()) == {"torus-obstructed", "legendrian-jet"}
    # python -m coiso runs the same main (as a fresh __main__ module, though
    # another test may have imported coiso.__main__)
    monkeypatch.setattr(sys, "argv", ["coiso", "--list-scenarios"])
    monkeypatch.delitem(sys.modules, "coiso.__main__", raising=False)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("coiso", run_name="__main__")
    assert exc.value.code == 0 and capsys.readouterr().out == out


def test_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "required" in err
    code, out, err = run_cli(["--scenario", "torus-obstructed", "--bogus"], capsys)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --bogus" in err
    code, out, err = run_cli(["--help"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: coiso")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("nope", "unknown task"),
        ("prolong:abc", "not a positive integer"),
        ("multibrackets:abc", "not a positive integer"),
        ("multibrackets:-1", "not a positive integer"),
        ("prolong:0", "not a positive integer"),
        ("mc:2", "takes no argument"),
    ],
    ids=["unknown", "prolong-abc", "multibrackets-abc", "multibrackets-negative", "prolong-zero", "mc-arg"],
)
def test_unknown_task(capsys, spec, message):
    # every spec is parsed before the first task runs
    code, out, err = run_cli(
        ["--scenario", "torus-obstructed", "--task", "check-jacobi", "--task", spec], capsys
    )
    assert code == 1
    assert out == ""
    assert message in err and len(err.splitlines()) == 1


def test_missing_scenario(tmp_path, capsys):
    code, _, err = run_cli(["--scenario", "no-such", "--task", "check-jacobi"], capsys)
    assert code == 1
    # a directory exists but cannot be read as a scenario file
    code, out, err = run_cli(["--scenario", str(tmp_path), "--task", "check-jacobi"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("coiso: cannot read scenario file: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("path", ["no/such/dir/torus-obstructed", "../torus-obstructed"])
def test_missing_path_is_not_a_builtin(capsys, path):
    """A path that is not a file is not looked up as a built-in, whatever
    its last part names: exit 1, one line."""
    code, out, err = run_cli(["--scenario", path, "--task", "check-jacobi"], capsys)
    assert code == 1 and out == ""
    assert err == f"coiso: scenario {path!r}: no such file or built-in scenario\n"


def _j_a_data(angle):
    """torus-obstructed with its contact block replaced by a jacobi block
    that holds helpers.J_a of its structure, a = exp(i angle)."""
    scenario = load_scenario("torus-obstructed")
    j = J_a(scenario.jacobi(), exp_phi(scenario.chart, angle))
    data = _builtin_data("torus-obstructed")
    del data["contact"]
    data["jacobi"] = {
        name: [{"idx": list(k), "coef": scalar_to_text(f)} for k, f in sorted(part.terms.items())]
        for name, part in (("p", j.p_part), ("q", j.q_part))
    }
    return data


def test_validation_error_exit_code(tmp_path, capsys):
    chart = {"torus": ["ph_1"], "fiber": ["y_1"], "leaf": ["ph_1"]}
    small = [
        # section components must be base-only
        ({"jacobi": {"p": [], "q": []}, "section": {"components": ["y_1"]}}, "mc"),
        # index 7 does not exist on the 2-dimensional chart
        ({"jacobi": {"p": [{"idx": [0, 7], "coef": "1"}], "q": []}}, "check-jacobi"),
        # an index must be an integer
        ({"jacobi": {"p": [{"idx": ["a", 1], "coef": "1"}], "q": []}}, "check-jacobi"),
        # one item per term: [0, 1] twice would keep only the last coefficient,
        # and [1, 0] is the same term
        ({"jacobi": {"p": [{"idx": [0, 1], "coef": "1"}, {"idx": [1, 0], "coef": "-1"}]}}, "check-jacobi"),
        ({"lcs": {"omega": [{"idx": [0, 1], "coef": "1"}] * 2}}, "check-jacobi"),
        # omega = (1 + y_1) dph_1 ^ dy_1 has the non-unit determinant (1 + y_1)^2
        ({"lcs": {"omega": [{"idx": [0, 1], "coef": "1 + y_1"}]}}, "check-jacobi"),
    ]
    cases = [({"schema": 1, "chart": chart, **blocks}, task) for blocks, task in small]
    # one C entry per frame_a field: two C entries, one field
    cut = _builtin_data("torus-obstructed")
    cut["transversal"]["frame_a"] = cut["transversal"]["frame_a"][:1]
    cases.append((cut, "transversal-crosscheck"))
    # blocks of the wrong kind: formal and transversal F_ab must be objects,
    # bfv must be {"connection": "trivial"}
    for key, value, task in [
        ("formal", [3], "prolong"),
        ("bfv", "trivial", "bfv-lift"),
        ("bfv", {"connection": "trivial", "gamma": []}, "dbfv"),
        ("bfv", {}, "hpl-resolve"),
    ]:
        bad = _builtin_data("torus-obstructed")
        bad[key] = value
        cases.append((bad, task))
    bad = _builtin_data("torus-obstructed")
    bad["transversal"]["F_ab"] = [[["0", "0"], ["0", "0"]]]
    cases.append((bad, "transversal-crosscheck"))
    # schema version 2, a second structure block, and no structure block
    for change in ({"schema": 2}, {"jet": {}}):
        cases.append((dict(_builtin_data("torus-obstructed"), **change), "check-jacobi"))
    bad = _builtin_data("torus-obstructed")
    del bad["contact"]
    cases.append((bad, "check-jacobi"))
    # every error of the expression parser; "(1 " also ends the token list
    # at trailing whitespace
    for coef, message in [
        ("1$", "unexpected character '$'"),
        ("1 $ 2", "unexpected character '$' (at position 2)"),
        ("(1 ", "expected ')'"),
        ("1 1", "trailing input"),
        ("y_1^x", "expected integer"),
        ("1/0", "expected nonzero denominator"),
        ("sin(y_1)", "expected torus coordinate"),
        ("exp(2*1*ph_1)", "expected I"),
        ("exp(I*1*y_1)", "expected torus coordinate"),
        ("y_1^-1", "negative fiber exponent"),
        ("ph_1", "torus coordinate 'ph_1' is not a function"),
        ("x", "unknown name 'x'"),
        ("*", "unexpected token"),
        # past the interpreter's limit on the digits of an int read from text
        ("1" * 5000, "integer literal too long (at position 0)"),
        ("1/" + "1" * 5000, "integer literal too long (at position 2)"),
        ("y_1^" + "1" * 5000, "integer literal too long (at position 4)"),
    ]:
        term = {"idx": [0, 1], "coef": coef}
        cases.append(({"schema": 1, "chart": chart, "jacobi": {"p": [term]}}, "check-jacobi", message))

    def edited(block, key, value):
        data = _builtin_data("torus-obstructed")
        data[block][key] = value
        return data

    frame = _builtin_data("torus-obstructed")["contact"]["frame"]
    # s = (exp(I ph_2), 0) is not d_F-closed: m_1 s != 0, and its BFV lift is
    # not d_BFV-closed
    open_section = ["exp(I*1*ph_2)", "0"]
    cases += [
        (edited("contact", "frame", frame[:-1]), "check-jacobi", "dim - 1 members"),
        (edited("contact", "reeb", {"ph_4": "sin(ph_3)"}), "check-jacobi", "theta(R) must be exactly 1"),
        (edited("contact", "frame", [{"ph_1": "1"}] + frame[1:]), "check-jacobi", "ker theta"),
        (edited("transversal", "C", ["y_1", "0"]), "transversal-crosscheck", "must be base-only"),
        (edited("section", "components", open_section), "prolong", "s1 is not an infinitesimal deformation"),
        (edited("section", "components", open_section), "kuranishi", "s1 is not an infinitesimal deformation"),
        (edited("section", "components", open_section), "bfv-kuranishi", "requires a d_BFV-closed section"),
        (edited("chart", "leaf", ["ph_1"]), "kuranishi", "one leaf coordinate per fiber direction"),
    ]
    # every other transversal entry and frame coefficient is base-only too
    # (this omega has the unit determinant 1)
    for key, value in [
        ("omega", [["0", "-1"], ["1", "y_1"]]),
        ("F_ab", {"0": [["0", "y_1"], ["-y_1", "0"]]}),
        ("F_a", {"0": ["y_1", "0"]}),
        ("frame_a", [{"ph_3": "1"}, {"ph_4": "y_1"}]),
        ("frame_z", {"ph_4": "sin(ph_3)", "ph_5": "y_2"}),
    ]:
        cases.append((edited("transversal", key, value), "transversal-crosscheck", "must be base-only"))
    # with the leaf list swapped, m_1 is not d_F on functions of the leaf
    # angles: s = (sin(ph_2), 0), d_F-closed for the swapped chart, is refused
    swapped = edited("chart", "leaf", ["ph_2", "ph_1"])
    swapped["section"]["components"] = ["sin(ph_2)", "0"]
    cases += [
        (swapped, "kuranishi", "s1 is not an infinitesimal deformation"),
        (swapped, "prolong:3", "s1 is not an infinitesimal deformation"),
        (swapped, "bfv-kuranishi", "requires a d_BFV-closed section"),
    ]
    bad = _builtin_data("torus-obstructed")
    del bad["transversal"]
    cases.append((bad, "transversal-crosscheck", "no transversal block"))
    theta1 = [{"idx": [1], "coef": "cos(ph_1)"}]
    cases.append(({**LCS_T2, "lcs": {**LCS_T2["lcs"], "theta1": theta1}}, "check-jacobi", "theta1 is not closed"))
    # J retrivialized by a = exp(i ph_1): m_1 is not d_F, so the prolongation
    # refuses its order 2, which solves d_F eta = rhs with a nonzero eta
    for task in ("kuranishi", "prolong:3"):
        cases.append((_j_a_data("ph_1"), task, "m_1 of this structure is not the leaf differential"))
    # a jacobi block that is not Jacobi: each construction on J refuses it
    for task, message in [
        ("bfv-lift", "lifting requires a Jacobi structure"),
        ("coisotropic", "is_coisotropic_section requires a Jacobi structure"),
        # mc reads the coisotropy residue of the graph before the section
        ("mc", "is_coisotropic_section requires a Jacobi structure"),
    ]:
        cases.append((NOT_JACOBI_T3, task, message))
    # kuranishi reads the section, then the multibracket table refuses J
    with_section = {**NOT_JACOBI_T3, "section": {"components": []}}
    cases.append((with_section, "kuranishi", "multibracket extraction needs a Jacobi structure"))
    for data, task, *message in cases:
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code, _, err = run_cli(["--scenario", str(p), "--task", task], capsys)
        assert code == 2, err
        assert len(err.splitlines()) == 1
        assert all(m in err for m in message), err


def _value_error_classes():
    """Every ValueError subclass defined in a module of the library."""
    out = []
    for info in pkgutil.iter_modules(coiso.__path__):
        mod = importlib.import_module(f"coiso.{info.name}")
        out += [
            cls
            for cls in vars(mod).values()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__ and issubclass(cls, ValueError)
        ]
    return out


def test_every_value_error_is_a_content_error():
    """One error for invalid input, whichever layer finds it, so that the
    exit-2 clause of main names it alone; its one subclass is the scenario
    file that load_scenario cannot read (exit 1)."""
    assert _value_error_classes() == [ContentError, ScenarioFileError]


def _raise(exc):
    raise exc


def _non_jacobi(scenario):
    j = scenario.jacobi()
    return MultiDerivation.from_parts(j.p_part, j.q_part.scale(2))


# one content error from each layer of the construction, named by the kind
# of content it refuses: (raise it on torus-obstructed, its message)
CONTENT_ERRORS = {
    "ContentError": (lambda sc: _raise(ContentError("bad content")), "bad content"),
    "ScenarioFileError": (
        lambda sc: load_scenario("no-such-scenario"),
        "scenario 'no-such-scenario': no such file or built-in scenario",
    ),
    "ScenarioError": (lambda sc: Scenario({"schema": 1}), "top-level block needs the key 'chart'"),
    "ExprError": (lambda sc: parse_scalar(sc.chart, "sin("), "expected torus coordinate (at position 4)"),
    "ChartError": (lambda sc: Chart(torus=("a", "a")), "coordinate names must be unique"),
    "ArityError": (
        lambda sc: sc.jacobi().apply([ScalarFn.one(sc.chart)]),
        "arity 2 operator applied to 1 functions",
    ),
    "GeometryError": (
        lambda sc: geom.fiberwise_linear_jacobi(sc.chart),
        "jet chart needs fiber (z, p_1..p_b) over T^b",
    ),
    "DeformationError": (
        lambda sc: linfty.solve_dF(LeafForm.section(sc.chart, [ScalarFn.sin_phi(sc.chart, "ph_2")] * 2)),
        "solve_dF requires a d_F-closed form",
    ),
    "TransversalError": (
        lambda sc: sc.transversal().multibracket([LeafForm.zero(sc.chart, 2)]),
        "m_k takes functions and frame forms delta_i, not a degree-2 form on the keys []",
    ),
    "GradedError": (lambda sc: encode((("xi", 0),)), "unknown letter ('xi', 0)"),
    "BFVError": (lambda sc: bfv.Lift(_non_jacobi(sc)), "lifting requires a Jacobi structure"),
}


@pytest.mark.parametrize("kind", CONTENT_ERRORS)
def test_content_error_in_a_task_exits_2(capsys, monkeypatch, kind):
    """A ContentError raised in a task, by the library or by the task
    itself, exits 2 with its message on one line."""
    make, message = CONTENT_ERRORS[kind]

    def fail(scenario, arg):
        make(scenario)
        raise AssertionError(f"{kind}: no error raised")

    monkeypatch.setitem(TASKS, "check-jacobi", fail)
    code, out, err = run_cli(["--scenario", "torus-obstructed", "--task", "check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert err == f"coiso: task check-jacobi: {message}\n"


def _squares_after_the_lift(m):
    """[[J^, J^]] is computed; every later square returns its argument."""
    real, seen = GradedElement.bracket, []

    def square(a):
        seen.append(a)
        return real(a) if len(seen) == 1 else a

    m.setattr(GradedElement, "bracket", square)


def _perturbation_not_nilpotent(m):
    """delta(z) = z + y_1: with h^2 = 0, h delta maps every term to
    h(y_1) != 0, so (1 - h delta)^{-1} never ends."""
    real = bfv.PerturbedContraction.__init__

    def init(self, base, d0, dop):
        real(self, base, d0, dop)
        y1 = GradedElement.section(base.chart, ScalarFn.y(base.chart, base.chart.fiber[0]))
        self.delta = lambda z: z + y1

    m.setattr(bfv.PerturbedContraction, "__init__", init)


def _projection_off_by_a_ghost(m):
    """The checked axioms return q'(d' x) plus xi^1."""
    real = bfv.check_contraction_axioms

    def check(*args):
        jq, qdx = real(*args)
        return jq, qdx + GradedElement(jq.chart, {((XI, 0),): ScalarFn.one(jq.chart)})

    m.setattr(bfv, "check_contraction_axioms", check)


def _inverse_edited(module, edit):
    """Replace module.inverse_unit by edit(chart, the true inverse, its size)."""

    def stub(m):
        real = module.inverse_unit
        m.setattr(module, "inverse_unit", lambda chart, A, n: edit(chart, real(chart, A, n), n))

    return stub


def _nonzero_diagonal(chart, inv, n):
    return {**inv, (0, 0): ScalarFn.one(chart)}


def _scaled_by_a_unit(chart, inv, n):
    """The inverse times exp(i ph_1): J scaled by a non-constant function."""
    u = exp_phi(chart, chart.torus[0])
    return {key: x * u for key, x in inv.items()}


def _all_ones(chart, inv, n):
    one = ScalarFn.one(chart)
    return {(i, j): one for i in range(n) for j in range(n)}


# s_a = d h / d ph_a for h = E(ph_1 + ph_2 + ph_4) - E(ph_1) on torus-obstructed:
# d_F-closed, and its prolongation solves every order with a nonzero s_k
PROLONGING_SECTION = [
    "i*exp(I*1*ph_1)*exp(I*1*ph_2)*exp(I*1*ph_4) - i*exp(I*1*ph_1)",
    "i*exp(I*1*ph_1)*exp(I*1*ph_2)*exp(I*1*ph_4)",
]


# a 4-dimensional lcs structure: its J changes its bracket when scaled
LCS_T4 = {
    "schema": 1,
    "chart": {"torus": ["ph_1", "ph_2", "ph_3", "ph_4"], "fiber": [], "leaf": []},
    "lcs": {"omega": [{"idx": [0, 1], "coef": "1"}, {"idx": [2, 3], "coef": "1"}]},
}


def test_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    """A failed identity of a valid scenario exits 3 with one line.  Each
    identity holds for every input that passes the constructors' checks,
    so a stub breaks the computation behind it."""
    prolonging = _builtin_data("torus-obstructed")
    prolonging["section"]["components"] = PROLONGING_SECTION
    (tmp_path / "prolonging.json").write_text(json.dumps(prolonging))
    (tmp_path / "lcs.json").write_text(json.dumps(LCS_T4))
    cases = [
        # a Jacobi J never gives a nonzero [[J^, J^]]
        (lambda m: m.setattr(GradedElement, "bracket", lambda a: a), "torus-obstructed", "bfv-lift",
         "flat lifting failed: [[J^, J^]] != 0"),
        (_squares_after_the_lift, "torus-obstructed", "dbfv", "d_BFV does not square to zero"),
        (_perturbation_not_nilpotent, "torus-obstructed", "bfv-kuranishi",
         "perturbation series failed to terminate"),
        (_projection_off_by_a_ghost, "torus-obstructed", "hpl-resolve",
         "perturbed projection is not a chain map"),
        (lambda m: m.setattr(LeafForm, "homotopy_K", lambda w: LeafForm.zero(w.chart, w.degree - 1)),
         str(tmp_path / "prolonging.json"), "prolong", "homotopy identity violated"),
        (_inverse_edited(transversal, _all_ones),
         "torus-obstructed", "transversal-crosscheck", "adjugate inversion failed"),
        (_inverse_edited(geom, _nonzero_diagonal), "torus-obstructed", "check-jacobi",
         "inverse curvature matrix is not skew"),
        (_inverse_edited(geom, _scaled_by_a_unit), "torus-obstructed", "check-jacobi",
         "contact construction produced a non-Jacobi bracket"),
        (_inverse_edited(geom, _scaled_by_a_unit), str(tmp_path / "lcs.json"), "check-jacobi",
         "lcs construction produced a non-Jacobi bracket"),
    ]
    for stub, scenario, task, message in cases:
        with monkeypatch.context() as m:
            stub(m)
            code, out, err = run_cli(["--scenario", scenario, "--task", task], capsys)
        assert code == 3 and out == ""
        assert err == f"coiso: internal invariant violation in {task}: {message}\n"


def test_mc_series_checks_its_bound(capsys, monkeypatch):
    """paper.mc_series sums m_k(s, .., s) up to k = series_bound() + 1 and
    checks that the last term vanishes: with the bound stubbed to 1 on
    torus-obstructed, m_2(s, s) != 0 lies beyond it, and it raises.  The
    mc task reads the coisotropy residue, which has no series to bound, so
    its report does not change."""
    args = ["--scenario", "torus-obstructed", "--task", "mc"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == "" and json.loads(out)["tasks"]["mc"]["mc_zero"] is False
    scenario = load_scenario("torus-obstructed")
    monkeypatch.setattr(linfty.MultibracketTable, "series_bound", lambda self: 1)
    with pytest.raises(AssertionError, match="^MC series failed to terminate$"):
        mc_series(scenario.table(), scenario.section())
    assert run_cli(args, capsys) == (0, out, "")


def test_mc_reports_both_verdicts(tmp_path, capsys):
    """mc_zero is a report: torus-obstructed's own section (cos ph_4,
    sin ph_4) reads false, with MC(-s) = sin(ph_3) dph_1^dph_2 its one
    residue, and its zero section reads true; both exit 0."""

    def mc(path):
        code, out, err = run_cli(["--scenario", path, "--task", "mc"], capsys)
        assert code == 0 and err == ""
        return json.loads(out)["tasks"]["mc"]

    report = mc("torus-obstructed")
    chart = load_scenario("torus-obstructed").chart
    assert report["mc_zero"] is False
    assert leafform_from_json(chart, report["mc"]) == LeafForm(chart, 2, {(0, 1): ScalarFn.sin_phi(chart, "ph_3")})
    data = _builtin_data("torus-obstructed")
    data["section"]["components"] = ["0", "0"]
    report = mc(_write_scenario(tmp_path, data))
    assert report["mc_zero"] is True and report["mc"] == {"degree": 2, "terms": []}


def test_prolong_report_of_a_solved_section(tmp_path, capsys):
    """prolong:4 on a section that prolongs reports solved, one entry per
    order 2..4, and the coefficients s_1..s_4 of prolong_formal."""
    data = _builtin_data("torus-obstructed")
    data["section"]["components"] = PROLONGING_SECTION
    path = _write_scenario(tmp_path, data)
    code, out, err = run_cli(["--scenario", path, "--task", "prolong:4"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)["tasks"]["prolong"]
    scenario = load_scenario(path)
    sections, _ = linfty.prolong_formal(scenario.table(), scenario.section(), 4)
    assert report["solved"] is True and report["order_k"] == 4
    assert [o["order_k"] for o in report["orders"]] == [2, 3, 4]
    assert report["coefficients"] == [section_to_json(s) for s in sections]
    assert all(report["coefficients"][1:])  # s_2 .. s_4 are nonzero


def test_hpl_resolve_reports_a_wrong_induced_differential(capsys, monkeypatch):
    """induced_differential_is_m1 is a report: a small differential off by
    a factor 2 (stubbed) reads false, with exit 0."""
    args = ["--scenario", "torus-obstructed", "--task", "hpl-resolve"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and json.loads(out)["tasks"]["hpl-resolve"]["induced_differential_is_m1"] is True
    real = bfv.PerturbedContraction.small_differential
    monkeypatch.setattr(bfv.PerturbedContraction, "small_differential", lambda self, y: real(self, y).scale(2))
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["tasks"]["hpl-resolve"] == {"axioms_hold": True, "induced_differential_is_m1": False}


def test_brst_charge_without_mc_exits_3(capsys, monkeypatch):
    """brst-charge reports "mc": true because the SBSO returns a charge only
    once its Jacobi bracket vanishes; a bracket that never vanishes (stubbed
    with a constant antighost term, which wp kills and h maps to zero) is an
    invariant failure, exit 3 with one line, not a report with "mc": false."""
    code, out, err = run_cli(["--scenario", "legendrian-jet", "--task", "brst-charge"], capsys)
    assert code == 0 and json.loads(out)["tasks"]["brst-charge"]["mc"] is True
    original = bfv.hamiltonian_operator

    class NeverZero:
        """The Hamiltonian operator of a, whose insertions gain the constant term."""

        def __init__(self, jop, a):
            self.op = original(jop, a)

        def insert(self, b):
            return self.op.insert(b) + GradedElement(b.chart, {((XIS, 0),): ScalarFn.one(b.chart)})

    monkeypatch.setattr(bfv, "hamiltonian_operator", NeverZero)
    code, out, err = run_cli(["--scenario", "legendrian-jet", "--task", "brst-charge"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("coiso: internal invariant violation in brst-charge: SBSO ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", [[], {"x": 1}, None, "jet"])
@pytest.mark.parametrize("task", ["check-jacobi", "coisotropic"])
def test_jet_block_takes_no_keys(tmp_path, capsys, task, value):
    """The jet block has no parameters: any value but {} exits 2 with one
    line, where {} runs the task."""
    data = _builtin_data("legendrian-jet")
    data["jet"] = value
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(["--scenario", str(p), "--task", task], capsys)
    assert code == 2 and out == ""
    assert "jet block" in err and len(err.splitlines()) == 1


def _write_scenario(tmp_path, data):
    p = tmp_path / "malformed.json"
    p.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode("utf-8"))
    return str(p)


@pytest.mark.parametrize(
    "raw, message",
    [(b'{"schema": 1, "note": "caf\xe9"}', "not UTF-8"), (b"[" * 5000 + b"]" * 5000, "nested too deeply")],
    ids=["latin-1", "nested"],
)
def test_scenario_file_unreadable(tmp_path, capsys, raw, message):
    """A scenario file that is not UTF-8, or JSON nested 5000 deep, is a
    parse error: exit 1, one line."""
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, raw), "--task", "check-jacobi"], capsys)
    assert code == 1 and out == ""
    assert message in err and len(err.splitlines()) == 1


def test_chart_block_not_an_object(tmp_path, capsys):
    data = _builtin_data("legendrian-jet")
    data["chart"] = []
    path = _write_scenario(tmp_path, data)
    code, out, err = run_cli(["--scenario", path, "--task", "check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert "chart block" in err and len(err.splitlines()) == 1


def test_expression_nested_too_deeply(tmp_path, capsys):
    """2000 nested parentheses are a ContentError (exit 2), not a RecursionError;
    100 still parse."""
    chart = {"torus": ["ph_1"], "fiber": ["y_1"], "leaf": ["ph_1"]}
    coef = "(" * 100 + "1" + ")" * 100
    assert parse_scalar(torus_chart(), coef) == parse_scalar(torus_chart(), "1")
    coef = "(" * 2000 + "1" + ")" * 2000
    data = {"schema": 1, "chart": chart, "jacobi": {"p": [{"idx": [0, 1], "coef": coef}], "q": []}}
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", "check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert "nested deeper than 100" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("block", [{"P": [], "Q": []}, {"p": [], "q": [], "x": 1}, [], {"p": 5}])
def test_jacobi_block_keys_are_closed(tmp_path, capsys, block):
    """A jacobi block with a key other than p and q (say "P"/"Q", which
    would otherwise load as the zero structure), or one that is not an
    object of lists, exits 2 with one line."""
    chart = {"torus": ["ph_1"], "fiber": ["y_1"], "leaf": ["ph_1"]}
    path = _write_scenario(tmp_path, {"schema": 1, "chart": chart, "jacobi": block})
    code, out, err = run_cli(["--scenario", path, "--task", "check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert "jacobi" in err and len(err.splitlines()) == 1


LCS_T2 = {
    "schema": 1,
    "chart": {"torus": ["ph_1", "ph_2"], "fiber": [], "leaf": []},
    "lcs": {"omega": [{"idx": [0, 1], "coef": "1"}], "theta1": []},
}


def test_multibrackets_without_fiber(tmp_path, capsys):
    p = tmp_path / "lcs.json"
    p.write_text(json.dumps(LCS_T2))
    code, out, err = run_cli(["--scenario", str(p), "--task", "multibrackets"], capsys)
    assert code == 2 and out == ""
    assert "fiber coordinate" in err and len(err.splitlines()) == 1


def test_dbfv_without_fiber(tmp_path, capsys):
    """Without fiber coordinates the BRST charge of the zero section is
    zero, and so is d_BFV; hpl-resolve, which projects onto the fiber
    directions, exits 2 with one line, and so do both obstruction routes
    and mc, whose residue table on an empty section is empty, with the same
    message."""
    p = tmp_path / "lcs.json"
    p.write_text(json.dumps(LCS_T2))
    code, out, err = run_cli(["--scenario", str(p), "--task", "dbfv"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)["tasks"]["dbfv"]
    assert report["square_zero"] is True and report["operator"] == []
    code, out, err = run_cli(["--scenario", str(p), "--task", "hpl-resolve"], capsys)
    assert code == 2 and out == ""
    assert "fiber direction" in err and len(err.splitlines()) == 1
    p.write_text(json.dumps({**LCS_T2, "section": {"components": []}}))
    messages = []
    for task in ("kuranishi", "bfv-kuranishi", "mc"):
        code, out, err = run_cli(["--scenario", str(p), "--task", task], capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        messages.append(err.replace(f"task {task}: ", ""))
    assert messages == ["coiso: projection needs at least one fiber direction\n"] * 3


def test_transversal_crosscheck_needs_two_fiber_coordinates(tmp_path, capsys):
    data = {
        "schema": 1,
        "chart": {"torus": ["ph_1", "ph_2"], "fiber": ["y_1"], "leaf": []},
        "jacobi": {"p": [], "q": []},
        "transversal": {"frame_a": [{"ph_1": "1"}], "frame_z": {"ph_2": "1"}, "omega": [["1"]]},
    }
    p = tmp_path / "one_fiber.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(["--scenario", str(p), "--task", "transversal-crosscheck"], capsys)
    assert code == 2 and out == ""
    assert "two fiber coordinates" in err and len(err.splitlines()) == 1


def _builtin_data(name):
    import importlib.resources as resources

    return json.loads(
        resources.files("coiso").joinpath("scenarios", f"{name}.json").read_text("utf-8")
    )


MISSING = object()


def _block_key_case(kind, key, task, value=MISSING, label=""):
    """A case deleting block[key], or setting it to value described by label."""
    shown = f"-{label}" if label else ""
    return pytest.param(kind, key, task, value, id=f"{kind}-{key}{shown}-{task}")


BLOCK_KEY_CASES = [
    _block_key_case("contact", "theta", "check-jacobi"),
    _block_key_case("contact", "reeb", "check-jacobi"),
    _block_key_case("contact", "frame", "check-jacobi"),
    _block_key_case("lcs", "omega", "check-jacobi"),
    _block_key_case("section", "components", "mc"),
    _block_key_case("transversal", "frame_a", "transversal-crosscheck"),
    _block_key_case("transversal", "frame_z", "transversal-crosscheck"),
    _block_key_case("transversal", "omega", "transversal-crosscheck"),
    # present, but not an object (or a list of objects)
    _block_key_case("contact", "theta", "check-jacobi", [1], "list"),
    _block_key_case("contact", "reeb", "check-jacobi", "1", "string"),
    _block_key_case("contact", "frame", "check-jacobi", {"ph_1": "1"}, "object"),
    _block_key_case("contact", "frame", "check-jacobi", [[1]], "list-entry"),
    _block_key_case("transversal", "frame_a", "transversal-crosscheck", [["1"]], "list-entry"),
    _block_key_case("transversal", "frame_z", "transversal-crosscheck", ["1"], "list"),
    # present, but not a list: a string of components would load
    # character by character ("00" as the zero section)
    _block_key_case("section", "components", "coisotropic", "00", "string"),
    _block_key_case("section", "components", "mc", 5, "number"),
    _block_key_case("lcs", "omega", "check-jacobi", 5, "number"),
    _block_key_case("lcs", "omega", "check-jacobi", {"idx": [0, 1], "coef": "1"}, "object"),
    _block_key_case("lcs", "theta1", "check-jacobi", 5, "number"),
    _block_key_case("lcs", "theta1", "check-jacobi", {"idx": [0], "coef": "1"}, "object"),
    # present, but not a positive integer, an integer key or the trivial connection
    _block_key_case("formal", "order", "prolong", "x", "string"),
    _block_key_case("formal", "order", "prolong", 0, "zero"),
    _block_key_case("formal", "order", "prolong", -2, "negative"),
    _block_key_case("formal", "order", "prolong", True, "bool"),
    _block_key_case("formal", "order", "prolong", 4.0, "float"),
    _block_key_case(
        "transversal", "F_ab", "transversal-crosscheck", {"x": [["0", "0"], ["0", "0"]]}, "key"
    ),
    _block_key_case("transversal", "F_a", "transversal-crosscheck", {"1.5": ["0", "0"]}, "key"),
    # present, but a number where a list belongs, of the wrong shape, or
    # keyed outside the leaf indices 0, 1
    _block_key_case("transversal", "C", "transversal-crosscheck", 0, "number"),
    _block_key_case("transversal", "omega", "transversal-crosscheck", [["0", "-1"], 1], "row-number"),
    _block_key_case("transversal", "omega", "transversal-crosscheck", [["0", "-1"]], "one-row"),
    _block_key_case("transversal", "omega", "transversal-crosscheck", [["0"], ["1"]], "one-column"),
    _block_key_case("transversal", "F_ab", "transversal-crosscheck", {"0": 1}, "number"),
    _block_key_case("transversal", "F_ab", "transversal-crosscheck", {"0": [["0", "0"]]}, "one-row"),
    _block_key_case("transversal", "F_a", "transversal-crosscheck", {"0": 1}, "number"),
    _block_key_case("transversal", "F_a", "transversal-crosscheck", {"0": ["0"]}, "short"),
    _block_key_case(
        "transversal", "F_ab", "transversal-crosscheck", {"9": [["0", "0"], ["0", "0"]]}, "leaf"
    ),
    _block_key_case("transversal", "F_a", "transversal-crosscheck", {"9": ["0", "0"]}, "leaf"),
    _block_key_case("bfv", "connection", "bfv-lift", "curved", "curved"),
    _block_key_case("bfv", "connection", "brst-charge", "curved", "curved"),
    # a key the block does not take, such as a misspelt "theta1" (which
    # would otherwise load as theta1 = 0)
    _block_key_case("lcs", "Theta1", "check-jacobi", [], "unknown"),
    _block_key_case("contact", "Reeb", "check-jacobi", {}, "unknown"),
    _block_key_case("transversal", "c", "transversal-crosscheck", ["1", "0"], "unknown"),
    _block_key_case("section", "component", "mc", [], "unknown"),
    _block_key_case("formal", "Order", "prolong", 4, "unknown"),
    # fewer leaf coordinates than fiber coordinates: the cross-check
    # pairs fiber frame form i with leaf coordinate i
    _block_key_case("chart", "leaf", "transversal-crosscheck", ["ph_2"], "one-leaf"),
]


def _as_check_jacobi(cases):
    """The cases of the blocks check-jacobi does not read (section,
    transversal, formal, bfv), each block and value once, run by
    check-jacobi: the schema finds the error at load."""
    out = {}
    for case in cases:
        kind, key, task, value = case.values
        if kind in ("section", "transversal", "formal", "bfv"):
            param = pytest.param(kind, key, "check-jacobi", value, id=f"{case.id}-as-check-jacobi")
            out.setdefault(repr((kind, key, value)), param)
    return list(out.values())


@pytest.mark.parametrize("kind, key, task, value", BLOCK_KEY_CASES + _as_check_jacobi(BLOCK_KEY_CASES))
def test_missing_block_key(tmp_path, capsys, kind, key, task, value):
    data = dict(LCS_T2) if kind == "lcs" else _builtin_data("torus-obstructed")
    data[kind] = {k: v for k, v in data[kind].items() if k != key}
    if value is not MISSING:
        data[kind][key] = value
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(["--scenario", str(p), "--task", task], capsys)
    assert code == 2 and out == ""
    assert repr(key) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value", [("torus", "ph_1"), ("fiber", ["y_1", 2]), ("leaf", "ph_1")])
def test_chart_names_are_lists_of_strings(tmp_path, capsys, key, value):
    """A chart whose torus, fiber or leaf is not a list of names (the
    string "ph_1" would otherwise be the torus p, h, _, 1) is invalid:
    exit 2."""
    chart = {"torus": ["ph_1"], "fiber": ["y_1"], "leaf": []}
    data = {"schema": 1, "chart": dict(chart, **{key: value}), "jacobi": {"p": [], "q": []}}
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", "check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert f"chart {key!r}" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value", [("Leaf", ["ph_1", "ph_2"]), ("base", [])])
@pytest.mark.parametrize("task", ["check-jacobi", "kuranishi"])
def test_chart_keys_are_closed(tmp_path, capsys, key, value, task):
    """A chart key other than torus, fiber and leaf (a misspelt "Leaf" would
    otherwise load a chart without leaf coordinates) is invalid: exit 2, one
    line naming the key."""
    data = _builtin_data("torus-obstructed")
    data["chart"].pop(key.lower(), None)
    data["chart"][key] = value
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", task], capsys)
    assert code == 2 and out == ""
    assert "chart block" in err and repr(key) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("leaf", ["ph_1", "ph_1"], "leaf coordinate 'ph_1' is repeated"),
        ("leaf", ["y_1"], "not a torus coordinate"),
        ("fiber", ["y_1", "ph_1"], "unique"),
    ],
    ids=["repeated-leaf", "fiber-leaf", "repeated-name"],
)
@pytest.mark.parametrize("task", ["check-jacobi", "kuranishi"])
def test_chart_names_are_consistent(tmp_path, capsys, key, value, message, task):
    """A repeated leaf coordinate (which kuranishi would otherwise integrate
    twice, reporting two_pi_power 2 and the form dph_1^dph_1), a leaf
    coordinate off the torus and a name used twice are invalid: exit 2, one
    line."""
    data = _builtin_data("torus-obstructed")
    data["chart"][key] = value
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", task], capsys)
    assert code == 2 and out == ""
    assert "invalid chart block" in err and message in err and len(err.splitlines()) == 1


def test_unwritable_out_path(tmp_path, capsys):
    """A report that cannot be written exits 1 with one line, not a
    traceback."""
    target = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(
        ["--scenario", "torus-obstructed", "--task", "check-jacobi", "--out", str(target)], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("coiso: cannot write report: ") and len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("key, value", [("Formal", {"order": 5}), ("note", "a remark")])
@pytest.mark.parametrize("task", ["prolong", "check-jacobi"])
def test_top_level_keys_are_closed(tmp_path, capsys, key, value, task):
    """A top-level key the format does not have (a misspelt "Formal" would
    otherwise be ignored and prolong run at the default order) exits 2 with
    one line naming the key; without it the task runs."""
    data = _builtin_data("torus-obstructed")
    data.pop(key.lower(), None)
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", task], capsys)
    assert code == 0 and err == ""
    data[key] = value
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", task], capsys)
    assert code == 2 and out == ""
    assert repr(key) in err and len(err.splitlines()) == 1


# the zero section of T^1 x R^2 under J = d_y1 ^ d_y2 is not coisotropic
OBSTRUCTED_ZERO = {
    "schema": 1,
    "chart": {"torus": ["ph_1"], "fiber": ["y_1", "y_2"], "leaf": ["ph_1"]},
    "jacobi": {"p": [{"idx": [1, 2], "coef": "1"}], "q": []},
}


def test_obstructed_zero_section_is_a_report(tmp_path, capsys):
    """Without a BRST charge of the zero section, the tasks built on it
    report the failure as brst-charge does, and exit 0."""
    p = tmp_path / "obstructed.json"
    p.write_text(json.dumps(OBSTRUCTED_ZERO))
    tasks = ["brst-charge", "dbfv", "bfv-kuranishi", "hpl-resolve"]
    code, out, err = run_cli(
        ["--scenario", str(p)] + [a for t in tasks for a in ("--task", t)], capsys
    )
    assert code == 0 and err == ""
    reports = json.loads(out)["tasks"]
    failure = reports["brst-charge"]
    assert failure["exists"] is False and failure["failure_text"]
    assert all(reports[t] == failure for t in tasks)


def test_obstruction_is_success(tmp_path, capsys):
    code, out, _ = run_cli(
        ["--scenario", "torus-obstructed", "--task", "kuranishi", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    task = report["tasks"]["kuranishi"]
    assert task["obstructed"] is True
    assert task["two_pi_power"] == 2
    assert task["zero_mode_text"] == "(sin(ph_3)) dph_1^dph_2"
    # the zero section is unobstructed: its zero mode is the zero form, "0"
    data = _builtin_data("torus-obstructed")
    data["section"]["components"] = ["0", "0"]
    code, out, err = run_cli(["--scenario", _write_scenario(tmp_path, data), "--task", "kuranishi"], capsys)
    assert code == 0 and err == ""
    task = json.loads(out)["tasks"]["kuranishi"]
    assert task["obstructed"] is False
    assert task["zero_mode"] == {"degree": 2, "terms": []} and task["zero_mode_text"] == "0"


def test_swapped_leaf_list_keeps_the_obstruction(tmp_path, capsys):
    """With the leaf list swapped to (ph_2, ph_1), the scenario's own section
    still reads obstructed on the MC and the BFV route, with the zero mode
    sin(ph_3) on both."""
    data = _builtin_data("torus-obstructed")
    data["chart"]["leaf"] = ["ph_2", "ph_1"]
    code, out, err = run_cli(
        ["--scenario", _write_scenario(tmp_path, data), "--task", "kuranishi", "--task", "bfv-kuranishi"],
        capsys,
    )
    assert code == 0 and err == ""
    mc, bfv = (json.loads(out)["tasks"][t] for t in ("kuranishi", "bfv-kuranishi"))
    assert mc["obstructed"] is True and bfv["obstructed"] is True
    assert mc["zero_mode_text"] == "(sin(ph_3)) dph_2^dph_1"
    assert bfv["zero_mode_text"] == "(sin(ph_3)) xi^1.xi^2"
    assert [t["coef"] for t in mc["zero_mode"]["terms"]] == [t["coef"] for t in bfv["zero_mode"]]


def test_check_jacobi_report(capsys):
    code, out, _ = run_cli(
        ["--scenario", "torus-obstructed", "--task", "check-jacobi", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["tasks"]["check-jacobi"]["jacobiator_zero"] is True


# a raw jacobi block need not be Jacobi: on T^3, P = cos(ph_3) d2^d3
# - sin(ph_3) d1^d3 + d1^d2 has [[P, P]] != 0
NOT_JACOBI_T3 = {
    "schema": 1,
    "chart": {"torus": ["ph_1", "ph_2", "ph_3"], "fiber": [], "leaf": []},
    "jacobi": {
        "p": [
            {"idx": [1, 2], "coef": "cos(ph_3)"},
            {"idx": [0, 2], "coef": "-sin(ph_3)"},
            {"idx": [0, 1], "coef": "1"},
        ],
        "q": [],
    },
}


def test_check_jacobi_reports_a_nonzero_jacobiator(tmp_path, capsys):
    """check-jacobi reports the nonzero [[P, P]] of NOT_JACOBI_T3, with
    exit 0."""
    path = _write_scenario(tmp_path, NOT_JACOBI_T3)
    code, out, err = run_cli(["--scenario", path, "--task", "check-jacobi"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["tasks"]["check-jacobi"]["jacobiator_zero"] is False


@pytest.mark.parametrize(
    "scenario, coisotropic, pairs",
    [("torus-obstructed", False, [[0, 1]]), ("legendrian-jet", True, [])],
)
def test_coisotropic_reports_both_verdicts(capsys, scenario, coisotropic, pairs):
    """torus-obstructed's section (cos ph_4, sin ph_4) is infinitesimal
    only: {y_1 - cos ph_4, y_2 - sin ph_4} is sin ph_3 on its graph, so
    coisotropic reads false with that one residue, and exit 0.  The zero
    section of legendrian-jet (it has no section block) reads true with
    no residues."""
    code, out, err = run_cli(["--scenario", scenario, "--task", "coisotropic"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)["tasks"]["coisotropic"]
    assert report["coisotropic"] is coisotropic
    assert [r["pair"] for r in report["residues"]] == pairs
    chart = load_scenario(scenario).chart
    for r in report["residues"]:
        assert scalar_from_json(chart, r["value"]) == ScalarFn.sin_phi(chart, "ph_3")


def test_transversal_crosscheck_reports_a_disagreement(tmp_path, capsys):
    """Both flags of transversal-crosscheck are reports, each seen false
    with exit 0.  A block that does not match the structure (frame_z given
    a d/dph_2 component) reads generator_agreement false, with the checks
    that differ marked unequal.  A valid block whose frames mix leaf and
    transverse directions (frame_a[1] given a sin(ph_1) d/dph_1 component)
    and whose F_a is nonzero agrees on every generator, but its
    m_3(frame_0, frame_1, frame_0) does not vanish: higher_brackets_zero
    reads false."""

    def crosscheck(edit):
        data = _builtin_data("torus-obstructed")
        edit(data["transversal"])
        path = _write_scenario(tmp_path, data)
        code, out, err = run_cli(["--scenario", path, "--task", "transversal-crosscheck"], capsys)
        assert code == 0 and err == ""
        return json.loads(out)["tasks"]["transversal-crosscheck"]

    report = crosscheck(lambda t: t["frame_z"].update(ph_2="1"))
    assert report["generator_agreement"] is False and report["higher_brackets_zero"] is True
    unequal = Counter(c["generators"] for c in report["checks"] if not c["equal"])
    assert unequal == {"m2(f,g)": 4, "m2(f,frame_0)": 1, "m2(f,frame_1)": 1}

    def mixed_frame(t):
        t["F_a"] = {"0": ["1", "0"]}
        t["frame_a"][1]["ph_1"] = "sin(ph_1)"

    report = crosscheck(mixed_frame)
    assert report["generator_agreement"] is True and report["higher_brackets_zero"] is False


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        [
            "--scenario",
            "torus-obstructed",
            "--task",
            "check-jacobi",
            "--format",
            "json",
            "--out",
            str(target),
        ],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["scenario"] == "torus-obstructed"


def test_text_format(capsys):
    code, out, _ = run_cli(
        ["--scenario", "torus-obstructed", "--task", "kuranishi", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert "two_pi_power: 2" in out
    assert "sin(ph_3)" in out
    # an empty list is a value on its key's line
    code, out, _ = run_cli(["--scenario", "legendrian-jet", "--task", "coisotropic", "--format", "text"], capsys)
    assert code == 0
    assert "  coisotropic: true\n" in out and "  residues: []\n" in out


def test_report_formatting_examples():
    from coiso.leafform import LeafForm
    from coiso.serialize import leafform_to_json

    chart = torus_chart()
    assert leafform_to_json(LeafForm.zero(chart, 2)) == {"degree": 2, "terms": []}


def test_expression_round_trip():
    chart = torus_chart()
    rng = random.Random(1)
    for _ in range(30):
        f = random_scalar(chart, rng, max_terms=3, freq=2, fiber_deg=2)
        f = f + conjugate(f)  # keep it real so sin/cos collection kicks in
        text = scalar_to_text(f)
        assert parse_scalar(chart, text) == f
        assert scalar_from_json(chart, scalar_to_json(f)) == f


def test_scenario_requires_single_structure(tmp_path):
    data = {
        "schema": 1,
        "chart": {"torus": ["ph_1"], "fiber": [], "leaf": []},
        "jet": {},
        "jacobi": {"p": [], "q": []},
    }
    with pytest.raises(ContentError, match="^scenario needs exactly one structure block of "):
        Scenario(data)
    with pytest.raises(ContentError, match="^top-level 'schema' must be 1$"):
        Scenario({"schema": 2, "chart": {"torus": []}, "jet": {}})


def test_scenario_file_loading(tmp_path):
    p = tmp_path / "mini.json"
    p.write_text(
        json.dumps(
            {
                "schema": 1,
                "chart": {"torus": ["ph_1", "ph_2"], "fiber": [], "leaf": []},
                "lcs": {
                    "omega": [{"idx": [0, 1], "coef": "1"}],
                    "theta1": [],
                },
            }
        )
    )
    sc = load_scenario(str(p))
    assert sc.name == "mini"
    j = sc.jacobi()
    assert j.is_jacobi()


def _job_args(scenario, tasks):
    return ["--scenario", scenario, "--format", "json"] + [a for t in tasks for a in ("--task", t)]


def _count_calls(monkeypatch, counts):
    """Count into counts the Lift and MultibracketTable builds and the
    d_bfv, hpl_resolution and HPL axiom-sample calls, wherever made."""
    import coiso.bfv
    import coiso.cli
    import coiso.linfty

    def wrap(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return original, counted

    wrap(coiso.bfv.Lift, "__init__", "lift")
    wrap(coiso.linfty.MultibracketTable, "__init__", "table")
    wrap(coiso.cli, "_random_graded_section", "axiom_samples")
    for name, key in (("d_bfv", "d_bfv"), ("hpl_resolution", "hpl")):
        original, counted = wrap(coiso.bfv, name, key)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("coiso.") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)


def test_job_builds_each_artifact_once(monkeypatch, capsys):
    counts = Counter()
    _count_calls(monkeypatch, counts)
    code, _, err = run_cli(_job_args("torus-obstructed", TASKS), capsys)
    assert code == 0, err
    # bfv-kuranishi and hpl-resolve share one build of the HPL data; only
    # hpl-resolve samples its contraction axioms (6 base + 6 perturbed)
    assert counts == {"lift": 1, "table": 1, "d_bfv": 1, "hpl": 1, "axiom_samples": 12}


def test_section_is_shared():
    """The section is parsed once per Scenario; a missing block raises
    every time and keeps nothing."""
    scenario = load_scenario("torus-obstructed")
    assert scenario.section() is scenario.section()
    bare = load_scenario("legendrian-jet")
    for _ in range(2):
        with pytest.raises(ContentError, match="no section block"):
            bare.section()
    assert "section" not in bare._built


# the tasks each built-in scenario can run (legendrian-jet has no section
# and no transversal block)
BUILTIN_JOBS = {
    "torus-obstructed": list(TASKS),
    "legendrian-jet": [
        "check-jacobi", "coisotropic", "multibrackets", "bfv-lift", "brst-charge", "dbfv",
        "hpl-resolve",
    ],
}


@pytest.mark.parametrize("scenario", sorted(BUILTIN_JOBS))
def test_task_report_independent_of_job(capsys, scenario):
    """A task's report is the same alone, in the job, and in the job run
    backwards: no shared artifact depends on which task built it."""
    tasks = BUILTIN_JOBS[scenario]
    code, out, err = run_cli(_job_args(scenario, tasks), capsys)
    assert code == 0, err
    job = json.loads(out)["tasks"]
    code, out, err = run_cli(_job_args(scenario, tasks[::-1]), capsys)
    assert code == 0, err
    assert json.loads(out)["tasks"] == job
    for task in tasks:
        code, out, err = run_cli(_job_args(scenario, [task]), capsys)
        assert code == 0, err
        assert json.loads(out)["tasks"] == {task: job[task]}, task


@pytest.mark.parametrize("scenario", sorted(BUILTIN_JOBS))
def test_job_squares_the_structure_once(monkeypatch, capsys, scenario):
    """[[J, J]] is computed once in a job whose constructor, check-jacobi,
    coisotropic, table and lift all read it, and never for another
    multiderivation: the square rule runs once, on J, and no bracket of
    distinct operands is handed the same object twice."""
    squared, doubled = [], []
    square, bracket = MultiDerivation._self_bracket, MultiDerivation._bracket

    def spy_square(a):
        squared.append(a)
        return square(a)

    def spy_bracket(a, b):
        if a is b:
            doubled.append(a)
        return bracket(a, b)

    monkeypatch.setattr(MultiDerivation, "_self_bracket", spy_square)
    monkeypatch.setattr(MultiDerivation, "_bracket", spy_bracket)
    code, out, err = run_cli(_job_args(scenario, BUILTIN_JOBS[scenario]), capsys)
    assert code == 0, err
    assert len(squared) == 1 and squared[0].degree == 2 and not doubled
    assert json.loads(out)["tasks"]["check-jacobi"]["jacobiator_zero"] is True


def test_kuranishi_projects_its_square_once(monkeypatch):
    """A kuranishi task projects the bracket D[2, 2] = [[[[J, I s]],
    I s]] once, for the order-2 right-hand side whose double is the class,
    and one other bracket, [[J, I s]] for the m_1 s = 0 check."""
    projected = []
    project = linfty.projection_P

    def spy(d):
        projected.append(d)
        return project(d)

    monkeypatch.setattr(linfty, "projection_P", spy)
    scenario = load_scenario("torus-obstructed")
    report = TASKS["kuranishi"](scenario, None)
    s = scenario.section()
    assert report["obstructed"] is True
    square = scenario.table().derived((s, s))
    assert len(projected) == 2 and projected.count(square) == 1


def test_scenario_parses_each_text_once(monkeypatch):
    """Scenario._expr parses a repeated text once and returns the same
    ScalarFn for it; a text that fails to parse is not kept, and gives the
    same "bad expression" error on every use.  Building the torus-obstructed
    contact structure, whose 17 texts hold 10 distinct ones, parses each
    distinct text once."""
    parsed = []

    def spy(chart, text):
        parsed.append(text)
        return parse_scalar(chart, text)

    monkeypatch.setattr("coiso.scenario.parse_scalar", spy)
    s = load_scenario("torus-obstructed")
    f = s._expr("y_1*sin(ph_3)")
    assert s._expr("y_1*sin(ph_3)") is f and parsed == ["y_1*sin(ph_3)"]
    assert f == ScalarFn.y(s.chart, "y_1") * ScalarFn.sin_phi(s.chart, "ph_3")
    errors = []
    for _ in range(2):
        with pytest.raises(ContentError, match=r"^bad expression 'ph_1': ") as exc:
            s._expr("ph_1")
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and parsed.count("ph_1") == 2

    block = s.data["contact"]
    texts = [*block["theta"].values(), *block["reeb"].values()]
    texts += [t for field in block["frame"] for t in field.values()]
    parsed.clear()
    s.jacobi()
    assert len(texts) == 17 and sorted(parsed) == sorted(set(texts)) and len(parsed) == 10


# -- fuzzing the scenario format ---------------------------------------------------

# values a mutation puts in the document: any JSON, and expressions
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text("ph_12yz0*()-", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("xC0"), inner, max_size=2),
    max_leaves=4,
)
EXPRESSIONS = st.sampled_from(
    ["0", "1", "-1/2", "i", "y_1", "p_1*z", "sin(ph_3)", "cos(ph_1)*y_2", "exp(I*2*ph_2)", "ph_1", "sin(", ""]
)
# keys a mutation adds: unknown ones, and known ones in new places
NEW_KEYS = ("x", "0", "1", "C", "F_a", "jet", "leaf", "order", "section", "theta1")


def _json_paths(value, path=()):
    """The path (keys and indices from the root) of every value inside value."""
    entries = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, entry in entries:
        yield path + (key,)
        yield from _json_paths(entry, path + (key,))


@st.composite
def _mutated_scenarios(draw):
    """The bytes of a built-in scenario after one or two mutations of its
    JSON (a value replaced by any JSON value or by an expression, a key or
    list entry deleted, a key added or a list grown, a value nested in
    lists) and, one time in four, of one byte (overwritten, inserted or
    deleted)."""
    doc = _builtin_data(draw(st.sampled_from(sorted(BUILTIN_JOBS))))
    for _ in range(draw(st.integers(1, 2))):
        # a Random spreads the paths more evenly than sampled_from does
        path = draw(st.randoms(use_true_random=False)).choice(list(_json_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, old = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(("retype", "rewrite", "delete", "grow", "nest")))
        if op == "retype" or (op == "grow" and not isinstance(old, (dict, list))):
            parent[key] = draw(JSON_VALUES)
        elif op == "rewrite":
            parent[key] = draw(EXPRESSIONS if isinstance(old, str) else st.integers(-2, 9))
        elif op == "delete":
            del parent[key]
        elif op == "grow" and isinstance(old, dict):
            old[draw(st.sampled_from(NEW_KEYS))] = draw(EXPRESSIONS | JSON_VALUES)
        elif op == "grow":
            old.append(old[-1] if old and draw(st.booleans()) else draw(JSON_VALUES))
        else:
            for _ in range(draw(st.integers(1, 3))):
                parent[key] = [parent[key]]
    raw = json.dumps(doc).encode()
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(raw) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        raw = draw(st.sampled_from((raw[:at] + byte + raw[at + 1 :], raw[:at] + byte + raw[at:], raw[:at] + raw[at + 1 :])))
    return raw


def _one_leaf_crosscheck():
    data = _builtin_data("torus-obstructed")
    data["chart"]["leaf"] = ["ph_2"]
    return json.dumps(data).encode()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    raw=_mutated_scenarios(),
    task=st.sampled_from(
        ["check-jacobi", "coisotropic", "mc", "multibrackets:2", "prolong:1", "transversal-crosscheck", "bfv-lift"]
    ),
)
@example(raw=_one_leaf_crosscheck(), task="transversal-crosscheck")
def test_mutated_scenarios_end_in_an_exit_code(tmp_path_factory, raw, task):
    """Whatever a mutation does to a built-in scenario, main returns an exit
    code of 0 to 3 and, unless it succeeds, writes one line: no exception
    escapes it."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--scenario", str(path), "--task", task])
    assert code in (0, 1, 2, 3)
    assert code == 0 or len(err.getvalue().splitlines()) == 1, err.getvalue()
