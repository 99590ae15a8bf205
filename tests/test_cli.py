"""Scenario front end: parsing, reports, determinism, exit codes."""

import io
import json
import random
import subprocess
import sys

import pytest

from coiso.cli import main, format_report, run_task, TASKS
from coiso.scenario import Scenario, ScenarioError, builtin_names, load_scenario
from coiso.expr import parse_scalar, scalar_to_json, scalar_to_text, scalar_from_json

from helpers import random_scalar, torus_chart


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builtin_scenarios_listed(capsys):
    code, out, _ = run_cli(["--list-scenarios"], capsys)
    assert code == 0
    assert set(out.split()) == {"torus-obstructed", "legendrian-jet"}


def test_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "required" in err


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


def test_missing_scenario(capsys):
    code, _, err = run_cli(["--scenario", "no-such", "--task", "check-jacobi"], capsys)
    assert code == 1


def test_validation_error_exit_code(tmp_path, capsys):
    chart = {"torus": ["ph_1"], "fiber": ["y_1"], "leaf": ["ph_1"]}
    cases = [
        # section components must be base-only
        ({"jacobi": {"p": [], "q": []}, "section": {"components": ["y_1"]}}, "mc"),
        # index 7 does not exist on the 2-dimensional chart
        ({"jacobi": {"p": [{"idx": [0, 7], "coef": "1"}], "q": []}}, "check-jacobi"),
        # an index must be an integer
        ({"jacobi": {"p": [{"idx": ["a", 1], "coef": "1"}], "q": []}}, "check-jacobi"),
    ]
    for blocks, task in cases:
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 1, "chart": chart, **blocks}))
        code, _, err = run_cli(["--scenario", str(p), "--task", task], capsys)
        assert code == 2, err
        assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize(
    "kind, key, task",
    [
        ("contact", "theta", "check-jacobi"),
        ("contact", "reeb", "check-jacobi"),
        ("contact", "frame", "check-jacobi"),
        ("lcs", "omega", "check-jacobi"),
        ("section", "components", "mc"),
        ("transversal", "frame_a", "transversal-crosscheck"),
        ("transversal", "frame_z", "transversal-crosscheck"),
        ("transversal", "omega", "transversal-crosscheck"),
    ],
)
def test_missing_block_key(tmp_path, capsys, kind, key, task):
    data = dict(LCS_T2) if kind == "lcs" else _builtin_data("torus-obstructed")
    data[kind] = {k: v for k, v in data[kind].items() if k != key}
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(["--scenario", str(p), "--task", task], capsys)
    assert code == 2 and out == ""
    assert repr(key) in err and len(err.splitlines()) == 1


def test_obstruction_is_success(capsys):
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


def test_check_jacobi_report(capsys):
    code, out, _ = run_cli(
        ["--scenario", "torus-obstructed", "--task", "check-jacobi", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["tasks"]["check-jacobi"]["jacobiator_zero"] is True


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


def test_report_formatting_examples():
    from coiso.leafform import LeafForm
    from coiso.ring import ScalarFn, TorusIntegral
    from coiso.serialize import integral_to_text, leafform_to_json

    chart = torus_chart()
    assert leafform_to_json(LeafForm.zero(chart, 2)) == {"degree": 2, "terms": []}
    t = TorusIntegral(ScalarFn.sin_phi(chart, "ph_3"), 2)
    assert integral_to_text(t) == "(2*pi)^2 * (sin(ph_3))"


def test_expression_round_trip():
    chart = torus_chart()
    rng = random.Random(1)
    for _ in range(30):
        f = random_scalar(chart, rng, max_terms=3, freq=2, fiber_deg=2)
        f = f + f.conjugate()  # keep it real so sin/cos collection kicks in
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
    with pytest.raises(ScenarioError):
        Scenario(data)
    with pytest.raises(ScenarioError):
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
