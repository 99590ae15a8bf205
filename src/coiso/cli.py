"""Scenario-driven command line front end.

    coiso --scenario PATH|NAME --task NAME[:ARGS] [--task ...]
          [--format text|json] [--out PATH]

Reports are deterministic: identical scenario and flags produce
byte-identical JSON.  Exit codes: 0 all tasks succeeded (a *found*
obstruction is a success), 1 usage or parse error, 2 validation error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .ring import ChartError, ScalarFn
from .expr import ExprError, scalar_to_json
from .leafform import LeafForm, SectionOfNormalBundle
from .geom import GeometryError, is_coisotropic_section
from .linfty import (
    DeformationError,
    extract_multibrackets,
    kuranishi,
    mc_series,
    prolong_formal,
)
from .graded import GradedElement, GradedError, bidegree, jacobi_bracket, normalize, XI, XIS
from .bfv import (
    BFVError,
    Lift,
    ObstructionFailure,
    bfv_kuranishi,
    bfv_lift_cocycle,
    brst_charge,
    d_bfv,
    hpl_resolution,
)
from .scenario import Scenario, ScenarioError, builtin_names, load_scenario
from .serialize import (
    graded_to_json,
    graded_to_text,
    leafform_to_json,
    leafform_to_text,
    multider_to_json,
    section_to_json,
)

TASKS = (
    "check-jacobi",
    "coisotropic",
    "multibrackets",
    "mc",
    "kuranishi",
    "prolong",
    "transversal-crosscheck",
    "bfv-lift",
    "brst-charge",
    "dbfv",
    "bfv-kuranishi",
    "hpl-resolve",
)


# tasks taking an optional positive integer: the highest multibracket order
# and the prolongation order
COUNTED_TASKS = ("multibrackets", "prolong")


class TaskError(Exception):
    pass


def parse_task(spec: str):
    """(name, argument or None) of a NAME[:ARGS] task spec; raises TaskError
    for an unknown task or a malformed argument."""
    name, _, arg = spec.partition(":")
    if name not in TASKS:
        raise TaskError(f"unknown task {name!r}")
    if not arg:
        return name, None
    if name not in COUNTED_TASKS:
        raise TaskError(f"task {name} takes no argument, got {arg!r}")
    if not (arg.isascii() and arg.isdigit()) or int(arg) == 0:
        raise TaskError(f"task {name}: argument {arg!r} is not a positive integer")
    return name, int(arg)


def run_task(scenario: Scenario, name: str, arg) -> dict:
    chart = scenario.chart
    j = scenario.jacobi()

    if name == "check-jacobi":
        jac = j.jacobiator()
        return {
            "jacobiator_zero": jac.is_zero(),
            "structure": multider_to_json(j),
        }

    if name == "coisotropic":
        s = _section_or_zero(scenario)
        ok, residues = is_coisotropic_section(j, s)
        return {
            "section": section_to_json(s),
            "coisotropic": ok,
            "residues": [
                {"pair": list(k), "value": scalar_to_json(v)}
                for k, v in sorted(residues.items())
            ],
        }

    if name == "multibrackets":
        if not chart.m:
            # the frame values m_k(delta, ...) cycle through the fiber frame
            raise ScenarioError("needs at least one fiber coordinate, the chart has none")
        table = extract_multibrackets(j)
        max_order = arg or max(table.series_bound(), 3)
        out = {"series_bound": table.series_bound(), "orders": {}}
        delta = [LeafForm(chart, 1, {(a,): ScalarFn.one(chart)}) for a in range(chart.m)]
        gens = {"m1_on_normal_frame": [leafform_to_json(table.m([d])) for d in delta]}
        out["generators"] = gens
        for k in range(1, max_order + 1):
            args = [delta[i % chart.m] for i in range(k)]
            val = table.m(args)
            out["orders"][str(k)] = {
                "frame_value": leafform_to_json(val),
                "zero": val.is_zero(),
            }
        return out

    if name == "mc":
        table = extract_multibrackets(j)
        s = scenario.section()
        mc = mc_series(table, s)
        return {
            "section": section_to_json(s),
            "mc": leafform_to_json(mc),
            "mc_zero": mc.is_zero(),
        }

    if name == "kuranishi":
        table = extract_multibrackets(j)
        s = scenario.section()
        kr, report = kuranishi(table, s)
        return {
            "section": section_to_json(s),
            "class": leafform_to_json(kr),
            "zero_mode": leafform_to_json(report.zero_mode),
            "zero_mode_text": leafform_to_text(report.zero_mode),
            "two_pi_power": report.two_pi_power,
            "obstructed": not report.is_zero(),
        }

    if name == "prolong":
        table = extract_multibrackets(j)
        s = scenario.section()
        order = arg or scenario.formal_order()
        history = []
        result = prolong_formal(table, s, order, history=history)
        orders = [
            {
                "order_k": h["order_k"],
                "rhs": leafform_to_json(h["rhs"]),
                "obstruction_zero_mode": leafform_to_json(h["obstruction_zero_mode"]),
                "two_pi_power": h["two_pi_power"],
                "solved": h["solved"],
            }
            for h in history
        ]
        if result[0] == "obstructed":
            _, at, report = result
            return {
                "solved": False,
                "order_k": at,
                "obstruction_zero_mode": leafform_to_json(report.zero_mode),
                "two_pi_power": report.two_pi_power,
                "orders": orders,
            }
        _, deformation = result
        return {
            "solved": True,
            "order_k": order,
            "coefficients": [section_to_json(c) for c in deformation.coefficients],
            "orders": orders,
        }

    if name == "transversal-crosscheck":
        if chart.m < 2:
            # the checks pair the first two fiber frame forms
            raise ScenarioError(
                f"needs at least two fiber coordinates, the chart has {chart.m}"
            )
        table = extract_multibrackets(j)
        td = scenario.transversal()
        checks = []
        delta = [LeafForm(chart, 1, {(a,): ScalarFn.one(chart)}) for a in range(chart.m)]
        probes = [ScalarFn.one(chart)]
        for c in chart.torus:
            probes.append(ScalarFn.sin_phi(chart, c))
        agree = True
        for f in probes[:3]:
            lhs = td.multibracket([("fn", f)])
            rhs = table.m([LeafForm.function(f)])
            ok = lhs == rhs
            agree &= ok
            checks.append({"generators": "m1(f)", "equal": ok})
            for g in probes[:3]:
                lhs = td.multibracket([("fn", f), ("fn", g)])
                rhs = table.m([LeafForm.function(f), LeafForm.function(g)])
                ok = lhs == rhs
                agree &= ok
                checks.append({"generators": "m2(f,g)", "equal": ok})
            for i in range(chart.m):
                lhs = td.multibracket([("fn", f), ("form", i)])
                rhs = table.m([LeafForm.function(f), delta[i]])
                ok = lhs == rhs
                agree &= ok
                checks.append({"generators": f"m2(f,frame_{i})", "equal": ok})
        lhs = td.multibracket([("form", 0), ("form", 1)])
        rhs = table.m([delta[0], delta[1]])
        agree &= lhs == rhs
        checks.append({"generators": "m2(frame_0,frame_1)", "equal": lhs == rhs})
        higher_zero = all(
            td.multibracket([("form", i % chart.m) for i in range(k)]).is_zero()
            for k in (3, 4)
        )
        return {"generator_agreement": agree, "higher_brackets_zero": higher_zero, "checks": checks}

    # bfv family
    rank = scenario.ghost_rank()
    lift = Lift(j, rank)

    if name == "bfv-lift":
        by_k = {}
        for letters, f in lift.j_hat.terms.items():
            # J^_k sits in bidegree (k-1, k-1)
            by_k.setdefault(str(bidegree(letters)[1] + 1), {})[letters] = f
        return {
            "corrections_added": len(lift.corrections),
            "equals_G_plus_inabla": (lift.j_hat - lift.G - lift.c1.i_nabla(j)).is_zero(),
            "mc": lift.j_hat.bracket(lift.j_hat).is_zero(),
            "components_by_k": {
                k: graded_to_json(GradedElement(chart, rank, t)) for k, t in sorted(by_k.items())
            },
        }

    if name == "brst-charge":
        s = _section_or_zero(scenario)
        try:
            omega, corrections = brst_charge(lift, s)
        except ObstructionFailure as exc:
            return {
                "exists": False,
                "failure": graded_to_json(exc.component),
                "failure_text": graded_to_text(exc.component),
            }
        by_antighost = {}
        for letters, f in omega.terms.items():
            k = sum(1 for l in letters if l[0] == XIS)
            by_antighost.setdefault(str(k), {})[letters] = f
        return {
            "exists": True,
            "converged_at": len(corrections),
            "components_by_antighost": {
                k: graded_to_json(GradedElement(chart, rank, t))
                for k, t in sorted(by_antighost.items())
            },
            "mc": jacobi_bracket(lift.j_hat, omega, omega).is_zero(),
        }

    if name == "dbfv":
        omega, _ = brst_charge(lift, SectionOfNormalBundle.zero(chart))
        dop = d_bfv(lift, omega)
        return {
            "square_zero": dop.bracket(dop).is_zero(),
            "operator": graded_to_json(dop),
            "operator_text": graded_to_text(dop),
        }

    if name == "bfv-kuranishi":
        omega, _ = brst_charge(lift, SectionOfNormalBundle.zero(chart))
        dop = d_bfv(lift, omega)
        pert = hpl_resolution(lift, omega)
        s = scenario.section()
        nu = bfv_lift_cocycle(lift, pert, s)
        kr, zero_mode, power = bfv_kuranishi(lift, dop, nu)
        return {
            "cocycle": graded_to_json(nu),
            "class": graded_to_json(kr),
            "zero_mode": graded_to_json(zero_mode),
            "zero_mode_text": graded_to_text(zero_mode),
            "two_pi_power": power,
            "obstructed": not zero_mode.is_zero(),
        }

    if name == "hpl-resolve":
        omega, _ = brst_charge(lift, SectionOfNormalBundle.zero(chart))
        import random

        rng = random.Random(0)
        sampler = lambda: _random_graded_section(chart, rank, rng)
        pert = hpl_resolution(lift, omega, sampler=sampler)
        table = extract_multibrackets(j)
        agree = True
        for c in chart.torus[:3]:
            f = ScalarFn.sin_phi(chart, c)
            out = pert.small_differential(GradedElement.section(chart, rank, f))
            m1 = table.m1(LeafForm.function(f))
            expected = GradedElement(
                chart, rank, {((XI, a),): coeff for (a,), coeff in m1.terms.items()}
            )
            agree &= (out - expected).is_zero()
        return {"axioms_hold": True, "induced_differential_is_m1": agree}

    raise TaskError(f"unknown task {name!r}")


def _section_or_zero(scenario: Scenario) -> SectionOfNormalBundle:
    if "section" in scenario.data:
        return scenario.section()
    return SectionOfNormalBundle.zero(scenario.chart)


def _random_graded_section(chart, rank, rng):
    from .rational import GaussianRational

    terms = {}
    for _ in range(2):
        letters = []
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice((XI, XIS))
            letters.append((kind, rng.randrange(rank)))
        sign, canon = normalize(letters)
        if sign == 0:
            continue
        n = tuple(rng.randint(-1, 1) for _ in range(chart.k))
        alpha = tuple(rng.randint(0, 1) for _ in range(chart.m))
        coeff = GaussianRational(
            Fraction(rng.randint(-2, 2), 1), Fraction(rng.randint(-2, 2), 1)
        )
        terms[canon] = ScalarFn(chart, {(n, alpha): coeff})
    return GradedElement(chart, rank, terms)


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    _render_text(report, lines, "")
    return "\n".join(lines) + "\n"


def _render_text(value, lines, indent):
    if isinstance(value, dict):
        for key in sorted(value):
            v = value[key]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{indent}{key}:")
                _render_text(v, lines, indent + "  ")
            else:
                lines.append(f"{indent}{key}: {_scalar_text(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                _render_text(item, lines, indent + "  ")
            else:
                lines.append(f"{indent}- {_scalar_text(item)}")
    else:
        lines.append(f"{indent}{_scalar_text(value)}")


def _scalar_text(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, dict)) and not v:
        return "[]" if isinstance(v, list) else "{}"
    return str(v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coiso",
        description="exact coisotropic-deformation calculus on torus charts",
    )
    parser.add_argument("--scenario", help="scenario file path or built-in name")
    parser.add_argument(
        "--task",
        action="append",
        default=[],
        metavar="NAME[:ARGS]",
        help=f"task to run; one of {', '.join(TASKS)}",
    )
    parser.add_argument("--format", choices=("text", "json"), default="json")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument(
        "--list-scenarios", action="store_true", help="list built-in scenarios"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    if args.list_scenarios:
        sys.stdout.write("\n".join(builtin_names()) + "\n")
        return 0

    if not args.scenario or not args.task:
        parser.print_usage(sys.stderr)
        sys.stderr.write("coiso: a scenario and at least one task are required\n")
        return 1

    try:
        tasks = [parse_task(spec) for spec in args.task]
    except TaskError as exc:
        sys.stderr.write(f"coiso: {exc}\n")
        return 1

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        sys.stderr.write(f"coiso: {exc}\n")
        return 1
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"coiso: scenario parse error: {exc}\n")
        return 1

    report = {"schema": 1, "scenario": scenario.name, "tasks": {}}
    for name, arg in tasks:
        try:
            report["tasks"][name] = run_task(scenario, name, arg)
        except (ScenarioError, ChartError, ExprError, GeometryError, DeformationError,
                GradedError, BFVError) as exc:
            sys.stderr.write(f"coiso: task {name}: {exc}\n")
            return 2
        except AssertionError as exc:  # pragma: no cover
            sys.stderr.write(f"coiso: internal invariant violation in {name}: {exc}\n")
            return 3

    text = format_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
