"""Scenario-driven command line front end.

    coiso --scenario PATH|NAME --task NAME[:ARGS] [--task ...]
          [--format text|json] [--out PATH]

Reports are deterministic: identical scenario and flags produce
byte-identical JSON.  Exit codes: 0 all tasks succeeded (a *found*
obstruction is a success), 1 usage error, a scenario that cannot be read
as JSON or a report that cannot be written to --out, 2 any error in a
scenario's content (a ``ring.ContentError``, found by ``scenario.SCHEMA``
as it loads, or as a task builds an artifact), 3 internal invariant
violation.

Each task is one function in ``TASKS``.  Tasks draw on artifacts of the
scenario, each built on first use and checked once as it is built:

    J ([[J, J]] = 0) --> multibracket table       mc, kuranishi, prolong, ...
      |
      +--> Lift: J^ = G + i_nabla(J) for the trivial connection
           ([[J^, J^]] = 0) --> Omega_0 = BRST charge of the zero section
           (SBSO applicability) --> d_BFV (d_BFV^2 = 0) --> HPL data

J keeps [[J, J]] once computed, so the structure's constructor,
check-jacobi, coisotropic, the table and the lift share one square.

Artifacts live on the ``Scenario`` object, so they last one ``main`` call
and are never shared between calls.  A task's report does not depend on
which other tasks ran before it.  ``Scenario.omega0`` keeps an
ObstructionFailure, and ``run_task`` turns it into an ``exists: false``
report.  bfv-kuranishi and hpl-resolve share one build of the HPL data,
and only hpl-resolve checks its contraction axioms on samples; brst-charge
computes the charge of the scenario's section (or the zero section)
itself.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .ring import ContentError, ScalarFn
from .expr import scalar_to_json
from .leafform import LeafForm
from .geom import is_coisotropic_section
from .linfty import kuranishi, mc_series, prolong_formal
from .graded import GradedElement, bidegree, encode, normalize, XI, XIS
from .bfv import (
    ObstructionFailure,
    bfv_kuranishi,
    bfv_lift_cocycle,
    brst_charge,
    check_hpl_axioms,
)
from .scenario import Scenario, ScenarioError, ScenarioFileError, builtin_names, load_scenario
from .serialize import (
    graded_to_json,
    graded_to_text,
    leafform_to_json,
    leafform_to_text,
    multider_to_json,
    section_to_json,
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
    """The report of one task.  A charge that does not exist (the section,
    or for the d_BFV tasks the zero section, is not coisotropic) is a
    report, not an error."""
    try:
        return TASKS[name](scenario, arg)
    except ObstructionFailure as exc:
        return {
            "exists": False,
            "failure": graded_to_json(exc.component),
            "failure_text": graded_to_text(exc.component),
        }


def _check_jacobi(scenario, arg):
    j = scenario.jacobi()
    return {
        "jacobiator_zero": j.jacobiator().is_zero(),
        "structure": multider_to_json(j),
    }


def _coisotropic(scenario, arg):
    s = _section_or_zero(scenario)
    ok, residues = is_coisotropic_section(scenario.jacobi(), s)
    return {
        "section": section_to_json(s),
        "coisotropic": ok,
        "residues": [
            {"pair": list(k), "value": scalar_to_json(v)}
            for k, v in sorted(residues.items())
        ],
    }


def _fiber_frame(chart):
    """The leafwise 1-forms delta_a of the fiber directions."""
    return [LeafForm(chart, 1, {(a,): ScalarFn.one(chart)}) for a in range(chart.m)]


def _multibrackets(scenario, arg):
    chart = scenario.chart
    if not chart.m:
        # the frame values m_k(delta, ...) cycle through the fiber frame
        raise ScenarioError("needs at least one fiber coordinate, the chart has none")
    table = scenario.table()
    max_order = arg or max(table.series_bound(), 3)
    out = {"series_bound": table.series_bound(), "orders": {}}
    delta = _fiber_frame(chart)
    out["generators"] = {"m1_on_normal_frame": [leafform_to_json(table.m([d])) for d in delta]}
    for k in range(1, max_order + 1):
        val = table.m([delta[i % chart.m] for i in range(k)])
        out["orders"][str(k)] = {"frame_value": leafform_to_json(val), "zero": val.is_zero()}
    return out


def _mc(scenario, arg):
    table = scenario.table()
    s = scenario.section()
    mc = mc_series(table, s)
    return {"section": section_to_json(s), "mc": leafform_to_json(mc), "mc_zero": mc.is_zero()}


def _two_pi_power(chart):
    """d of the (2 pi)^d factor of an obstruction: the zero mode is an
    average over the d leaf angles, the obstruction their integral."""
    return len(chart.leaf)


def _kuranishi(scenario, arg):
    table = scenario.table()
    s = scenario.section()
    kr, zero_mode = kuranishi(table, s)
    return {
        "section": section_to_json(s),
        "class": leafform_to_json(kr),
        "zero_mode": leafform_to_json(zero_mode),
        "zero_mode_text": leafform_to_text(zero_mode),
        "two_pi_power": _two_pi_power(scenario.chart),
        "obstructed": not zero_mode.is_zero(),
    }


def _prolong(scenario, arg):
    table = scenario.table()
    s = scenario.section()
    order = arg or scenario.formal_order()
    sections, history = prolong_formal(table, s, order)
    power = _two_pi_power(scenario.chart)
    orders = [
        {
            "order_k": h["order_k"],
            "rhs": leafform_to_json(h["rhs"]),
            "obstruction_zero_mode": leafform_to_json(h["obstruction_zero_mode"]),
            "two_pi_power": power,
            "solved": h["solved"],
        }
        for h in history
    ]
    if orders and not orders[-1]["solved"]:
        last = orders[-1]
        return {
            "solved": False,
            "order_k": last["order_k"],
            "obstruction_zero_mode": last["obstruction_zero_mode"],
            "two_pi_power": power,
            "orders": orders,
        }
    return {
        "solved": True,
        "order_k": order,
        "coefficients": [section_to_json(c) for c in sections],
        "orders": orders,
    }


def _transversal_crosscheck(scenario, arg):
    chart = scenario.chart
    if chart.m < 2:
        # the checks pair the first two fiber frame forms
        raise ScenarioError(f"needs at least two fiber coordinates, the chart has {chart.m}")
    if len(chart.leaf) != chart.m:  # frame form i is d_F of leaf coordinate i
        raise ScenarioError("needs one chart 'leaf' coordinate per fiber coordinate")
    table = scenario.table()
    td = scenario.transversal()
    checks = []
    delta = _fiber_frame(chart)
    probes = [ScalarFn.one(chart)] + [ScalarFn.sin_phi(chart, c) for c in chart.torus]
    agree = True

    def check(label, lhs, rhs):
        nonlocal agree
        ok = lhs == rhs
        agree &= ok
        checks.append({"generators": label, "equal": ok})

    for f in probes[:3]:
        check("m1(f)", td.multibracket([("fn", f)]), table.m([LeafForm.function(f)]))
        for g in probes[:3]:
            check(
                "m2(f,g)",
                td.multibracket([("fn", f), ("fn", g)]),
                table.m([LeafForm.function(f), LeafForm.function(g)]),
            )
        for i in range(chart.m):
            check(
                f"m2(f,frame_{i})",
                td.multibracket([("fn", f), ("form", i)]),
                table.m([LeafForm.function(f), delta[i]]),
            )
    check(
        "m2(frame_0,frame_1)",
        td.multibracket([("form", 0), ("form", 1)]),
        table.m([delta[0], delta[1]]),
    )
    higher_zero = all(
        td.multibracket([("form", i % chart.m) for i in range(k)]).is_zero() for k in (3, 4)
    )
    return {"generator_agreement": agree, "higher_brackets_zero": higher_zero, "checks": checks}


def _bfv_lift(scenario, arg):
    lift = scenario.lift()
    by_k = {}
    for letters, f in lift.j_hat.terms.items():
        # J^_k sits in bidegree (k-1, k-1)
        by_k.setdefault(str(bidegree(letters)[1] + 1), {})[letters] = f
    return {
        "corrections_added": 0,  # the trivial connection is flat: Lift adds no SBSO corrections
        "equals_G_plus_inabla": True,  # Lift defines J^ as G + i_nabla(J)
        "mc": True,  # Lift raises unless [[J^, J^]] = 0
        "components_by_k": {
            k: graded_to_json(lift.j_hat._like(t))
            for k, t in sorted(by_k.items())
        },
    }


def _brst_charge(scenario, arg):
    omega, corrections = brst_charge(scenario.lift(), _section_or_zero(scenario))
    by_antighost = {}
    for letters, f in omega.terms.items():
        k = bidegree(letters)[1]  # omega is a section: its antighost count
        by_antighost.setdefault(str(k), {})[letters] = f
    return {
        "exists": True,
        "converged_at": len(corrections),
        "components_by_antighost": {
            k: graded_to_json(omega._like(t))
            for k, t in sorted(by_antighost.items())
        },
        "mc": True,  # the SBSO returns omega only once {omega, omega}_J = 0
    }


def _dbfv(scenario, arg):
    dop = scenario.dbfv()
    return {
        "square_zero": True,  # d_bfv raises unless d_BFV^2 = 0
        "operator": graded_to_json(dop),
        "operator_text": graded_to_text(dop),
    }


def _bfv_kuranishi(scenario, arg):
    lift = scenario.lift()
    pert = scenario.hpl()
    nu = bfv_lift_cocycle(lift, pert, scenario.section())
    kr, zero_mode = bfv_kuranishi(lift, pert, nu)
    return {
        "cocycle": graded_to_json(nu),
        "class": graded_to_json(kr),
        "zero_mode": graded_to_json(zero_mode),
        "zero_mode_text": graded_to_text(zero_mode),
        "two_pi_power": _two_pi_power(scenario.chart),
        "obstructed": not zero_mode.is_zero(),
    }


def _hpl_resolve(scenario, arg):
    lift = scenario.lift()
    chart = lift.chart
    pert = scenario.hpl()
    rng = random.Random(0)
    check_hpl_axioms(pert, lambda: _random_graded_section(chart, rng))
    table = scenario.table()
    agree = True
    for c in chart.torus[:3]:
        f = ScalarFn.sin_phi(chart, c)
        out = pert.small_differential(GradedElement.section(chart, f))
        m1 = table.m1(LeafForm.function(f))
        expected = GradedElement(chart, {((XI, a),): coeff for (a,), coeff in m1.terms.items()})
        agree &= (out - expected).is_zero()
    return {"axioms_hold": True, "induced_differential_is_m1": agree}


# task name -> task(scenario, argument or None) -> report; the order of --help
TASKS = {
    "check-jacobi": _check_jacobi,
    "coisotropic": _coisotropic,
    "multibrackets": _multibrackets,
    "mc": _mc,
    "kuranishi": _kuranishi,
    "prolong": _prolong,
    "transversal-crosscheck": _transversal_crosscheck,
    "bfv-lift": _bfv_lift,
    "brst-charge": _brst_charge,
    "dbfv": _dbfv,
    "bfv-kuranishi": _bfv_kuranishi,
    "hpl-resolve": _hpl_resolve,
}


def _section_or_zero(scenario: Scenario) -> LeafForm:
    if "section" in scenario.data:
        return scenario.section()
    return LeafForm.zero(scenario.chart, 1)


def _random_graded_section(chart, rng):
    from .rational import GaussianRational

    terms = {}
    for _ in range(2):
        letters = []
        for _ in range(rng.randint(0, 2) if chart.m else 0):  # no ghost letters without fibers
            kind = rng.choice((XI, XIS))
            letters.append((kind, rng.randrange(chart.m)))
        sign, canon = normalize(encode(letters))
        if sign == 0:
            continue
        n = tuple(rng.randint(-1, 1) for _ in range(chart.k))
        alpha = tuple(rng.randint(0, 1) for _ in range(chart.m))
        coeff = GaussianRational(
            Fraction(rng.randint(-2, 2), 1), Fraction(rng.randint(-2, 2), 1)
        )
        terms[canon] = ScalarFn(chart, {n + alpha: coeff})
    return GradedElement.zero(chart)._sum(terms.items())


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
        return 1 if isinstance(exc, ScenarioFileError) else 2

    report = {"schema": 1, "scenario": scenario.name, "tasks": {}}
    for name, arg in tasks:
        try:
            report["tasks"][name] = run_task(scenario, name, arg)
        except ContentError as exc:
            sys.stderr.write(f"coiso: task {name}: {exc}\n")
            return 2
        except AssertionError as exc:
            sys.stderr.write(f"coiso: internal invariant violation in {name}: {exc}\n")
            return 3

    text = format_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"coiso: cannot write report: {exc}\n")
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
