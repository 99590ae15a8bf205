"""Scenario-driven command line front end.

    coiso --scenario PATH|NAME --task NAME[:ARGS] [--task ...]
          [--format text|json] [--out PATH]

``coiso`` (the console script) and ``python -m coiso`` both call ``main``.

Reports are deterministic: identical scenario and flags produce
byte-identical JSON.  Exit codes: 0 all tasks succeeded (a *found*
obstruction is a success), 1 usage error, a scenario that cannot be read
as JSON (a ``scenario.ScenarioFileError``) or a report that cannot be
written to --out, 2 any other ``ring.ContentError``: an error in a
scenario's content, found by ``scenario.SCHEMA`` as it loads, or as a task
builds an artifact, 3 internal invariant violation.

Each task is one function in ``TASKS``.  Tasks draw on artifacts of the
scenario, each built on first use and checked once as it is built:

    J ([[J, J]] = 0) --> MC(-s), the section's graph residue   coisotropic, mc
      |
      +--> multibracket table       multibrackets, kuranishi, prolong, ...
      |
      +--> Lift: J^ = G + i_nabla(J) for the trivial connection
           ([[J^, J^]] = 0) --> Omega_0 = BRST charge of the zero section
           (SBSO applicability) --> d_BFV (d_BFV^2 = 0) --> HPL data

J keeps [[J, J]] once computed, so the structure's constructor,
check-jacobi, the residue, the table and the lift share one square.

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

from .rational import GaussianRational
from .ring import ContentError, ScalarFn
from .expr import scalar_to_json
from .leafform import LeafForm
from .geom import projection_P
from .linfty import prolong_formal
from .graded import GradedElement, bidegree, encode, ghost_section, normalize, XI, XIS
from .bfv import (
    ObstructionFailure,
    bfv_kuranishi,
    bfv_lift_cocycle,
    brst_charge,
    check_hpl_axioms,
)
from .scenario import Scenario, ScenarioFileError, builtin_names, load_scenario
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
        "jacobiator_zero": j.is_jacobi(),
        "structure": multider_to_json(j),
    }


def _coisotropic(scenario, arg):
    residue = scenario.residue()
    return {
        "section": section_to_json(scenario.section_or_zero()),
        "coisotropic": residue.is_zero(),
        "residues": [
            {"pair": list(k), "value": scalar_to_json(v)}
            for k, v in sorted(residue.terms.items())
        ],
    }


def _fiber_frame(chart):
    """The leafwise 1-forms delta_a of the fiber directions."""
    return [LeafForm._raw(chart, 1, {(a,): ScalarFn.one(chart)}) for a in range(chart.m)]


def _multibrackets(scenario, arg):
    chart = scenario.chart
    if not chart.m:
        # the frame values m_k(delta, ...) cycle through the fiber frame
        raise ContentError("needs at least one fiber coordinate, the chart has none")
    table = scenario.table()
    max_order = arg or max(table.series_bound(), 3)
    out = {"series_bound": table.series_bound(), "orders": {}}
    delta = _fiber_frame(chart)
    out["generators"] = {"m1_on_normal_frame": [leafform_to_json(table.m([d])) for d in delta]}
    frame = (delta[i % chart.m] for i in range(max_order))
    for k, bracket in enumerate(table.chain(frame), 1):
        val = projection_P(bracket)
        out["orders"][str(k)] = {"frame_value": leafform_to_json(val), "zero": val.is_zero()}
    return out


def _mc(scenario, arg):
    """MC(-s) of the section: its coisotropy residue, term for term."""
    mc = scenario.residue()
    s = scenario.section()
    if not scenario.chart.m:  # as P refuses it: an empty residue is no MC verdict
        raise ContentError("projection needs at least one fiber direction")
    return {"section": section_to_json(s), "mc": leafform_to_json(mc), "mc_zero": mc.is_zero()}


def _class_report(chart, kr, zero_mode, to_json, to_text):
    """The keys that kuranishi and bfv-kuranishi share.  two_pi_power is
    the d of the (2 pi)^d factor of an obstruction: the zero mode is an
    average over the d leaf angles, the obstruction their integral."""
    return {
        "class": to_json(kr),
        "zero_mode": to_json(zero_mode),
        "zero_mode_text": to_text(zero_mode),
        "two_pi_power": len(chart.leaf),
        "obstructed": not zero_mode.is_zero(),
    }


def _kuranishi(scenario, arg):
    """The class m_2(s, s) = 2 rhs_2 and the zero mode of order 2 of prolong."""
    s = scenario.section()
    _, [(rhs, zero_mode)] = prolong_formal(scenario.table(), s, 2)
    return {
        "section": section_to_json(s),
        **_class_report(scenario.chart, rhs.scale(2), zero_mode, leafform_to_json, leafform_to_text),
    }


def _prolong(scenario, arg):
    table = scenario.table()
    s = scenario.section()
    order = arg or scenario.formal_order()
    sections, history = prolong_formal(table, s, order)
    power = len(scenario.chart.leaf)  # as in _class_report
    orders = [
        {
            "order_k": k,
            "rhs": leafform_to_json(rhs),
            "obstruction_zero_mode": leafform_to_json(zero_mode),
            "two_pi_power": power,
            "solved": zero_mode.is_zero(),
        }
        for k, (rhs, zero_mode) in enumerate(history, 2)
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
        raise ContentError(f"needs at least two fiber coordinates, the chart has {chart.m}")
    if len(chart.leaf) != chart.m:  # frame form i is d_F of leaf coordinate i
        raise ContentError("needs one chart 'leaf' coordinate per fiber coordinate")
    table = scenario.table()
    td = scenario.transversal()
    delta = _fiber_frame(chart)
    probes = [ScalarFn.one(chart)] + [ScalarFn.sin_phi(chart, c) for c in chart.torus[:2]]
    fns = [LeafForm.function(f) for f in probes]
    cases = []
    for f in fns:
        cases.append(("m1(f)", [f]))
        cases += [("m2(f,g)", [f, g]) for g in fns]
        cases += [(f"m2(f,frame_{i})", [f, d]) for i, d in enumerate(delta)]
    cases.append(("m2(frame_0,frame_1)", delta[:2]))
    checks = [
        {"generators": label, "equal": td.multibracket(args) == table.m(args)}
        for label, args in cases
    ]
    higher_zero = all(
        td.multibracket([delta[i % chart.m] for i in range(k)]).is_zero() for k in (3, 4)
    )
    return {
        "generator_agreement": all(c["equal"] for c in checks),
        "higher_brackets_zero": higher_zero,
        "checks": checks,
    }


def _graded_by(x, shift):
    """The components of a graded element x, as JSON keyed by the string of
    their antighost count plus shift."""
    parts = {}
    for letters, f in x.terms.items():
        parts.setdefault(str(bidegree(letters)[1] + shift), {})[letters] = f
    return {k: graded_to_json(x._like(t)) for k, t in sorted(parts.items())}


def _bfv_lift(scenario, arg):
    return {
        "corrections_added": 0,  # the trivial connection is flat: Lift adds no SBSO corrections
        "equals_G_plus_inabla": True,  # Lift defines J^ as G + i_nabla(J)
        "mc": True,  # Lift raises unless [[J^, J^]] = 0
        # J^_k sits in bidegree (k-1, k-1)
        "components_by_k": _graded_by(scenario.lift().j_hat, 1),
    }


def _brst_charge(scenario, arg):
    omega, corrections, _ = brst_charge(scenario.lift(), scenario.section_or_zero())
    return {
        "exists": True,
        "converged_at": len(corrections),
        "components_by_antighost": _graded_by(omega, 0),  # omega is a section
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
        **_class_report(scenario.chart, kr, zero_mode, graded_to_json, graded_to_text),
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
        m1 = table.m1(LeafForm._raw(chart, 0, {(): f}))
        expected = ghost_section(chart, m1.components())
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


def _random_graded_section(chart, rng):
    """Two random terms on canonical ghost words; the last draw of a word counts."""
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
        coeff = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        terms[canon] = ScalarFn(chart, {n + alpha: coeff})  # zero for a zero draw
    return GradedElement._raw(chart, {w: f for w, f in terms.items() if not f.is_zero()})


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    _render_text(report, lines, "")
    return "\n".join(lines) + "\n"


def _render_text(value, lines, indent):
    """Append the lines of a report object or list, each nested value
    indented under its key."""
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
    except ContentError as exc:
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
