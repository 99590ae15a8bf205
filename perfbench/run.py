"""The coiso benchmark: CLI workloads, an exactness gate and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One client calls ``coiso.cli.main`` in a closed loop in
this process, one job after the other; set-up is timed in fresh
interpreters started one at a time.  Every report is checked for exactness
between jobs, outside the timed region.

``--trace 0`` runs a fixed number of passes and prints the end-to-end
metrics, with every time corrected to the speed of the shared host when
it is quiet (hostspeed.py).  ``--trace 1`` runs the first pass once
untraced and twice traced and prints the per-layer metrics of the first
traced pass; the second must repeat its counts exactly.  Human readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from hostspeed import SpeedProbe, cpu_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # cold starts before the timed passes, and as many after
TAIL_BEYOND = 10  # samples above the reported tail percentile


@dataclass
class JobResult:
    code: int
    text: str
    wall: float
    cpu_span: tuple  # hostspeed.cpu_ns at the start and the end
    tasks: list  # (task, cpu ns at start, cpu ns at end, wall s) per cli.run_task call

    @property
    def cpu(self) -> float:
        return (self.cpu_span[1] - self.cpu_span[0]) / 1e9


class TaskTimer:
    """Times each ``cli.run_task`` call, as ``cli.main`` makes it."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []

    def __enter__(self):
        self._original = run_task = self.cli.run_task
        records = self.records
        clock, cpu_clock = time.perf_counter, cpu_ns

        def timed(scenario, name, arg):
            c, w = cpu_clock(), clock()
            try:
                return run_task(scenario, name, arg)
            finally:
                records.append((name, c, cpu_clock(), clock() - w))

        self.cli.run_task = timed
        return self

    def __exit__(self, *exc):
        self.cli.run_task = self._original


class Gate:
    """Counts attempted and failed tasks over the reports of a run."""

    def __init__(self):
        self.pins = checks.load_pins()
        self.attempted = self.failed = 0
        self.prolonged = self.obstructed = 0

    def check(self, job, res: JobResult):
        self.attempted += len(job.tasks)
        failures = checks.check_job(job, res.code, res.text, self.pins)
        for task, reason in failures:
            sys.stderr.write(f"FAIL {job.scenario} {task}: {reason}\n")
        names = {task for task, _ in failures}
        self.failed += len(job.tasks) if "*" in names else len(names)
        if not failures and job.kind in (workloads.PROLONGED, workloads.OBSTRUCTED):
            solved = json.loads(res.text)["tasks"]["prolong"]["solved"]
            self.prolonged += solved is True
            self.obstructed += solved is False


def run_job(cli, timer, job) -> JobResult:
    timer.records.clear()
    out, err = io.StringIO(), io.StringIO()
    # Start each job from a collected heap, as a fresh CLI process would, so
    # that no collection owed by an earlier job lands in this one's time.
    gc.collect()
    wall0, cpu0 = time.perf_counter(), cpu_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(job.argv())
    except Exception:  # a traceback is a failed job, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    cpu1 = cpu_ns()
    wall = time.perf_counter() - wall0
    if code != 0:
        sys.stderr.write(f"job {job.scenario} {job.tasks}: {err.getvalue().strip()}\n")
    return JobResult(code, out.getvalue(), wall, (cpu0, cpu1), list(timer.records))


def run_pass(cli, timer, jobs, gate, tracer=None):
    """Run the jobs of one pass, checking each report after its job;
    return (wall s, cpu s, task records)."""
    wall = cpu = 0.0
    tasks = []
    for request, job in enumerate(jobs, 1):
        if tracer is not None:
            tracer.request = request
        res = run_job(cli, timer, job)
        wall += res.wall
        cpu += res.cpu
        tasks += res.tasks
        gate.check(job, res)
    return wall, cpu, tasks


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it, as
    (value, percentile, n); the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the value
    return xs[rank - 1], 100.0 * rank / n, n


def probe_setup(scenario: str) -> list:
    """Seconds of SETUP_PROBES cold starts, one child at a time, each
    corrected to the quiet host; see setup_probe.py."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), scenario],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall, n, shares, probe_s = proc.stdout.split()[-4:]
        share = float(shares) / int(n) if int(n) else 1.0
        times.append((float(wall) - float(probe_s)) * share)
    return times


def read_steal_s() -> float:
    """Host steal time summed over all CPUs, from /proc/stat (0 if absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def validate(workload, passes):
    """Reject a generated input that is not what its workload promises:
    jet-rank sections must be Legendrian, linfty-sections sections must be
    infinitesimal deformations (m_1 s = 0)."""
    from coiso.geom import is_coisotropic_section
    from coiso.linfty import extract_multibrackets
    from coiso.scenario import load_scenario

    structures = {}
    for job in (job for jobs in passes for job in jobs):
        if job.kind == "roadmap":
            continue
        scenario = load_scenario(job.scenario)
        key = tuple(scenario.chart.torus)
        if key not in structures:
            j = scenario.jacobi()
            structures[key] = (j, extract_multibrackets(j))
        j, table = structures[key]
        s = scenario.section()
        if workload == "jet-rank":
            ok, _ = is_coisotropic_section(j, s)
            what = "Legendrian"
        else:
            ok = table.m1(s.to_leafform()).is_zero()
            what = "an infinitesimal deformation"
        if not ok:
            raise SystemExit(f"generated section {job.scenario} is not {what}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(cli, passes, workload) -> tuple:
    """Run the passes under a SpeedProbe.  A pass is cut into pieces: each
    task (one ``cli.run_task`` call) and the rest of each job.  Each copy of
    a piece, one per pass, is corrected to the quiet host and each piece
    taken at the median of its copies; cpu_s and wall_s are the sums
    over the pieces.  task_cpu_s_p50 is the median over the tasks of a pass,
    task_cpu_s_tail a percentile over all corrected task copies."""
    first = passes[0][0].scenario
    # Cold starts before and after the passes, as the host changes speed.
    setup = probe_setup(first)
    gate = Gate()
    copies = defaultdict(list)  # (job, task or "rest") -> (cpu s, wall s) per pass
    raw_cpu = 0.0
    with SpeedProbe() as probe, TaskTimer(cli) as timer:
        for p, jobs in enumerate(passes):
            pass_cpu = pass_wall = 0.0
            for i, job in enumerate(jobs):
                res = run_job(cli, timer, job)
                gate.check(job, res)
                pass_cpu += res.cpu
                pass_wall += res.wall
                for piece, cpu, wall, share in _pieces(res, probe):
                    copies[i, piece].append((cpu * share, wall * share))
                    raw_cpu += cpu
            print(f"{workload} pass {p}: wall {pass_wall:.4f} s, cpu {pass_cpu:.4f} s (uncorrected)")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += probe_setup(first)

    cpu = {k: statistics.median(c for c, _ in v) for k, v in copies.items()}
    wall = {k: statistics.median(w for _, w in v) for k, v in copies.items()}
    task_cpu = [t for (_, piece), t in cpu.items() if piece != "rest"]
    task_copies = [c for (_, piece), v in copies.items() if piece != "rest" for c, _ in v]
    tail_value, tail_pct, n = tail(task_copies)
    slowdown = raw_cpu / sum(c for v in copies.values() for c, _ in v)
    fail_ratio = gate.failed / gate.attempted
    pieces = f"sum of {len(cpu)} pieces, each the median of {len(passes)} passes"
    lines = [
        ("wall_s", sum(wall.values()), "s", pieces),
        ("cpu_s", sum(cpu.values()), "s", pieces),
        ("task_cpu_s_p50", statistics.median(task_cpu), "s", f"median of {len(task_cpu)} tasks"),
        ("task_cpu_s_tail", tail_value, "s", f"p{tail_pct:.2f}, n={n} task runs"),
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} cold starts"),
        ("peak_rss_mib", peak_rss_mib, "MiB", "1 process"),
        ("ok_ratio", 1.0 - fail_ratio, "ratio", f"n={gate.attempted} tasks"),
    ]
    print(f"{workload} host: the passes ran {slowdown:.3f} times as long as on the quiet host")
    for name, value, unit, note in lines:
        print(f"{workload} {name} = {value:.6g} {unit} ({note})")
    print(f"{workload} fail_ratio = {fail_ratio:.6g} ({gate.failed}/{gate.attempted} tasks)")
    _print_split(workload, gate, passes)
    return gate, {name: metric(value, unit) for name, value, unit, _ in lines}


def _pieces(res, probe):
    """Cut a job into its tasks and the rest (argument parsing, report);
    yield (task index or "rest", cpu s, wall s, fast share), the probes' own
    time taken out.  The fast share is the mean of the piece's probes; a
    piece too short to hold a probe takes that of its whole job."""
    n, shares, probe_s = probe.window(*res.cpu_span)
    job_share = shares / n if n else 1.0
    rest = [res.cpu - probe_s, res.wall - probe_s, n, shares]
    for j, (_, c0, c1, wall) in enumerate(res.tasks):
        n, shares, probe_s = probe.window(c0, c1)
        piece = [(c1 - c0) / 1e9 - probe_s, wall - probe_s, n, shares]
        rest = [a - b for a, b in zip(rest, piece)]
        yield j, piece[0], piece[1], shares / n if n else job_share
    yield "rest", rest[0], rest[1], rest[3] / rest[2] if rest[2] else job_share


def traced_run(cli, jobs, workload, seed) -> tuple:
    """Run one pass untraced, then twice traced; see the module's doc."""
    gate = Gate()
    with TaskTimer(cli) as timer:
        _, cpu_ref, _ = run_pass(cli, timer, jobs, gate)
    tracer, cpu_traced, tasks = traced_pass(cli, jobs, gate)
    task_wall = dict.fromkeys(cli.TASKS, 0.0)
    for name, _, _, wall in tasks:
        task_wall[name] += wall
    OUT.mkdir(parents=True, exist_ok=True)
    span_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(span_path)
    n_spans = len(tracer.spans)
    metrics = layer_metrics(tracer, task_wall, cpu_traced / cpu_ref)
    counts = tracer.counts
    del tracer  # its spans, before the second traced pass makes its own
    again = traced_pass(cli, jobs, gate)[0].counts
    differ = sorted(k for k in counts.keys() | again.keys() if counts[k] != again[k])
    if differ:
        sys.stderr.write(f"FAIL counts differ between two traced passes: {differ}\n")
        gate.failed += 1
    else:
        print(f"{workload} counts repeat exactly in a second traced pass ({len(counts)} counters)")
    print(f"{workload} per-layer metrics of one pass: {len(jobs)} jobs, {len(tasks)} tasks")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} trace: {n_spans} spans in {span_path.relative_to(ROOT)}")
    _print_split(workload, gate, [jobs] * 3)
    return gate, metrics


def traced_pass(cli, jobs, gate) -> tuple:
    """Run one pass under a fresh tracer; return (tracer, cpu s, task records)."""
    from layertrace import Tracer

    # The task timer wraps the tracer's run_task span, so it is entered last.
    with Tracer() as tracer, TaskTimer(cli) as timer:
        _, cpu, tasks = run_pass(cli, timer, jobs, gate, tracer)
    return tracer, cpu, tasks


def layer_metrics(tr, task_wall, overhead) -> dict:
    c, own = tr.counts, tr.self_times()
    products = c["ring.term_products"]
    counts = {
        "rational.mul_calls": c["rational.mul_calls"],
        "rational.add_calls": c["rational.add_calls"],
        "rational.div_calls": c["rational.div_calls"],
        "ring.mul_calls": c["ring.ScalarFn.__mul__"],
        "ring.init_calls": c["ring.ScalarFn.__init__"],
        "ring.partial_calls": c["ring.ScalarFn.partial"],
        "ring.subst_t_calls": c["ring.ScalarFn.substitute_fiber_t"],
        "ring.term_products": products,
        "graded.compose_calls": c["graded.GradedElement._compose"],
        "graded.bracket_calls": c["graded.GradedElement.bracket"],
        "graded.normalize_calls": c["graded.normalize"],
        "bfv.lift_builds": c["bfv.Lift.__init__"],
        "bfv.sbso_calls": c["bfv.sbso"],
        "bfv.sbso_steps": c["bfv.sbso_steps"],
        "bfv.hpl_builds": c["bfv.hpl_resolution"],
        "bfv.axiom_samples": c["bfv.axiom_samples"],
        "multivector.sn_bracket_calls": c["multivector.MultiVectorField.sn_bracket"],
        "multider.sj_bracket_calls": c["multider.MultiDerivation.sj_bracket"],
        "linfty.table_builds": c["linfty.MultibracketTable.__init__"],
        "linfty.m_calls": c["linfty.MultibracketTable.m"],
        "transversal.multibracket_calls": c["transversal.TransversalData.multibracket"],
        "expr.parse_calls": c["expr.parse_scalar"],
    }
    out = {name: metric(v, "count") for name, v in counts.items()}
    out["ring.mul_fill"] = metric(c["ring.product_terms"] / products if products else 0.0, "ratio")
    for layer in (
        "ring",
        "graded",
        "bfv",
        "multivector",
        "multider",
        "leafform",
        "linfty",
        "transversal",
        "geom",
        "serialize",
    ):
        out[f"{layer}.self_s"] = metric(own.get(layer, 0.0), "s")
    out["scenario.load_s"] = metric(tr.inclusive("scenario.load_scenario"), "s")
    out["cli.format_s"] = metric(tr.inclusive("cli.format_report"), "s")
    for name, wall in task_wall.items():
        out[f"cli.task.{name}_s"] = metric(wall, "s")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def _print_split(workload, gate, passes):
    if workload != "linfty-sections":
        return
    expect = sum(job.kind == workloads.PROLONGED for jobs in passes for job in jobs)
    total = sum(len(jobs) for jobs in passes)
    print(
        f"{workload} split: {gate.prolonged} prolonged / {gate.obstructed} obstructed"
        f" (generated {expect} / {total - expect})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=workloads.PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coiso" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no coiso sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import coiso
    import coiso.cli as cli

    if Path(coiso.__file__).resolve().parent != SRC / "coiso":
        sys.stderr.write(f"run.py: imported coiso from {coiso.__file__}, not {SRC}\n")
        return 2

    steal0 = read_steal_s()
    outdir = OUT / f"{args.workload}-seed{args.seed}"
    count = workloads.pass_count(args.workload, args.seconds)
    passes = workloads.build(args.workload, args.seed, count, outdir)
    validate(args.workload, passes)
    if args.trace:
        gate, metrics = traced_run(cli, passes[0], args.workload, args.seed)
    else:
        gate, metrics = timed_run(cli, passes, args.workload)
    steal = read_steal_s() - steal0
    if args.trace:
        metrics["host.steal_s"] = metric(steal, "s")
    print(f"{args.workload} host.steal_s = {steal:.6g} s (all CPUs, whole run)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
