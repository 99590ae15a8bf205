"""Workload inputs: job lists and seeded scenario files.

A job is one call of ``coiso.cli.main``: a scenario (a built-in name or a
generated file) and the tasks to run on it.  A workload is a list of passes,
each a list of jobs.  Generated scenarios are written as canonical JSON, so
the same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

# The ROADMAP's end-to-end job lists (also the determinism tests' jobs).
ROADMAP_JOBS = (
    (
        "torus-obstructed",
        (
            "check-jacobi",
            "coisotropic",
            "multibrackets:4",
            "mc",
            "kuranishi",
            "prolong:3",
            "transversal-crosscheck",
            "bfv-lift",
            "brst-charge",
            "dbfv",
            "bfv-kuranishi",
            "hpl-resolve",
        ),
    ),
    ("legendrian-jet", ("check-jacobi", "coisotropic", "multibrackets:3", "bfv-lift")),
)

JET_RANKS = (1, 2, 3)
JET_TASKS = (
    "check-jacobi",
    "coisotropic",
    "bfv-lift",
    "brst-charge",
    "dbfv",
    "bfv-kuranishi",
    "hpl-resolve",
)

PROLONG_ORDER = 6
SECTION_TASKS = (
    "coisotropic",
    "mc",
    "kuranishi",
    f"prolong:{PROLONG_ORDER}",
    "multibrackets:3",
    "transversal-crosscheck",
)
# Section families of linfty-sections, alternating within a pass.
PROLONGED, OBSTRUCTED = "ph3", "mixed"
SECTIONS_PER_PASS = 6

# Passes per run of PASS_SECONDS; a run of other length scales them.  The
# work of a run is fixed, so its sample counts do not depend on the speed
# of the code under test.  Each pass has the same shape: the same tasks in
# the same places, on freshly generated inputs (roadmap-jobs: on the same
# two).  At the seed commit one pass takes about 5.5, 6 and 2.5 s of CPU
# (roadmap-jobs, jet-rank, linfty-sections) on a quiet 2-vCPU Xeon VM, and
# up to 2.4 times as long when its neighbouring CPU is busy (hostspeed.py).
PASS_SECONDS = 30
PASSES = {"roadmap-jobs": 3, "jet-rank": 3, "linfty-sections": 5}

WORKLOADS = tuple(PASSES)


@dataclass(frozen=True)
class Job:
    scenario: str  # built-in name or path of a generated file
    tasks: tuple
    kind: str  # "roadmap", "jet", PROLONGED or OBSTRUCTED
    digest: str  # sha256 of the scenario's name and bytes and the task list

    def argv(self):
        out = ["--scenario", self.scenario, "--format", "json"]
        for t in self.tasks:
            out += ["--task", t]
        return out


def _job(scenario: str, data: bytes, tasks, kind: str) -> Job:
    h = hashlib.sha256(Path(scenario).name.encode() + b"\0" + data)
    h.update("\0".join(tasks).encode())
    return Job(scenario, tuple(tasks), kind, h.hexdigest())


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / PASS_SECONDS))


def build(workload: str, seed: int, passes: int, outdir: Path):
    """Return the workload's passes, each a list of jobs; generated
    scenarios go to outdir."""
    if workload == "roadmap-jobs":
        one = [
            _job(name, _builtin_bytes(name), tasks, "roadmap")
            for name, tasks in ROADMAP_JOBS
        ]
        return [list(one) for _ in range(passes)]
    rng = random.Random(f"{workload}/{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    out = []
    for p in range(passes):
        jobs = []
        if workload == "jet-rank":
            for k in JET_RANKS:
                path = outdir / f"jet-T{k}-p{p}.json"
                data = _write(path, jet_scenario(k, rng))
                jobs += [_job(str(path), data, (t,), "jet") for t in JET_TASKS]
        elif workload == "linfty-sections":
            base = json.loads(_builtin_bytes("torus-obstructed"))
            for i in range(SECTIONS_PER_PASS):
                family = PROLONGED if i % 2 == 0 else OBSTRUCTED
                path = outdir / f"section-p{p}-{i}-{family}.json"
                data = _write(path, section_scenario(base, family, rng))
                jobs.append(_job(str(path), data, SECTION_TASKS, family))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        out.append(jobs)
    return out


def _builtin_bytes(name: str) -> bytes:
    return resources.files("coiso").joinpath("scenarios", f"{name}.json").read_bytes()


def _write(path: Path, scenario: dict) -> bytes:
    data = (json.dumps(scenario, sort_keys=True, indent=1) + "\n").encode()
    path.write_bytes(data)
    return data


# ---------------------------------------------------------------------------
# Fourier polynomials in the scenario expression grammar
# ---------------------------------------------------------------------------


def _coef(re: Fraction, im: Fraction) -> str:
    text = str(re) if re else ""
    if im:
        mag = f"{abs(im)}*i"
        if text:
            text += (" - " if im < 0 else " + ") + mag
        else:
            text = ("-" if im < 0 else "") + mag
    return f"({text or '0'})"


def _poly_text(modes: dict, names) -> str:
    """modes maps an integer frequency vector over names to the coefficient
    (re, im) of exp(i n.phi); a zero polynomial reads as 0."""
    parts = []
    for n, (re, im) in sorted(modes.items()):
        if re or im:
            factors = [f"exp(I*{v}*{c})" for c, v in zip(names, n) if v]
            parts.append("*".join([_coef(re, im)] + factors))
    return " + ".join(parts) or "0"


def _real_modes(rng: random.Random, freqs) -> dict:
    """A real Fourier polynomial: coefficient c on n and conj(c) on -n.
    Neither part of c is zero, so every seed gives as many nonzero parts."""
    modes = {}
    for n in freqs:
        re = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        im = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        modes[n] = (re, im)
        modes[tuple(-v for v in n)] = (re, -im)
    return modes


def _frequencies(dim: int):
    """The frequency vectors in {-1, 1}^dim, one of each +- pair.  Each
    moves every coordinate, and the vectors differ only in signs, so every
    seed gives polynomials of the same shape and about the same cost."""
    return [n for n in itertools.product((-1, 1), repeat=dim) if n > tuple(-v for v in n)]


# ---------------------------------------------------------------------------
# jet-rank: the 1-jet model over T^k with a Legendrian section j^1 f
# ---------------------------------------------------------------------------


def jet_scenario(k: int, rng: random.Random) -> dict:
    torus = [f"ph_{i + 1}" for i in range(k)]
    fiber = ["z"] + [f"p_{i + 1}" for i in range(k)]
    freqs = _frequencies(k)
    f = _real_modes(rng, rng.sample(freqs, min(2, len(freqs))))
    # j^1 f = (z = f, p_j = d f / d ph_j); d/dph_j multiplies mode n by i n_j
    comps = [_poly_text(f, torus)]
    for j in range(k):
        comps.append(
            _poly_text(
                {n: (-n[j] * im, n[j] * re) for n, (re, im) in f.items()}, torus
            )
        )
    return {
        "schema": 1,
        "chart": {"torus": torus, "fiber": fiber, "leaf": torus},
        "jet": {},
        "section": {"components": comps},
        "bfv": {"connection": "trivial"},
    }


# ---------------------------------------------------------------------------
# linfty-sections: infinitesimal sections of torus-obstructed
# ---------------------------------------------------------------------------


def section_scenario(base: dict, family: str, rng: random.Random) -> dict:
    """torus-obstructed with a seeded section transverse to the leaves.

    PROLONGED sections depend on ph_3 alone, with modes 1 and 2; OBSTRUCTED
    ones have two modes over ph_3, ph_4, ph_5, each moving all three.
    Neither depends on the leaf coordinates ph_1, ph_2, so both are
    d_F-closed, i.e. infinitesimal deformations."""
    comps = []
    for _ in range(2):
        if family == PROLONGED:
            comps.append(_poly_text(_real_modes(rng, [(1,), (2,)]), ["ph_3"]))
        else:
            modes = _real_modes(rng, rng.sample(_frequencies(3), 2))
            comps.append(_poly_text(modes, ["ph_3", "ph_4", "ph_5"]))
    scenario = dict(base)
    scenario["section"] = {"components": comps}
    return scenario

