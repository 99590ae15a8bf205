"""Exactness gate: what a correct report must say, checked outside timing.

Every check compares exact values: hand-written closed forms, invariant
flags, and the sha256 of report bytes pinned at the seed commit
(``pins.json``, keyed by the digest of the job's input).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import OBSTRUCTED, PROLONG_ORDER, PROLONGED

PINS_PATH = Path(__file__).with_name("pins.json")

# Report keys that state an invariant; each must be true wherever it occurs.
INVARIANT_FLAGS = (
    "jacobiator_zero",
    "mc",
    "square_zero",
    "equals_G_plus_inabla",
    "generator_agreement",
    "higher_brackets_zero",
    "induced_differential_is_m1",
)


def _sin_ph3():
    """sin(ph_3) = (e^{i ph_3} - e^{-i ph_3}) / (2i) on the chart of
    torus-obstructed (torus ph_1..ph_5, fiber y_1, y_2), in the canonical
    term list of ``scalar_to_json``: n = -1 carries +i/2, n = +1 carries
    -i/2, sorted by exponent."""
    terms = []
    for n, im in ((-1, "1/2"), (1, "-1/2")):
        terms.append({"torus": [0, 0, n, 0, 0], "fiber": [0, 0], "re": "0/1", "im": im})
    return terms


# The obstruction class of (cos ph_4, sin ph_4): (2 pi)^2 sin(ph_3) on the
# leaf 2-form dph_1 ^ dph_2, and on the ghost pair xi^1 xi^2 in the BFV route.
LEAF_ZERO_MODE = {"degree": 2, "terms": [{"idx": [0, 1], "coef": _sin_ph3()}]}
BFV_ZERO_MODE = [{"ghost": [0, 1], "antighost": [], "word": [], "coef": _sin_ph3()}]


def load_pins() -> dict:
    if PINS_PATH.exists():
        return json.loads(PINS_PATH.read_text())
    return {}


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job, code: int, text: str, pins: dict) -> list:
    """Return the failures of one job as (task or "*", reason) pairs."""
    if code != 0:
        return [("*", f"exit code {code}")]
    pinned = pins.get(job.digest)
    if pinned is not None and pinned != report_digest(text):
        return [("*", "report bytes differ from the pinned digest")]
    try:
        tasks = json.loads(text)["tasks"]
    except (ValueError, KeyError) as exc:
        return [("*", f"unreadable report: {exc}")]
    failures = []
    for spec in job.tasks:
        name = spec.partition(":")[0]
        report = tasks.get(name)
        if not isinstance(report, dict):
            failures.append((name, "missing from the report"))
            continue
        for flag in INVARIANT_FLAGS:
            if name == "mc" and flag == "mc":
                continue  # the mc task's "mc" is the series, not a flag
            if flag in report and report[flag] is not True:
                failures.append((name, f"{flag} is not true"))
    for name, reason in _expectations(job, tasks):
        failures.append((name, reason))
    return failures


def _expectations(job, tasks):
    if job.kind == "roadmap" and job.scenario == "torus-obstructed":
        yield from _obstructed_by_sin_ph3(tasks)
    elif job.kind == "jet":
        r = tasks.get(job.tasks[0], {})
        if job.tasks[0] == "coisotropic" and r.get("coisotropic") is not True:
            yield "coisotropic", "the Legendrian section j^1 f is not coisotropic"
        if job.tasks[0] == "brst-charge" and r.get("exists") is not True:
            yield "brst-charge", "no BRST charge for the Legendrian section"
        if job.tasks[0] == "bfv-kuranishi" and r.get("obstructed") is not False:
            yield "bfv-kuranishi", "j^1 f is reported obstructed"
    elif job.kind == PROLONGED:
        kr, pr = tasks.get("kuranishi", {}), tasks.get("prolong", {})
        if kr.get("obstructed") is not False:
            yield "kuranishi", "a ph_3-only section is reported obstructed"
        if pr.get("solved") is not True or pr.get("order_k") != PROLONG_ORDER:
            yield "prolong", f"a ph_3-only section does not prolong to order {PROLONG_ORDER}"
    elif job.kind == OBSTRUCTED:
        kr, pr = tasks.get("kuranishi", {}), tasks.get("prolong", {})
        if kr.get("obstructed") is not True or kr.get("two_pi_power") != 2:
            yield "kuranishi", "a mixed section is not obstructed with factor (2 pi)^2"
        if pr.get("solved") is not False or pr.get("order_k") != 2:
            yield "prolong", "a mixed section is not obstructed at order 2"
        elif pr.get("obstruction_zero_mode") != kr.get("zero_mode"):
            yield "prolong", "Kuranishi and prolongation disagree on the obstruction"


def _obstructed_by_sin_ph3(tasks):
    kr = tasks.get("kuranishi", {})
    if (kr.get("zero_mode"), kr.get("two_pi_power"), kr.get("obstructed")) != (
        LEAF_ZERO_MODE,
        2,
        True,
    ):
        yield "kuranishi", "obstruction class is not (2 pi)^2 sin(ph_3)"
    pr = tasks.get("prolong", {})
    if (
        pr.get("solved"),
        pr.get("order_k"),
        pr.get("obstruction_zero_mode"),
        pr.get("two_pi_power"),
    ) != (False, 2, LEAF_ZERO_MODE, 2):
        yield "prolong", "order-2 obstruction is not (2 pi)^2 sin(ph_3)"
    bk = tasks.get("bfv-kuranishi", {})
    if (bk.get("zero_mode"), bk.get("two_pi_power"), bk.get("obstructed")) != (
        BFV_ZERO_MODE,
        2,
        True,
    ):
        yield "bfv-kuranishi", "BFV obstruction class is not (2 pi)^2 sin(ph_3)"
