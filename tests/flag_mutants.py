"""Mutation check of the report flags: each flag hard-wired to True in
src/coiso/cli.py must fail a named subset of tests/test_cli.py.

    python tests/flag_mutants.py

A boolean in a report that no test ever sees false can become a constant
true and nothing fails.  For each flag below, this copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the value of the flag's
key in the one dict display of a cli.py function that has it (the report
the task builds; the module-level TASKS dict is not a report) by the literal
True, and runs `pytest -k SUBSET tests/test_cli.py` there; the mutant is killed when
pytest reports a failed test (exit 1).  Every subset first runs once on the
tree as it is, where it must pass, so that a subset that fails anyway kills
nothing by accident.

Exit status: 0 if every mutant is killed; 1 if a subset fails on the tree as
it is, selects no test, or lets its mutant survive; 2 if a flag is not the
key of exactly one dict display in the functions of cli.py.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI = pathlib.Path("src", "coiso", "cli.py")

# report flag -> the test_cli.py tests that see it false
MUTANTS = {
    "coisotropic": "test_coisotropic_reports_both_verdicts",
    "jacobiator_zero": "test_check_jacobi_reports_a_nonzero_jacobiator",
    "generator_agreement": "test_transversal_crosscheck_reports_a_disagreement",
    "induced_differential_is_m1": "test_hpl_resolve_reports_a_wrong_induced_differential",
    "higher_brackets_zero": "test_transversal_crosscheck_reports_a_disagreement",
    "mc_zero": "test_mc_reports_both_verdicts",
}


def hard_wired(source: str, flag: str) -> str:
    """source with the value of the dict key flag replaced by True; raises
    LookupError unless exactly one dict display in a function has that key."""
    values = [
        value
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == flag
    ]
    if len(values) != 1:
        raise LookupError(f"{flag!r} is the key of {len(values)} dict displays in the functions of {CLI}, not 1")
    (value,) = values
    lines = source.encode("utf-8").splitlines(keepends=True)
    start = sum(map(len, lines[: value.lineno - 1])) + value.col_offset
    end = sum(map(len, lines[: value.end_lineno - 1])) + value.end_col_offset
    data = source.encode("utf-8")
    return (data[:start] + b"True" + data[end:]).decode("utf-8")


def run_subset(tree: pathlib.Path, subset: str) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", subset, "tests/test_cli.py"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    source = (ROOT / CLI).read_text(encoding="utf-8")
    try:
        mutants = {flag: hard_wired(source, flag) for flag in MUTANTS}
    except LookupError as exc:
        print(f"::error::{exc}")
        return 2
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp, "tree")
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for subset in sorted(set(MUTANTS.values())):
            code = run_subset(tree, subset)
            if code:
                bad.append(f"subset {subset!r} exits {code} on the tree as it is")
        for flag, mutated in mutants.items():
            (tree / CLI).write_text(mutated, encoding="utf-8")
            code = run_subset(tree, MUTANTS[flag])
            verdict = "killed" if code == 1 else f"survived (pytest exit {code})"
            print(f"flag mutants: {flag} = True: {verdict} by {MUTANTS[flag]}")
            if code != 1:
                bad.append(f"{flag} hard-wired to True {verdict}")
    for line in bad:
        print(f"::error::{line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
