"""Run tier-1 in this interpreter under a line tracer, and fail on any
statement of src/coiso that no test runs and the allow-list does not name.

    python tests/statement_trace.py [pytest arguments]

Stdlib only (and pytest, as tier-1 needs it): the tracer is sys.settrace,
because sys.monitoring does not exist on Python 3.10.  Tracing starts before pytest imports coiso, so the
module bodies (imports, def and class lines, constants) count as well.

The statements are the ast.stmt nodes of each module.  A statement runs when
a line event fires on one of its own lines: the lines it spans, less those of
the statements nested in it.  Three kinds emit no line event and are not
listed: docstrings (an expression statement that is a string constant first
in a module, class or function body; a function's never fires), `global` and
`nonlocal`.  Every other kind does (checked on 3.10 and 3.11: `pass`,
`break`, `continue`, `try`, `del`, `assert`, decorated defs).

Exit status: pytest's, if tier-1 fails; else 1 if a statement is unrun and
not on the allow-list, or if an allow-list entry names no unrun statement;
else 0.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "coiso"

# (module, function, statement text) -> reason.  The function is the
# qualified name of the innermost def (or "<module>"), the text the first
# source line of the statement, stripped.
ALLOWED = {
    ("leafform", "LeafForm.to_leafform", "return self"): (
        "only perfbench/run.py's input check calls it; the benchmark PR "
        "(ROADMAP item 1) deletes it"
    ),
    ("linfty", "extract_multibrackets", "return MultibracketTable(j)"): (
        "only perfbench/run.py calls it; the benchmark PR (ROADMAP item 1) "
        "deletes it"
    ),
}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: pathlib.Path):
    """Yield (function, first line, own lines, text) for each statement of a
    module that emits a line event."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()

    def visit(parent: ast.AST, scope: str):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.ExceptHandler):
                    yield from visit(node, scope)
                    continue
                inner = scope
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
                if not (
                    _is_docstring(node, parent)
                    or isinstance(node, (ast.Global, ast.Nonlocal))
                ):
                    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                    own = set(range(first, node.end_lineno + 1))
                    for child in ast.walk(node):
                        if child is not node and isinstance(child, ast.stmt):
                            own -= set(range(child.lineno, child.end_lineno + 1))
                    yield scope, node.lineno, own, text[node.lineno - 1].strip()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield from visit(node, inner)
                else:
                    yield from visit(node, scope)

    yield from visit(ast.parse(source), "<module>")


def main(argv: list[str]) -> int:
    prefix = str(LIBRARY) + "/"
    fired: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            fired[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        fired.setdefault(name, set())
        return local(frame, event, arg)

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code:
        print(f"statement trace: tier-1 exited {code}")
        return int(code)

    total, unrun, allowed_hit = 0, [], set()
    for path in sorted(LIBRARY.glob("*.py")):
        lines = fired.get(str(path), set())
        for scope, lineno, own, text in statements(path):
            total += 1
            if own & lines:
                continue
            key = (path.stem, scope, text)
            if key in ALLOWED:
                allowed_hit.add(key)
            else:
                unrun.append(f"{path.relative_to(ROOT)}:{lineno}: {scope}: {text}")
    stale = [f"{m}: {f}: {t}" for m, f, t in sorted(ALLOWED.keys() - allowed_hit)]
    for line in unrun:
        print(f"::error::statement that no tier-1 test runs {line}")
    for line in stale:
        print(f"::error::allow-list entry that names no unrun statement {line}")
    print(
        f"statement trace: {total} statements, {len(unrun)} unrun, "
        f"{len(allowed_hit)} allowed, {len(stale)} stale allow-list entries"
    )
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
