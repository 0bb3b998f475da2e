"""Print each statement of ``src`` that no Tier-1 test executes.

No coverage package is needed: the suite runs in this process under a
``sys.settrace`` tracer that records the lines executed in the package's
files. Code that the tests run in a child process (the CLI subprocess
tests) is not seen.

A statement counts as executed when a line event fires on one of its own
lines: for a compound statement, its header (decorators included) up to its
first child; for a simple one, all of its lines. Docstrings and ``global``
or ``nonlocal`` statements compile to no code, and the body of an
``if TYPE_CHECKING:`` block runs only under a type checker, so none of them
is listed.

Run it from the repository root; extra arguments go to pytest::

    PYTHONPATH=src python tests/line_coverage.py
    PYTHONPATH=src python tests/line_coverage.py tests/test_problem.py

It prints ``path:line: source`` per statement missed, then a summary line,
and exits with pytest's exit code. It is not part of the Tier-1 suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "credible_sdp"


def statement_lines(source: str) -> dict[int, range]:
    """Per statement that compiles to code, its first line and the lines on
    which a line event marks it executed."""
    nodes = list(ast.walk(ast.parse(source)))
    skipped = {
        id(node.body[0])
        for node in nodes
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and _is_docstring(node.body[0])
    }
    for node in nodes:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            skipped.update(id(child) for child in ast.walk(node) if child is not node)
    out = {}
    for node in nodes:
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if id(node) in skipped:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        children = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = min(c.lineno for c in children) - 1 if children else node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def main(argv: list[str]) -> int:
    executed: dict[str, set[int]] = {str(path): set() for path in SRC.rglob("*.py")}

    def trace(frame, event, arg):
        lines = executed.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        if event == "call":
            lines.add(frame.f_lineno)
        return local

    if any(name.startswith("credible_sdp") for name in sys.modules):
        raise SystemExit("credible_sdp is imported already: its module lines would read missed")
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    root = SRC.parent.parent
    for path in sorted(executed):
        source = Path(path).read_text()
        text = source.splitlines()
        for first, lines in sorted(statement_lines(source).items()):
            total += 1
            if executed[path].isdisjoint(lines):
                missed += 1
                print(f"{Path(path).relative_to(root)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements in {SRC.relative_to(root)} not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
