#!/usr/bin/env python3
"""List the framekit statements that a pytest run never executes.

Runs pytest in this process under sys.settrace and threading.settrace,
recording the lines executed in frames whose code lies under src/framekit.
Each module is then parsed with ast, and every statement that never ran is
printed as `module:line: source`; defs, classes, imports, try headers and
docstrings are not statements here.  The last line is the total.

Tests that run framekit in a subprocess (the CLI smoke tests, for one) are
not traced, so statements that only they reach are listed too.

Usage:
    python scripts/unexecuted_lines.py [pytest arguments ...]

The exit status is pytest's.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "framekit"
SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Try, ast.Global, ast.Nonlocal,
)


def trace_lines(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on argv and return its exit status and the lines run per framekit file."""
    prefix = str(SRC) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def _docstrings(tree: ast.Module) -> set[int]:
    """Node ids of every module, class and function docstring expression."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                ids.add(id(node.body[0]))
    return ids


def unexecuted(path: Path, lines: set[int]) -> list[int]:
    """First lines of the statements of path none of whose header lines ran."""
    tree = ast.parse(path.read_text())
    docstrings = _docstrings(tree)
    missed = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docstrings:
            continue
        # a compound statement's header ends where its body starts
        last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
        if lines.isdisjoint(range(node.lineno, max(last, node.lineno) + 1)):
            missed.append(node.lineno)
    return sorted(missed)


def run(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, executed = trace_lines(sys.argv[1:] if argv is None else list(argv))
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in unexecuted(path, executed.get(str(path), set())):
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
            total += 1
    print(f"{total} statements never executed")
    return status


if __name__ == "__main__":
    sys.exit(run())
