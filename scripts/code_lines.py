#!/usr/bin/env python3
"""Print the code lines of each framekit module and their total.

A code line is a line that is not blank, not a comment line and not part of
a module, class or function docstring.  This is the count the ROADMAP's Size
bullet keeps.

Usage:
    python scripts/code_lines.py [--src src/framekit]
"""
import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skipped = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skipped and line.strip() and not line.lstrip().startswith("#")
    )


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "framekit")
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path) for path in sorted(args.src.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(run())
