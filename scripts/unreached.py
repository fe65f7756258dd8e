#!/usr/bin/env python3
"""List the lines of the fieldtriple package that the test suite never runs.

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
line tracer, then prints, per source file of ``src/fieldtriple``, every
executable line that no test reached, followed by one count per file.  A
line is executable when the compiled code of its file holds an instruction
on it; docstrings are not counted.  Only the standard library is used.

Code that tests run in a subprocess (``python -m fieldtriple``, the example
scripts) is not seen.  Tracing slows the suite down about threefold, so
this script is not part of the suite itself.

Usage:
    python3 scripts/unreached.py [pytest args...]
"""

import ast
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fieldtriple"


def executable_lines(path: Path) -> set[int]:
    """Lines holding an instruction of the compiled file, docstrings out."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    lines.discard(0)
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` in process; returns its exit code and the
    lines reached in each package file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(global_)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), reached


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "fieldtriple" or name.startswith("fieldtriple.")
           for name in sys.modules):
        raise SystemExit("fieldtriple is already imported; run this as a script")
    code, reached = run_traced(["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests"), *args])
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        counts[path.name] = len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print("\nunreached lines per file:")
    for name, n in counts.items():
        print(f"  {name:16s} {n:4d}")
    print(f"  {'total':16s} {sum(counts.values()):4d}")
    return code


if __name__ == "__main__":
    sys.exit(main())
