#!/usr/bin/env python3
"""Check that the test suite runs every line of the fieldtriple package.

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
line tracer, then prints, per source file of ``src/fieldtriple``, every
executable line that no test reached, followed by one count per file.  A
line is executable when the compiled code of its file holds an instruction
on it; docstrings are not counted.  Only the standard library is used.

The script exits 1 when a line is unreached, or with pytest's code when
the suite fails, and 0 otherwise.

After the suite, ``python -m fieldtriple --help`` is run in the same
traced process through ``runpy``, so ``__main__.py`` is seen; it must exit
0.  Other code that tests run in a subprocess (the example scripts) is not
seen.  Tracing slows the suite down about threefold, so this script is not
part of the suite itself.

Usage:
    python3 scripts/unreached.py [pytest args...]
"""

import ast
import contextlib
import io
import runpy
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
        run_main_module()
    finally:
        sys.settrace(None)
    return int(code), reached


def run_main_module() -> None:
    """Run ``python -m fieldtriple --help`` in this process, its help text
    discarded; raises unless it exits 0."""
    argv = sys.argv
    sys.argv = ["fieldtriple", "--help"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("fieldtriple", run_name="__main__")
    except SystemExit as exc:
        if exc.code != 0:
            raise RuntimeError(f"python -m fieldtriple --help exited {exc.code}") from None
    else:
        raise RuntimeError("python -m fieldtriple --help did not exit")
    finally:
        sys.argv = argv


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
        text = path.read_text(encoding="utf-8").splitlines()
        counts[path.name] = len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    total = sum(counts.values())
    print("\nunreached lines, per file:")
    for name, n in counts.items():
        print(f"  {name:16s} {n:4d}")
    print(f"  {'total':16s} {total:4d}")
    return code or int(total > 0)


if __name__ == "__main__":
    sys.exit(main())
