#!/usr/bin/env python3
"""Check that the test suite runs every line and both outcomes of every
``if`` of the fieldtriple package.

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
tracer that records each line reached and each step from one line to the
next within a frame.  It then prints, per source file of
``src/fieldtriple``, every executable line that no test reached and every
``if`` statement (``elif`` included) whose true or false outcome no test
took, followed by one count of each per file.  A line is executable when
the compiled code of its file holds an instruction on it; docstrings are
not counted.  An ``if`` went true when a step led from a line of its test
into its body, and false when a step led from its test anywhere else: its
``else``, the statement after it, a loop's head or out of the frame by a
return.  A step out of a line that raised goes uncounted.  Only the
standard library is used.

The script exits 1 when a line is unreached or an ``if`` one-sided, or
with pytest's code when the suite fails, and 0 otherwise.

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
import functools
import io
import runpy
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fieldtriple"
EXIT = -1


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


def if_statements(path: Path) -> list[tuple[int, range, range]]:
    """``(line, test lines, body lines)`` for each ``if`` of the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.If):
            first = node.body[0]
            start = min([first.lineno]
                        + [d.lineno for d in getattr(first, "decorator_list", [])])
            found.append((node.lineno, range(node.lineno, node.test.end_lineno + 1),
                          range(start, node.body[-1].end_lineno + 1)))
    return found


@functools.cache
def test_lines(filename: str) -> frozenset[int]:
    """The lines of the file that hold part of an ``if`` test."""
    return frozenset(line for _, test, _ in if_statements(Path(filename))
                     for line in test)


@functools.cache
def own_test_lines(code: types.CodeType) -> frozenset[int]:
    """The ``if`` test lines that hold an instruction of ``code`` itself.
    A lambda or comprehension holds no ``if`` statement, so it has none:
    its return from a test line is not the ``if``'s false outcome."""
    if code.co_name.startswith("<") and code.co_name != "<module>":
        return frozenset()
    return test_lines(code.co_filename).intersection(
        line for _, _, line in code.co_lines())


def untaken_outcomes(path: Path, steps: set[tuple]) -> list[tuple[int, str]]:
    """``(line, outcomes)`` for each ``if`` of the file that ``steps``, the
    ``(from, to)`` line steps taken in it, leave one-sided or unreached."""
    after = defaultdict(set)
    for a, b in steps:
        after[a].add(b)
    found = []
    for line, test, body in if_statements(path):
        taken = {b in body for a in test for b in after[a] if b not in test}
        if len(taken) < 2:
            found.append((line, {True: "false", False: "true"}.get(
                next(iter(taken), None), "true and false")))
    return found


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]],
                                         dict[str, set[tuple]]]:
    """Run pytest on ``args`` in process; returns its exit code, and the
    lines reached and the line steps taken out of ``if`` tests in each
    package file.  A step out of a frame by a return goes to line
    ``EXIT``."""
    import pytest

    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = defaultdict(set)
    stepped: dict[str, set[tuple]] = defaultdict(set)

    def lines_only(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return lines_only

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached[name].add(frame.f_lineno)
        tests = own_test_lines(frame.f_code)
        if not tests:
            return lines_only
        lines, steps, last = reached[name], stepped[name], None

        def local(frame, event, arg):
            nonlocal last
            line = frame.f_lineno
            lines.add(line)
            if event == "line":
                if last in tests:
                    steps.add((last, line))
                last = line
            elif event == "return":
                if last in tests:
                    steps.add((last, EXIT))
            elif event == "exception":
                last = None
            return local

        return local

    sys.settrace(global_)
    try:
        code = pytest.main(args)
        run_main_module()
    finally:
        sys.settrace(None)
    return int(code), reached, stepped


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
    code, reached, stepped = run_traced(["-q", "-p", "no:cacheprovider",
                                         str(ROOT / "tests"), *args])
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        one_sided = untaken_outcomes(path, stepped.get(str(path), set()))
        text = path.read_text(encoding="utf-8").splitlines()
        counts[path.name] = len(missed), len(one_sided)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        for line, outcome in one_sided:
            print(f"{path.relative_to(ROOT)}:{line}: {outcome} never taken: "
                  f"{text[line - 1].strip()}")
    totals = [sum(column) for column in zip(*counts.values())]
    print("\nunreached lines and one-sided ifs, per file:")
    for name, (lines, ifs) in [*counts.items(), ("total", totals)]:
        print(f"  {name:16s} {lines:4d} {ifs:4d}")
    return code or int(sum(totals) > 0)


if __name__ == "__main__":
    sys.exit(main())
