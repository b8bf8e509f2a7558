#!/usr/bin/env python3
"""List the lines of ``src/sicprob`` that a pytest run never executes.

    PYTHONPATH=src python3 tests/untested_lines.py [pytest args]

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) that records only frames of files in
``src/sicprob``, then prints ``module:line  source`` for every executable
line that never ran, and their count. A line is executable when the
compiled module maps bytecode to it; docstrings are skipped. Runs pytest
with ``-p no:cacheprovider``, so that pytest itself writes no cache into
the repository, and exits 0 whatever pytest returns. Standard library
only; with no arguments it traces tier-1 (``tests``). Tracing slows the
run by about a third.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sicprob"


def _code_lines(code: types.CodeType) -> set[int]:
    """Line numbers that ``code`` and every nested code object map bytecode to."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of the module's, every class's and every function's docstring."""
    lines = set()
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    """Lines of one source file that can run, less its docstrings."""
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _docstring_lines(ast.parse(source))


def traced_run(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest in process; the lines that ran, per file of the package."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, if traced

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = os.path.abspath(name)
            lines_of[name] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        lines = lines_of[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main(argv: list[str]) -> int:
    ran = traced_run(argv or [str(ROOT / "tests")])
    missing = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        never = sorted(executable_lines(path) - ran.get(str(path), set()))
        module = path.relative_to(PACKAGE.parent).with_suffix("").as_posix().replace("/", ".")
        for line in never:
            print(f"{module}:{line}  {source[line - 1].strip()}")
        missing += len(never)
    print(f"{missing} executable lines of {PACKAGE.name} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
