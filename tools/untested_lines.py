"""List the function-body statements of ``src/glmavg`` that no test executes.

It needs the standard library only (``coverage`` is no dependency): it
runs pytest in this process under a ``sys.settrace`` hook, and
``threading.settrace`` for threads started later, that records each
line executed in a file under the package directory.  Then it prints
each statement inside a function body that no recorded line reaches,
as ``<module>:<line>  <source line>``, module by module, and their
count.  Module- and class-level code is not listed.

A statement counts as run when any line of its own code ran: all of a
simple statement's lines, or a compound statement's header (an ``if``
or ``while`` test, a ``for`` target and iterable, a ``with`` item list,
a nested ``def`` with its decorators and signature).  ``try``,
``else`` and ``finally`` are no statements of their own, and nor are a
docstring, a bare constant, ``global`` or ``nonlocal``, which compile to
no code; the statements in their bodies are listed.

Forked children are not traced: a line that only a process forked by
``glmavg._forked.run_replications`` runs (``workers`` > 1) is listed as
never executed.  Tracing slows the test run about threefold.

    python3 tools/untested_lines.py [pytest arguments, default: tests/]

It exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "glmavg"
_NO_CODE = (ast.Global, ast.Nonlocal)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(body):
    """The statements of ``body`` and of the blocks nested in it, not those of nested functions or classes."""
    for stmt in body:
        if not isinstance(stmt, (ast.Try, ast.TryStar)):
            yield stmt
        if isinstance(stmt, _SCOPES):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def _own_lines(stmt) -> range:
    """The lines whose execution counts as running ``stmt``: a compound statement's header, else all its lines."""
    if not hasattr(stmt, "body"):
        return range(stmt.lineno, stmt.end_lineno + 1)
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", []))])
    return range(first, max(stmt.lineno + 1, stmt.body[0].lineno))


def statements(source: str) -> dict[int, range]:
    """Each statement in a function body of ``source``: its first line, mapped to its ``_own_lines``."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in _statements(node.body):
                bare_constant = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                if not (bare_constant or isinstance(stmt, _NO_CODE)):
                    spans[stmt.lineno] = _own_lines(stmt)
    return spans


def executed_lines(root: Path, run):
    """``run()``'s result, and the lines it executed in each file under ``root``, by resolved path."""
    inside = str(Path(root).resolve()) + os.sep
    files = {}  # a code object's file name -> its set of executed lines, or None outside root
    executed = {}

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = executed.setdefault(path, set()) if path.startswith(inside) else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return result, executed


def untested(root: Path, executed: dict) -> list[tuple[str, int, str]]:
    """(module file, first line, its source text) of each function-body statement under ``root`` that never ran."""
    listing = []
    for path in sorted(Path(root).glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(str(path.resolve()), set())
        for first, span in sorted(statements(source).items()):
            if ran.isdisjoint(span):
                listing.append((path.name, first, lines[first - 1].strip()))
    return listing


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    # this checkout's package, here and in the subprocesses that some tests start
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    status, executed = executed_lines(
        PACKAGE, lambda: pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(REPO / "tests")])])
    )
    listing = untested(PACKAGE, executed)
    for name, line, text in listing:
        print(f"{name}:{line}  {text}")
    print(f"{len(listing)} function-body statements in {PACKAGE.name} never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
