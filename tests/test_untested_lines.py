"""``tools/untested_lines.py`` lists the function-body statements that a traced run never executes."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SMALL = '''
"""Module docstring."""
LIMIT = 3  # module level: never listed


def sign(x):
    """Docstring: no statement."""
    if x > 0:
        return 1
    elif x < 0:
        return -1
    return 0


def total(values):
    global LIMIT
    result = 0
    for v in values:
        if v > LIMIT:
            raise ValueError(
                f"{v} is over the limit"
            )
        result += v
    else:
        pass
    try:
        return result
    finally:
        LIMIT = 3


def pair(x):
    return (
        x,
        x + 1,
    )


def never(x):
    @staticmethod
    def inner(y):
        return y

    return inner(x) if x else [
        x
    ]
'''


@pytest.fixture
def untested_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("untested_lines")


def test_lists_each_statement_no_call_reaches(untested_lines, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "small.py").write_text(SMALL.lstrip("\n"))
    (package / "notes.txt").write_text("not python\n")

    def run():
        spec = importlib.util.spec_from_file_location("small", package / "small.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.sign(2)
        module.pair(1)
        return module.total([1, 2])

    result, executed = untested_lines.executed_lines(package, run)
    assert result == 3
    lines = SMALL.lstrip("\n").splitlines()
    listing = untested_lines.untested(package, executed)
    # sign's other branches, total's raise, and all of never; a multi-line return
    # counts on any of its lines, and pass, global and docstrings are no statements
    assert [(name, lines[line - 1].strip()) for name, line, _ in listing] == [
        ("small.py", "elif x < 0:"),
        ("small.py", "return -1"),
        ("small.py", "return 0"),
        ("small.py", "raise ValueError("),
        ("small.py", "def inner(y):"),
        ("small.py", "return y"),
        ("small.py", "return inner(x) if x else ["),
    ]
    assert all(text == lines[line - 1].strip() for _, line, text in listing)


def test_the_hook_is_removed_after_the_run(untested_lines, tmp_path):
    before = sys.gettrace()
    untested_lines.executed_lines(tmp_path, lambda: None)
    assert sys.gettrace() is before
