"""``tools/code_lines.py`` counts code lines only: no docstring, comment or blank line."""

import importlib
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def code_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("code_lines")


def _count(module, source: str) -> int:
    return module.code_lines(textwrap.dedent(source).lstrip("\n"))


def test_docstrings_comments_and_blank_lines_do_not_count(code_lines):
    source = '''
        """Module docstring,
        over two lines."""

        # a comment
        import math  # a trailing comment counts as its code line


        class Thing:
            """Class docstring."""

            def method(self):
                """Method docstring,

                with a blank line inside.
                """
                # another comment
                return math.pi


        async def later():
            """Coroutine docstring."""
            return 1
    '''
    # import, class, def, return, async def, return
    assert _count(code_lines, source) == 6


def test_every_line_of_a_multi_line_call_counts(code_lines):
    source = """
        total = sum(
            [
                1,
                2,
            ]
        )
    """
    assert _count(code_lines, source) == 6


def test_a_string_that_is_not_a_docstring_counts(code_lines):
    source = '''
        def f():
            x = 1
            """Not a docstring: the body's first statement is an assignment."""
            return x

        message = """a multi-line
        string value"""
    '''
    # def, x = 1, the string, return, and both lines of the assignment
    assert _count(code_lines, source) == 6


def test_printed_total_is_the_sum_of_the_module_rows(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n\ny = (\n    2\n)\n')
    (tmp_path / "b.py").write_text("# only a comment\nz = 3\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["4", "a.py"], ["1", "b.py"], ["5", "total"]]
    assert sum(int(count) for count, name in rows[:-1]) == int(rows[-1][0])
