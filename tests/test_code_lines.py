import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps the line


# a comment alone
class Shape:
    """A class docstring."""

    sides = 4

    def area(self, a,
             b):
        """A function docstring
        over two lines.
        """

        total = (a
                 * b)
        note = """a string that is not a docstring
        spans two lines"""
        return total, note
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code(tool):
    # import, class, sides, the two lines of def, the two of total, the two
    # of note, return
    assert tool.code_lines(SOURCE) == 10


def test_docstring_lines_are_the_leading_strings_of_each_scope(tool):
    lines = tool.docstring_lines(ast.parse(SOURCE))
    assert lines == {1, 2, 9, 15, 16, 17}


def test_main_prints_each_module_and_the_total(tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n")
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "10"], ["b.py", "1"], ["total", "11"]]
