"""The code-line counter: no blank lines, comments or docstrings."""

from code_lines import code_lines, main

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


def f(x):
    """A function docstring."""
    # a comment line
    s = """a string that is
no docstring"""
    return (x +
            1)


class C:
    "a class docstring"

    y = 1
'''


def test_code_lines_count_code_only():
    # import, def, the two lines of s, the two of the return, class, y
    assert code_lines(SNIPPET) == 8
    assert code_lines("") == 0
    assert code_lines('"""only a docstring"""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", str(tmp_path / "pkg" / "a.py")], ["1", str(tmp_path / "pkg" / "b.py")], ["9", "total"]]
