"""Unit tests for tools/code_lines.py (loaded by file path — tools/ is
deliberately not a package)."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", REPO_ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment is on a code line


def f(x):
    """One line."""
    # a comment line
    y = """a string that is
    an argument, not a statement"""

    return g(x,
             y)
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, the two lines of the assigned string, the two lines
    # of the return.
    assert code_lines.code_lines(SAMPLE) == 6


def test_a_file_of_nothing_but_docs_has_no_code():
    assert code_lines.code_lines('"""Only this."""\n# and this\n\n') == 0


def test_a_file_argument_counts_as_itself(tmp_path):
    (tmp_path / "one.py").write_text(SAMPLE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.count_tree([str(tmp_path / "one.py")]) == 6
    assert code_lines.count_tree([str(tmp_path)]) == 6


def test_a_missing_path_exits_non_zero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        code_lines.main([str(tmp_path / "missing")])
    assert exit_.value.code != 0
    assert "missing" in capsys.readouterr().err
