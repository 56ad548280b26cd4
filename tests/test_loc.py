"""Tests for ``tools/loc.py``: the line counts of one small module."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "loc.py")
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment is code

# a comment line


class Thing:
    """One-line class docstring."""

    def method(self):
        """A method docstring
        over three
        lines."""
        text = """a multi-line string
        that is code"""
        return text


def function():
    return (
        1
    )
'''


def test_counts_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    # code: import, class, def, the string's two lines, return, def, and the
    # three lines of the last return
    assert loc.counts(path.read_text()) == (24, 10)


def test_table_totals_the_package():
    rows = loc.table(None)
    assert rows[0].split() == ["module", "lines", "code"]
    modules = [row.split() for row in rows[1:-1]]
    total = rows[-1].split()
    assert total[0] == "total"
    assert int(total[1]) == sum(int(m[1]) for m in modules)
    assert int(total[2]) == sum(int(m[2]) for m in modules)
    assert "transport.py" in [m[0] for m in modules]
