"""scripts/code_lines.py: `wc -l` and code-line counts of a module, on a
small hand-written module and on a package directory."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
cl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cl)

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os


class Box:
    """One-line class docstring."""

    size = 2   # a trailing comment keeps the line

    def area(self):
        """A method docstring
        over two lines.
        """
        text = """a string that is not a docstring
# so this line is code"""
        return self.size * len(text)


async def wait():
    \'\'\'Async docstring.\'\'\'
    "a string statement that does not open a body is code"
        # an indented comment
    return os.sep
'''


def test_counts_skip_blanks_comments_and_docstrings_only():
    wc, code = cl.counts(MODULE)
    assert wc == 26
    # import, class, size, def area, the two lines of `text`, return,
    # async def, the string statement, return
    assert code == 10


def test_a_module_without_docstrings_or_final_newline():
    assert cl.counts("x = 1\n\ny = 2") == (2, 2)
    assert cl.counts("") == (0, 0)


def test_main_prints_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    cl.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["module", "wc", "-l", "code"], ["a.py", "1", "1"], ["b.py", "26", "10"],
        ["total", "27", "11"]]
