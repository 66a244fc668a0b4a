from support import code_lines

SOURCE = '''"""A module docstring,
on two lines."""

import os  # a comment after code counts as code


# a comment alone
def f(x):
    """A function docstring."""
    y = (x
         + 1)
    return os.sep * y


class C:
    """A class docstring."""
    z = "not a docstring"
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, def, both lines of y's one statement, return, class and z:
    # seven lines
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a '
                                 'comment\n') == 0


def test_two_tree_table(tmp_path, monkeypatch, capsys):
    # each module prints as the parent's count -> this tree's, a module on
    # one side only reading 0 on the other, and the totals last
    parent, change = tmp_path / "parent", tmp_path / "change"
    trees = {parent: {"a.py": "x = 1\n", "b.py": "y = 2\nz = 3\n"},
             change: {"a.py": SOURCE, "c.py": "w = 4\n"}}
    for tree, files in trees.items():
        (tree / "pkg").mkdir(parents=True)
        for name, text in files.items():
            (tree / "pkg" / name).write_text(text)
    monkeypatch.chdir(change)
    code_lines.main(["--parent", str(parent), "pkg"])
    assert capsys.readouterr().out.splitlines() == [
        "     1 ->      7  pkg/a.py",
        "     2 ->      0  pkg/b.py",
        "     0 ->      1  pkg/c.py",
        "     3 ->      8  total"]
    code_lines.main(["pkg"])
    assert capsys.readouterr().out.splitlines() == [
        "     7  pkg/a.py", "     1  pkg/c.py", "     8  total"]
