"""The command-line scripts under scripts/ run to completion and print
their pinned verdicts."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, monkeypatch, capsys, *args):
    path = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [path, *args])
    try:
        runpy.run_path(path, run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    return code, capsys.readouterr().out.splitlines()


def test_reproduce_worked_examples(monkeypatch, capsys):
    code, lines = _run("reproduce_worked_examples.py", monkeypatch, capsys)
    assert code == 0
    assert "state 01 |= both bits readable by a: True" in lines
    assert "N[a](01) = [['00', '01'], ['01', '11']]" in lines
    verdicts = [line.split()[-1] for line in lines if "|=" in line and "state" not in line]
    assert verdicts == ["True", "True", "False", "True", "True", "True",
                        "True", "True", "True", "True", "True"]


def test_sweep_axioms(monkeypatch, capsys):
    code, lines = _run("sweep_axioms.py", monkeypatch, capsys)
    assert code == 0
    rows = {line[:24].strip(): line[24:].strip() for line in lines}
    assert len(rows) == 18
    assert rows["ksafe_b"] == "countermodel at World(edge='e1')"
    assert rows["ksafe_necessitation"] == "countermodel at World(edge='e1')"
    assert rows["ksafe_4"] == "valid within bounds (49858 sweeps)"
    assert rows["kunsafe_k"] == "valid within bounds (776860 sweeps)"
    assert rows["axiom: non-emptiness"] == "valid within bounds (3292 sweeps)"
    assert sum(v.startswith("valid within bounds") for v in rows.values()) == 16


_MODULE = '''"""A module docstring,
over two lines."""

import os  # a comment after code counts

# a comment line does not


class Point:
    """A class docstring."""

    x = 1

    def norm(self):
        """A function
        docstring."""
        text = """a string that is
not a docstring"""
        return os.sep + text
'''

_INIT = '''
# only comments, blank lines and a docstring
"""Package docstring."""

VERSION = (1,
           2)
'''


def test_loc_counts_code_lines(monkeypatch, capsys, tmp_path):
    # module.py: the import, the class line, "x = 1", the def line, the two
    # lines of the assigned string and the return; __init__.py: the two
    # lines of the assignment.
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(_INIT)
    (package / "sub" / "module.py").write_text(_MODULE)
    code, lines = _run("loc.py", monkeypatch, capsys, str(package))
    assert code == 0
    assert [line.split() for line in lines] == [
        ["2", "__init__.py"], ["7", "sub/module.py"], ["9", "total"]]
