"""The command-line scripts under scripts/ run to completion and print
their pinned verdicts."""

import itertools
import os
import runpy
import subprocess
import sys
from pathlib import Path

from hyperknow import parser

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
    code, lines = _run("sweep_axioms.py", monkeypatch, capsys, "--show-countermodels")
    assert code == 0
    rows = {line[:24].strip(): line[24:].strip() for line in lines if line[:1] != " "}
    assert len(rows) == 18
    assert rows["ksafe_b"] == "countermodel at World(edge='e1')"
    assert rows["ksafe_necessitation"] == "countermodel at World(edge='e1')"
    assert rows["ksafe_4"] == "valid within bounds (49858 sweeps)"
    assert rows["kunsafe_k"] == "valid within bounds (776860 sweeps)"
    assert rows["axiom: non-emptiness"] == "valid within bounds (3292 sweeps)"
    assert sum(v.startswith("valid within bounds") for v in rows.values()) == 16
    # Each countermodel is printed below its row, indented: for ksafe_b the
    # metavariable's instance, then the model text, which reads back.
    start = lines.index(next(line for line in lines if line.startswith("ksafe_b "))) + 1
    block = list(itertools.takewhile(lambda line: line[:1] == " ", lines[start:]))
    assert block[0] == "    metavariables: {'PHI': 'q1'}"
    model = parser.parse_model("\n".join(line[4:] for line in block[1:]))
    assert model.edges == ("e1",) and model.val_env["q1"] == {"e1"}


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


def test_parity_dump_is_deterministic_on_a_small_input(monkeypatch, capsys):
    # Edge bound 2 and KB4 formulas of at most 3 nodes: the five bounds
    # clamp to three distinct ones (2/2/2, 3/2/2, 3/3/2), each swept once
    # for 18 scheme rows; 14 formulas, the six corpus derivations; the text
    # is the same under two hash seeds.
    code, lines = _run("parity_dump.py", monkeypatch, capsys, "--max-size", "3", "--edges", "2")
    assert code == 0
    heads = [line for line in lines if not line.startswith("    ")]
    assert sum(line.startswith("scheme ") for line in heads) == 54
    assert sum(line.startswith("scheme 3/3/2 ") for line in heads) == 18
    assert "scheme 2/2/2 non_emptiness: valid 32" in heads
    assert "scheme 3/2/2 ksafe_b: countermodel at World(edge='e1') [PHI=q1]" in heads
    assert sum(line.startswith("kb4 ") for line in heads) == 14
    assert "kb4 13 q & q: countermodel at World(edge='e1') []" in heads
    assert sum(line.startswith("render scheme ") for line in heads) == 18
    assert "render scheme ksafe_4: Ksafe[a] ?PHI -> Ksafe[a] Ksafe[a] ?PHI" in heads
    assert [line for line in heads if line.startswith("corpus ")] == [
        f"corpus {name}.deriv: sound" for name in (
            "distribution", "k_axiom", "ksafe_4", "locality", "non_emptiness",
            "useful_formulas")]
    src = str(SCRIPTS.parent / "src")
    outputs = {subprocess.run(
        [sys.executable, str(SCRIPTS / "parity_dump.py"), "--max-size", "3", "--edges", "2"],
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        capture_output=True, text=True, check=True).stdout for seed in ("1", "2")}
    assert len(outputs) == 1 and outputs.pop().splitlines() == lines
