"""The command-line scripts under scripts/ run to completion and print
their pinned verdicts."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, monkeypatch, capsys):
    path = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [path])
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
