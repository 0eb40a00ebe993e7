import io
import json
import os
import subprocess
import sys

import pytest

import hyperknow as hk
from hyperknow import cli, frames, parser, proofkernel
from hyperknow.semantics import World

from conftest import CORPUS


def run(argv, stdin=None, monkeypatch=None, capsys=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.model"
    path.write_text(parser.render_model(hk.example("h3")))
    return str(path)


def test_check_view(h3_file, capsys, monkeypatch):
    code, out, _ = run(
        ["check", "--model", h3_file, "--view", "a:va",
         "--formula", "[](alive(b)|alive(c)) & ~[]alive(b) & ~[]alive(c)"],
        capsys=capsys)
    assert code == 0
    assert out.startswith("true")


def test_check_world_false_exit_code(h3_file, capsys):
    code, out, _ = run(["check", "--model", h3_file, "--world", "e_ab",
                        "--formula", "alive(c)"], capsys=capsys)
    assert code == 1
    assert out.startswith("false")


def test_check_stdin_pipe(capsys, monkeypatch):
    model_text = parser.render_model(hk.example("binary-input"))
    code, out, _ = run(["check", "--model", "-", "--world", "solo_a0",
                        "--formula", "solo"],
                       stdin=model_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0


def test_check_usage_errors(h3_file, capsys):
    code, _, err = run(["check", "--model", h3_file, "--formula", "true"],
                       capsys=capsys)
    assert code == 2
    code, _, err = run(["check", "--model", h3_file, "--world", "e_ab",
                        "--view", "a:va", "--formula", "true"], capsys=capsys)
    assert code == 2
    code, _, err = run(["check", "--model", "/nonexistent", "--world", "e",
                        "--formula", "true"], capsys=capsys)
    assert code == 2


def test_parse_error_exits_2(h3_file, capsys):
    code, _, err = run(["check", "--model", h3_file, "--world", "e_ab",
                        "--formula", "p &"], capsys=capsys)
    assert code == 2
    assert "error" in err


def test_valid(h3_file, capsys):
    code, out, _ = run(["valid", "--model", h3_file,
                        "--formula", "alive(a) | alive(b) | alive(c)"],
                       capsys=capsys)
    assert code == 0
    code, out, _ = run(["valid", "--model", h3_file, "--formula", "alive(a)"],
                       capsys=capsys)
    assert code == 1
    assert "e_bc" in out


def test_example_verdicts_regression(capsys, monkeypatch):
    # Piping `example NAME` back into check reproduces documented verdicts.
    cases = [
        ("h1", ["--world", "e_ab", "--formula", "alive(c)"], 1),
        ("h1", ["--world", "e_ab", "--formula", "alive(a) & alive(b)"], 0),
        ("h2", ["--view", "a:va", "--formula", "[](alive(b) & alive(c))"], 0),
        ("binary-input", ["--view", "a:a0", "--formula", "<> E[b] 1b"], 0),
        ("binary-input", ["--world", "solo_b1", "--formula", "solo"], 0),
    ]
    for name, rest, expected in cases:
        code, out, _ = run(["example", name], capsys=capsys)
        assert code == 0
        model_text = out
        code, _, _ = run(["check", "--model", "-", *rest],
                         stdin=model_text, monkeypatch=monkeypatch, capsys=capsys)
        assert code == expected, (name, rest)


def test_countermodel_command(capsys):
    code, out, _ = run(["countermodel", "--formula", "alive(a)"], capsys=capsys)
    assert code == 1
    assert "countermodel" in out
    assert "edge" in out
    code, out, _ = run(["countermodel", "--formula", "alive(a) | alive(b)"],
                       capsys=capsys)
    assert code == 0
    assert "valid within bounds" in out


def test_countermodel_output_reparses(capsys):
    code, out, _ = run(["countermodel", "--formula", "K[a] q -> Ksafe[a] q"],
                       capsys=capsys)
    assert code == 1
    model_text = out.split("\n", 1)[1]
    m = parser.parse_model(model_text)
    assert len(m.edges) >= 1


def test_prove(capsys):
    code, out, _ = run(["prove", "--check", str(CORPUS / "locality.deriv")],
                       capsys=capsys)
    assert code == 0
    assert "ok" in out


def test_prove_rejects(tmp_path, capsys):
    path = tmp_path / "bad.deriv"
    path.write_text("agents: a\natoms[a]: pa\n1. a: pa -> pa ; ax_fun\n")
    code, out, _ = run(["prove", "--check", str(path)], capsys=capsys)
    assert code == 1
    assert "line 1" in out


def test_prove_soundness(capsys):
    code, out, _ = run(["prove", "--check", str(CORPUS / "non_emptiness.deriv"),
                        "--soundness"], capsys=capsys)
    assert code == 0


def test_prove_soundness_reports_a_kernel_bug(monkeypatch, capsys):
    # The spot check finds a violation only if the kernel is unsound; a
    # stand-in violation reaches that report.
    monkeypatch.setattr(proofkernel, "soundness_spotcheck",
                        lambda d: proofkernel.SoundnessCounterexample(2, None, World("e1")))
    argv = ["prove", "--check", str(CORPUS / "non_emptiness.deriv"), "--soundness"]
    assert run(argv, capsys=capsys)[:2] == (1, "KERNEL BUG: line 2 fails at World(edge='e1')\n")
    code, out, _ = run(argv + ["--format", "machine"], capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"format_version": 1, "command": "prove", "verdict": "unsound",
                               "line": 2}


def test_convert_round_trip(h3_file, tmp_path, capsys):
    code, frame_text, _ = run(["convert", "--model", h3_file, "--to", "frame"],
                              capsys=capsys)
    assert code == 0
    frame_file = tmp_path / "h3.frame"
    frame_file.write_text(frame_text)
    code, model_text, _ = run(["convert", "--model", str(frame_file),
                               "--to", "hypergraph"], capsys=capsys)
    assert code == 0
    back = parser.parse_model(model_text)
    original = hk.example("h3")
    assert frames.is_isomorphic(back.hypergraph, original.hypergraph) is not None


def test_translate_kb4(capsys):
    code, out, _ = run(["translate-kb4", "--formula", "~K[a] K[b] p"], capsys=capsys)
    assert code == 0
    assert out.strip() == "~K[a] K[b] p"
    code, out, _ = run(["translate-kb4", "--formula", "K[a](p -> q)"], capsys=capsys)
    assert code == 0
    assert out.strip() == "K[a] (p -> q)"


def test_translate_kb4_atoms_named_like_agents(capsys):
    # Atoms are read off the parsed formula, so an atom may share an
    # agent's name.
    code, out, err = run(["translate-kb4", "--formula", "K[a] b"], capsys=capsys)
    assert (code, out, err) == (0, "K[a] b\n", "")
    code, out, err = run(["translate-kb4", "--formula", "K[a] a", "--agents", "a"],
                         capsys=capsys)
    assert (code, out, err) == (0, "K[a] a\n", "")


@pytest.mark.parametrize("argv", [
    ["check", "--world", "e", "--formula", "true", "--model"],
    ["convert", "--to", "hypergraph", "--model"],
    ["prove", "--check"],
])
def test_undecodable_file_is_input_error(argv, tmp_path, capsys):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff")
    code, out, err = run(argv + [str(path)], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_neighborhood_command(capsys, monkeypatch):
    code, out, _ = run(["example", "binary-input"], capsys=capsys)
    code, out, _ = run(["neighborhood", "--model", "-"],
                       stdin=out, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.startswith("states:")
    assert "N[a](solo_a0)" in out


def test_check_generalized_model(tmp_path, capsys):
    from hyperknow.neighborhood import shared_memory_example
    path = tmp_path / "shared.model"
    path.write_text(parser.render_model(shared_memory_example()))
    code, out, _ = run(["check", "--model", str(path), "--world", "01",
                        "--formula", "E[a] reads0_a & E[a] reads1_a"],
                       capsys=capsys)
    assert code == 0
    code, _, _ = run(["check", "--model", str(path), "--world", "00",
                      "--formula", "E[a] reads1_a"], capsys=capsys)
    assert code == 1
    code, _, _ = run(["check", "--model", str(path), "--view", "a:a_L0",
                      "--formula", "reads0_a"], capsys=capsys)
    assert code == 0
    code, _, _ = run(["valid", "--model", str(path),
                      "--formula", "alive(a) & alive(b)"], capsys=capsys)
    assert code == 0
    # Only functional models convert to frames.
    code, _, err = run(["convert", "--model", str(path), "--to", "frame"],
                       capsys=capsys)
    assert code == 2


def test_countermodel_has_no_atom_or_depth_flags(capsys):
    # The search sweeps the formula's own atoms and reads no depth bound.
    for flag in ("--depth", "--agent-atoms", "--env-atoms"):
        code, _, err = run(["countermodel", "--formula", "alive(a)", flag, "1"],
                           capsys=capsys)
        assert code == 2
        assert "unrecognized arguments" in err


def test_deep_nesting_is_input_error(h3_file, capsys):
    # Parsing, sort checking, desugaring, evaluation and rendering walk
    # formulas with explicit stacks, so deep nesting is ordinary input.
    code, out, err = run(["check", "--model", h3_file, "--world", "e_ab",
                          "--formula", "~" * 2000 + "true"], capsys=capsys)
    assert code == 0
    assert out == "true at world e_ab\n"
    assert err == ""
    assert "Traceback" not in out


def test_prove_deep_derivation(tmp_path, capsys):
    # The kernel numbers and compares formulas by structure; neither
    # numbering nor ``==`` recurses.
    x = "E[a] <> " * 1500 + "p"
    path = tmp_path / "deep.deriv"
    path.write_text(f"agents: a\natoms[env]: p\n1. e: ({x}) -> ({x}) ; taut\n")
    code, out, err = run(["prove", "--check", str(path)], capsys=capsys)
    assert (code, out, err) == (0, "ok (1 lines)\n", "")


@pytest.mark.parametrize("argv", [["countermodel", "--formula", "alive(a)"],
                                  ["prove", "--check", str(CORPUS / "k_axiom.deriv"),
                                   "--soundness"]], ids=["countermodel", "prove"])
def test_non_decimal_max_bounds_is_skipped(argv, monkeypatch, capsys):
    # "²" passes str.isdigit but not int(); the part is skipped as malformed.
    monkeypatch.setenv("HYPERKNOW_MAX_BOUNDS", "edges=²")
    code, out, err = run(argv, capsys=capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err


def test_translate_kb4_deep_nesting(capsys):
    # translate folds with its own memo and hashes no formula, so nesting
    # deeper than the recursion limit translates.
    code, out, err = run(["translate-kb4", "--formula", "~" * 5_000 + "p",
                          "--agents", "a"], capsys=capsys)
    assert code == 0
    assert out == "~" * 5_000 + "p\n"
    assert err == ""


def test_countermodel_sort_conflict_is_input_error(capsys):
    code, _, err = run(["countermodel", "--formula", "E[a] x & x"], capsys=capsys)
    assert code == 2
    assert "error" in err


def test_an_agent_named_world_is_input_error(tmp_path, capsys):
    # One error line, exit 2, whichever file declares the agent.
    model = tmp_path / "world.model"
    model.write_text("agents: world\nview world: v0\nedge e0 { world: v0 }\n")
    derivation = tmp_path / "world.deriv"
    derivation.write_text("agents: world\n1. e: true ; taut\n")
    for argv in (["check", "--model", str(model), "--world", "e0", "--formula", "E[world] true"],
                 ["prove", "--check", str(derivation)],
                 ["translate-kb4", "--formula", "K[world] p", "--agents", "world"]):
        code, out, err = run(argv, capsys=capsys)
        assert (code, out, err) == (
            2, "", "error: signature: agent name 'world' is reserved for the world sort\n")


def test_machine_format(h3_file, capsys):
    code, out, _ = run(["check", "--model", h3_file, "--world", "e_ab",
                        "--formula", "alive(a)", "--format", "machine"],
                       capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["verdict"] is True

    code, out, _ = run(["countermodel", "--formula", "alive(a)",
                        "--format", "machine"], capsys=capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["verdict"] == "countermodel"


def test_unknown_subcommand(capsys):
    code, _, _ = run(["frobnicate"], capsys=capsys)
    assert code == 2


_H3_TEXT = parser.render_model(hk.example("h3"))
_CALLS = [
    (["check", "--model", "-", "--world", "e_ab", "--formula", "alive(a)"], _H3_TEXT),
    (["check", "--model", "-", "--world", "e_ab", "--formula", "alive(c)",
      "--format", "machine"], _H3_TEXT),
    (["check", "--model", "-", "--formula", "true"], _H3_TEXT),
    (["check", "--world", "e_ab"], ""),
    (["--help"], ""),
    (["valid", "--help"], ""),
    (["valid", "--model", "-", "--formula", "alive(a)"], _H3_TEXT),
    (["frobnicate"], ""),
    (["countermodel", "--formula", "alive(a)", "--edges", "x"], ""),
    (["example", "h2", "--format", "machine"], ""),
    (["translate-kb4", "--formula", "K[a] p -> p"], ""),
]


def test_one_argument_parser_serves_every_call(capsys, monkeypatch):
    # The parser is built once per process; a run must leave nothing in it
    # that a later run could see, whatever the order of the runs.
    alone = []
    for argv, stdin in _CALLS:
        cli.build_arg_parser.cache_clear()
        alone.append(run(argv, stdin, monkeypatch, capsys))
    cli.build_arg_parser.cache_clear()
    together = [run(argv, stdin, monkeypatch, capsys) for argv, stdin in _CALLS + _CALLS[::-1]]
    assert together == alone + alone[::-1]
    assert cli.build_arg_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [0, 1, 2, 2, 0, 0, 1, 2, 2, 0, 0]
    assert alone[0][1] == "true at world e_ab\n"
    assert json.loads(alone[1][1])["verdict"] is False
    assert alone[2][2].startswith("error: one of --world or --view is required")
    assert "the following arguments are required: --model" in alone[3][2]
    assert alone[4][1].startswith("usage: hyperknow") and "translate-kb4" in alone[4][1]
    assert alone[5][1].startswith("usage: hyperknow valid")
    assert "invalid int value: 'x'" in alone[8][2]


def test_undeclared_atoms_are_reported_in_file_order(tmp_path):
    # The error lists undeclared atoms as the file gives them, so stderr is
    # the same under every hash seed.
    path = tmp_path / "undeclared.model"
    path.write_text("agents: a\natoms[a]: p\nview a: v1 { zz, p, bb }\n"
                    "edge e1 { a: v1 } env { r, q }\n")
    src = str(CORPUS.parent / "src")
    errs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "hyperknow.cli", "check", "--model", str(path),
             "--world", "e1", "--formula", "true"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert errs[0] == (
        "error: valuation: atom 'zz' is not declared for agent a; "
        "valuation: atom 'bb' is not declared for agent a; "
        "valuation: atom 'r' is not a declared environment atom; "
        "valuation: atom 'q' is not a declared environment atom\n")
