import io
import json

import pytest

import hyperknow as hk
from hyperknow import cli, frames, parser

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
    code, out, err = run(["check", "--model", h3_file, "--world", "e_ab",
                          "--formula", "~" * 2000 + "true"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_countermodel_sort_conflict_is_input_error(capsys):
    code, _, err = run(["countermodel", "--formula", "E[a] x & x"], capsys=capsys)
    assert code == 2
    assert "error" in err


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
