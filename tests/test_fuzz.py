"""Random input never produces a traceback: file parsers and formula
parsers raise only HyperknowError, and the CLI exits 0, 1 or 2."""

from __future__ import annotations

import contextlib
import io
import sys

from hypothesis import given, settings, strategies as st

import hyperknow as hk
from hyperknow import cli, parser
from hyperknow.errors import HyperknowError

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

# Words of every file format and of the formula syntax, a few names, and
# characters the tokenizer rejects.
_WORDS = (
    "agents", "atoms", "env", "mode", "generalized", "view", "edge", "worlds", "class",
    "a", "b", "zz", "e", "e1", "e2", "a1", "a2", "b1", "w1", "w2", "p", "q", "pa", "pb",
    "0", "1", "2", "true", "false", "alive", "E", "A", "K", "Ksafe", "taut", "mp",
    "nec_a", "nec_e", "rm_diam", "rm_some", "adj1_down", "adj2_up", "ax_surj", "ax_ne",
    ":", ",", "{", "}", "[", "]", "(", ")", ";", ".", "~", "&", "|", "->", "<>", "[]",
    "?", '"a b"', "#", "@", '"',
)
_tokens = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)


def _soup(headers, lines):
    """A header, or none, then mostly well-formed lines of one format, some
    of them clashing, and every so often a line of random tokens."""
    line = st.one_of(st.sampled_from(lines), st.sampled_from(lines), _tokens)
    return st.tuples(st.sampled_from(headers + ("",)),
                     st.lists(line, max_size=8).map("\n".join)).map("".join)


_MODEL_HEADER = "agents: a, b\natoms[a]: pa\natoms[b]: pb\natoms[env]: p, q\n"
_MODELS = _soup((_MODEL_HEADER, _MODEL_HEADER + "view a: a1 { pa }\nview b: b1\n"
                 "edge e1 { a: a1, b: b1 } env { p }\n"), (
    "agents: a", "atoms[a]: pa", "atoms[b]: pb", "atoms[env]: p, q", "atoms[zz]: s",
    "mode: generalized", "view a: a1 { pa }", "view a: a2", "view b: b1 { pb }",
    "view zz: z1", "edge e1 { a: a1, b: b1 } env { p }", "edge e2 { a: a2 }",
    "edge e3 { a: a1, a: a2 }", "edge e4 { b: b1 } env { q }", "edge e5 { a: a9 }"))
_FRAMES = _soup(("agents: a, b\nworlds: w1, w2\nclass a: w1, w2\n",), (
    "worlds: w1, w2", "worlds: w1", "class a: w1, w2", "class a: w1", "class b: w2",
    "class b: w1, w2", "class zz: w1", "env p: w1", "env q:", "env p: w3"))
_DERIVATIONS = _soup(("agents: a, b\natoms[a]: pa\natoms[env]: p\n",), (
    "atoms[a]: pa", "atoms[env]: p", "atoms[zz]: s", "agents: e",
    "1. e: p -> p ; taut", "1. a: pa -> pa ; taut", "2. a: [] (p -> p) ; nec_a 1",
    "2. e: A[a] (pa -> pa) ; nec_e 1", "3. e: E[a] [] p -> E[a] [] p ; taut",
    "1. e: alive(a) | alive(b) ; ax_ne", "2. e: p ; mp 1 1", "1. q: p ; taut"))
_formulas = st.one_of(_tokens, st.sampled_from((
    "p", "E[a] pa", "K[a] p -> Ksafe[b] q", "A[b] <> p & ~[] q", "alive(a) | ~alive(b)",
    "K[a] K[b] p", "~(p & q)", "E[a] ?x", "pa", "[] p | <> ~p", "K[b] pb")))

_SIG = hk.Signature(("a", "b"), {"a": ("pa",), "b": ("pb",)}, ("p", "q"))


@FUZZ
@given(_MODELS, _FRAMES, _DERIVATIONS)
def test_file_parsers_raise_only_hyperknow_errors(model, frame, derivation):
    for read, text in ((parser.parse_model, model), (parser.parse_frame, frame),
                       (parser.parse_derivation, derivation)):
        try:
            read(text)
        except HyperknowError:
            pass


@FUZZ
@given(_formulas)
def test_formula_parsers_raise_only_hyperknow_errors(text):
    for read in (lambda: parser.parse_world(text, _SIG),
                 lambda: parser.parse_world(text, _SIG, allow_metas=True),
                 lambda: parser.parse_agent(text, "a", _SIG),
                 lambda: parser.parse_kb4(text, _SIG),
                 lambda: parser.parse_world_inferring(text, ("a", "b"))):
        try:
            read()
        except HyperknowError:
            pass


def _run(argv, stdin_text):
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue() + err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_MODELS, _FRAMES, _DERIVATIONS, _formulas)
def test_cli_exits_0_1_or_2_without_traceback(model, frame, derivation, formula):
    for argv, text in ((["valid", "--model", "-", "--formula", formula], model),
                       (["check", "--model", "-", "--world", "e1", "--formula", formula], model),
                       (["check", "--model", "-", "--view", "a:a1", "--formula", formula], model),
                       (["convert", "--model", "-", "--to", "frame"], model),
                       (["convert", "--model", "-", "--to", "hypergraph"], frame),
                       (["prove", "--check", "-", "--soundness"], derivation)):
        code, output = _run(argv, text)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in output
