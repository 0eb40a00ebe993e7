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

from conftest import FRAME_SOUP, MODEL_SOUP, WORD_SOUP, soup

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

_DERIVATIONS = soup(("agents: a, b\natoms[a]: pa\natoms[env]: p\n",), (
    "atoms[a]: pa", "atoms[env]: p", "atoms[zz]: s", "agents: e",
    "1. e: p -> p ; taut", "1. a: pa -> pa ; taut", "2. a: [] (p -> p) ; nec_a 1",
    "2. e: A[a] (pa -> pa) ; nec_e 1", "3. e: E[a] [] p -> E[a] [] p ; taut",
    "1. e: alive(a) | alive(b) ; ax_ne", "2. e: p ; mp 1 1", "1. q: p ; taut"))
_formulas = st.one_of(WORD_SOUP, st.sampled_from((
    "p", "E[a] pa", "K[a] p -> Ksafe[b] q", "A[b] <> p & ~[] q", "alive(a) | ~alive(b)",
    "K[a] K[b] p", "~(p & q)", "E[a] ?x", "pa", "[] p | <> ~p", "K[b] pb")))

_SIG = hk.Signature(("a", "b"), {"a": ("pa",), "b": ("pb",)}, ("p", "q"))


@FUZZ
@given(MODEL_SOUP, FRAME_SOUP, _DERIVATIONS)
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
@given(MODEL_SOUP, FRAME_SOUP, _DERIVATIONS, _formulas)
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
