"""No formula traversal may recurse: 1,000-deep formulas go through every
layer with only 100 stack frames to spare, the sweep compiler's reading of
undesugared ``K[a]`` and ``->`` included."""

from __future__ import annotations

import sys

import pytest

import hyperknow as hk
from hyperknow import parser, search
from hyperknow.errors import DerivationCheckError
from hyperknow.kb4 import KB4Evaluator
from hyperknow.proofkernel import check_derivation
from hyperknow.semantics import Evaluator
from hyperknow.syntax import (
    EnvAtom,
    atoms_of,
    desugar,
    modal_depth,
    sort_check_agent,
    sort_check_kb4,
    sort_check_world,
    substitute_metas,
)

DEPTH = 1000


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _through_every_layer(k):
    """Verdicts on k nested '~' and on k nested modal pairs, checking the
    syntax layers and the proof kernel on the way."""
    h = hk.example("h1").hypergraph
    sig = hk.Signature(h.sig.agents, {"a": ("pa",)}, ("p",))
    m = hk.build_model(sig, h.views, h.edges, h.proj, {"a": {"pa": {h.views["a"][0]}}})
    frame = hk.parse_frame(
        "agents: a, b\nworlds: w1, w2\nclass a: w1\nclass b: w1, w2\nenv p: w1\n")
    kb4_sig = hk.Signature(("a", "b"), {}, ("p",))
    verdicts = []
    for world_text, agent_text, kb4_text, depth, nodes in (
            ("~" * k + "true", "~" * k + "pa", "~" * k + "p", 0, k + 1),
            ("E[a] <> " * k + "true", "<> E[a] " * k + "true", "K[a] " * k + "p",
             2 * k, 2 * k + 1)):
        world = parser.parse_world(world_text, sig)
        agent = parser.parse_agent(agent_text, "a", sig)
        kb4 = parser.parse_kb4(kb4_text, kb4_sig)
        sort_check_world(world, sig)
        sort_check_agent(agent, "a", sig)
        sort_check_kb4(kb4, kb4_sig)
        assert modal_depth(desugar(world)) == depth
        assert atoms_of(kb4) == {"p"}
        scheme = parser.parse_world(world_text.replace("true", "?x"), sig, allow_metas=True)
        assert atoms_of(substitute_metas(scheme, {"x": EnvAtom("p")})) == {"p"}
        assert parser.render(world) == world_text.strip()
        assert parser.render(kb4) == kb4_text
        program, _ = search.compile_program(world, "world")
        assert len(program) == nodes
        ev = Evaluator(m)
        verdicts += [ev.sat_world(e, world) for e in m.edges]
        verdicts += [ev.sat_agent("a", v, agent) for v in m.views_of("a")]
        verdicts += [KB4Evaluator(frame).sat(w, kb4) for w in frame.worlds]
        x = f"({world_text}) -> ({world_text})"
        # The sweep compiler reads the derived connectives as parsed.
        for text in (kb4_text, x):
            raw = parser._parse(text, "world")
            assert search.compile_program(raw, "world") == \
                search.compile_program(desugar(raw), "world")
        derivation = f"agents: a\n1. e: {x} ; taut\n2. e: ({x}) -> ({x}) ; taut\n"
        check_derivation(parser.parse_derivation(derivation + f"3. e: {x} ; mp 2 1\n"))
        with pytest.raises(DerivationCheckError):
            check_derivation(parser.parse_derivation(derivation + f"3. e: {world_text} ; mp 2 1\n"))
    return verdicts


def test_deep_formulas_need_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        deep = _through_every_layer(DEPTH)
    finally:
        sys.setrecursionlimit(limit)
    # An even number of '~' cancels, and a chain of modal pairs says no more
    # than two of them.
    assert deep == _through_every_layer(2)


def test_deep_formulas_compare_and_hash_without_recursion():
    # ``==`` walks both formulas on an explicit stack and ``hash`` is
    # computed bottom-up, so two separately parsed 100,000-deep formulas
    # compare and hash with only 100 stack frames to spare.
    sig = hk.Signature(("a",), {"a": ("pa",)}, ("p", "q"))
    text = "E[a] <> " * 50_000 + "p"
    f, g = parser.parse_world(text, sig), parser.parse_world(text, sig)
    other = parser.parse_world(text[:-1] + "q", sig)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        assert f is not g and f == g
        assert hash(f) == hash(g)
        assert f != other
        assert hash(f) != hash(other)
    finally:
        sys.setrecursionlimit(limit)
