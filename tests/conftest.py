"""Shared fixtures: example models, random formula generators, and the
independent oracles used to cross-check the implementation, and the
random file text that the fuzz and differential tests share."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hyperknow as hk
from hyperknow.core import build_hypergraph
from hyperknow.errors import ValidationError
from hyperknow.syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AImplies,
    AllViews,
    ANot,
    AOr,
    ATrue,
    Box,
    EnvAtom,
    PossWorld,
    SomeView,
    WAnd,
    WFalse,
    WImplies,
    WNot,
    WOr,
    WTrue,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def h1():
    return hk.example("h1")


@pytest.fixture(scope="session")
def h2():
    return hk.example("h2")


@pytest.fixture(scope="session")
def h3():
    return hk.example("h3")


@pytest.fixture(scope="session")
def binary_input():
    return hk.example("binary-input")


RICH_SIG = hk.Signature(("a", "b"), {"a": ("pa", "qa"), "b": ("pb",)}, ("u", "v"))


# --- random core formulas (seeded, deterministic) ---------------------------------


def random_world(rng, sig, depth):
    if depth == 0 or rng.random() < 0.25:
        leaves = [WTrue(), WFalse()] + [EnvAtom(n) for n in sig.env_atoms]
        return rng.choice(leaves)
    k = rng.randrange(3)
    if k == 0:
        return WNot(random_world(rng, sig, depth - 1))
    if k == 1:
        return WAnd(random_world(rng, sig, depth - 1), random_world(rng, sig, depth - 1))
    agent = rng.choice(sig.agents)
    return SomeView(agent, random_agent(rng, sig, agent, depth - 1))


def random_agent(rng, sig, agent, depth):
    if depth == 0 or rng.random() < 0.25:
        leaves = [ATrue(), AFalse()] + [AgentAtom(n) for n in sig.atoms_for(agent)]
        return rng.choice(leaves)
    k = rng.randrange(3)
    if k == 0:
        return ANot(random_agent(rng, sig, agent, depth - 1))
    if k == 1:
        return AAnd(random_agent(rng, sig, agent, depth - 1),
                    random_agent(rng, sig, agent, depth - 1))
    return PossWorld(random_world(rng, sig, depth - 1))


# --- random surface formulas: the core and every derived connective ---------------


def random_surface_world(rng, sig, depth):
    """A world formula as the parser gives it: ``|``, ``->`` and ``A[a]``
    next to the core, and ``[]`` below a view (so ``K[a]`` and ``Ksafe[a]``
    too)."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([WTrue(), WFalse()] + [EnvAtom(n) for n in sig.env_atoms])
    k = rng.randrange(6)
    if k == 0:
        return WNot(random_surface_world(rng, sig, depth - 1))
    if k < 4:
        return (WAnd, WOr, WImplies)[k - 1](random_surface_world(rng, sig, depth - 1),
                                            random_surface_world(rng, sig, depth - 1))
    agent = rng.choice(sig.agents)
    return (SomeView, AllViews)[k - 4](agent, random_surface_agent(rng, sig, agent, depth - 1))


def random_surface_agent(rng, sig, agent, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([ATrue(), AFalse()] + [AgentAtom(n) for n in sig.atoms_for(agent)])
    k = rng.randrange(6)
    if k == 0:
        return ANot(random_surface_agent(rng, sig, agent, depth - 1))
    if k < 4:
        return (AAnd, AOr, AImplies)[k - 1](random_surface_agent(rng, sig, agent, depth - 1),
                                            random_surface_agent(rng, sig, agent, depth - 1))
    return (PossWorld, Box)[k - 4](random_surface_world(rng, sig, depth - 1))


# --- independent oracles ------------------------------------------------------------


def taut_oracle(formula) -> bool:
    """Second truth-table implementation, written against the raw tree:
    substitutes truth values for non-propositional leaves and evaluates."""
    variables = []

    def collect(g):
        if isinstance(g, (WTrue, WFalse, ATrue, AFalse)):
            return
        if isinstance(g, (WNot, ANot)):
            collect(g.sub)
            return
        if isinstance(g, (WAnd, AAnd)):
            collect(g.left)
            collect(g.right)
            return
        if g not in variables:
            variables.append(g)

    def evaluate(g, assignment):
        if isinstance(g, (WTrue, ATrue)):
            return True
        if isinstance(g, (WFalse, AFalse)):
            return False
        if isinstance(g, (WNot, ANot)):
            return not evaluate(g.sub, assignment)
        if isinstance(g, (WAnd, AAnd)):
            return evaluate(g.left, assignment) and evaluate(g.right, assignment)
        return assignment[g]

    collect(formula)
    for values in itertools.product((False, True), repeat=len(variables)):
        if not evaluate(formula, dict(zip(variables, values))):
            return False
    return True


def naive_hypergraph_count(agents, max_views, max_edges) -> int:
    """Generate-and-filter enumeration: every raw projection table, validity
    decided by the builder alone."""
    count = 0
    for view_counts in itertools.product(range(max_views + 1), repeat=len(agents)):
        views = {a: tuple(f"{a}{i + 1}" for i in range(c))
                 for a, c in zip(agents, view_counts)}
        rows = list(itertools.product(*[(None, *views[a]) for a in agents]))
        for k in range(1, max_edges + 1):
            for seq in itertools.product(rows, repeat=k):
                edges = tuple(f"e{i + 1}" for i in range(k))
                proj = {
                    (e, a): v
                    for e, row in zip(edges, seq)
                    for a, v in zip(agents, row)
                    if v is not None
                }
                try:
                    build_hypergraph(hk.Signature(agents), views, edges, proj)
                except ValidationError:
                    continue
                count += 1
    return count


def small_model_pool(max_views=2, max_edges=2):
    """A handful of validated two-agent models with one atom per sort,
    covering dead agents and parallel edges."""
    sig = hk.Signature(("a", "b"), {"a": ("pa",), "b": ("pb",)}, ("u",))
    bounds = hk.Bounds(agents=2, views=max_views, edges=max_edges,
                       agent_atoms=1, env_atoms=1)
    models = []
    for h in hk.enumerate_hypergraphs(bounds, sig):
        # Two valuation patterns per structure keep the pool small but varied.
        empty_agent = {a: {atom: frozenset() for atom in sig.atoms_for(a)}
                       for a in sig.agents}
        empty_env = {atom: frozenset() for atom in sig.env_atoms}
        models.append(hk.ChromaticHypergraphModel(
            hypergraph=h, val_agent=empty_agent, val_env=empty_env))
        val_agent = {a: {atom: frozenset(h.views.get(a, ())[:1])
                         for atom in sig.atoms_for(a)}
                     for a in sig.agents}
        val_env = {atom: frozenset(h.edges[:1]) for atom in sig.env_atoms}
        models.append(hk.ChromaticHypergraphModel(
            hypergraph=h, val_agent=val_agent, val_env=val_env))
    return models


# --- random file text (hypothesis strategies) -------------------------------------

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
WORD_SOUP = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)


def soup(headers, lines):
    """A header, or none, then mostly well-formed lines of one format, some
    of them clashing, and every so often a line of random words."""
    line = st.one_of(st.sampled_from(lines), st.sampled_from(lines), WORD_SOUP)
    return st.tuples(st.sampled_from(headers + ("",)),
                     st.lists(line, max_size=8).map("\n".join)).map("".join)


_MODEL_HEADER = "agents: a, b\natoms[a]: pa\natoms[b]: pb\natoms[env]: p, q\n"
MODEL_HEADERS = (_MODEL_HEADER, _MODEL_HEADER + "view a: a1 { pa }\nview b: b1\n"
                 "edge e1 { a: a1, b: b1 } env { p }\n")
MODEL_LINES = (
    "agents: a", "atoms[a]: pa", "atoms[b]: pb", "atoms[env]: p, q", "atoms[zz]: s",
    "mode: generalized", "view a: a1 { pa }", "view a: a2", "view b: b1 { pb }",
    "view zz: z1", "edge e1 { a: a1, b: b1 } env { p }", "edge e2 { a: a2 }",
    "edge e3 { a: a1, a: a2 }", "edge e4 { b: b1 } env { q }", "edge e5 { a: a9 }",
    # Lines a word, a mark or a character away from a declaration.
    "view a a2", "view a: a2 pa", "view a: a2 { pa", "view a: a2 { }", "view a: { pa }",
    "edge e6 { a a1 }", "edge e6 a: a1 }", "edge e6 { a: a1, }", "edge e6 { a: a1 } env p",
    "edge e6 { a: a1 } { p }", "edge { a: a1 }", "edge e-6 { a: a1 }", "atoms[a] pa",
    "atoms a: pa", "atoms[]: p", "agents a", "agents: a,", "mode generalized", "mode: other",
    "atoms[env]: p q", "view\ta:\ta2\r")
MODEL_SOUP = soup(MODEL_HEADERS, MODEL_LINES)

FRAME_HEADERS = ("agents: a, b\nworlds: w1, w2\nclass a: w1, w2\n",)
FRAME_LINES = (
    "worlds: w1, w2", "worlds: w1", "class a: w1, w2", "class a: w1", "class b: w2",
    "class b: w1, w2", "class zz: w1", "env p: w1", "env q:", "env p: w3")
FRAME_SOUP = soup(FRAME_HEADERS, FRAME_LINES)
