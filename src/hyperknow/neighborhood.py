"""Generalized chromatic hypergraphs and their neighborhood-frame export.

Dropping the one-view-per-agent-per-world requirement turns the projection
into a relation: an agent may hold several views of the same world.  The
structure, its checks, its model type and the shared-memory example live in
:mod:`hyperknow.core`, and
:class:`hyperknow.semantics.Evaluator` evaluates both kinds: its view
quantifiers range over every view the agent holds in the world.  Exporting
such a structure by swapping the roles of views and worlds yields a
neighborhood frame in which every state belongs to each of its own
neighborhoods.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Tuple

from .core import (  # noqa: F401  (re-exported)
    ChromaticHypergraphModel,
    GeneralizedChromaticHypergraph,
    GeneralizedChromaticHypergraphModel,
    build_generalized,
    build_generalized_model,
    shared_memory_example,
)
from .record import Record
from .semantics import EvalPoint, Evaluator


def from_functional(m: ChromaticHypergraphModel) -> ChromaticHypergraphModel:
    """Embed an ordinary model as a generalized one (singleton incidences)."""
    h = m.hypergraph
    incidence = {(e, a): (v,) for (e, a), v in h.proj.items()}
    return build_generalized_model(
        h.sig, h.views, h.edges, incidence, m.val_agent, m.val_env)


class NeighborhoodFrame(Record):
    """States with, per agent, a family of neighborhoods per state.

    Frames produced by :func:`to_neighborhood` satisfy the membership
    property: a state belongs to each of its own neighborhoods.
    """

    states: Tuple[str, ...]
    neighborhoods: Mapping[str, Mapping[str, FrozenSet[FrozenSet[str]]]]

    def n(self, agent: str, state: str) -> FrozenSet[FrozenSet[str]]:
        return self.neighborhoods[agent][state]


def to_neighborhood(g) -> NeighborhoodFrame:
    """Swap the roles of views and worlds, on a hypergraph of either kind.

    States are the hyperedges; each view an agent holds in a state
    contributes that view's fiber as one neighborhood of the state.
    """
    fibers = {
        (a, v): frozenset(g.worlds_of_view(a, v))
        for a in g.sig.agents
        for v in g.views.get(a, ())
    }
    neighborhoods = {}
    for a in g.sig.agents:
        per_state = {}
        for e in g.edges:
            per_state[e] = frozenset(fibers[(a, v)] for v in g.views_in(e, a))
        neighborhoods[a] = per_state
    return NeighborhoodFrame(states=g.edges, neighborhoods=neighborhoods)


# One evaluator serves both kinds of hypergraph.  This is the same class, not
# a subclass, so wrapping a method of either name wraps both.
GeneralizedEvaluator = Evaluator


def sat_generalized(m: ChromaticHypergraphModel, point: EvalPoint, f) -> bool:
    return Evaluator(m).sat(point, f)
