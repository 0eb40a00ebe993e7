"""Satisfaction for world and agent formulas over chromatic hypergraph models.

World formulas are evaluated at a hyperedge, agent formulas at a view of the
owning agent; the two recursions call each other through the modal
constructors.  The view quantifiers ``E[a]``/``A[a]`` range over every view
the agent holds in the world, so one evaluator serves ordinary and
generalized hypergraphs alike.  Evaluation is total: there is no third truth
value anywhere, including at worlds where an agent is absent.

Evaluation is a pure function of (model, point, formula).  Each query uses a
private memo table keyed by (subformula identity, point), so shared
subformula objects are evaluated once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import ChromaticHypergraphModel
from .errors import SortError, UnknownPointError
from .syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AgentFormula,
    AImplies,
    AllViews,
    AMeta,
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
    WMeta,
    WNot,
    WorldFormula,
    WOr,
    WTrue,
)


@dataclass(frozen=True)
class World:
    """Evaluation point for world formulas."""

    edge: str


@dataclass(frozen=True)
class View:
    """Evaluation point for agent formulas of the given agent."""

    agent: str
    view: str


EvalPoint = Union[World, View]


class Evaluator:
    """Reusable evaluator with a shared memo table.

    Safe for repeated queries against one model; results are independent of
    query order.
    """

    def __init__(self, model: ChromaticHypergraphModel):
        self.model = model
        self._memo = {}

    def sat_world(self, edge: str, f: WorldFormula) -> bool:
        m = self.model
        if edge not in m.hypergraph._edge_set:
            raise UnknownPointError(f"unknown edge '{edge}'")
        # The memo stores the node alongside the verdict: keeping it alive is
        # what makes the id-based key sound across queries.
        key = (id(f), edge)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        match f:
            case WTrue():
                out = True
            case WFalse():
                out = False
            case EnvAtom(name):
                try:
                    out = edge in m.val_env[name]
                except KeyError:
                    raise SortError(f"atom '{name}' is not an environment atom of this model",
                                    node=f) from None
            case WNot(sub):
                out = not self.sat_world(edge, sub)
            case WAnd(l, r):
                out = self.sat_world(edge, l) and self.sat_world(edge, r)
            case WOr(l, r):
                out = self.sat_world(edge, l) or self.sat_world(edge, r)
            case WImplies(l, r):
                out = (not self.sat_world(edge, l)) or self.sat_world(edge, r)
            case SomeView(agent, sub):
                out = any(self.sat_agent(agent, v, sub)
                          for v in m.hypergraph.views_in(edge, agent))
            case AllViews(agent, sub):
                out = all(self.sat_agent(agent, v, sub)
                          for v in m.hypergraph.views_in(edge, agent))
            case WMeta(name):
                raise SortError(f"cannot evaluate metavariable '?{name}'", node=f)
            case _:
                raise SortError(f"not a world formula: {f!r}", node=f)
        memo[key] = (out, f)
        return out

    def sat_agent(self, agent: str, view: str, f: AgentFormula) -> bool:
        m = self.model
        if view not in m.hypergraph._view_sets.get(agent, frozenset()):
            raise UnknownPointError(f"unknown view '{view}' of agent '{agent}'")
        key = (id(f), agent, view)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        match f:
            case ATrue():
                out = True
            case AFalse():
                out = False
            case AgentAtom(name):
                try:
                    out = view in m.val_agent[agent][name]
                except KeyError:
                    raise SortError(
                        f"atom '{name}' is not an atom of agent {agent} in this model",
                        node=f) from None
            case ANot(sub):
                out = not self.sat_agent(agent, view, sub)
            case AAnd(l, r):
                out = self.sat_agent(agent, view, l) and self.sat_agent(agent, view, r)
            case AOr(l, r):
                out = self.sat_agent(agent, view, l) or self.sat_agent(agent, view, r)
            case AImplies(l, r):
                out = (not self.sat_agent(agent, view, l)) or self.sat_agent(agent, view, r)
            case PossWorld(sub):
                out = any(self.sat_world(e, sub)
                          for e in m.hypergraph.worlds_of_view(agent, view))
            case Box(sub):
                out = all(self.sat_world(e, sub)
                          for e in m.hypergraph.worlds_of_view(agent, view))
            case AMeta(name):
                raise SortError(f"cannot evaluate metavariable '?{name}'", node=f)
            case _:
                raise SortError(f"not an agent formula: {f!r}", node=f)
        memo[key] = (out, f)
        return out

    def sat(self, point: EvalPoint, f) -> bool:
        if isinstance(point, World):
            return self.sat_world(point.edge, f)
        if isinstance(point, View):
            return self.sat_agent(point.agent, point.view, f)
        raise TypeError(f"not an evaluation point: {point!r}")


def sat_world(m: ChromaticHypergraphModel, edge: str, f: WorldFormula) -> bool:
    return Evaluator(m).sat_world(edge, f)


def sat_agent(m: ChromaticHypergraphModel, agent: str, view: str, f: AgentFormula) -> bool:
    return Evaluator(m).sat_agent(agent, view, f)


def extension_world(m: ChromaticHypergraphModel, f: WorldFormula) -> frozenset:
    """Exactly the worlds satisfying the formula."""
    ev = Evaluator(m)
    return frozenset(e for e in m.edges if ev.sat_world(e, f))


def extension_agent(m: ChromaticHypergraphModel, agent: str, f: AgentFormula) -> frozenset:
    """Exactly the views of the agent satisfying the formula."""
    ev = Evaluator(m)
    return frozenset(v for v in m.views_of(agent) if ev.sat_agent(agent, v, f))


def valid_in_model(m: ChromaticHypergraphModel, f: WorldFormula) -> bool:
    """True iff the formula holds at every world of the model."""
    ev = Evaluator(m)
    return all(ev.sat_world(e, f) for e in m.edges)
