"""Satisfaction for world and agent formulas over chromatic hypergraph models.

World formulas are evaluated at a hyperedge, agent formulas at a view of the
owning agent.  The view quantifiers ``E[a]``/``A[a]`` range over every view
the agent holds in the world, so one evaluator serves ordinary and
generalized hypergraphs alike.  Evaluation is total: there is no third truth
value anywhere, including at worlds where an agent is absent.

Evaluation is a pure function of (model, point, formula).  The evaluator
computes the extension of a formula, the frozenset of points of its sort
that satisfy it, as a ``syntax.fold`` over the formula: each clause in the
module-level tables maps a node and the extensions of its children to the
node's extension.  An ``Evaluator`` keeps the extensions in a memo keyed by
(subformula identity, sort), so a query at any further point of the same
formula, or of a formula sharing subformula objects, is a set lookup.
"""

from __future__ import annotations

from typing import Union

from .core import ChromaticHypergraphModel
from .errors import SortError, UnknownPointError
from .record import Record
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
    fold,
)


_set = object.__setattr__     # the points are built by the thousand


class World(Record):
    """Evaluation point for world formulas."""

    edge: str

    def __init__(self, edge):
        _set(self, "edge", edge)


class View(Record):
    """Evaluation point for agent formulas of the given agent."""

    agent: str
    view: str

    def __init__(self, agent, view):
        _set(self, "agent", agent)
        _set(self, "view", view)


EvalPoint = Union[World, View]


class Evaluator:
    """Reusable evaluator with a shared memo of extensions.

    Safe for repeated queries against one model; results are independent of
    query order.
    """

    def __init__(self, model: ChromaticHypergraphModel):
        self.model = model
        h = model.hypergraph
        self._edges, self._views, self._fibers = h._edge_set, h._view_sets, h._fibers
        self._memo = {}

    def sat_world(self, edge: str, f: WorldFormula) -> bool:
        if edge not in self._edges:
            raise UnknownPointError(f"unknown edge '{edge}'")
        return edge in fold(f, "world", self._clause, self._memo)

    def sat_agent(self, agent: str, view: str, f: AgentFormula) -> bool:
        if view not in self._views.get(agent, ()):
            raise UnknownPointError(f"unknown view '{view}' of agent '{agent}'")
        return view in fold(f, agent, self._clause, self._memo)

    def sat(self, point: EvalPoint, f) -> bool:
        if isinstance(point, World):
            return self.sat_world(point.edge, f)
        if isinstance(point, View):
            return self.sat_agent(point.agent, point.view, f)
        raise TypeError(f"not an evaluation point: {point!r}")

    def _clause(self, f, sort, subs) -> frozenset:
        clause = (_WORLD_CLAUSES if sort == "world" else _AGENT_CLAUSES).get(type(f))
        if clause is None:
            kind = "a world" if sort == "world" else "an agent"
            raise SortError(f"not {kind} formula: {f!r}", node=f)
        return clause(self, f, sort, subs)


_NOTHING = frozenset()


def _valuation(table, f, what):
    try:
        return frozenset(table[f.name])
    except KeyError:
        raise SortError(f"atom '{f.name}' is not {what}", node=f) from None


def _meta(ev, f, s, x):
    raise SortError(f"cannot evaluate metavariable '?{f.name}'", node=f)


def _some_view(ev, f, s, x):
    """The worlds where the agent holds some view in the extension."""
    return frozenset(e for v in x[0] for e in ev._fibers.get((f.agent, v), ()))


# A clause takes the evaluator, the node, its sort and the extensions of its
# children (frozensets of points of their sorts), and gives the node's.
_WORLD_CLAUSES = {
    WTrue: lambda ev, f, s, x: ev._edges,
    WFalse: lambda ev, f, s, x: _NOTHING,
    EnvAtom: lambda ev, f, s, x: _valuation(
        ev.model.val_env, f, "an environment atom of this model"),
    WMeta: _meta,
    WNot: lambda ev, f, s, x: ev._edges - x[0],
    WAnd: lambda ev, f, s, x: x[0] & x[1],
    WOr: lambda ev, f, s, x: x[0] | x[1],
    WImplies: lambda ev, f, s, x: (ev._edges - x[0]) | x[1],
    SomeView: _some_view,
    AllViews: lambda ev, f, s, x: ev._edges - _some_view(
        ev, f, s, (ev._views.get(f.agent, _NOTHING) - x[0],)),
}
_AGENT_CLAUSES = {
    ATrue: lambda ev, f, s, x: ev._views.get(s, _NOTHING),
    AFalse: lambda ev, f, s, x: _NOTHING,
    AgentAtom: lambda ev, f, s, x: _valuation(
        ev.model.val_agent.get(s, {}), f, f"an atom of agent {s} in this model"),
    AMeta: _meta,
    ANot: lambda ev, f, s, x: ev._views.get(s, _NOTHING) - x[0],
    AAnd: lambda ev, f, s, x: x[0] & x[1],
    AOr: lambda ev, f, s, x: x[0] | x[1],
    AImplies: lambda ev, f, s, x: (ev._views.get(s, _NOTHING) - x[0]) | x[1],
    # The views some (every) world of which is in the extension.
    PossWorld: lambda ev, f, s, x: frozenset(
        v for v in ev._views.get(s, _NOTHING) if not x[0].isdisjoint(ev._fibers[(s, v)])),
    Box: lambda ev, f, s, x: frozenset(
        v for v in ev._views.get(s, _NOTHING) if x[0].issuperset(ev._fibers[(s, v)])),
}


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
