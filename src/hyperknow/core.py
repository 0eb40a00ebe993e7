"""Chromatic hypergraph structures, models, and the built-in examples.

A chromatic hypergraph assigns to each agent a set of local *views* and to
the whole system a set of *worlds* (hyperedges); a partial projection says
which view, if any, an agent holds in each world.  An agent with no view in
a world is *dead* (absent) there.  In a *generalized* chromatic hypergraph
the projection is a relation: an agent may hold several views of one world.
Both kinds share one model type and one set of checks.

All structures here are immutable after construction and safe to share
across threads; the builders validate every defining condition and report
the full list of violations at once.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from .errors import UnknownPointError, ValidationError
from .record import Record, replace

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _is_token(s) -> bool:
    return isinstance(s, str) and bool(_TOKEN_RE.match(s))


# The records built once per query or per witness store their fields
# directly, in constructors written out here.
_set = object.__setattr__


class Signature(Record):
    """Agents and atom alphabets.

    Declaration order is the canonical iteration order everywhere; atom
    names are globally unique across the environment sort and every agent
    sort, so an atom's sort can be resolved without annotation.
    """

    agents: Tuple[str, ...]
    agent_atoms: Mapping[str, Tuple[str, ...]]
    env_atoms: Tuple[str, ...]

    def __init__(self, agents, agent_atoms=None, env_atoms=()):
        _set(self, "agents", agents)
        _set(self, "agent_atoms", {} if agent_atoms is None else agent_atoms)
        _set(self, "env_atoms", env_atoms)
        problems = []
        if not self.agents:
            problems.append("signature: at least one agent is required")
        seen_agents = set()
        for a in self.agents:
            if not _is_token(a):
                problems.append(f"signature: bad agent name {a!r}")
            if a in seen_agents:
                problems.append(f"signature: duplicate agent '{a}'")
            seen_agents.add(a)
        for a in self.agent_atoms:
            if a not in seen_agents:
                problems.append(f"signature: atoms declared for unknown agent '{a}'")
        owners: Dict[str, str] = {}
        for name in self.env_atoms:
            if not _is_token(name):
                problems.append(f"signature: bad atom name {name!r}")
            if name in owners:
                problems.append(f"signature: duplicate atom '{name}'")
            owners[name] = "env"
        for a in self.agents:
            for name in self.agent_atoms.get(a, ()):
                if not _is_token(name):
                    problems.append(f"signature: bad atom name {name!r}")
                if name in owners:
                    problems.append(f"signature: duplicate atom '{name}' across sorts")
                owners[name] = a
        if problems:
            raise ValidationError(problems)
        _set(self, "_owners", owners)

    def sort_of_atom(self, name: str) -> Optional[str]:
        """'env', an agent name, or None if undeclared."""
        return self._owners.get(name)

    def atoms_for(self, agent: str) -> Tuple[str, ...]:
        return tuple(self.agent_atoms.get(agent, ()))


class _Hypergraph(Record):
    """What both kinds of chromatic hypergraph share: views per agent,
    worlds, and the lookups the evaluator reads.

    ``_links`` (defined by each kind) maps (edge, agent) to the views the
    agent holds there; the fibers, edge set and view sets are computed from
    it once, at construction.
    """

    sig: Signature
    views: Mapping[str, Tuple[str, ...]]
    edges: Tuple[str, ...]

    def __post_init__(self):
        links = self._links()
        fibers = {(a, v): [] for a in self.sig.agents for v in self.views.get(a, ())}
        for e in self.edges:
            for a in self.sig.agents:
                for v in links.get((e, a), ()):
                    if (a, v) in fibers:
                        fibers[(a, v)].append(e)
        _set(self, "_views_in", links)
        _set(self, "_fibers", {k: tuple(es) for k, es in fibers.items()})
        _set(self, "_edge_set", frozenset(self.edges))
        _set(self, "_view_sets", {a: frozenset(vs) for a, vs in self.views.items()})

    def views_in(self, edge: str, agent: str) -> Tuple[str, ...]:
        """The views the agent holds in this world (empty where it is absent)."""
        return self._views_in.get((edge, agent), ())

    def alive(self, edge: str, agent: str) -> bool:
        """Is the agent present (does it hold a view) in this world?"""
        if edge not in self._edge_set:
            raise UnknownPointError(f"unknown edge '{edge}'")
        if agent not in self.sig.agents:
            raise UnknownPointError(f"unknown agent '{agent}'")
        return bool(self.views_in(edge, agent))

    def worlds_of_view(self, agent: str, view: str) -> Tuple[str, ...]:
        """All worlds in which the agent holds this view (never empty)."""
        if view not in self._view_sets.get(agent, frozenset()):
            raise UnknownPointError(f"unknown view '{view}' of agent '{agent}'")
        return self._fibers[(agent, view)]

    def views_of(self, agent: str) -> Tuple[str, ...]:
        return tuple(self.views.get(agent, ()))


class ChromaticHypergraph(_Hypergraph):
    """Views per agent, worlds, and the partial projection.

    Conditions, all validated by :func:`build_hypergraph`:

    * the view assigned to an agent in a world is one of that agent's views;
    * each agent holds at most one view per world (structural: ``proj`` maps
      (edge, agent) pairs);
    * every view occurs in at least one world;
    * every world contains at least one view.
    """

    proj: Mapping[Tuple[str, str], str]

    def __init__(self, sig, views, edges, proj):
        _set(self, "sig", sig)
        _set(self, "views", views)
        _set(self, "edges", edges)
        _set(self, "proj", proj)
        self.__post_init__()

    def _links(self):
        return {k: (v,) for k, v in self.proj.items()}

    def view_in(self, edge: str, agent: str) -> Optional[str]:
        return self.proj.get((edge, agent))


class GeneralizedChromaticHypergraph(_Hypergraph):
    """Like a chromatic hypergraph, but the projection is a relation.

    ``incidence`` maps (edge, agent) to the tuple of views the agent holds
    there (absent or empty means the agent is dead in that edge).  Color
    discipline, surjectivity and non-emptiness still hold; functionality is
    deliberately absent.
    """

    incidence: Mapping[Tuple[str, str], Tuple[str, ...]]

    def _links(self):
        return self.incidence

    fiber = _Hypergraph.worlds_of_view


class ChromaticHypergraphModel(Record):
    """A chromatic hypergraph of either kind plus valuations for both kinds
    of atoms."""

    hypergraph: Union[ChromaticHypergraph, GeneralizedChromaticHypergraph]
    val_agent: Mapping[str, Mapping[str, FrozenSet[str]]]
    val_env: Mapping[str, FrozenSet[str]]

    def __init__(self, hypergraph, val_agent, val_env):
        _set(self, "hypergraph", hypergraph)
        _set(self, "val_agent", val_agent)
        _set(self, "val_env", val_env)

    @property
    def sig(self) -> Signature:
        return self.hypergraph.sig

    @property
    def edges(self) -> Tuple[str, ...]:
        return self.hypergraph.edges

    def views_of(self, agent: str) -> Tuple[str, ...]:
        return self.hypergraph.views_of(agent)

    def alive(self, edge: str, agent: str) -> bool:
        return self.hypergraph.alive(edge, agent)

    def worlds_of_view(self, agent: str, view: str) -> Tuple[str, ...]:
        return self.hypergraph.worlds_of_view(agent, view)


GeneralizedChromaticHypergraphModel = ChromaticHypergraphModel


def alive(m: ChromaticHypergraphModel, edge: str, agent: str) -> bool:
    return m.alive(edge, agent)


def worlds_of_view(m: ChromaticHypergraphModel, agent: str, view: str):
    return m.worlds_of_view(agent, view)


def _check_structure(sig, views, edges, links) -> None:
    """Raise :class:`ValidationError` with every violated structural
    condition; ``links`` maps (edge, agent) to the views held there."""
    problems = []
    for a, vs in views.items():
        seen = set()
        for v in vs:
            if v in seen:
                problems.append(f"views: duplicate view '{v}' of agent {a}")
            seen.add(v)
    seen_edges = set()
    for e in edges:
        if e in seen_edges:
            problems.append(f"edges: duplicate edge label '{e}'")
        seen_edges.add(e)

    hit = set()
    for (e, a), vs in links.items():
        if e not in seen_edges:
            problems.append(f"projection: unknown edge '{e}'")
        if a not in views:
            problems.append(f"projection: unknown agent '{a}'")
            continue
        if len(set(vs)) != len(vs):
            problems.append(f"incidence: repeated view of agent {a} in edge {e}")
        for v in vs:
            if v in views[a]:
                hit.add((a, v))
            else:
                problems.append(
                    f"color discipline: view '{v}' assigned to agent {a} in edge {e} "
                    f"is not one of {a}'s views")
    for a, vs in views.items():
        for v in vs:
            if (a, v) not in hit:
                problems.append(f"surjectivity: view {v} of agent {a} belongs to no edge")

    for e in edges:
        if not any(links.get((e, a)) for a in sig.agents):
            problems.append(f"non-emptiness: edge {e} contains no view of any agent")

    if problems:
        raise ValidationError(problems)


def build_hypergraph(sig, views, edges, proj) -> ChromaticHypergraph:
    """Validate and freeze a chromatic hypergraph.

    Raises :class:`ValidationError` carrying every violation found.
    """
    views = {a: tuple(views.get(a, ())) for a in sig.agents}
    edges = tuple(edges)
    proj = dict(proj)
    _check_structure(sig, views, edges, {k: (v,) for k, v in proj.items()})
    return ChromaticHypergraph(sig=sig, views=views, edges=edges, proj=proj)


def build_generalized(sig, views, edges, incidence) -> GeneralizedChromaticHypergraph:
    """Validate and freeze a generalized chromatic hypergraph: the checks of
    :func:`build_hypergraph`, plus no view repeated inside one edge."""
    views = {a: tuple(views.get(a, ())) for a in sig.agents}
    edges = tuple(edges)
    incidence = {k: tuple(v) for k, v in incidence.items()}
    _check_structure(sig, views, edges, incidence)
    return GeneralizedChromaticHypergraph(
        sig=sig, views=views, edges=edges, incidence=incidence)


def build_model(sig, views, edges, proj, val_agent=None, val_env=None) -> ChromaticHypergraphModel:
    """Validate and freeze a model: hypergraph conditions plus valuations.

    ``val_agent[a]`` must be defined exactly on the agent's atom alphabet and
    map into subsets of the agent's views; ``val_env`` likewise for
    environment atoms and edges.  Missing entries default to the empty set.
    """
    return _validated_model(build_hypergraph, sig, views, edges, proj, val_agent, val_env)


def build_generalized_model(sig, views, edges, incidence, val_agent=None,
                            val_env=None) -> ChromaticHypergraphModel:
    """:func:`build_model` on a generalized hypergraph."""
    return _validated_model(build_generalized, sig, views, edges, incidence,
                            val_agent, val_env)


def _validated_model(build, sig, views, edges, links, val_agent, val_env):
    problems = []
    try:
        h = build(sig, views, edges, links)
    except ValidationError as err:
        problems.extend(err.violations)
        h = None

    val_agent = {a: dict((val_agent or {}).get(a, {})) for a in sig.agents}
    val_env = dict(val_env or {})

    fixed_agent = {}
    for a in sig.agents:
        declared = sig.atoms_for(a)
        table = {}
        known_views = set(views.get(a, ()))
        for atom in declared:
            members = frozenset(val_agent[a].get(atom, frozenset()))
            for v in members - known_views:
                problems.append(
                    f"valuation: atom {atom} of agent {a} mentions unknown view '{v}'")
            table[atom] = members
        for atom in [x for x in val_agent[a] if x not in table]:
            problems.append(
                f"valuation: atom '{atom}' is not declared for agent {a}")
        fixed_agent[a] = table

    fixed_env = {}
    known_edges = set(edges)
    for atom in sig.env_atoms:
        members = frozenset(val_env.get(atom, frozenset()))
        for e in members - known_edges:
            problems.append(f"valuation: environment atom {atom} mentions unknown edge '{e}'")
        fixed_env[atom] = members
    for atom in [x for x in val_env if x not in fixed_env]:
        problems.append(f"valuation: atom '{atom}' is not a declared environment atom")

    if problems:
        raise ValidationError(problems)
    return ChromaticHypergraphModel(hypergraph=h, val_agent=fixed_agent, val_env=fixed_env)


def strip_agent_atoms(m: ChromaticHypergraphModel) -> ChromaticHypergraphModel:
    """The same model, of either kind, with every agent atom alphabet emptied."""
    h = m.hypergraph
    sig = Signature(h.sig.agents, {}, h.sig.env_atoms)
    return replace(m, hypergraph=replace(h, sig=sig), val_agent={a: {} for a in sig.agents})


# --- simple hypergraphs and simplicial complexes ------------------------------


class SimpleHypergraph(Record):
    """Uncolored hypergraph: hyperedges are plain vertex sets."""

    vertices: FrozenSet
    hyperedges: FrozenSet[FrozenSet]

    def __post_init__(self):
        problems = []
        for edge in self.hyperedges:
            if not edge <= self.vertices:
                problems.append(f"hyperedge {set(edge)!r} mentions unknown vertices")
        if problems:
            raise ValidationError(problems)


class SimplicialComplex(SimpleHypergraph):
    """A simple hypergraph whose edge set is downward closed."""

    def __post_init__(self):
        super().__post_init__()
        problems = []
        edge_set = self.hyperedges
        for edge in edge_set:
            for k in range(1, len(edge)):
                for sub in itertools.combinations(sorted(edge, key=repr), k):
                    if frozenset(sub) not in edge_set:
                        problems.append(
                            f"not downward closed: {set(sub)!r} missing under {set(edge)!r}")
        if problems:
            raise ValidationError(problems)

    def face_counts(self) -> Dict[int, int]:
        """Number of simplices per dimension (|simplex| - 1)."""
        counts: Dict[int, int] = {}
        for s in self.hyperedges:
            d = len(s) - 1
            counts[d] = counts.get(d, 0) + 1
        return counts

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in self.face_counts().items())


def underlying_simple(h: _Hypergraph) -> SimpleHypergraph:
    """Forget colors and edge identities.

    Vertices are (agent, view) pairs so that views of different agents never
    collide; parallel edges with the same vertex set collapse to one.
    """
    vertices = frozenset((a, v) for a in h.sig.agents for v in h.views.get(a, ()))
    hyperedges = frozenset(
        frozenset((a, v) for a in h.sig.agents for v in h.views_in(e, a))
        for e in h.edges)
    return SimpleHypergraph(vertices=vertices, hyperedges=hyperedges)


def downward_closure(s: SimpleHypergraph) -> SimplicialComplex:
    """All non-empty subsets of the hyperedges. Idempotent."""
    closed = set()
    for edge in s.hyperedges:
        members = sorted(edge, key=repr)
        for k in range(1, len(members) + 1):
            for sub in itertools.combinations(members, k):
                closed.add(frozenset(sub))
    return SimplicialComplex(vertices=s.vertices, hyperedges=frozenset(closed))


# --- built-in examples --------------------------------------------------------


def _three_agent_base():
    sig = Signature(("a", "b", "c"))
    views = {"a": ("va",), "b": ("vb",), "c": ("vc",)}
    return sig, views


def _combo_edges(combos):
    edges = []
    proj = {}
    for combo in combos:
        name = "e_" + "".join(combo)
        edges.append(name)
        for agent in combo:
            proj[(name, agent)] = f"v{agent}"
    return tuple(edges), proj


def _example_h1():
    # All seven non-empty combinations of the three views are compatible.
    sig, views = _three_agent_base()
    combos = []
    for k in (1, 2, 3):
        combos.extend(itertools.combinations(("a", "b", "c"), k))
    edges, proj = _combo_edges(combos)
    return build_model(sig, views, edges, proj)


def _example_h2():
    # A single world containing everyone.
    sig, views = _three_agent_base()
    edges, proj = _combo_edges([("a", "b", "c")])
    return build_model(sig, views, edges, proj)


def _example_h3():
    # Pairwise compatible views with no world realizing all three.
    sig, views = _three_agent_base()
    edges, proj = _combo_edges([("a", "b"), ("a", "c"), ("b", "c")])
    return build_model(sig, views, edges, proj)


def _example_binary_input():
    # Two agents with a binary input each, plus solo executions.
    sig = Signature(
        ("a", "b"),
        {"a": ("0a", "1a"), "b": ("0b", "1b")},
        ("solo",),
    )
    views = {"a": ("a0", "a1"), "b": ("b0", "b1")}
    edges = ["solo_a0", "solo_a1", "solo_b0", "solo_b1"]
    proj = {
        ("solo_a0", "a"): "a0",
        ("solo_a1", "a"): "a1",
        ("solo_b0", "b"): "b0",
        ("solo_b1", "b"): "b1",
    }
    for i in (0, 1):
        for j in (0, 1):
            name = f"a{i}_b{j}"
            edges.append(name)
            proj[(name, "a")] = f"a{i}"
            proj[(name, "b")] = f"b{j}"
    val_agent = {
        "a": {"0a": frozenset({"a0"}), "1a": frozenset({"a1"})},
        "b": {"0b": frozenset({"b0"}), "1b": frozenset({"b1"})},
    }
    val_env = {"solo": frozenset({"solo_a0", "solo_a1", "solo_b0", "solo_b1"})}
    return build_model(sig, views, tuple(edges), proj, val_agent, val_env)


_AGENT_POOL = "abcdefghijklmnopqrstuvwxyz"


def _example_card_game(cards=4, agents=3):
    """Deal one of ``cards`` distinct cards to each of ``agents`` agents.

    Worlds are the injective deals; each agent sees only its own card.  The
    atom ``c<i>_<agent>`` holds exactly at the view where the agent holds
    card ``i``.
    """
    if agents < 1 or agents > len(_AGENT_POOL):
        raise ValidationError([f"card-game: unsupported agent count {agents}"])
    if cards <= agents:
        raise ValidationError(
            [f"card-game: need more cards than agents (got {cards} cards, {agents} agents)"])
    names = tuple(_AGENT_POOL[:agents])
    view_name = lambda card, ag: f"c{card}_{ag}"
    views = {ag: tuple(view_name(c, ag) for c in range(1, cards + 1)) for ag in names}
    sig = Signature(names, {ag: views[ag] for ag in names})

    sep = "" if cards < 10 else "_"
    edges = []
    proj = {}
    for deal in itertools.permutations(range(1, cards + 1), agents):
        name = sep.join(str(c) for c in deal)
        edges.append(name)
        for ag, card in zip(names, deal):
            proj[(name, ag)] = view_name(card, ag)
    val_agent = {
        ag: {view_name(c, ag): frozenset({view_name(c, ag)}) for c in range(1, cards + 1)}
        for ag in names
    }
    return build_model(sig, views, tuple(edges), proj, val_agent)


_CELLS = ("L", "R")
_BITS = ("0", "1")


def _shared_memory_parts():
    """The signature, views and valuation of both shared-memory models.

    Two processes ``a`` and ``b`` read a two-cell binary memory; the view
    ``<agent>_<cell><bit>`` reads that bit in that cell, and the atoms
    ``reads0_<agent>``/``reads1_<agent>`` hold at the views reading 0/1.
    """
    names = ("a", "b")
    views = {ag: tuple(f"{ag}_{c}{b}" for c in _CELLS for b in _BITS) for ag in names}
    sig = Signature(names, {ag: tuple(f"reads{b}_{ag}" for b in _BITS) for ag in names})
    val_agent = {
        ag: {f"reads{b}_{ag}": frozenset(v for v in views[ag] if v.endswith(b))
             for b in _BITS}
        for ag in names
    }
    return sig, views, val_agent


def shared_memory_example() -> ChromaticHypergraphModel:
    """Two processes reading a two-cell binary shared memory.

    Each process may be assigned either cell, so it can hold two views of
    the same memory state: the view (agent, cell, bit) belongs to the state
    (xL, xR) exactly when the assigned cell stores that bit.
    """
    sig, views, val_agent = _shared_memory_parts()
    edges = tuple(f"{xl}{xr}" for xl in _BITS for xr in _BITS)
    incidence = {}
    for xl in _BITS:
        for xr in _BITS:
            mem = {"L": xl, "R": xr}
            for ag in sig.agents:
                incidence[(f"{xl}{xr}", ag)] = tuple(f"{ag}_{c}{mem[c]}" for c in _CELLS)
    return build_generalized_model(sig, views, edges, incidence, val_agent)


def _example_shared_memory_functionalized():
    """The shared memory of :func:`shared_memory_example`, with the cell
    assignment made part of the world: worlds are (memory contents,
    assignment) pairs, which restores one view per agent per world.
    """
    sig, views, val_agent = _shared_memory_parts()
    edges = []
    proj = {}
    for xl in _BITS:
        for xr in _BITS:
            for ca in _CELLS:
                for cb in _CELLS:
                    name = f"x{xl}{xr}_{ca}{cb}"
                    edges.append(name)
                    mem = {"L": xl, "R": xr}
                    proj[(name, "a")] = f"a_{ca}{mem[ca]}"
                    proj[(name, "b")] = f"b_{cb}{mem[cb]}"
    return build_model(sig, views, tuple(edges), proj, val_agent)


_EXAMPLES = {
    "h1": _example_h1,
    "h2": _example_h2,
    "h3": _example_h3,
    "binary-input": _example_binary_input,
    "card-game": _example_card_game,
    "shared-memory-functionalized": _example_shared_memory_functionalized,
}


def example(name: str, **params) -> ChromaticHypergraphModel:
    """Return a named built-in model.

    ``card-game`` accepts ``cards`` and ``agents`` keyword parameters.
    """
    try:
        builder = _EXAMPLES[name]
    except KeyError:
        known = ", ".join(sorted(_EXAMPLES))
        raise ValidationError([f"unknown example '{name}' (known: {known})"]) from None
    return builder(**params)


def example_names():
    return tuple(_EXAMPLES)
