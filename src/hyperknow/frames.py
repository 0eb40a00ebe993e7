"""Partial epistemic frames and their correspondence with chromatic hypergraphs.

A partial epistemic frame is a set of worlds with, per agent, a partial
equivalence relation: stored here as a partition of a subset of the worlds,
which makes symmetry and transitivity structural.  Every world must be
related to itself for at least one agent.

``eta`` turns a frame into a hypergraph (worlds become hyperedges, the
equivalence classes of an agent become its views); ``kappa`` goes the other
way (two hyperedges are equivalent for an agent when they share one of its
views).  The two constructions are mutually inverse up to isomorphism.

An agent's view of an edge and its class of a world are the same kind of
data: a per-agent *block* holding the point.  So :func:`is_isomorphic` and
:func:`is_isomorphic_frames` are one search, for a bijection of points that
carries each agent's blocks bijectively onto blocks.  It backtracks on an
explicit stack, so no input size meets Python's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .core import (
    ChromaticHypergraph,
    ChromaticHypergraphModel,
    GeneralizedChromaticHypergraph,
    Signature,
    build_hypergraph,
    build_model,
)
from .errors import NonEmptyAgentAtomsError, UnknownPointError, ValidationError
from .record import Record


class PartialEpistemicFrame(Record):
    """Worlds plus, per agent, a partition of a subset of the worlds.

    Classes are canonicalized: members in world order, classes ordered by
    their first member.
    """

    agents: Tuple[str, ...]
    worlds: Tuple[str, ...]
    classes: Mapping[str, Tuple[Tuple[str, ...], ...]]

    def dom(self, agent: str) -> FrozenSet[str]:
        return frozenset(w for cls in self.classes.get(agent, ()) for w in cls)

    def class_of(self, agent: str, world: str) -> Optional[Tuple[str, ...]]:
        """The equivalence class of the world, or None where undefined."""
        return self._class_index.get((agent, world))

    def related(self, agent: str, w1: str, w2: str) -> bool:
        cls = self.class_of(agent, w1)
        return cls is not None and w2 in cls

    def __post_init__(self):
        index = {}
        for a in self.agents:
            for cls in self.classes.get(a, ()):
                for w in cls:
                    index[(a, w)] = cls
        object.__setattr__(self, "_class_index", index)


class PartialEpistemicModel(Record):
    """A frame plus an environment valuation (agents carry no atoms here)."""

    frame: PartialEpistemicFrame
    atoms: Tuple[str, ...] = ()
    val: Mapping[str, FrozenSet[str]] = {}

    @property
    def worlds(self) -> Tuple[str, ...]:
        return self.frame.worlds


def build_frame(agents, worlds, classes) -> PartialEpistemicFrame:
    """Validate and canonicalize a frame; reports all violations at once."""
    agents = tuple(agents)
    worlds = tuple(worlds)
    world_pos = {w: i for i, w in enumerate(worlds)}
    problems = []
    if len(set(worlds)) != len(worlds):
        problems.append("worlds: duplicate world names")
    if len(set(agents)) != len(agents):
        problems.append("agents: duplicate agent names")

    canonical = {}
    for a in agents:
        seen = set()
        fixed = []
        for cls in classes.get(a, ()):
            members = tuple(cls)
            if not members:
                problems.append(f"classes[{a}]: empty equivalence class")
                continue
            unknown = [w for w in members if w not in world_pos]
            if unknown:
                problems.append(
                    f"classes[{a}]: unknown worlds {unknown} in class {list(members)}")
                continue
            if len(set(members)) != len(members):
                problems.append(f"classes[{a}]: repeated world in class {list(members)}")
            overlap = seen.intersection(members)
            if overlap:
                problems.append(
                    f"classes[{a}]: worlds {sorted(overlap)} appear in two classes")
            seen.update(members)
            fixed.append(tuple(sorted(set(members), key=world_pos.get)))
        fixed.sort(key=lambda cls: world_pos[cls[0]])
        canonical[a] = tuple(fixed)

    for w in worlds:
        if not any(w in cls for a in agents for cls in canonical.get(a, ())):
            problems.append(
                f"coverage: world {w} is not related to itself for any agent")

    if problems:
        raise ValidationError(problems)
    return PartialEpistemicFrame(agents=agents, worlds=worlds, classes=canonical)


def build_frame_model(agents, worlds, classes, atoms=(), val=None) -> PartialEpistemicModel:
    frame = build_frame(agents, worlds, classes)
    atoms = tuple(atoms)
    val = dict(val or {})
    problems = []
    if len(set(atoms)) != len(atoms):
        problems.append("atoms: duplicate atom names")
    known = set(worlds)
    fixed = {}
    for atom in atoms:
        members = frozenset(val.get(atom, frozenset()))
        for w in sorted(members - known):
            problems.append(f"valuation: atom {atom} mentions unknown world '{w}'")
        fixed[atom] = members
    for atom in sorted(set(val) - set(atoms)):
        problems.append(f"valuation: undeclared atom '{atom}'")
    if problems:
        raise ValidationError(problems)
    return PartialEpistemicModel(frame=frame, atoms=atoms, val=fixed)


# --- the two constructions ----------------------------------------------------


def _class_view_name(agent: str, cls: Tuple[str, ...]) -> str:
    return f"{agent}:{{{','.join(sorted(cls))}}}"


def eta(fr: PartialEpistemicFrame) -> ChromaticHypergraph:
    """Frame to hypergraph: worlds become hyperedges, classes become views."""
    sig = Signature(fr.agents)
    views = {a: tuple(_class_view_name(a, cls) for cls in fr.classes[a])
             for a in fr.agents}
    proj = {}
    for a in fr.agents:
        for cls in fr.classes[a]:
            name = _class_view_name(a, cls)
            for w in cls:
                proj[(w, a)] = name
    return build_hypergraph(sig, views, fr.worlds, proj)


def kappa(h: ChromaticHypergraph) -> PartialEpistemicFrame:
    """Hypergraph to frame: hyperedges become worlds; two worlds are
    equivalent for an agent when they contain the same view of it."""
    classes = {
        a: tuple(h.worlds_of_view(a, v) for v in h.views.get(a, ()))
        for a in h.sig.agents
    }
    return build_frame(h.sig.agents, h.edges, classes)


def eta_model(fm: PartialEpistemicModel) -> ChromaticHypergraphModel:
    """eta with the environment valuation carried across (worlds = edges)."""
    fr = fm.frame
    h = eta(fr)
    sig = Signature(fr.agents, {}, fm.atoms)
    return build_model(sig, h.views, h.edges, h.proj, {}, dict(fm.val))


def kappa_model(m: ChromaticHypergraphModel) -> PartialEpistemicModel:
    """kappa with the valuation carried across.

    Only models with empty agent atom alphabets correspond to frame models;
    anything else raises :class:`NonEmptyAgentAtomsError`.
    """
    nonempty = [a for a in m.sig.agents if m.sig.atoms_for(a)]
    if nonempty:
        raise NonEmptyAgentAtomsError(
            f"agents {nonempty} carry atoms; strip agent atoms before converting")
    fr = kappa(m.hypergraph)
    return build_frame_model(fr.agents, fr.worlds, fr.classes,
                             m.sig.env_atoms, dict(m.val_env))


# --- morphisms ------------------------------------------------------------------


class HypergraphMorphism(Record):
    """Per-agent view maps plus an edge map, commuting with the projections."""

    view_maps: Mapping[str, Mapping[str, str]]
    edge_map: Mapping[str, str]


class FrameMorphism(Record):
    """A world map preserving every agent's partial equivalence relation."""

    world_map: Mapping[str, str]


def _functional_only(*hypergraphs) -> None:
    if any(isinstance(h, GeneralizedChromaticHypergraph) for h in hypergraphs):
        raise ValidationError(["morphisms: only functional chromatic hypergraphs "
                               "(at most one view per agent per edge) are compared"])


def check_hypergraph_morphism(mor: HypergraphMorphism,
                              source: ChromaticHypergraph,
                              target: ChromaticHypergraph) -> bool:
    """Pointwise check of the commutation condition (functional
    hypergraphs only, as for :func:`is_isomorphic`)."""
    _functional_only(source, target)
    for a in source.sig.agents:
        vm = mor.view_maps.get(a, {})
        for v in source.views.get(a, ()):
            if v not in vm:
                raise UnknownPointError(f"view map of agent {a} misses view '{v}'")
            if vm[v] not in target._view_sets.get(a, frozenset()):
                raise UnknownPointError(
                    f"view map of agent {a} sends '{v}' outside the target")
    for e in source.edges:
        if e not in mor.edge_map:
            raise UnknownPointError(f"edge map misses edge '{e}'")
        if mor.edge_map[e] not in target._edge_set:
            raise UnknownPointError(f"edge map sends '{e}' outside the target")
    for e in source.edges:
        for a in source.sig.agents:
            v = source.view_in(e, a)
            if v is None:
                continue
            if target.view_in(mor.edge_map[e], a) != mor.view_maps[a][v]:
                return False
    return True


def check_frame_morphism(mor: FrameMorphism,
                         source: PartialEpistemicFrame,
                         target: PartialEpistemicFrame) -> bool:
    fmap = mor.world_map
    for w in source.worlds:
        if w not in fmap:
            raise UnknownPointError(f"world map misses world '{w}'")
        if fmap[w] not in target.worlds:
            raise UnknownPointError(f"world map sends '{w}' outside the target")
    for a in source.agents:
        for cls in source.classes.get(a, ()):
            for w1 in cls:
                for w2 in cls:
                    if not target.related(a, fmap[w1], fmap[w2]):
                        return False
    return True


def eta_morphism(g: FrameMorphism, source: PartialEpistemicFrame,
                 target: PartialEpistemicFrame) -> HypergraphMorphism:
    """Transport a frame morphism along eta (classes map to classes)."""
    view_maps: Dict[str, Dict[str, str]] = {}
    for a in source.agents:
        vm = {}
        for cls in source.classes[a]:
            w = cls[0]
            tgt_cls = target.class_of(a, g.world_map[w])
            if tgt_cls is None:
                raise ValidationError(
                    [f"not a frame morphism: image of class {list(cls)} of {a} "
                     f"is outside dom_{a}"])
            vm[_class_view_name(a, cls)] = _class_view_name(a, tgt_cls)
        view_maps[a] = vm
    return HypergraphMorphism(view_maps=view_maps, edge_map=dict(g.world_map))


def kappa_morphism(f: HypergraphMorphism) -> FrameMorphism:
    """Transport a hypergraph morphism along kappa (the edge map survives)."""
    return FrameMorphism(world_map=dict(f.edge_map))


# --- exact isomorphism search ---------------------------------------------------


def is_isomorphic(h1: ChromaticHypergraph,
                  h2: ChromaticHypergraph) -> Optional[HypergraphMorphism]:
    """An invertible morphism h1 -> h2, or None.

    The blocks of the search are views: the view maps are the block maps.
    The search assumes at most one view per agent per edge, so generalized
    hypergraphs raise :class:`ValidationError`.
    """
    _functional_only(h1, h2)
    if h1.sig.agents != h2.sig.agents:
        return None
    found = _isomorphism(h1.sig.agents, _view_blocks(h1), _view_blocks(h2))
    if found is None:
        return None
    edge_map, block_maps = found
    return HypergraphMorphism(view_maps=dict(zip(h1.sig.agents, block_maps)),
                              edge_map=edge_map)


def is_isomorphic_frames(f1: PartialEpistemicFrame,
                         f2: PartialEpistemicFrame) -> Optional[FrameMorphism]:
    """An invertible frame morphism f1 -> f2, or None.

    The blocks of the search are equivalence classes, each named by its
    first world.
    """
    if f1.agents != f2.agents:
        return None
    found = _isomorphism(f1.agents, _class_blocks(f1), _class_blocks(f2))
    return None if found is None else FrameMorphism(world_map=found[0])


def _view_blocks(h: ChromaticHypergraph):
    return h.edges, h.view_in, [len(h.views.get(a, ())) for a in h.sig.agents]


def _class_blocks(fr: PartialEpistemicFrame):
    return (fr.worlds, lambda w, a: (cls := fr.class_of(a, w)) and cls[0],
            [len(fr.classes.get(a, ())) for a in fr.agents])


def _isomorphism(agents, side1, side2):
    """A bijection of points that carries each agent's blocks bijectively
    onto blocks, as ``(point map, [block map per agent])``; or None.

    Each side is ``(points, block, block counts)``: ``block(x, a)`` names
    agent ``a``'s block holding point ``x`` (its view of an edge, its class
    of a world), or is None where ``a`` has none, and the counts give each
    agent's number of blocks.  Sides whose point or block counts differ are
    rejected before any block is looked up.  A point's profile is its block
    size per agent (0 where it has none), and points map only within a
    profile.  The first structure's points are taken smallest pool first,
    the candidates in declaration order.  The backtracking keeps one
    candidate iterator per depth on an explicit stack, and extends and
    undoes per-agent forward and backward block maps.
    """
    (points1, block1, counts1), (points2, block2, counts2) = side1, side2
    if len(points1) != len(points2) or counts1 != counts2:
        return None
    rows1, profiles1 = _rows_and_profiles(agents, points1, block1)
    rows2, profiles2 = _rows_and_profiles(agents, points2, block2)
    if sorted(profiles1) != sorted(profiles2):
        return None
    pools: Dict[tuple, list] = {}
    for y, row, p in zip(points2, rows2, profiles2):
        pools.setdefault(p, []).append((y, row))
    order = sorted(range(len(points1)), key=lambda i: len(pools[profiles1[i]]))
    forward = [{} for _ in agents]
    backward = [{} for _ in agents]
    taken = []          # (candidate, block pairs it added) per assigned depth
    candidates = []     # the rest of each depth's pool, still to try
    used = set()
    while len(taken) < len(order):
        i = order[len(taken)]
        if len(candidates) == len(taken):
            candidates.append(iter(pools[profiles1[i]]))
        for y, row2 in candidates[-1]:
            if y not in used:
                added = _extend(forward, backward, rows1[i], row2)
                if added is not None:
                    taken.append((y, added))
                    used.add(y)
                    break
        else:                                   # pool exhausted: backtrack
            candidates.pop()
            if not taken:
                return None
            y, added = taken.pop()
            used.discard(y)
            _undo(forward, backward, added)
    return {points1[i]: y for i, (y, _) in zip(order, taken)}, forward


def _rows_and_profiles(agents, points, block):
    rows = [tuple(block(x, a) for a in agents) for x in points]
    sizes = [Counter(column) for column in zip(*rows)]
    profiles = [tuple(0 if b is None else size[b] for b, size in zip(row, sizes))
                for row in rows]
    return rows, profiles


def _extend(forward, backward, row1, row2):
    """Map each agent's block in row1 to its block in row2; the pairs added,
    or None (with nothing added) where that breaks a block map."""
    added = []
    for k, (b, c) in enumerate(zip(row1, row2)):
        if b is None:
            continue
        known = forward[k].get(b)
        if known is None and c not in backward[k]:
            forward[k][b] = c
            backward[k][c] = b
            added.append((k, b, c))
        elif known != c:
            _undo(forward, backward, added)
            return None
    return added


def _undo(forward, backward, added):
    for k, b, c in added:
        del forward[k][b]
        del backward[k][c]
