"""Bounded enumeration of models, validity sweeps, and countermodel search.

``enumerate_hypergraphs``/``enumerate_models`` stream every structure within
the bounds, deterministically, with no isomorphism elimination (duplicates
are harmless for validity sweeps and canonicalization would cost more than
it saves at these sizes).

Every validity sweep (``check_scheme``, ``find_countermodel`` and the proof
kernel's ``soundness_spotcheck``) runs through ``sweep``: the formula is
compiled once into a postfix program, and on each structure every point's
value is one int whose bit ``t`` is its truth value under assignment ``t``
(bit-slicing across valuations).  Assignments are numbered in
``itertools.product`` order and swept in chunks of bounded width; the lowest
zero bit gives the first falsifying assignment and the first point false
under it the witness, exactly as trying one valuation at a time would.

``check_scheme`` decides whether a scheme (a formula with ``?metavariable``
leaves) holds at every point of every model within bounds.  Instead of
instantiating metavariables with concrete formulas one by one, it sweeps the
*extensions* a metavariable can take: a scheme instance's truth value
depends on an instantiated subformula only through the set of points
satisfying it, and every set of points is realized by some atom under some
valuation within bounds.  The quotient is therefore exact (and independent
of any instantiation-depth cutoff) as soon as the atom alphabet offers one
atom per metavariable of each sort, which ``check_scheme`` enforces.
Returned countermodels carry a concrete witness: each metavariable is
assigned a fresh atom whose valuation is the falsifying extension, and the
verdict is re-checked through the ordinary evaluator before being returned.

``find_countermodel`` sweeps the valuations of a concrete formula's own
atoms, then greedily minimizes the witness (drop edges, then views, while
the formula stays false) and re-checks it through the evaluator.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .core import (
    _AGENT_POOL,
    ChromaticHypergraph,
    ChromaticHypergraphModel,
    Signature,
    build_model,
)
from .errors import BoundsError, SortError
from .frames import PartialEpistemicFrame, PartialEpistemicModel, build_frame, build_frame_model
from .semantics import Evaluator, EvalPoint, View, World
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
    KB4And,
    KB4Atom,
    KB4Knows,
    KB4Not,
    PossWorld,
    SomeView,
    WAnd,
    WFalse,
    WImplies,
    WMeta,
    WNot,
    WorldFormula,
    WTrue,
    alive,
    desugar,
    disj,
    ksafe,
    kunsafe,
    scheme_meta_sorts,
    substitute_metas,
)

_ENV_CAPS = {"agents": 3, "views": 3, "edges": 5}


def hard_caps() -> Dict[str, int]:
    """Default caps keep the worst-case sweep in the minutes range.

    ``HYPERKNOW_MAX_BOUNDS`` (e.g. ``agents=4,views=4,edges=6``) raises them;
    beyond the defaults is unsupported territory.
    """
    caps = dict(_ENV_CAPS)
    raw = os.environ.get("HYPERKNOW_MAX_BOUNDS", "")
    for part in filter(None, (p.strip() for p in raw.split(","))):
        key, _, value = part.partition("=")
        if key.strip() in caps and value.strip().isdigit():
            caps[key.strip()] = int(value.strip())
    return caps


@dataclass(frozen=True)
class Bounds:
    """Structural bounds for enumeration and scheme sweeps.

    ``depth`` is validated but read by no sweep.
    """

    agents: int = 2
    views: int = 2
    edges: int = 4
    agent_atoms: int = 2
    env_atoms: int = 2
    depth: int = 2

    def validate(self):
        caps = hard_caps()
        problems = []
        if self.agents < 1 or self.views < 1 or self.edges < 1:
            problems.append("agents, views and edges bounds must be positive")
        if self.agent_atoms < 0 or self.env_atoms < 0 or self.depth < 0:
            problems.append("atom and depth bounds must be non-negative")
        for name in ("agents", "views", "edges"):
            if getattr(self, name) > caps[name]:
                problems.append(
                    f"{name} bound {getattr(self, name)} exceeds hard cap {caps[name]} "
                    "(set HYPERKNOW_MAX_BOUNDS to raise it)")
        if problems:
            raise BoundsError("; ".join(problems))


def default_agents(n: int) -> Tuple[str, ...]:
    if n > len(_AGENT_POOL):
        raise BoundsError(f"at most {len(_AGENT_POOL)} agents supported")
    return tuple(_AGENT_POOL[:n])


def signature_for_bounds(b: Bounds) -> Signature:
    """The sweep alphabet: ``p<i>_<agent>`` per agent, ``q<i>`` for the world."""
    agents = default_agents(b.agents)
    return Signature(
        agents,
        {a: tuple(f"p{i + 1}_{a}" for i in range(b.agent_atoms)) for a in agents},
        tuple(f"q{i + 1}" for i in range(b.env_atoms)),
    )


# --- structure enumeration ------------------------------------------------------


def enumerate_hypergraphs(b: Bounds, sig: Optional[Signature] = None) -> Iterator[ChromaticHypergraph]:
    """Every chromatic hypergraph within bounds, at least once, in a fixed order.

    View counts range from 0 to the bound per agent (an agent may exist in
    the signature yet hold no view anywhere); edge counts range from 1 to
    the bound.
    """
    b.validate()
    if sig is None:
        sig = Signature(default_agents(b.agents))
    agents = sig.agents
    for view_counts in itertools.product(range(b.views + 1), repeat=len(agents)):
        views = {a: tuple(f"{a}{i + 1}" for i in range(c))
                 for a, c in zip(agents, view_counts)}
        rows = [
            row
            for row in itertools.product(
                *[(None, *views[a]) for a in agents])
            if any(v is not None for v in row)
        ]
        # Edge-less structures are excluded: a model has at least one world.
        for k in range(1, b.edges + 1):
            for seq in itertools.product(rows, repeat=k):
                covered = {(a, v) for row in seq for a, v in zip(agents, row)
                           if v is not None}
                if len(covered) != sum(view_counts):
                    continue
                edges = tuple(f"e{i + 1}" for i in range(k))
                proj = {
                    (e, a): v
                    for e, row in zip(edges, seq)
                    for a, v in zip(agents, row)
                    if v is not None
                }
                yield ChromaticHypergraph(sig=sig, views=views, edges=edges, proj=proj)


def _subsets(items: Tuple[str, ...]) -> List[frozenset]:
    out = []
    for mask in range(1 << len(items)):
        out.append(frozenset(x for i, x in enumerate(items) if mask >> i & 1))
    return out


def iter_valuations(h: ChromaticHypergraph, vary_agent=None, vary_env=None
                    ) -> Iterator[ChromaticHypergraphModel]:
    """All models on ``h`` whose valuations vary over the given atoms only.

    Atoms not listed are left empty.  Varying only the atoms a formula
    mentions is exact for validity checks there.
    """
    sig = h.sig
    if vary_agent is None:
        vary_agent = {a: sig.atoms_for(a) for a in sig.agents}
    if vary_env is None:
        vary_env = sig.env_atoms
    agent_axes = []
    for a in sig.agents:
        for atom in vary_agent.get(a, ()):
            agent_axes.append((a, atom, _subsets(h.views.get(a, ()))))
    env_axes = [(atom, _subsets(h.edges)) for atom in vary_env]
    for choice in itertools.product(*[ax[-1] for ax in agent_axes + env_axes]):
        val_agent = {a: {atom: frozenset() for atom in sig.atoms_for(a)} for a in sig.agents}
        val_env = {atom: frozenset() for atom in sig.env_atoms}
        for (a, atom, _), members in zip(agent_axes, choice[:len(agent_axes)]):
            val_agent[a][atom] = members
        for (atom, _), members in zip(env_axes, choice[len(agent_axes):]):
            val_env[atom] = members
        yield ChromaticHypergraphModel(hypergraph=h, val_agent=val_agent, val_env=val_env)


def enumerate_models(b: Bounds, sig: Optional[Signature] = None
                     ) -> Iterator[ChromaticHypergraphModel]:
    """Every model within bounds: the hypergraph stream crossed with every
    valuation of the full atom alphabet."""
    if sig is None:
        sig = signature_for_bounds(b)
    for h in enumerate_hypergraphs(b, sig):
        yield from iter_valuations(h)


def enumerate_frames(agents: Tuple[str, ...], max_worlds: int) -> Iterator[PartialEpistemicFrame]:
    """Every partial epistemic frame on up to ``max_worlds`` worlds."""
    for m in range(max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(m))
        per_agent = []
        for _ in agents:
            options = []
            for subset_mask in range(1 << m):
                subset = [worlds[i] for i in range(m) if subset_mask >> i & 1]
                for partition in _set_partitions(subset):
                    options.append(tuple(tuple(cls) for cls in partition))
            per_agent.append(options)
        for combo in itertools.product(*per_agent):
            classes = dict(zip(agents, combo))
            covered = set()
            for a in agents:
                for cls in classes[a]:
                    covered.update(cls)
            if len(covered) != m:
                continue
            yield build_frame(agents, worlds, classes)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def enumerate_frame_models(agents, max_worlds, atoms) -> Iterator[PartialEpistemicModel]:
    atoms = tuple(atoms)
    for fr in enumerate_frames(agents, max_worlds):
        axes = [_subsets(fr.worlds) for _ in atoms]
        for choice in itertools.product(*axes):
            val = dict(zip(atoms, choice))
            yield build_frame_model(fr.agents, fr.worlds, fr.classes, atoms, val)


def enumerate_kb4_formulas(atoms, agents, max_size=5, max_modal_depth=2,
                           commutative_dedup=False):
    """All KB4 formulas up to ``max_size`` nodes and the modal depth cap,
    in size-lexicographic order, deduplicated structurally.

    ``commutative_dedup`` keeps only one of each ``And`` pair (sound for
    agreement-style sweeps: every clause treats the conjuncts symmetrically).
    """
    by_size = {1: [(KB4Atom(a), 0) for a in atoms]}
    for size in range(2, max_size + 1):
        bucket = []
        for f, d in by_size[size - 1]:
            bucket.append((KB4Not(f), d))
            for ag in agents:
                if d < max_modal_depth:
                    bucket.append((KB4Knows(ag, f), d + 1))
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            if right_size < 1:
                continue
            if commutative_dedup and left_size > right_size:
                continue
            for li, (l, dl) in enumerate(by_size[left_size]):
                for ri, (r, dr) in enumerate(by_size[right_size]):
                    if commutative_dedup and left_size == right_size and ri < li:
                        continue
                    bucket.append((KB4And(l, r), max(dl, dr)))
        by_size[size] = bucket
    seen = set()
    out = []
    for size in range(1, max_size + 1):
        for f, _ in by_size[size]:
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


# --- the bit-sliced extension sweep ----------------------------------------------


class _Structure:
    """The tables the sweep reads from one enumerated hypergraph, which is
    not kept.

    Per agent: ``view_of[a][i]`` is the index of the agent's view in edge
    ``i`` (None where the agent is absent) and ``fibers[a][j]`` the indices
    of the edges holding its view ``j``.  Equal tables are one shared tuple.
    """

    __slots__ = ("edges", "views", "view_of", "fibers")

    def __init__(self, h: ChromaticHypergraph, intern: Dict[tuple, tuple]):
        self.edges = h.edges
        self.views = h.views
        self.view_of = {}
        self.fibers = {}
        for a in h.sig.agents:
            index = {v: j for j, v in enumerate(h.views[a])}
            view_of = tuple(index.get(h.proj.get((e, a))) for e in h.edges)
            fibers = tuple(tuple(i for i, j in enumerate(view_of) if j == k)
                           for k in range(len(index)))
            self.view_of[a] = intern.setdefault(view_of, view_of)
            self.fibers[a] = intern.setdefault(fibers, fibers)


@lru_cache(maxsize=8)
def _structures(agents: Tuple[str, ...], views: int, edges: int) -> Tuple[_Structure, ...]:
    b = Bounds(agents=len(agents), views=views, edges=edges)
    intern: Dict[tuple, tuple] = {}
    return tuple(_Structure(h, intern) for h in enumerate_hypergraphs(b, Signature(agents)))


def compile_program(core, sort: str):
    """Compile a core formula of ``sort`` (``"world"`` or an agent) into a
    postfix program, walking it with an explicit stack.

    Returns the program and the sort of each atom or metavariable name, in
    order of first occurrence.  Steps: ``("top"|"bot", sort)``, ``("atom",
    name)``, ``("not",)``, ``("and",)``, ``("some", a)`` for ``E[a]`` and
    ``("poss", a)`` for ``<>`` at a view of ``a``.
    """
    program = []
    leaves: Dict[str, str] = {}
    todo = [(core, sort)]
    while todo:
        node, ctx = todo.pop()
        if node is None:          # an operator whose operands are emitted
            program.append(ctx)
            continue
        if isinstance(node, WorldFormula) != (ctx == "world"):
            raise SortError(f"not a core formula of sort {ctx}: {node!r}", node=node)
        match node:
            case WTrue() | ATrue():
                program.append(("top", ctx))
            case WFalse() | AFalse():
                program.append(("bot", ctx))
            case EnvAtom(n) | WMeta(n) | AgentAtom(n) | AMeta(n):
                if leaves.setdefault(n, ctx) != ctx:
                    raise SortError(f"'{n}' occurs at two sorts", node=node)
                program.append(("atom", n))
            case WNot(x) | ANot(x):
                todo += [(None, ("not",)), (x, ctx)]
            case WAnd(l, r) | AAnd(l, r):
                todo += [(None, ("and",)), (r, ctx), (l, ctx)]
            case SomeView(a, x):
                todo += [(None, ("some", a)), (x, a)]
            case PossWorld(x):
                todo += [(None, ("poss", ctx)), (x, "world")]
            case _:
                raise SortError(f"not a core formula of sort {ctx}: {node!r}", node=node)
    return tuple(program), leaves


# Assignments per chunk of the sweep, as a power of two.
_CHUNK_BITS = 14


@lru_cache(maxsize=None)
def _bit_pattern(chunk: int, m: int) -> int:
    """The ``2**chunk``-bit int whose bit ``t`` is bit ``m`` of ``t``."""
    block = 1 << m
    ones = ((1 << block) - 1) << block
    return ((1 << (1 << chunk)) - 1) // ((1 << (2 * block)) - 1) * ones


def _widths(st: _Structure, swept_names, sorts) -> List[int]:
    return [len(st.edges) if sorts[n] == "world" else len(st.views[sorts[n]])
            for n in swept_names]


def extension_chunks(program, st: _Structure, swept_names, sorts
                     ) -> Iterator[Tuple[int, int, List[int]]]:
    """Evaluate a compiled program on one structure under every assignment.

    An assignment gives each swept name a set of points of its sort
    (``sorts[name]``), a bitmask over them.  Assignments are numbered in
    ``itertools.product`` order over the names' masks, the last name varying
    fastest.  Yields ``(first, width, values)`` for consecutive chunks of at
    most ``2**_CHUNK_BITS`` assignments: bit ``t`` of ``values[p]`` is the
    formula's value at point ``p`` under assignment ``first + t``.
    """
    widths = _widths(st, swept_names, sorts)
    total = sum(widths)
    chunk = min(total, _CHUNK_BITS)
    width = 1 << chunk
    full = (1 << width) - 1
    view_of, fibers = st.view_of, st.fibers
    for first in range(0, 1 << total, width):
        # Point j of the name at ``offset`` holds iff bit offset + j of the
        # assignment number is set.
        env = {}
        offset = total
        for name, k in zip(swept_names, widths):
            offset -= k
            env[name] = [_bit_pattern(chunk, m) if m < chunk
                         else full if first >> m & 1 else 0
                         for m in range(offset, offset + k)]
        stack = []
        for step in program:
            op = step[0]
            if op == "atom":
                stack.append(env[step[1]])
            elif op == "not":
                stack[-1] = [full ^ x for x in stack[-1]]
            elif op == "and":
                right = stack.pop()
                stack[-1] = [x & y for x, y in zip(stack[-1], right)]
            elif op == "some":
                sub = stack[-1]
                stack[-1] = [0 if j is None else sub[j] for j in view_of[step[1]]]
            elif op == "poss":
                sub = stack[-1]
                stack[-1] = [reduce(or_, [sub[i] for i in fiber]) for fiber in fibers[step[1]]]
            else:
                points = len(st.edges) if step[1] == "world" else len(st.views[step[1]])
                stack.append([full if op == "top" else 0] * points)
        yield first, width, stack[0]


def sweep(program, sort: str, st: _Structure, swept_names, sorts):
    """Find the first assignment that falsifies the program at a point of ``sort``.

    Returns ``(assignments swept, None)`` when there is none, else
    ``(assignments swept, (assignment, point))``: the first falsifying
    assignment in ``extension_chunks`` order and the first point, in the
    structure's order, where it fails.
    """
    for first, width, values in extension_chunks(program, st, swept_names, sorts):
        full = (1 << width) - 1
        holds = reduce(and_, values, full)
        if holds != full:
            t = ((full ^ holds) & -(full ^ holds)).bit_length() - 1
            idx = next(p for p, x in enumerate(values) if not x >> t & 1)
            point = World(st.edges[idx]) if sort == "world" else View(sort, st.views[sort][idx])
            return first + t + 1, (first + t, point)
    return first + width, None


def witness_model(sig: Signature, st: _Structure, swept_names, sorts, assignment,
                  atom_of=None) -> ChromaticHypergraphModel:
    """The model over ``sig`` on structure ``st`` under the numbered
    assignment: each swept name's atom (``atom_of[name]``, by default the
    name) holds at the points of its mask, every other atom nowhere."""
    val_agent = {a: {} for a in sig.agents}
    val_env = {}
    widths = _widths(st, swept_names, sorts)
    offset = sum(widths)
    for name, k in zip(swept_names, widths):
        offset -= k
        sort = sorts[name]
        points = st.edges if sort == "world" else st.views[sort]
        members = frozenset(p for i, p in enumerate(points) if assignment >> offset + i & 1)
        atom = atom_of[name] if atom_of else name
        (val_env if sort == "world" else val_agent[sort])[atom] = members
    proj = {(e, a): st.views[a][view_of[i]]
            for i, e in enumerate(st.edges)
            for a, view_of in st.view_of.items() if view_of[i] is not None}
    return build_model(sig, st.views, st.edges, proj, val_agent, val_env)


# --- verdicts -----------------------------------------------------------------------


@dataclass(frozen=True)
class ValidWithinBounds:
    models_checked: int = 0


@dataclass(frozen=True)
class Countermodel:
    model: ChromaticHypergraphModel
    point: EvalPoint
    assignment: Dict[str, object] = field(default_factory=dict)


Verdict = Union[ValidWithinBounds, Countermodel]


def check_scheme(scheme, b: Bounds, agent: Optional[str] = None) -> Verdict:
    """Sweep a scheme over every model within bounds.

    World-sorted schemes are checked at every edge, agent-sorted schemes at
    every view of ``agent`` (required for the latter).  Returns the first
    countermodel in stream order, re-validated through the evaluator, or
    ``ValidWithinBounds``.
    """
    b.validate()
    sig = signature_for_bounds(b)
    world_scheme = isinstance(scheme, WorldFormula)
    if not world_scheme and agent is None:
        raise SortError("agent-sorted scheme: pass the owning agent")
    if not world_scheme and agent not in sig.agents:
        raise SortError(f"agent '{agent}' is outside the bounds alphabet")
    meta_sorts = scheme_meta_sorts(scheme, sig, agent=agent)
    core = desugar(scheme)
    sort = "world" if world_scheme else agent
    program, sorts = compile_program(core, sort)

    # Concrete atoms occurring in the scheme are swept exactly like
    # metavariables: their valuations are free across the enumerated models.
    metas = [n for n in sorts if n in meta_sorts]
    atoms = [n for n in sorts if n not in meta_sorts]
    swept_names = metas + atoms

    # One fresh atom per metavariable makes the extension sweep exactly the
    # sweep over all instantiations under all valuations.
    atom_of: Dict[str, str] = {n: n for n in atoms}
    env_pool = [n for n in sig.env_atoms if n not in atom_of]
    agent_pool = {a: [n for n in sig.atoms_for(a) if n not in atom_of]
                  for a in sig.agents}
    for name in metas:
        pool = env_pool if sorts[name] == "world" else agent_pool[sorts[name]]
        if not pool:
            raise BoundsError(
                "scheme checking needs one environment atom per world metavariable"
                if sorts[name] == "world" else
                f"scheme checking needs one atom of agent {sorts[name]} per metavariable")
        atom_of[name] = pool.pop(0)

    checked = 0
    for st in _structures(sig.agents, b.views, b.edges):
        count, hit = sweep(program, sort, st, swept_names, sorts)
        checked += count
        if hit is not None:
            assignment, point = hit
            model = witness_model(sig, st, swept_names, sorts, assignment, atom_of)
            formula_assignment = {
                n: EnvAtom(atom_of[n]) if sorts[n] == "world" else AgentAtom(atom_of[n])
                for n in metas}
            _revalidate(model, point, core, formula_assignment)
            return Countermodel(model=model, point=point, assignment=formula_assignment)
    return ValidWithinBounds(models_checked=checked)


def _revalidate(model, point, core, formula_assignment):
    instance = substitute_metas(core, formula_assignment)
    if Evaluator(model).sat(point, instance):
        raise AssertionError(
            "internal error: extension sweep and evaluator disagree on a countermodel")


# --- concrete-formula countermodel search ------------------------------------------


def find_countermodel(f: WorldFormula, b: Bounds) -> Verdict:
    """Bounded validity check for a concrete world formula.

    A returned countermodel is locally minimal: no single edge or view
    deletion keeps the formula false at the witness world.
    """
    b.validate()
    core = desugar(f)
    agents = default_agents(b.agents)
    program, sorts = compile_program(core, "world")
    extra = {step[1] for step in program if step[0] == "some"} - set(agents)
    if extra:
        raise BoundsError(
            f"formula mentions agents {sorted(extra)} outside the bounds alphabet {list(agents)}")
    names = list(sorts)
    checked = 0
    for st in _structures(agents, b.views, b.edges):
        count, hit = sweep(program, "world", st, names, sorts)
        checked += count
        if hit is not None:
            assignment, point = hit
            sig = Signature(
                agents,
                {a: tuple(n for n in names if sorts[n] == a) for a in agents},
                tuple(n for n in names if sorts[n] == "world"))
            model = witness_model(sig, st, names, sorts, assignment)
            model, edge = _minimize(model, point.edge, core)
            if Evaluator(model).sat_world(edge, core):
                raise AssertionError("internal error: minimized countermodel re-checks true")
            return Countermodel(model=model, point=World(edge), assignment={})
    return ValidWithinBounds(models_checked=checked)


def _drop_edge(m: ChromaticHypergraphModel, edge: str) -> Optional[ChromaticHypergraphModel]:
    h = m.hypergraph
    edges = tuple(e for e in h.edges if e != edge)
    proj = {(e, a): v for (e, a), v in h.proj.items() if e != edge}
    views = {}
    for a in h.sig.agents:
        keep = tuple(v for v in h.views.get(a, ())
                     if any(proj.get((e, a)) == v for e in edges))
        views[a] = keep
    val_agent = {
        a: {atom: frozenset(v for v in members if v in views[a])
            for atom, members in m.val_agent[a].items()}
        for a in h.sig.agents
    }
    val_env = {atom: frozenset(e for e in members if e != edge)
               for atom, members in m.val_env.items()}
    try:
        return build_model(h.sig, views, edges, proj, val_agent, val_env)
    except Exception:
        return None


def _drop_view(m: ChromaticHypergraphModel, agent: str, view: str
               ) -> Optional[ChromaticHypergraphModel]:
    h = m.hypergraph
    proj = {(e, a): v for (e, a), v in h.proj.items()
            if not (a == agent and v == view)}
    for e in h.edges:
        if not any((e, a) in proj for a in h.sig.agents):
            return None  # would orphan a world
    views = dict(h.views)
    views[agent] = tuple(v for v in h.views.get(agent, ()) if v != view)
    val_agent = {
        a: {atom: frozenset(v for v in members if v != view or a != agent)
            for atom, members in m.val_agent[a].items()}
        for a in h.sig.agents
    }
    try:
        return build_model(h.sig, views, h.edges, proj, val_agent, m.val_env)
    except Exception:
        return None


def _minimize(model, edge, core):
    """Greedy local minimization: edges first, then views, until fixpoint."""
    changed = True
    while changed:
        changed = False
        for e in model.edges:
            if e == edge:
                continue
            reduced = _drop_edge(model, e)
            if reduced is not None and not Evaluator(reduced).sat_world(edge, core):
                model = reduced
                changed = True
                break
        if changed:
            continue
        for a in model.sig.agents:
            for v in model.views_of(a):
                reduced = _drop_view(model, a, v)
                if reduced is not None and not Evaluator(reduced).sat_world(edge, core):
                    model = reduced
                    changed = True
                    break
            if changed:
                break
    return model, edge


# --- the scheme library --------------------------------------------------------------


def scheme_surjectivity(agent="a") -> AgentFormula:
    phi = AMeta("phi")
    return AImplies(phi, PossWorld(SomeView(agent, phi)))


def scheme_functionality(agent="a") -> AgentFormula:
    phi = AMeta("phi")
    return AImplies(PossWorld(SomeView(agent, phi)), phi)


def scheme_non_emptiness(agents) -> WorldFormula:
    out = alive(agents[0])
    for a in agents[1:]:
        out = disj(out, alive(a))
    return out


def interaction_schemes(agent="a"):
    """The six derivable interaction schemes, keyed 1..6."""
    phi = AMeta("phi")
    Phi = WMeta("PHI")
    return {
        1: WImplies(SomeView(agent, phi), AllViews(agent, phi)),
        2: AImplies(Box(Phi), Box(SomeView(agent, Box(Phi)))),
        3: WImplies(SomeView(agent, Box(Phi)), Phi),
        4: WImplies(Phi, AllViews(agent, PossWorld(Phi))),
        5: AImplies(phi, Box(SomeView(agent, phi))),
        6: AImplies(Box(Phi), PossWorld(Phi)),
    }


def locality_scheme(agent="a") -> AgentFormula:
    """An agent decides every formula about itself."""
    phi = AMeta("phi")
    return AOr(Box(SomeView(agent, phi)), Box(SomeView(agent, ANot(phi))))


def knowledge_schemes(agent="a"):
    """K/T/B/4 style schemes for the two world-level knowledge operators,
    plus the failure-of-necessitation formula for the safe one."""
    Phi = WMeta("PHI")
    Psi = WMeta("PSI")
    ku = lambda x: kunsafe(agent, x)
    ks = lambda x: ksafe(agent, x)
    return {
        "kunsafe_k": WImplies(ku(WImplies(Phi, Psi)), WImplies(ku(Phi), ku(Psi))),
        "kunsafe_b": WImplies(Phi, ku(WNot(ku(WNot(Phi))))),
        "kunsafe_4": WImplies(ku(Phi), ku(ku(Phi))),
        "ksafe_k": WImplies(ks(WImplies(Phi, Psi)), WImplies(ks(Phi), ks(Psi))),
        "ksafe_t": WImplies(ks(Phi), Phi),
        "ksafe_b": WImplies(Phi, ks(WNot(ks(WNot(Phi))))),
        "ksafe_4": WImplies(ks(Phi), ks(ks(Phi))),
        "ksafe_necessitation": ks(WTrue()),
    }
