"""Bounded enumeration of models, validity sweeps, and countermodel search.

``enumerate_hypergraphs``/``enumerate_models`` stream every labelled
structure within the bounds, deterministically.  The semantics depends
neither on the order of the edges nor on the names of an agent's views
(agents are named by formulas, so they are not symmetries), and the sweeps
read the class stream ``_structures`` instead: one structure per
isomorphism class under those two symmetries, in labelled-stream order,
with a ``weight``, the number of labelled structures it stands for.  At the
default bounds that is 146 classes for 3,292 structures, at 3 agents, 2
views and 3 edges 567 for 7,583.  Each class is represented by its first
labelled structure, so the first labelled structure with a falsifying
assignment is a representative, and the first witness (structure, edge and
view names, assignment and point) is the labelled sweep's.  A fully swept
class counts its assignments once per labelled structure, so
``models_checked`` is the labelled total.

Only the *connected* classes are swept, those whose edges form one
component, two edges meeting where they share a view: 63 of the 146
classes at the default bounds, 302 of the 567 at 3 agents, 2 views and 3
edges.  Every modality moves along a shared view (``E[a]``/``A[a]`` from a
world to its views, ``<>``/``[]`` from a view to its fiber), so a point's
truth depends only on its component.  Each component of a disconnected
class is itself a structure of the stream (its views covered, no edge
empty) with view counts no larger and not all equal, so it comes earlier in
the stream: if a disconnected class has a falsifying assignment, an earlier
connected class has one too, and the first witness is always in a
connected class.  A skipped class still counts its weight times its
assignments, which its shape gives without a sweep.

Every validity sweep (``check_scheme``, ``find_countermodel`` and the proof
kernel's ``soundness_spotcheck``) runs through ``sweep``: the formula is
compiled once into a register program, and every point's value is one int
whose bit ``t`` is its truth value under assignment ``t`` (bit-slicing
across valuations).  The program's steps are value-numbered: each step
names its operands by their indices, and a step equal to one already
emitted is not emitted again, so each distinct subformula is computed once.
After each stretch of ``_STRETCH`` steps, fewer on chunks wider than
``_WIDE`` bits, the interpreter drops the values that no later step reads,
so a long program holds about as many values at once as a short one, and a
wide chunk no more bits than a narrow one.
``compile_program`` reads the derived connectives directly, emitting the
steps of their core forms, so no caller desugars.  Assignments are numbered
in ``itertools.product`` order and swept in chunks of bounded width.  The
program is interpreted once per *run*, not once per structure: consecutive
structures of the stream with the same edge count and view counts give
every swept name the same width, so ``_Stream.runs`` lays the connected
ones side by side as one structure (20 runs interpreted for the 63
connected classes at the default bounds, 49 for the 302 at 3 agents, 2
views and 3 edges).  In a chunk, the first point of the run false under
some assignment names the first member that fails there, and the earliest
such member over all chunks is the first member with a falsifying
assignment.  Its lowest zero bit gives its first falsifying assignment and
the first point false under it the witness, exactly as sweeping the
structures one by one, one valuation at a time, would.

``check_scheme`` decides whether a scheme (a formula with ``?metavariable``
leaves) holds at every point of every model within bounds.  Instead of
instantiating metavariables with concrete formulas one by one, it sweeps the
*extensions* a metavariable can take: a scheme instance's truth value
depends on an instantiated subformula only through the set of points
satisfying it, and every set of points is realized by some atom under some
valuation within bounds.  The quotient is therefore exact (and independent
of any instantiation-depth cutoff) as soon as the atom alphabet offers one
atom per metavariable of each sort, which ``check_scheme`` enforces.
Every caller's witness comes from one loop, ``first_witness``: the first
falsifying assignment on the first structure that has one, decoded into a
model, which the caller re-validates through the ordinary evaluator before
returning it, on the formula as it was given: the evaluator's own clauses
for the derived connectives then check the compiler's expansion of them.
``check_scheme``'s countermodels carry a concrete witness: each
metavariable is assigned a fresh atom whose valuation is the falsifying
extension.

``find_countermodel`` sweeps the valuations of a concrete formula's own
atoms and returns the first witness as it is, which is already locally
minimal: a one-deletion substructure (one view of some agent fewer, or the
same views and one edge fewer) is, up to renaming, in an earlier class of
the stream, and that class's exhaustive sweep found nothing.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import cached_property, lru_cache, reduce
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
from .record import Record
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
    WOr,
    WTrue,
    alive,
    disj,
    ksafe,
    kunsafe,
    scheme_meta_sorts,
    sort_of,
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
        if key.strip() in caps and value.strip().isdecimal():
            caps[key.strip()] = int(value.strip())
    return caps


class Bounds(Record):
    """Structural bounds for enumeration and scheme sweeps."""

    agents: int = 2
    views: int = 2
    edges: int = 4
    agent_atoms: int = 2
    env_atoms: int = 2

    def validate(self):
        caps = hard_caps()
        problems = []
        if self.agents < 1 or self.views < 1 or self.edges < 1:
            problems.append("agents, views and edges bounds must be positive")
        if self.agent_atoms < 0 or self.env_atoms < 0:
            problems.append("atom bounds must be non-negative")
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
    """One structure of a stream, as the sweep reads it.

    Per agent, ``view_of[a][i]`` is the index of the agent's view in edge
    ``i`` (None where the agent is absent); equal columns are one shared
    tuple.  ``weight`` is the number of labelled structures the structure
    stands for.  A structure that is not ``connected`` is counted by its
    weight and never swept.
    """

    __slots__ = ("edges", "views", "view_of", "weight", "connected")

    def __init__(self, edges, views, view_of: Dict[str, tuple], intern: Dict[tuple, tuple],
                 weight: int, connected: bool = True):
        self.edges = edges
        self.views = views
        self.weight = weight
        self.connected = connected
        self.view_of = {a: intern.setdefault(col, col) for a, col in view_of.items()}


def _shape(st: _Structure):
    return len(st.edges), tuple(map(len, st.views.values()))


class _Run:
    """A stretch of consecutive structures of a stream with one shape (edge
    count and view count per agent), its connected ones, the *members*, laid
    side by side as one structure: member ``m``'s edge ``i`` is the run's
    edge ``m * k + i`` for ``k`` edges per member, and likewise for each
    agent's views.  Every swept name has the same width on each member, so
    one program interpretation sweeps them all.

    ``head`` is the stretch's first structure, which gives the shape.
    ``points[s]`` is the run's number of points of sort ``s``, ``view_of``
    the union's table, as on a structure, and ``weights[m]`` the summed
    weight of the stretch's structures before member ``m``, the skipped ones
    included; the last entry is the whole stretch's weight.
    """

    __slots__ = ("head", "members", "points", "view_of", "weights")

    def __init__(self, stretch: Tuple[_Structure, ...]):
        self.head = stretch[0]
        self.members = tuple(st for st in stretch if st.connected)
        weights, total = [], 0
        for st in stretch:
            if st.connected:
                weights.append(total)
            total += st.weight
        self.weights = (*weights, total)
        members = self.members
        k, counts = _shape(self.head)
        self.points = {"world": len(members) * k}
        self.view_of = {}
        for a, c in zip(self.head.views, counts):
            self.points[a] = len(members) * c
            self.view_of[a] = tuple(None if j is None else m * c + j
                                    for m, st in enumerate(members) for j in st.view_of[a])


# Edges per run at most: keeps a chunk's values over one run within this
# many times 2**_CHUNK_BITS bits per sort.
_RUN_EDGES = 256


class _Stream(tuple):
    """A stream of structures, which cuts itself into runs on first use."""

    @cached_property
    def runs(self) -> Tuple[_Run, ...]:
        """Maximal stretches of consecutive structures of one shape, split
        before a connected structure where the run would exceed
        ``_RUN_EDGES`` edges.  A shape without a connected structure is one
        run without members."""
        out = []
        for (k, _), group in itertools.groupby(self, _shape):
            step = max(1, _RUN_EDGES // k)
            stretch, members = [], 0
            for st in group:
                if st.connected:
                    if members == step:
                        out.append(_Run(tuple(stretch)))
                        stretch, members = [], 0
                    members += 1
                stretch.append(st)
            out.append(_Run(tuple(stretch)))
        return tuple(out)


def _orderings(seq) -> int:
    """The number of distinct orderings of a sorted sequence."""
    out = math.factorial(len(seq))
    for _, run in itertools.groupby(seq):
        out //= math.factorial(len(list(run)))
    return out


@lru_cache(maxsize=8)
def _structures(agents: Tuple[str, ...], views: int, edges: int) -> _Stream:
    """One structure per isomorphism class of ``enumerate_hypergraphs`` over
    ``agents``, in that stream's order, weighted by the size of its class.

    Two labelled structures are isomorphic when a permutation of the edges
    and a renaming of each agent's views maps one onto the other.  For given
    view counts and edge count, a structure is a sequence of rows (each
    agent's view index, or None), and the labelled stream lists the
    sequences in lexicographic order of row indices.  Its first member of a
    class is therefore the least one: a sorted sequence that no view
    renaming turns into a smaller sorted sequence.  That member is kept, with
    the same edge and view names; its weight sums the orderings of the
    class's distinct sorted sequences.  A structure is marked ``connected``
    when its edges form one component, two edges meeting where they share
    a view; see the module docstring for why only those are swept.
    """
    Bounds(agents=len(agents), views=views, edges=edges).validate()
    intern: Dict[tuple, tuple] = {}
    out = []
    for view_counts in itertools.product(range(views + 1), repeat=len(agents)):
        names = {a: tuple(f"{a}{i + 1}" for i in range(c))
                 for a, c in zip(agents, view_counts)}
        rows = [row for row in itertools.product(*[(None, *range(c)) for c in view_counts])
                if any(v is not None for v in row)]
        index = {row: r for r, row in enumerate(rows)}
        offsets = list(itertools.accumulate(view_counts, initial=0))
        cover = [sum(1 << offsets[i] + v for i, v in enumerate(row) if v is not None)
                 for row in rows]
        everything = (1 << offsets[-1]) - 1
        # Row indices under each view renaming but the identity, which
        # itertools lists first.
        renamings = [
            tuple(index[tuple(None if v is None else perm[v] for v, perm in zip(row, perms))]
                  for row in rows)
            for perms in itertools.product(*[itertools.permutations(range(c))
                                             for c in view_counts])][1:]
        for k in range(1, edges + 1):
            edge_names = tuple(f"e{i + 1}" for i in range(k))
            for seq in itertools.combinations_with_replacement(range(len(rows)), k):
                covers = [cover[r] for r in seq]
                if reduce(or_, covers) != everything:
                    continue
                images = {seq}
                for renaming in renamings:
                    image = tuple(sorted([renaming[r] for r in seq]))
                    if image < seq:
                        break
                    images.add(image)
                else:
                    view_of = {a: tuple(rows[r][i] for r in seq) for i, a in enumerate(agents)}
                    out.append(_Structure(edge_names, names, view_of, intern,
                                          sum(map(_orderings, images)), _connected(covers)))
    return _Stream(out)


def _connected(covers: List[int]) -> bool:
    """Whether edges with these view masks form one component, two edges
    meeting where they share a view."""
    reach, rest = covers[0], set(covers[1:])
    while rest:
        near = {c for c in rest if c & reach}
        if not near:
            return False
        reach |= reduce(or_, near)
        rest -= near
    return True


# compile_program's work stack holds (node, sort) pairs still to expand and,
# as ((op, arg), None), steps to emit once their operands are numbered.
def _pending(op, arg=None):
    return (op, arg), None


_NOT, _AND = _pending("not"), _pending("and")

# Per sort, what replaces a node of each type on the work stack, the entry to
# be taken first last; an atom, metavariable or constant is emitted in place.
# A derived connective is replaced by the steps of its form under ``desugar``.
_NEGATION = lambda f, s: (_NOT, (f.sub, s))
_CONJUNCTION = lambda f, s: (_AND, (f.right, s), (f.left, s))
_DISJUNCTION = lambda f, s: (_NOT, _AND, _NOT, (f.right, s), _NOT, (f.left, s))
_IMPLICATION = lambda f, s: (_NOT, _AND, _NOT, (f.right, s), (f.left, s))
_WORLD_STEPS = {
    EnvAtom: "atom", WMeta: "meta", WTrue: "top", WFalse: "bot",
    WNot: _NEGATION, WAnd: _CONJUNCTION, WOr: _DISJUNCTION, WImplies: _IMPLICATION,
    SomeView: lambda f, s: (_pending("some", f.agent), (f.sub, f.agent)),
    AllViews: lambda f, s: (_NOT, _pending("some", f.agent), _NOT, (f.sub, f.agent)),
}
_AGENT_STEPS = {
    AgentAtom: "atom", AMeta: "meta", ATrue: "top", AFalse: "bot",
    ANot: _NEGATION, AAnd: _CONJUNCTION, AOr: _DISJUNCTION, AImplies: _IMPLICATION,
    PossWorld: lambda f, s: (_pending("poss", s), (f.sub, "world")),
    Box: lambda f, s: (_NOT, _pending("poss", s), _NOT, (f.sub, "world")),
}


def compile_program(f, sort: str, allow_metas: bool = False):
    """Compile a formula of ``sort`` (``"world"`` or an agent) into a
    register program: step ``k`` computes value ``k`` of the sweep from
    earlier values, and the formula's value is the last step's.

    A step is ``(op, arg, i, j)``, where ``i`` and ``j`` are the indices of
    its operand steps, None where it has fewer (and left out here):
    ``("top"|"bot", sort)``, ``("atom", name)``, ``("not", None, i)``,
    ``("and", None, i, j)``, ``("some", a, i)`` for ``E[a]`` and
    ``("poss", a, i)`` for ``<>`` at a view of ``a``.  Steps are
    value-numbered: a step equal to one already emitted reuses its index,
    so each distinct subformula of the core form costs one step.  The
    derived connectives (``|``, ``->``, ``A[a]`` and ``[]``) compile
    directly to the steps of their core forms: the program is the one the
    formula's ``desugar`` gives.  Returns the program and the sort of each
    atom or metavariable name, in order of first occurrence.  If
    ``allow_metas`` is set, a metavariable ``?x`` compiles like an atom
    named ``"?x"``, which no atom can be named, so that it never shares a
    leaf with the atom ``x``.
    """
    numbers: Dict[tuple, int] = {}          # each step's index, in emission order
    leaves: Dict[str, str] = {}
    done = []                               # indices of operands not yet used
    todo = [(f, sort)]
    while todo:
        node, s = todo.pop()
        if s is None:           # a step whose operands top ``done``: replace them
            op, arg = node
            j = done.pop() if op == "and" else None
            done[-1] = numbers.setdefault((op, arg, done[-1], j), len(numbers))
            continue
        kind = (_WORLD_STEPS if s == "world" else _AGENT_STEPS).get(type(node))
        if kind is None:
            sort_of(node)       # a TypeError when it is no formula
            raise SortError(f"not a formula of sort {s}: {node!r}", node=node)
        if type(kind) is not str:
            todo += kind(node, s)
            continue
        if kind == "top" or kind == "bot":
            step = (kind, s, None, None)
        else:
            name = node.name
            if kind == "meta":
                if not allow_metas:
                    raise SortError(f"cannot evaluate metavariable '?{name}'", node=node)
                name = "?" + name
            if leaves.setdefault(name, s) != s:
                raise SortError(f"'{node.name}' occurs at two sorts", node=node)
            step = ("atom", name, None, None)
        done.append(numbers.setdefault(step, len(numbers)))
    return tuple(numbers), leaves


# Assignments per chunk of the sweep, as a power of two.
_CHUNK_BITS = 14


@lru_cache(maxsize=None)
def _bit_patterns(chunk: int) -> Tuple[int, ...]:
    """The ``2**chunk``-bit ints, for ``m < chunk``, whose bit ``t`` is bit
    ``m`` of ``t``."""
    return tuple(((1 << (1 << chunk)) - 1) // ((1 << (2 << m)) - 1)
                 * (((1 << (1 << m)) - 1) << (1 << m)) for m in range(chunk))


def _widths(st: _Structure, swept_names, sorts) -> List[int]:
    return [len(st.edges) if sorts[n] == "world" else len(st.views[sorts[n]])
            for n in swept_names]


# Steps per stretch of a program on chunks of at most ``_WIDE`` bits, after
# which the values no later step reads are dropped: a value outlives its last
# reader by less than one stretch.  Wider chunks get stretches shorter in
# proportion, so that a stretch's values at a point hold at most
# ``_STRETCH * _WIDE`` bits.  A program no longer than its stretch is one
# stretch, which costs nothing to cut; a longer one is cut again for each
# interpretation, at a cost linear in its steps.
_STRETCH = 256
_WIDE = 1 << 10


def _stretches(program, length: int) -> Tuple[Tuple[tuple, Tuple[int, ...]], ...]:
    """Consecutive stretches of ``length`` steps of a program, each with the
    steps whose value it is the last to read (none for the last stretch,
    whose values go with the interpretation)."""
    if len(program) <= length:
        return ((program, ()),)
    last = {}
    for k, (_, _, i, j) in enumerate(program):
        last[i] = last[j] = k // length
    dead = [[] for _ in range(0, len(program), length)]
    for i, s in last.items():
        if i is not None and s < len(dead) - 1:
            dead[s].append(i)
    return tuple((program[s * length:(s + 1) * length], tuple(d))
                 for s, d in enumerate(dead))


def _evaluate(program, run: _Run, env: Dict[str, List[int]], full: int) -> List[int]:
    """Run a compiled program on a run: ``env[name]`` gives each point of the
    name's sort an int, ``full`` is the all-true int.  ``values[k]`` is step
    ``k``'s int at each point of its sort; the result is the last step's.
    After each stretch of steps, the values that no later step reads are
    dropped."""
    view_of = run.view_of
    values = []
    length = max(1, _STRETCH * _WIDE // max(full.bit_length(), _WIDE))
    for steps, dead in _stretches(program, length):
        for op, arg, i, j in steps:
            if op == "not":
                values.append([full ^ x for x in values[i]])
            elif op == "and":
                values.append([x & y for x, y in zip(values[i], values[j])])
            elif op == "atom":
                values.append(env[arg])
            elif op == "some":
                sub = values[i]
                values.append([0 if v is None else sub[v] for v in view_of[arg]])
            elif op == "poss":
                out = [0] * run.points[arg]
                for x, v in zip(values[i], view_of[arg]):
                    if v is not None:
                        out[v] |= x
                values.append(out)
            else:
                values.append([full if op == "top" else 0] * run.points[arg])
        for k in dead:
            values[k] = None
    return values[-1]


def extension_chunks(program, run: _Run, swept_names, sorts
                     ) -> Iterator[Tuple[int, int, List[int]]]:
    """Evaluate a compiled program on every member of a run under every
    assignment.

    An assignment gives each swept name a set of points of its sort
    (``sorts[name]``) on one member, a bitmask over them.  Assignments are
    numbered in ``itertools.product`` order over the names' masks, the last
    name varying fastest.  Yields ``(first, width, values)`` for consecutive
    chunks of at most ``2**_CHUNK_BITS`` assignments: bit ``t`` of
    ``values[p]`` is the program's last step's value at the run's point
    ``p`` under assignment ``first + t``.
    """
    widths = _widths(run.head, swept_names, sorts)
    total = sum(widths)
    chunk = min(total, _CHUNK_BITS)
    width = 1 << chunk
    full = (1 << width) - 1
    patterns = _bit_patterns(chunk)
    for first in range(0, 1 << total, width):
        # Point j of the name at ``offset`` holds iff bit offset + j of the
        # assignment number is set, on every member alike.
        env = {}
        offset = total
        for name, k in zip(swept_names, widths):
            offset -= k
            env[name] = [patterns[m] if m < chunk
                         else full if first >> m & 1 else 0
                         for m in range(offset, offset + k)] * len(run.members)
        yield first, width, _evaluate(program, run, env, full)


def sweep(program, sort: str, run: _Run, swept_names, sorts):
    """Find the first member of a run with an assignment that falsifies the
    program at a point of ``sort``.

    Returns ``(assignments swept, None)`` when there is none, else
    ``(assignments swept, (member, assignment, point))``: the member's first
    falsifying assignment in ``extension_chunks`` order and the first point,
    in the member's order, where it fails.  The structures of the run's
    stretch before it, the skipped ones included, count their assignments
    ``weight`` times, the member itself its assignments up to the falsifying
    one once; a run without a hit counts its whole stretch, and one without
    members is not interpreted.  A later member can fail in an earlier
    chunk, so a failing run's remaining chunks are swept before choosing.
    """
    members = run.members
    best, hit = len(members), None
    chunks = extension_chunks(program, run, swept_names, sorts) if members else ()
    for first, width, values in chunks:
        full = (1 << width) - 1
        if reduce(and_, values, full) == full:
            continue
        # The member of the first point false under some assignment here.
        size = len(values) // len(members)
        m = [x == full for x in values].index(False) // size
        if m < best:
            part = values[m * size:(m + 1) * size]
            holds = reduce(and_, part, full)
            t = ((full ^ holds) & -(full ^ holds)).bit_length() - 1
            best, hit = m, (first + t, [x >> t & 1 for x in part].index(0))
            if m == 0:
                break
    swept = run.weights[best] << sum(_widths(run.head, swept_names, sorts))
    if hit is None:
        return swept, None
    st, (assignment, idx) = members[best], hit
    point = World(st.edges[idx]) if sort == "world" else View(sort, st.views[sort][idx])
    return swept + assignment + 1, (st, assignment, point)


def assignment_values(st: _Structure, swept_names, sorts, assignment: int
                      ) -> Dict[str, List[int]]:
    """Each swept name's value (0 or 1) at each point of its sort under the
    assignment numbered as in ``extension_chunks``."""
    widths = _widths(st, swept_names, sorts)
    offset = sum(widths)
    values = {}
    for name, k in zip(swept_names, widths):
        offset -= k
        values[name] = [assignment >> offset + i & 1 for i in range(k)]
    return values


def witness_model(sig: Signature, st: _Structure, sorts, values,
                  atom_of=None) -> ChromaticHypergraphModel:
    """The model over ``sig`` on structure ``st`` where each name in
    ``values`` gives its atom (``atom_of[name]``, by default the name) the
    points at which its value is 1; every other atom holds nowhere."""
    val_agent = {a: {} for a in sig.agents}
    val_env = {}
    for name, bits in values.items():
        sort = sorts[name]
        points = st.edges if sort == "world" else st.views[sort]
        atom = atom_of[name] if atom_of else name
        (val_env if sort == "world" else val_agent[sort])[atom] = frozenset(
            p for p, bit in zip(points, bits) if bit)
    proj = {(e, a): st.views[a][view_of[i]]
            for i, e in enumerate(st.edges)
            for a, view_of in st.view_of.items() if view_of[i] is not None}
    return build_model(sig, st.views, st.edges, proj, val_agent, val_env)


def first_witness(program, sort: str, structures: _Stream, names, sorts, sig: Signature,
                  atom_of=None):
    """Sweep the program over a structure stream, one run at a time, until
    an assignment falsifies it at a point of ``sort``.

    Returns ``(assignments swept, None)`` when none does, else ``(assignments
    swept, (model, point))``: the witness ``witness_model`` builds from the
    first falsifying assignment of the first structure that has one.  Every
    structure before it, swept or skipped as not connected, counts its
    assignments ``weight`` times, so a stream of class representatives
    counts as the labelled stream would.
    """
    checked = 0
    for run in structures.runs:
        count, hit = sweep(program, sort, run, names, sorts)
        checked += count
        if hit is not None:
            st, assignment, point = hit
            values = assignment_values(st, names, sorts, assignment)
            return checked, (witness_model(sig, st, sorts, values, atom_of), point)
    return checked, None


# --- verdicts -----------------------------------------------------------------------
#
# A verdict is built once per query, so its constructor is written out.


class ValidWithinBounds(Record):
    models_checked: int

    def __init__(self, models_checked=0):
        object.__setattr__(self, "models_checked", models_checked)


class Countermodel(Record):
    model: ChromaticHypergraphModel
    point: EvalPoint
    assignment: Dict[str, object]

    def __init__(self, model, point, assignment=None):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "assignment", {} if assignment is None else assignment)


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
    scheme_meta_sorts(scheme, sig, agent=agent)
    sort = "world" if world_scheme else agent
    program, sorts = compile_program(scheme, sort, allow_metas=True)

    # Concrete atoms occurring in the scheme are swept exactly like
    # metavariables (named "?x" in the program): their valuations are free
    # across the enumerated models.
    metas = [n for n in sorts if n[0] == "?"]
    atoms = [n for n in sorts if n[0] != "?"]
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

    checked, hit = first_witness(program, sort, _structures(sig.agents, b.views, b.edges),
                                 swept_names, sorts, sig, atom_of)
    if hit is None:
        return ValidWithinBounds(models_checked=checked)
    model, point = hit
    formula_assignment = {
        n[1:]: EnvAtom(atom_of[n]) if sorts[n] == "world" else AgentAtom(atom_of[n])
        for n in metas}
    _revalidate(model, point, substitute_metas(scheme, formula_assignment))
    return Countermodel(model=model, point=point, assignment=formula_assignment)


def _revalidate(model, point, formula):
    if Evaluator(model).sat(point, formula):
        raise AssertionError(
            "internal error: extension sweep and evaluator disagree on a countermodel")


# --- concrete-formula countermodel search ------------------------------------------


def find_countermodel(f: WorldFormula, b: Bounds) -> Verdict:
    """Bounded validity check for a concrete world formula: a metavariable
    is a ``SortError``, raised before any sweep.

    A returned countermodel is locally minimal: no single edge or view
    deletion keeps the formula false at the witness world.  It is the first
    witness of the class stream, and every one-deletion substructure is, up
    to renaming, in an earlier class of the stream, which the sweep found no
    witness on.
    """
    b.validate()
    agents = default_agents(b.agents)
    program, sorts = compile_program(f, "world")
    extra = {step[1] for step in program if step[0] == "some"} - set(agents)
    if extra:
        raise BoundsError(
            f"formula mentions agents {sorted(extra)} outside the bounds alphabet {list(agents)}")
    names = list(sorts)
    sig = Signature(
        agents,
        {a: tuple(n for n in names if sorts[n] == a) for a in agents},
        tuple(n for n in names if sorts[n] == "world"))
    checked, hit = first_witness(program, "world", _structures(agents, b.views, b.edges),
                                 names, sorts, sig)
    if hit is None:
        return ValidWithinBounds(models_checked=checked)
    model, point = hit
    _revalidate(model, point, f)
    return Countermodel(model=model, point=point, assignment={})


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
