"""Sorted abstract syntax for the two-level logic, plus KB4 syntax.

There are two mutually recursive sorts: *world* formulas are evaluated in a
world of a model (a hyperedge) and *agent* formulas in a local view of one
agent.  ``PossWorld`` ("considers possible") sends an agent formula down to
a world formula, ``SomeView`` ("some view of agent a") sends a world formula
down to an agent formula of that agent's sort.

Formula values are immutable records (:mod:`hyperknow.record`); they can
be shared freely across threads.  ``==``, ``hash`` and ``repr`` ignore
source spans and do not recurse, so formulas of any depth compare, hash and
print.  Each node type has one of five shapes (no field, a name,
one subformula, two subformulas, an agent and a subformula), and each shape
has its own constructor, taking the fields positionally and ``span=``.

The core fragment is: atoms, ``true``/``false``, negation, conjunction and
the two modal constructors.  Everything else (``or``, ``->``, the universal
modalities, knowledge sugar) is derived; ``desugar`` rewrites a formula into
the core fragment.

Which sort a node has is stated once, by its class (``sort_of``), and which
sort each of its children has once, in the table behind
``children(node, sort)``.  One sort checker reads both, for world, agent
and KB4 formulas alike: at each node it compares the node's sort with its
position's, then checks the node's own atom, metavariable or agent, and
only then reads its children.  Every traversal of a formula in the
package is built on ``children`` with an explicit stack, so nesting depth
costs no recursion: ``walk`` yields the nodes in pre-order (the collectors
and ``parse_world_inferring``), and ``fold`` combines values bottom-up
(everything that rebuilds a formula or computes a value from it).  ``fold``
memoizes by node identity only when it is given a memo, because a shared
subformula object (as ``substitute_metas`` puts at every occurrence of a
metavariable) must otherwise be visited at each place it occurs.  Whether
two formulas are the same is decided by ``==`` alone.

A pattern is a formula with pattern variables (``Var``) in some of its
fields; ``match`` binds them against a formula, walking both in lockstep on
an explicit stack.  The renderer's rules and the proof kernel's rule rows
are patterns.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .errors import (
    AgentMismatchError,
    SortError,
    UnknownAgentError,
    UnknownAtomError,
    WrongSortAtomError,
)
from .record import Record

_set = object.__setattr__


class SourceSpan(NamedTuple):
    """Half-open byte range [start, end) with 1-based line/column of start."""

    start: int
    end: int
    line: int
    column: int


# --- node shapes ---------------------------------------------------------------
#
# Every node type has one of five shapes, by the fields it holds besides its
# span.  Each shape's constructor stores the fields directly: formula nodes
# are built on every parse and every rewrite.  A node type names its shape
# before its sort among its bases, so that the shape's constructor is the one
# it inherits.


class _Node(Record):
    """A formula node: its span stays out of ``==``, ``hash`` and ``repr``."""

    _uncompared = ("span",)


class _Constant(_Node):
    span: Optional[SourceSpan] = None

    def __init__(self, span=None):
        _set(self, "span", span)


class _Named(_Node):
    name: str
    span: Optional[SourceSpan] = None

    def __init__(self, name, span=None):
        _set(self, "name", name)
        _set(self, "span", span)


class _Unary(_Node):
    sub: object
    span: Optional[SourceSpan] = None

    def __init__(self, sub, span=None):
        _set(self, "sub", sub)
        _set(self, "span", span)


class _Binary(_Node):
    left: object
    right: object
    span: Optional[SourceSpan] = None

    def __init__(self, left, right, span=None):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "span", span)


class _Labelled(_Node):
    """A modal node that names its agent."""

    agent: str
    sub: object
    span: Optional[SourceSpan] = None

    def __init__(self, agent, sub, span=None):
        _set(self, "agent", agent)
        _set(self, "sub", sub)
        _set(self, "span", span)


class WorldFormula(_Node):
    """Marker base class for world-sorted formulas."""

    _sort = "world"


class AgentFormula(_Node):
    """Marker base class for agent-sorted formulas."""

    _sort = "agent"


# --- world sort, core -------------------------------------------------------


class WTrue(_Constant, WorldFormula):
    pass


class WFalse(_Constant, WorldFormula):
    pass


class EnvAtom(_Named, WorldFormula):
    pass


class WNot(_Unary, WorldFormula):
    pass


class WAnd(_Binary, WorldFormula):
    pass


class SomeView(_Labelled, WorldFormula):
    """There exists a view of ``agent`` in this world satisfying ``sub``."""


class WMeta(_Named, WorldFormula):
    """Scheme metavariable of world sort (written ``?name``)."""


# --- world sort, derived ----------------------------------------------------


class WOr(_Binary, WorldFormula):
    pass


class WImplies(_Binary, WorldFormula):
    pass


class AllViews(_Labelled, WorldFormula):
    """Every view of ``agent`` in this world satisfies ``sub``.

    Vacuously true where the agent is absent.  Defined as ~E[a]~sub.
    """


# --- agent sort, core -------------------------------------------------------


class ATrue(_Constant, AgentFormula):
    pass


class AFalse(_Constant, AgentFormula):
    pass


class AgentAtom(_Named, AgentFormula):
    pass


class ANot(_Unary, AgentFormula):
    pass


class AAnd(_Binary, AgentFormula):
    pass


class PossWorld(_Unary, AgentFormula):
    """The agent considers possible a world satisfying ``sub``.

    The owning agent is not stored: it is supplied by the evaluation point
    (or by the enclosing ``SomeView``/``AllViews``), mirroring the surface
    syntax where ``<>`` carries no agent annotation.
    """


class AMeta(_Named, AgentFormula):
    """Scheme metavariable of agent sort (written ``?name``)."""


# --- agent sort, derived ----------------------------------------------------


class AOr(_Binary, AgentFormula):
    pass


class AImplies(_Binary, AgentFormula):
    pass


class Box(_Unary, AgentFormula):
    """The agent knows ``sub``: every world containing the current view
    satisfies it.  Defined as ~<>~sub."""


Formula = Union[WorldFormula, AgentFormula]


# --- KB4 --------------------------------------------------------------------


class KB4Formula(_Node):
    """Marker base class for KB4 formulas."""

    _sort = "kb4"


class KB4Atom(_Named, KB4Formula):
    pass


class KB4Not(_Unary, KB4Formula):
    pass


class KB4And(_Binary, KB4Formula):
    pass


class KB4Knows(_Labelled, KB4Formula):
    pass


# --- sugar helpers ----------------------------------------------------------
#
# The parser builds the sugar with these too, passing the spans of the text.


def alive(agent: str, span=None) -> WorldFormula:
    """The world contains a view of ``agent``."""
    return SomeView(agent, ATrue(span=span), span=span)


def ksafe(agent: str, f: WorldFormula, span=None) -> WorldFormula:
    """Safe knowledge: some view of the agent knows ``f`` (false where dead)."""
    return SomeView(agent, Box(f, span=f.span), span=span)


def kunsafe(agent: str, f: WorldFormula, span=None) -> WorldFormula:
    """Unsafe knowledge: every view of the agent knows ``f`` (vacuous where dead)."""
    return AllViews(agent, Box(f, span=f.span), span=span)


def disj(left, right):
    if isinstance(left, WorldFormula):
        return WOr(left, right)
    return AOr(left, right)


# --- traversal -----------------------------------------------------------------

# The one place that knows which sort each child has.  A sort is "world" or
# the name of the agent whose views an agent formula is evaluated at.
_CHILDREN = {node_type: kids for node_types, kids in (
    ((WTrue, WFalse, EnvAtom, WMeta, ATrue, AFalse, AgentAtom, AMeta, KB4Atom),
     lambda f, s: ()),
    ((WNot, ANot, KB4Not, KB4Knows), lambda f, s: ((f.sub, s),)),
    ((WAnd, AAnd, WOr, AOr, WImplies, AImplies, KB4And),
     lambda f, s: ((f.left, s), (f.right, s))),
    ((SomeView, AllViews), lambda f, s: ((f.sub, f.agent),)),
    ((PossWorld, Box), lambda f, s: ((f.sub, "world"),)),
) for node_type in node_types}

_MODAL = (SomeView, AllViews, PossWorld, Box, KB4Knows)
_ATOMS = (EnvAtom, AgentAtom, KB4Atom)
_METAS = (WMeta, AMeta)


def children(node, sort):
    """``((child, child_sort), ...)`` of a node at ``sort``, left to right.

    ``E[a]``/``A[a]`` put their child at agent ``a``, ``<>``/``[]`` at
    ``"world"``; every other node keeps its own sort.  KB4 nodes ignore it.
    """
    try:
        return _CHILDREN[type(node)](node, sort)
    except KeyError:
        raise TypeError(f"not a formula: {node!r}") from None


def walk(f, sort):
    """Yield ``(node, sort)`` for every node of ``f``, in pre-order, left to
    right.  A node's children are looked up only after it has been yielded,
    so a consumer that raises on a node never reaches its children."""
    todo = [(f, sort)]
    while todo:
        node, s = todo.pop()
        yield node, s
        todo.extend(reversed(children(node, s)))


def fold(f, sort, combine, memo=None):
    """Post-order fold: ``combine(node, sort, values)`` gets the values of
    the node's children, left to right, and returns the node's value.

    Without a memo every occurrence of a node is combined anew, so a
    subformula shared by several places is visited at each place.  With a
    memo (a dict), each ``(id(node), sort)`` is combined once and stored as
    ``(node, value)``: keeping the node alive is what makes the id key sound.
    """
    if memo is not None and (id(f), sort) in memo:     # a repeated query
        return memo[(id(f), sort)][1]
    values = []
    # (node, sort) pairs to expand, and (node, sort, children, memo key)
    # entries to combine once their children's values top ``values``.
    todo = [(f, sort)]
    while todo:
        entry = todo.pop()
        if len(entry) == 2:
            node, s = entry
            key = None if memo is None else (id(node), s)
            if key is not None and key in memo:
                values.append(memo[key][1])
                continue
            try:    # children(), inlined: this is the evaluators' inner loop
                kids = _CHILDREN[type(node)](node, s)
            except KeyError:
                raise TypeError(f"not a formula: {node!r}") from None
            if kids:
                todo.append((node, s, kids, key))
                todo.extend(reversed(kids))
                continue
            args = ()
        else:
            node, s, kids, key = entry
            args = values[-len(kids):]
            del values[-len(kids):]
        value = combine(node, s, args)
        if key is not None:
            memo[key] = (node, value)
        values.append(value)
    return values[0]


# The node with its children replaced (same span), or the node itself when
# they are its own children, so that rebuilding shares unchanged subtrees.
_REBUILD = {node_type: build for node_types, build in (
    ((WTrue, WFalse, EnvAtom, WMeta, ATrue, AFalse, AgentAtom, AMeta, KB4Atom),
     lambda f, k: f),
    ((WNot, ANot, KB4Not, PossWorld, Box),
     lambda f, k: f if k[0] is f.sub else type(f)(k[0], span=f.span)),
    ((WAnd, AAnd, WOr, AOr, WImplies, AImplies, KB4And),
     lambda f, k: f if k[0] is f.left and k[1] is f.right
     else type(f)(k[0], k[1], span=f.span)),
    ((SomeView, AllViews, KB4Knows),
     lambda f, k: f if k[0] is f.sub else type(f)(f.agent, k[0], span=f.span)),
) for node_type in node_types}


# --- patterns -------------------------------------------------------------------


class Var:
    """A pattern variable: at its first occurrence it binds whatever stands
    there (a formula, an agent, a name), which its later occurrences must
    repeat.  Bindings are keyed by ``name``."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


def match(pattern, f, env) -> bool:
    """Whether ``f`` has the shape of ``pattern``, a record with a ``Var``
    in some of its fields, binding the variables in ``env`` (bindings made
    before the call stand).  A bound variable must repeat ``==``, and so
    must any other field that holds no record, such as a fixed name.
    Nothing is built: the records are walked in lockstep on an explicit
    stack."""
    todo = []
    while True:
        if type(pattern) is Var:
            bound = env.setdefault(pattern.name, f)
            if bound is not f and not bound == f:
                return False
        elif isinstance(pattern, Record):
            if type(pattern) is not type(f):
                return False
            todo += zip(pattern._key(pattern), f._key(f))
        elif not pattern == f:
            return False
        if not todo:
            return True
        pattern, f = todo.pop()


# --- desugaring -------------------------------------------------------------

_DESUGAR = {
    **_REBUILD,
    WOr: lambda f, k: WNot(WAnd(WNot(k[0]), WNot(k[1])), span=f.span),
    AOr: lambda f, k: ANot(AAnd(ANot(k[0]), ANot(k[1])), span=f.span),
    WImplies: lambda f, k: WNot(WAnd(k[0], WNot(k[1])), span=f.span),
    AImplies: lambda f, k: ANot(AAnd(k[0], ANot(k[1])), span=f.span),
    AllViews: lambda f, k: WNot(SomeView(f.agent, ANot(k[0])), span=f.span),
    Box: lambda f, k: ANot(PossWorld(WNot(k[0])), span=f.span),
}


def _desugar_node(f, sort, kids):
    return _DESUGAR[type(f)](f, kids)


def desugar(f):
    """Rewrite into the core fragment. Idempotent; preserves spans, and
    returns core subformulas themselves rather than copies."""
    return fold(f, None, _desugar_node)


_CORE_TYPES = (
    WTrue, WFalse, EnvAtom, WNot, WAnd, SomeView, WMeta,
    ATrue, AFalse, AgentAtom, ANot, AAnd, PossWorld, AMeta,
)


def is_core(f) -> bool:
    return all(type(node) in _CORE_TYPES for node, _ in walk(f, None))


def modal_depth(f) -> int:
    """Nesting depth of the modal constructors (the two sorts alternate)."""
    return fold(f, None, lambda node, sort, depths:
                isinstance(node, _MODAL) + max(depths, default=0))


def atoms_of(f) -> set:
    """Names of all atoms occurring in the formula."""
    return {node.name for node, _ in walk(f, None) if isinstance(node, _ATOMS)}


def substitute_metas(f, assignment):
    """Replace metavariable leaves by the formulas in ``assignment``."""
    def substitute(node, sort, kids):
        if isinstance(node, _METAS):
            return assignment.get(node.name, node)
        return _REBUILD[type(node)](node, kids)
    return fold(f, None, substitute)


# --- sort checking ----------------------------------------------------------


def sort_of(f) -> str:
    """``"world"``, ``"agent"`` or ``"kb4"``: the sort of a formula node,
    which its class states."""
    if type(f) not in _CHILDREN:
        raise TypeError(f"not a formula: {f!r}")
    return f._sort


def sort_check_world(f, sig, allow_metas=False):
    """Check a world formula against the signature.

    Returns the formula unchanged on success.  Raises a ``SortError``
    subclass pinpointing the offending subterm otherwise.
    """
    _check(f, sig, "world", allow_metas, {})
    return f


def sort_check_agent(f, agent, sig, allow_metas=False):
    """Check an agent formula against the signature at the given sort."""
    if agent not in sig.agents:
        raise UnknownAgentError(f"unknown agent '{agent}'")
    _check(f, sig, agent, allow_metas, {})
    return f


def sort_check_kb4(f, sig):
    """KB4 atoms live in the environment sort; agents must be declared."""
    _check(f, sig, None, False, {})
    return f


def _check(f, sig, sort, allow_metas, meta_sorts):
    """Check every node in pre-order, so the first error is the outermost,
    leftmost one (an unknown agent before the atoms under it).  A position
    is at ``"world"``, at an agent's name, or at ``None`` in a KB4 formula,
    a sort no agent name can take.  A node's sort must be its position's
    before its own fields are checked and its children, at the sorts
    ``_CHILDREN`` gives, are read."""
    todo = [(f, sort)]
    while todo:
        node, s = todo.pop()
        entry = _CHECKED.get(type(node))
        position = "world" if s == "world" else "kb4" if s is None else "agent"
        if entry is None or entry[0] != position:
            raise _misplaced(node, entry and entry[0], position)
        _, kids, binary, check = entry
        if check is not None:
            check(node, sig, s, allow_metas, meta_sorts)
        if kids is not None:     # the left child is to be popped first
            todo += kids(node, s)[::-1] if binary else kids(node, s)


def _misplaced(node, sort, position):
    """The error for a node of ``sort`` (``None`` for no formula) that stands
    at a position of another sort."""
    if position == "kb4":
        return TypeError(f"not a KB4 formula: {node!r}")
    if sort == "agent":
        return SortError(f"agent formula used in world position: {node!r}", node=node)
    if sort == "world":
        return SortError(f"world formula used in agent position: {node!r}", node=node)
    return TypeError(f"not a formula: {node!r}")


def _check_atom(f, sig, sort, allow_metas, meta_sorts):
    owner = sig.sort_of_atom(f.name)
    if owner is None:
        raise UnknownAtomError(f"unknown atom '{f.name}'", node=f)
    if sort is None:
        if owner != "env":
            raise WrongSortAtomError(
                f"atom '{f.name}' belongs to agent {owner}; KB4 atoms must be "
                "environment atoms", node=f)
    elif sort == "world":
        if owner != "env":
            raise WrongSortAtomError(
                f"atom '{f.name}' belongs to agent {owner} but occurs in world position", node=f)
    elif owner == "env":
        raise WrongSortAtomError(
            f"environment atom '{f.name}' occurs in an agent-{sort} position", node=f)
    elif owner != sort:
        raise AgentMismatchError(
            f"atom '{f.name}' belongs to agent {owner} but occurs under agent {sort}", node=f)


def _known_agent(f, sig, *_):
    if f.agent not in sig.agents:
        raise UnknownAgentError(f"unknown agent '{f.agent}'", node=f)


def _bind_meta(node, sig, sort, allow_metas, meta_sorts):
    name = node.name
    if not allow_metas:
        raise SortError(f"metavariable '?{name}' not allowed here", node=node)
    seen = meta_sorts.setdefault(name, sort)
    if seen != sort:
        raise SortError(
            f"metavariable '?{name}' used at sorts {seen} and {sort}", node=node)


# Per node type: its sort, its children (None for a leaf), whether it has
# two, and the check of its own fields, if any, so that the checker looks a
# node up once, calls nothing at a constant and reverses only a pair.
_FIELD_CHECKS = {EnvAtom: _check_atom, AgentAtom: _check_atom, KB4Atom: _check_atom,
                 WMeta: _bind_meta, AMeta: _bind_meta,
                 SomeView: _known_agent, AllViews: _known_agent, KB4Knows: _known_agent}
_CHECKED = {t: (t._sort, None if issubclass(t, (_Constant, _Named)) else kids,
                issubclass(t, _Binary), _FIELD_CHECKS.get(t))
            for t, kids in _CHILDREN.items()}


def scheme_meta_sorts(f, sig, agent=None):
    """Map each metavariable of a scheme to its sort ('world' or an agent).

    ``agent`` names the scheme's own sort when it is agent-sorted.
    """
    if isinstance(f, WorldFormula):
        agent = "world"
    elif agent is None:
        raise SortError("agent-sorted scheme needs its owning agent")
    meta_sorts = {}
    _check(f, sig, agent, True, meta_sorts)
    return meta_sorts
