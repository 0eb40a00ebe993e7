"""A checker for sorted Hilbert-style derivations.

Statements are sorted sequents: world-sorted (``e``) or agent-sorted.  The
rule set: propositional tautologies and modus ponens (which together stand
in for all classical propositional reasoning), the two necessitation rules,
the two monotonicity rules, the four directions of the two adjunctions
linking the modal pairs across sorts, and the three axiom schemes matching
the defining conditions of chromatic hypergraphs.

The rules are data: ``RULES`` maps each rule with premises, modus ponens
included, to its list of premise patterns and its conclusion pattern, and
each agent axiom to its conclusion alone.  A pattern is a ``(sort, core
formula)`` pair over the metavariables ``X``, ``Y`` (world), ``x``, ``y``
(agent) and the rule's agent; the rows are written with ``->``, ``[]`` and
``A[a]`` and desugared once, at import.  Modus ponens has two rows, at
``e`` and at an agent sort, and the stated line's sort picks one.  One
matcher checks a line: it fetches the premises in order, binds the
patterns' metavariables and agent against each in turn, then matches the
stated line under the same bindings, so no conclusion is built; the walk
over a pattern and its formula is ``syntax.match``, which the renderer
shares.  A sort clash is a ``SortError``, any other clash a
``RuleMismatch``.  Whatever the justification, a line whose formula has a
node that is not a formula record is a ``SortError``, and a line accepted
in order is of its stated sort over the signature: the stated sort must be
``e`` or a declared agent, and the
formula of a ``PropTaut`` line or an agent axiom is sort-checked, while
every other rule assembles its line from parts of a checked premise at the
sorts its patterns fix.  ``PropTaut`` abstracts maximal modal subformulas
and atoms into propositional variables and decides by truth table (exact,
capped at 20 variables).  Variables are keyed by the formulas themselves,
and formulas compared with ``==``, which walks both in lockstep on an
explicit stack (:mod:`hyperknow.record`): formula identity is decided there
alone, and deep nesting costs no recursion.

``soundness_spotcheck`` replays every accepted statement against all
enumerated models within bounds; a violation would indicate a kernel bug,
so it is reported as a result rather than raised.  When the derivation's
atoms fit one chunk of the sweep, its lines are swept at once, as one
world formula, their conjunction, compiled by ``compile_program`` into one
value-numbered program: a subformula that several lines restate is
computed once, and the program is interpreted once per run of the
structure stream.  It runs on the search module's ``first_witness`` over
valuations numbered as ``iter_valuations`` lists them (agent atoms, then
environment atoms, in declaration order).  If the conjunction fails, or
the atoms do not fit, the lines are swept alone, in order, so the
counterexample is the first one that stream gives for the first failing
line, and like every sweep's witness it is re-validated through the
evaluator before it is returned.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional, Tuple, Union

from .core import Signature
from .errors import DerivationCheckError, SortError
from .record import Record
# iter_valuations is unused here but stays bound: perfbench/tracing.py
# counts the spotcheck's models by wrapping proofkernel.iter_valuations.
from .search import (_CHUNK_BITS, Bounds, _bit_patterns, _revalidate, _structures,
                     compile_program, first_witness, iter_valuations, scheme_non_emptiness)
from .syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AgentFormula,
    AImplies,
    AllViews,
    AMeta,
    ANot,
    ATrue,
    Box,
    EnvAtom,
    PossWorld,
    SomeView,
    SourceSpan,
    WAnd,
    WFalse,
    WImplies,
    WMeta,
    WNot,
    WorldFormula,
    WTrue,
    Var,
    children,
    desugar,
    match,
    substitute_metas,
    sort_check_agent,
    sort_check_world,
    walk,
)

WORLD_SORT = "e"


class Statement(Record):
    """A sorted sequent: ``sort`` is 'e' or an agent name."""

    sort: str
    formula: object


# --- justifications -----------------------------------------------------------


class PropTaut(Record):
    pass


class MP(Record):
    implication: int
    antecedent: int


class NecA(Record):
    premise: int


class NecE(Record):
    premise: int


class RM(Record):
    """Monotonicity: world implication to agent implication under <> or []."""

    premise: int
    modality: str  # "diamond" | "box"


class RMPrime(Record):
    """Monotonicity: agent implication to world implication under E or A."""

    premise: int
    modality: str  # "some" | "all"


class Adj1Down(Record):
    premise: int


class Adj1Up(Record):
    premise: int


class Adj2Down(Record):
    premise: int


class Adj2Up(Record):
    premise: int


class AxSurjectivity(Record):
    pass


class AxFunctionality(Record):
    pass


class AxNonEmptiness(Record):
    pass


Justification = Union[
    PropTaut, MP, NecA, NecE, RM, RMPrime,
    Adj1Down, Adj1Up, Adj2Down, Adj2Up,
    AxSurjectivity, AxFunctionality, AxNonEmptiness,
]


class DerivationLine(Record):
    index: int
    statement: Statement
    justification: Justification
    span: Optional[SourceSpan] = None


class Derivation(Record):
    sig: Signature
    lines: Tuple[DerivationLine, ...]


class _RuleError(Exception):
    def __init__(self, kind, message):
        self.kind = kind
        self.message = message
        super().__init__(message)


def _mismatch(message):
    raise _RuleError("RuleMismatch", message)


def _sort_error(message):
    raise _RuleError("SortError", message)


# --- the rule table -----------------------------------------------------------------

_AGENT = Var("a")       # the rule's agent, in a sort or an ``E[a]`` node


def _rule_table():
    """Each rule with premises as its premise patterns, in order, then its
    conclusion pattern, and each agent axiom as its conclusion alone; a
    pattern is a ``(sort, formula)`` pair.  Keyed by justification class
    and fixed arguments, and ``MP`` by the sort of its line, ``e`` or an
    agent's.  ``X``, ``Y`` stand for any world formula, ``x``, ``y`` for
    any agent formula.  The rows are written with ``->``, ``[]`` and
    ``A[a]``, desugared here, once, and their metavariables then replaced
    by pattern variables."""
    X, Y, x, y, a, e = WMeta("X"), WMeta("Y"), AMeta("x"), AMeta("y"), _AGENT, WORLD_SORT
    rules = {
        (MP, e): ((e, WImplies(X, Y)), (e, X), (e, Y)),
        (MP, a): ((a, AImplies(x, y)), (a, x), (a, y)),
        (NecA,): ((e, X), (a, Box(X))),
        (NecE,): ((a, x), (e, AllViews(a, x))),
        (RM, "diamond"): ((e, WImplies(X, Y)), (a, AImplies(PossWorld(X), PossWorld(Y)))),
        (RM, "box"): ((e, WImplies(X, Y)), (a, AImplies(Box(X), Box(Y)))),
        (RMPrime, "some"): ((a, AImplies(x, y)), (e, WImplies(SomeView(a, x), SomeView(a, y)))),
        (RMPrime, "all"): ((a, AImplies(x, y)), (e, WImplies(AllViews(a, x), AllViews(a, y)))),
        (Adj1Down,): ((e, WImplies(X, AllViews(a, y))), (a, AImplies(PossWorld(X), y))),
        (Adj2Down,): ((a, AImplies(x, Box(Y))), (e, WImplies(SomeView(a, x), Y))),
        (AxSurjectivity,): ((a, AImplies(x, PossWorld(SomeView(a, x)))),),
        (AxFunctionality,): ((a, AImplies(PossWorld(SomeView(a, x)), x)),),
    }
    # Each adjunction's upward direction is its downward one read backwards.
    rules[Adj1Up,] = rules[Adj1Down,][::-1]
    rules[Adj2Up,] = rules[Adj2Down,][::-1]
    variables = {name: Var(name) for name in "XYxy"}
    return {key: tuple((sort, substitute_metas(desugar(f), variables)) for sort, f in row)
            for key, row in rules.items()}


RULES = _rule_table()


def _match(lines, k: int, stmt: Statement, just) -> None:
    """Check line ``k``, ``stmt``, by its row of ``RULES``: fetch the
    premises ``just`` cites, in order, match each against its pattern, then
    the stated line against the last.  The premise indices are a
    justification's first argument, or both of ``MP``'s, and a further
    argument names the row.  The patterns share one set of bindings, and
    each is matched by ``syntax.match``: a variable binds at its first
    occurrence and must repeat ``==`` after, and nothing is built."""
    args = just._key(just) if isinstance(just, Record) else ()
    if type(just) is MP:
        row, cited = RULES[MP, WORLD_SORT if stmt.sort == WORLD_SORT else _AGENT], args
    else:
        row, cited = RULES.get((type(just), *args[1:])), args[:1]
    if row is None:
        _mismatch(f"unknown justification {just!r}")
    stmts = []
    for i in cited:
        if not 1 <= i < k:
            raise _RuleError("BadReference", f"premise {i} does not precede line {k}")
        stmts.append(lines[i - 1].statement)
    stmts.append(stmt)
    env = {}
    for n, (sort, pattern) in enumerate(row):
        given = stmts[n]
        if sort is _AGENT and given.sort != WORLD_SORT:
            sort = env.setdefault(_AGENT.name, given.sort)
        if given.sort != sort:
            need = "an agent sort" if sort is _AGENT else f"sort {sort}"
            _sort_error(f"{_where(just, cited, n)} has sort {given.sort}, the rule needs {need}")
        if not match(pattern, given.formula, env):
            _mismatch(f"{_where(just, cited, n)} does not have the shape the rule needs")


def _where(just, cited, n) -> str:
    """``"RM diamond: premise 1"``: the rule, then the line of pattern ``n``."""
    rule = " ".join([type(just).__name__, *[v for v in just._key(just) if type(v) is str]])
    return f"{rule}: " + (f"premise {cited[n]}" if n < len(cited) else "the stated line")


# --- the non-emptiness axiom ----------------------------------------------------------


def _match_non_emptiness(stmt: Statement, sig: Signature):
    if stmt.sort != WORLD_SORT:
        _sort_error("the non-emptiness axiom is world-sorted")
    if stmt.formula != desugar(scheme_non_emptiness(sig.agents)):
        _mismatch("non-emptiness axiom must be the disjunction of alive(a) "
                  "over all declared agents, in declaration order")


# --- propositional tautologies --------------------------------------------------------

PROPTAUT_MAX_VARS = 20


_PROP_STEPS = {WTrue: ("const", True), ATrue: ("const", True), WFalse: ("const", False),
               AFalse: ("const", False), WNot: ("not",), ANot: ("not",),
               WAnd: ("and",), AAnd: ("and",)}
_PROP_VARIABLES = (EnvAtom, AgentAtom, SomeView, PossWorld, WMeta, AMeta)


def abstract_propositional(f):
    """Propositional skeleton: maximal modal subformulas and atoms become
    variables, numbered by first occurrence.  Returns (skeleton, variable
    count); the skeleton is a postfix program of ``("const", value)``,
    ``("var", k)``, ``("not",)`` and ``("and",)`` steps.

    One walk builds the skeleton and stops at each variable.  Variables are
    numbered in a dict keyed by the formulas themselves: a formula's hash is
    computed once and cached, and ``==`` does not recurse
    (:mod:`hyperknow.record`).
    """
    steps = []
    numbers = {}
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:                # a step whose operands are done
            steps.append(g)
        elif isinstance(g, _PROP_VARIABLES):
            steps.append(("var", numbers.setdefault(g, len(numbers))))
        elif type(g) in _PROP_STEPS:
            todo.append(_PROP_STEPS[type(g)])
            todo.extend(reversed([kid for kid, _ in children(g, None)]))
        else:
            raise _RuleError("SortError", f"not a core formula: {g!r}")
    return tuple(steps), len(numbers)


def is_tautology(f) -> bool:
    """Exact truth-table decision on the propositional abstraction, all rows
    at once: bit ``t`` of a value is its truth under row ``t``."""
    skeleton, n = abstract_propositional(f)
    if n > PROPTAUT_MAX_VARS:
        raise _RuleError(
            "PropTautTooLarge",
            f"{n} abstracted variables exceed the cap of {PROPTAUT_MAX_VARS}")
    full = (1 << (1 << n)) - 1
    stack = []
    for op, *arg in skeleton:
        if op == "not":
            stack[-1] ^= full
        elif op == "and":
            stack.append(stack.pop() & stack.pop())
        else:
            stack.append(_bit_patterns(n)[arg[0]] if op == "var" else full if arg[0] else 0)
    return stack[0] == full


# --- the checker ------------------------------------------------------------------


# The justifications whose line brings a formula of its own.  Every other
# rule assembles its line from parts of a checked premise (or the
# non-emptiness axiom from the signature) at the sorts its patterns fix, so
# in a derivation checked in order that line is of its sort once the stated
# sort is.
_OWN_FORMULA = (PropTaut, AxSurjectivity, AxFunctionality)


def _check_sort(stmt: Statement, sig: Signature, whole: bool) -> None:
    """The stated sort is ``e`` or a declared agent and, if ``whole``, the
    formula is of that sort over the signature."""
    if stmt.sort != WORLD_SORT and stmt.sort not in sig.agents:
        _sort_error(f"the stated sort {stmt.sort} is neither e nor a declared agent")
    if whole:
        try:
            if stmt.sort == WORLD_SORT:
                sort_check_world(stmt.formula, sig)
            else:
                sort_check_agent(stmt.formula, stmt.sort, sig)
        except (SortError, TypeError) as err:
            _sort_error(f"the stated line is not a formula of sort {stmt.sort}: {err}")


def check_line(d: Derivation, k: int) -> None:
    """Check line ``k`` (1-based) against the earlier lines.

    Raises :class:`DerivationCheckError` when the justification does not
    produce exactly the stated statement, and ``IndexError`` when there is
    no line ``k``.
    """
    lines = d.lines
    if not 1 <= k <= len(lines):
        raise IndexError(f"no line {k} in a derivation of {len(lines)} lines")
    line = lines[k - 1]
    stmt, just = line.statement, line.justification
    try:
        if type(just) is PropTaut:
            if not is_tautology(stmt.formula):
                raise _RuleError("NotATautology",
                                 "the propositional abstraction is falsifiable")
        elif type(just) is AxNonEmptiness:
            _match_non_emptiness(stmt, d.sig)
        else:
            _match(lines, k, stmt, just)
        _check_sort(stmt, d.sig, type(just) in _OWN_FORMULA)
    except _RuleError as err:
        # A formula with a node that is not a formula record fails every
        # rule, and this is the error to report.
        if not _is_formula(stmt.formula):
            err = _RuleError("SortError", f"the stated line is not a formula: {stmt.formula!r}")
        raise DerivationCheckError(k, err.kind, err.message) from None


def _is_formula(f) -> bool:
    """Whether ``f`` is a world or agent formula record all through:
    ``walk`` raises ``TypeError`` at a node that is no formula."""
    if not isinstance(f, (WorldFormula, AgentFormula)):
        return False
    try:
        for _ in walk(f, None):
            pass
    except TypeError:
        return False
    return True


def check_derivation(d: Derivation) -> None:
    """Check every line in order; raises at the first failing line."""
    for k in range(1, len(d.lines) + 1):
        check_line(d, k)


# --- semantic spot check ----------------------------------------------------------


class SoundnessCounterexample(Record):
    line: int
    model: object
    point: object


def _swept_names(sig: Signature, sorts, what: str):
    """The atoms of ``sorts`` in declaration order, agents' before the
    environment's, as ``iter_valuations`` varies them."""
    names = [n for a in sig.agents for n in sig.atoms_for(a) if sorts.get(n) == a]
    names += [n for n in sig.env_atoms if sorts.get(n) == "world"]
    if len(names) != len(sorts):
        raise SortError(f"{what} mentions a name outside its sort's atoms")
    return names


def _conjunction(lines):
    """A world formula that holds at a world where every world line holds
    and every agent line holds at each view there: the conjunction of the
    world lines and, per agent ``a``, ``A[a]`` of the conjunction of
    ``a``'s lines.  Each view lies in some world, so it holds everywhere
    exactly when every line does."""
    per_sort = {}
    for line in lines:
        sort, f = line.statement.sort, line.statement.formula
        if sort in per_sort:
            f = (WAnd if sort == WORLD_SORT else AAnd)(per_sort[sort], f)
        per_sort[sort] = f
    return reduce(WAnd, [f if sort == WORLD_SORT else AllViews(sort, f)
                         for sort, f in per_sort.items()])


def soundness_spotcheck(d: Derivation, bounds: Optional[Bounds] = None
                        ) -> Optional[SoundnessCounterexample]:
    """Replay each accepted line against all models within bounds.

    World statements are checked at every edge, agent statements at every
    view of that agent.  If the atoms of the derivation fit one chunk of
    the sweep on the widest structure, the lines are swept at once, as
    their conjunction (``_conjunction``): one program, whose steps the
    lines share, interpreted once per run.  If that fails, or the atoms do
    not fit, the lines are swept alone, in order, so the counterexample is
    the first failing line's first one, as sweeping line by line gives it.
    Valuations vary only over the atoms swept (exact: a line is unaffected
    by an atom it does not mention).  Returns the first violation or None;
    a violation would mean the kernel itself is unsound.
    """
    check_derivation(d)
    sig = d.sig
    if bounds is None:
        bounds = Bounds(agents=len(sig.agents), views=2, edges=3)
    bounds.validate()
    structures = _structures(sig.agents, bounds.views, bounds.edges)
    if d.lines:
        program, sorts = compile_program(_conjunction(d.lines), "world")
        if sum(bounds.edges if s == "world" else bounds.views
               for s in sorts.values()) <= _CHUNK_BITS:
            names = _swept_names(sig, sorts, "the derivation")
            if first_witness(program, "world", structures, names, sorts, sig)[1] is None:
                return None
    for line in d.lines:
        sort = "world" if line.statement.sort == WORLD_SORT else line.statement.sort
        program, sorts = compile_program(line.statement.formula, sort)
        _, hit = first_witness(program, sort, structures,
                               _swept_names(sig, sorts, f"line {line.index}"), sorts, sig)
        if hit is not None:
            model, point = hit
            _revalidate(model, point, line.statement.formula)
            return SoundnessCounterexample(line.index, model, point)
    return None
