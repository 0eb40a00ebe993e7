"""A checker for sorted Hilbert-style derivations.

Statements are sorted sequents: world-sorted (``e``) or agent-sorted.  The
rule set: propositional tautologies and modus ponens (which together stand
in for all classical propositional reasoning), the two necessitation rules,
the two monotonicity rules, the four directions of the two adjunctions
linking the modal pairs across sorts, and the three axiom schemes matching
the defining conditions of chromatic hypergraphs.

The rules are data: ``RULES`` maps each rule with a premise to a pair of
``(sort, core formula)`` patterns, premise and conclusion, and each agent
axiom to its conclusion alone, over the metavariables ``X``, ``Y`` (world),
``x``, ``y`` (agent) and the rule's agent.  One matcher checks a line: it
binds the patterns' metavariables and agent against the premise, then
matches the stated line under the same bindings, so no conclusion is built.
A sort clash is a ``SortError``, any other clash a ``RuleMismatch``.
Whatever the justification, a line accepted in order is of its stated sort
over the signature: the stated sort must be ``e`` or a declared agent, and
the formula of a ``PropTaut`` line or an agent axiom is sort-checked, while
every other rule assembles its line from parts of a checked premise at the
sorts its patterns fix.  ``PropTaut`` abstracts maximal modal subformulas
and atoms into propositional variables and decides by truth table (exact,
capped at 20 variables).  Variables are keyed by the formulas themselves,
and formulas compared with ``==``, which walks both in lockstep on an
explicit stack (:mod:`hyperknow.record`): formula identity is decided there
alone, and deep nesting costs no recursion.

``soundness_spotcheck`` replays every accepted statement against all
enumerated models within bounds; a violation would indicate a kernel bug,
so it is reported as a result rather than raised.  Consecutive lines are
compiled into one value-numbered program, so a subformula that several
lines restate is computed once, and each group is swept in one program
interpretation per run of the structure stream.  It runs on the search
module's ``first_witness`` over valuations numbered as ``iter_valuations``
lists them (agent atoms, then environment atoms, in declaration order): a
failing group's lines are swept again alone, so the counterexample is the
first one that stream gives for the first failing line, and like every
sweep's witness it is re-validated through the evaluator before it is
returned.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .core import Signature
from .errors import DerivationCheckError, SortError
from .record import Record
# iter_valuations is unused here but stays bound: perfbench/tracing.py
# counts the spotcheck's models by wrapping proofkernel.iter_valuations.
from .search import (_CHUNK_BITS, Bounds, _bit_patterns, _compile_into, _revalidate, _structures,
                     compile_program, first_witness, iter_valuations, scheme_non_emptiness)
from .syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AMeta,
    ANot,
    ATrue,
    EnvAtom,
    PossWorld,
    SomeView,
    SourceSpan,
    WAnd,
    WFalse,
    WMeta,
    WNot,
    WTrue,
    children,
    desugar,
    sort_check_agent,
    sort_check_world,
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


# --- core-shape helpers ----------------------------------------------------------


def _imp_w(l, r):
    return WNot(WAnd(l, WNot(r)))


def _imp_a(l, r):
    return ANot(AAnd(l, ANot(r)))


def _box(x):
    return ANot(PossWorld(WNot(x)))


def _allviews(agent, x):
    return WNot(SomeView(agent, ANot(x)))


def _as_imp_w(f):
    match f:
        case WNot(WAnd(l, WNot(r))):
            return l, r
    return None


def _as_imp_a(f):
    match f:
        case ANot(AAnd(l, ANot(r))):
            return l, r
    return None


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

_AGENT = object()       # the rule's agent, in a sort or an ``E[a]`` node


def _rule_table():
    """Each rule with a premise as its (premise, conclusion) pair of
    ``(sort, core formula)`` patterns, each agent axiom as its conclusion
    alone, keyed by justification class and fixed arguments.  ``X``, ``Y``
    stand for any world formula, ``x``, ``y`` for any agent formula."""
    X, Y, x, y, a, e = WMeta("X"), WMeta("Y"), AMeta("x"), AMeta("y"), _AGENT, WORLD_SORT
    rules = {
        (NecA,): ((e, X), (a, _box(X))),
        (NecE,): ((a, x), (e, _allviews(a, x))),
        (RM, "diamond"): ((e, _imp_w(X, Y)), (a, _imp_a(PossWorld(X), PossWorld(Y)))),
        (RM, "box"): ((e, _imp_w(X, Y)), (a, _imp_a(_box(X), _box(Y)))),
        (RMPrime, "some"): ((a, _imp_a(x, y)), (e, _imp_w(SomeView(a, x), SomeView(a, y)))),
        (RMPrime, "all"): ((a, _imp_a(x, y)), (e, _imp_w(_allviews(a, x), _allviews(a, y)))),
        (Adj1Down,): ((e, _imp_w(X, _allviews(a, y))), (a, _imp_a(PossWorld(X), y))),
        (Adj2Down,): ((a, _imp_a(x, _box(Y))), (e, _imp_w(SomeView(a, x), Y))),
        (AxSurjectivity,): ((a, _imp_a(x, PossWorld(SomeView(a, x)))),),
        (AxFunctionality,): ((a, _imp_a(PossWorld(SomeView(a, x)), x)),),
    }
    # Each adjunction's upward direction is its downward one read backwards.
    rules[Adj1Up,] = rules[Adj1Down,][::-1]
    rules[Adj2Up,] = rules[Adj2Down,][::-1]
    return rules


RULES = _rule_table()


def _match(pattern, stmt: Statement, env: dict, rule: str, role: str) -> None:
    """Match ``stmt`` against a ``(sort, formula)`` pattern, binding its
    metavariables and the agent in ``env``; a bound one must repeat ``==``.
    Nothing is built: the pattern and the formula are walked in lockstep on
    an explicit stack."""
    sort, formula = pattern
    if sort is _AGENT and stmt.sort != WORLD_SORT:
        sort = env.setdefault(_AGENT, stmt.sort)
    if stmt.sort != sort:
        need = "an agent sort" if sort is _AGENT else f"sort {sort}"
        _sort_error(f"{rule}: {role} has sort {stmt.sort}, the rule needs {need}")
    todo = [(formula, stmt.formula)]
    while todo:
        p, f = todo.pop()
        if p is _AGENT or type(p) in (WMeta, AMeta):
            bound = env.setdefault(p, f)
            if bound is f or bound == f:
                continue
        elif type(p) is type(f):
            todo += zip(p._key(p), f._key(f))
            continue
        _mismatch(f"{rule}: {role} does not have the shape the rule needs")


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
        else:
            todo.append(_PROP_STEPS.get(type(g), ("bad", g)))
            todo.extend(reversed([kid for kid, _ in children(g, None)]))
    for op, *arg in steps:
        if op == "bad":
            raise _RuleError("SortError", f"not a core formula: {arg[0]!r}")
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


def _premise(lines, k, i):
    if not (1 <= i < k):
        raise _RuleError("BadReference",
                         f"premise {i} does not precede line {k}")
    return lines[i - 1].statement


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
        except SortError as err:
            _sort_error(f"the stated line is not a formula of sort {stmt.sort}: {err}")


def check_line(d: Derivation, k: int) -> None:
    """Check line ``k`` (1-based) against the earlier lines.

    Raises :class:`DerivationCheckError` when the justification does not
    produce exactly the stated statement.
    """
    line = d.lines[k - 1]
    stmt = line.statement
    just = line.justification
    try:
        match just:
            case PropTaut():
                if not is_tautology(stmt.formula):
                    raise _RuleError("NotATautology",
                                     "the propositional abstraction is falsifiable")
            case MP(i, j):
                impl = _premise(d.lines, k, i)
                ante = _premise(d.lines, k, j)
                if impl.sort != stmt.sort or ante.sort != stmt.sort:
                    _sort_error("modus ponens premises must share the line's sort")
                pair = _as_imp_w(impl.formula) if stmt.sort == WORLD_SORT \
                    else _as_imp_a(impl.formula)
                if pair is None:
                    _mismatch(f"line {i} is not an implication")
                l, r = pair
                if ante.formula != l:
                    _mismatch(f"line {j} is not the antecedent of line {i}")
                if stmt.formula != r:
                    _mismatch("stated formula is not the consequent of the implication")
            case AxNonEmptiness():
                _match_non_emptiness(stmt, d.sig)
            case _:
                fields = [getattr(just, f) for f in getattr(just, "__match_args__", ())]
                patterns = RULES.get((type(just), *fields[1:]))
                if patterns is None:
                    _mismatch(f"unknown justification {just!r}")
                rule, env = " ".join([type(just).__name__, *fields[1:]]), {}
                if len(patterns) == 2:
                    _match(patterns[0], _premise(d.lines, k, fields[0]), env, rule,
                           f"premise {fields[0]}")
                _match(patterns[-1], stmt, env, rule, "the stated line")
        _check_sort(stmt, d.sig, type(just) in _OWN_FORMULA)
    except _RuleError as err:
        raise DerivationCheckError(k, err.kind, err.message) from None


def check_derivation(d: Derivation) -> None:
    """Check every line in order; raises at the first failing line."""
    for k in range(1, len(d.lines) + 1):
        check_line(d, k)


# --- semantic spot check ----------------------------------------------------------


class SoundnessCounterexample(Record):
    line: int
    model: object
    point: object


def _sweep_sort(stmt: Statement) -> str:
    return "world" if stmt.sort == WORLD_SORT else stmt.sort


def _swept_names(sig: Signature, sorts, what: str):
    """The atoms of ``sorts`` in declaration order, agents' before the
    environment's, as ``iter_valuations`` varies them."""
    names = [n for a in sig.agents for n in sig.atoms_for(a) if sorts.get(n) == a]
    names += [n for n in sig.env_atoms if sorts.get(n) == "world"]
    if len(names) != len(sorts):
        raise SortError(f"{what} mentions a name outside its sort's atoms")
    return names


def _groups(d: Derivation, bounds: Bounds):
    """Consecutive lines compiled into one program, as many as mention at
    most ``_CHUNK_BITS`` points' worth of atoms on the widest structure.
    Yields ``(program, lines, sorts)``, ``sorts`` giving the sort of every
    atom the lines mention; the program's last step is their conjunction
    (``_conjunction``)."""
    numbers, lines, roots, sorts = {}, [], [], {}
    for line in d.lines:
        sort = _sweep_sort(line.statement)
        size = len(numbers)
        root, leaves = _compile_into(numbers, line.statement.formula, sort)
        _swept_names(d.sig, leaves, f"line {line.index}")
        merged = {**sorts, **leaves}
        if lines and sum(bounds.edges if s == "world" else bounds.views
                         for s in merged.values()) > _CHUNK_BITS:
            for step in tuple(numbers)[size:]:
                del numbers[step]
            yield _conjunction(numbers, roots), lines, sorts
            numbers, lines, roots = {}, [], []
            root, merged = _compile_into(numbers, line.statement.formula, sort)
        lines.append(line)
        roots.append((sort, root))
        sorts = merged
    if lines:
        yield _conjunction(numbers, roots), lines, sorts


def _conjunction(numbers, roots):
    """The program, up to its last step, of a world formula that holds at a
    world where every world line holds and every agent line holds at each
    view there: the world lines and, per agent ``a``, ``A[a]`` of the
    conjunction of ``a``'s lines.  Each view lies in some world, so it
    holds everywhere exactly when every line does.  ``roots`` are the
    lines' sorts and steps in ``numbers``."""
    def step(*key):
        return numbers.setdefault(key, len(numbers))

    per_sort = {}
    for sort, root in roots:
        k = per_sort.get(sort)
        per_sort[sort] = root if k is None else step("and", None, k, root)
    out = None
    for sort, k in per_sort.items():
        if sort != "world":
            k = step("not", None, step("some", sort, step("not", None, k, None), None), None)
        out = k if out is None else step("and", None, out, k)
    return tuple(numbers)[:out + 1]


def soundness_spotcheck(d: Derivation, bounds: Optional[Bounds] = None
                        ) -> Optional[SoundnessCounterexample]:
    """Replay each accepted line against all models within bounds.

    World statements are checked at every edge, agent statements at every
    view of that agent.  Consecutive lines are compiled into one program,
    their equal steps shared, as long as the atoms they mention fit one
    chunk of the sweep on the widest structure, and each such group is
    swept as the one world formula that holds where all of its lines do:
    one program interpretation per run.  Valuations vary only over the
    atoms the group mentions (exact: a line is unaffected by an atom it
    does not mention).  The lines of the first group that fails are swept
    again alone, in order, each over its own atoms, so the counterexample
    is the first line's first one, as sweeping line by line gives it.
    Returns the first violation or None; a violation would mean the kernel
    itself is unsound.
    """
    check_derivation(d)
    sig = d.sig
    if bounds is None:
        bounds = Bounds(agents=len(sig.agents), views=2, edges=3)
    bounds.validate()
    structures = _structures(sig.agents, bounds.views, bounds.edges)
    for program, lines, sorts in _groups(d, bounds):
        names = _swept_names(sig, sorts, "a group of lines")
        if first_witness(program, "world", structures, names, sorts, sig)[1] is None:
            continue
        for line in lines:
            sort = _sweep_sort(line.statement)
            program, sorts = compile_program(line.statement.formula, sort)
            _, hit = first_witness(program, sort, structures,
                                   _swept_names(sig, sorts, f"line {line.index}"), sorts, sig)
            if hit is not None:
                model, point = hit
                _revalidate(model, point, line.statement.formula)
                return SoundnessCounterexample(line.index, model, point)
    return None
