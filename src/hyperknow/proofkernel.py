"""A checker for sorted Hilbert-style derivations.

Statements are sorted sequents: world-sorted (``e``) or agent-sorted.  The
rule set: propositional tautologies and modus ponens (which together stand
in for all classical propositional reasoning), the two necessitation rules,
the two monotonicity rules, the four directions of the two adjunctions
linking the modal pairs across sorts, and the three axiom schemes matching
the defining conditions of chromatic hypergraphs.

All matching is structural on desugared core formulas: each rule computes
the expected conclusion from its premise and compares it with the stated
line.  ``PropTaut`` abstracts maximal modal subformulas and atoms into
propositional variables and decides by truth table (exact, capped at 20
variables).  Variables are numbered through ``structural_id``, and formulas
compared with ``==``, which walks both in lockstep on an explicit stack
(:mod:`hyperknow.record`), so deep nesting costs no recursion.

``soundness_spotcheck`` replays every accepted statement against all
enumerated models within bounds; a violation would indicate a kernel bug,
so it is reported as a result rather than raised.  It runs on the search
module's ``first_witness`` over valuations numbered as ``iter_valuations``
lists them (agent atoms, then environment atoms, in declaration order), so
the counterexample is the first one that stream gives, and like every
sweep's witness it is re-validated through the evaluator before it is
returned.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from .core import Signature
from .errors import DerivationCheckError, SortError
from .record import Record
# iter_valuations is unused here but stays bound: perfbench/tracing.py
# counts the spotcheck's models by wrapping proofkernel.iter_valuations.
from .search import (Bounds, _bit_patterns, _revalidate, _structures, compile_program,
                     first_witness, iter_valuations)
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
    structural_id,
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


def _as_allviews(f):
    match f:
        case WNot(SomeView(a, ANot(x))):
            return a, x
    return None


def _as_box(f):
    match f:
        case ANot(PossWorld(WNot(x))):
            return x
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


# --- pure rule transforms (premise -> expected conclusion) -------------------------


def nec_a(premise: Statement, agent: str) -> Statement:
    if premise.sort != WORLD_SORT:
        _sort_error("necessitation to an agent sort needs a world-sorted premise")
    return Statement(agent, _box(premise.formula))


def nec_e(premise: Statement) -> Statement:
    if premise.sort == WORLD_SORT:
        _sort_error("necessitation to the world sort needs an agent-sorted premise")
    return Statement(WORLD_SORT, _allviews(premise.sort, premise.formula))


def rm(premise: Statement, agent: str, modality: str) -> Statement:
    if premise.sort != WORLD_SORT:
        _sort_error("monotonicity under <>/[] needs a world-sorted premise")
    pair = _as_imp_w(premise.formula)
    if pair is None:
        _mismatch("monotonicity premise must be an implication")
    l, r = pair
    if modality == "diamond":
        return Statement(agent, _imp_a(PossWorld(l), PossWorld(r)))
    if modality == "box":
        return Statement(agent, _imp_a(_box(l), _box(r)))
    _mismatch(f"unknown modality '{modality}' for rm")


def rm_prime(premise: Statement, modality: str) -> Statement:
    if premise.sort == WORLD_SORT:
        _sort_error("monotonicity under E/A needs an agent-sorted premise")
    pair = _as_imp_a(premise.formula)
    if pair is None:
        _mismatch("monotonicity premise must be an implication")
    l, r = pair
    a = premise.sort
    if modality == "some":
        return Statement(WORLD_SORT, _imp_w(SomeView(a, l), SomeView(a, r)))
    if modality == "all":
        return Statement(WORLD_SORT, _imp_w(_allviews(a, l), _allviews(a, r)))
    _mismatch(f"unknown modality '{modality}' for rm'")


def adj1_down(premise: Statement) -> Statement:
    """From ``|-e PHI -> A[a] psi`` to ``|-a <> PHI -> psi``."""
    if premise.sort != WORLD_SORT:
        _sort_error("adj1-down needs a world-sorted premise")
    pair = _as_imp_w(premise.formula)
    if pair is None:
        _mismatch("adj1-down premise must be an implication")
    l, r = pair
    univ = _as_allviews(r)
    if univ is None:
        _mismatch("adj1-down premise must end in a universal view quantifier")
    a, psi = univ
    return Statement(a, _imp_a(PossWorld(l), psi))


def adj1_up(premise: Statement) -> Statement:
    """From ``|-a <> PHI -> psi`` back to ``|-e PHI -> A[a] psi``."""
    if premise.sort == WORLD_SORT:
        _sort_error("adj1-up needs an agent-sorted premise")
    pair = _as_imp_a(premise.formula)
    if pair is None:
        _mismatch("adj1-up premise must be an implication")
    l, psi = pair
    match l:
        case PossWorld(phi):
            return Statement(WORLD_SORT, _imp_w(phi, _allviews(premise.sort, psi)))
    _mismatch("adj1-up premise must start with <>")


def adj2_down(premise: Statement) -> Statement:
    """From ``|-a phi -> [] PSI`` to ``|-e E[a] phi -> PSI``."""
    if premise.sort == WORLD_SORT:
        _sort_error("adj2-down needs an agent-sorted premise")
    pair = _as_imp_a(premise.formula)
    if pair is None:
        _mismatch("adj2-down premise must be an implication")
    phi, r = pair
    psi = _as_box(r)
    if psi is None:
        _mismatch("adj2-down premise must end in []")
    return Statement(WORLD_SORT, _imp_w(SomeView(premise.sort, phi), psi))


def adj2_up(premise: Statement) -> Statement:
    """From ``|-e E[a] phi -> PSI`` back to ``|-a phi -> [] PSI``."""
    if premise.sort != WORLD_SORT:
        _sort_error("adj2-up needs a world-sorted premise")
    pair = _as_imp_w(premise.formula)
    if pair is None:
        _mismatch("adj2-up premise must be an implication")
    l, psi = pair
    match l:
        case SomeView(a, phi):
            return Statement(a, _imp_a(phi, _box(psi)))
    _mismatch("adj2-up premise must start with an existential view quantifier")


# --- axiom matching -----------------------------------------------------------------


def _match_surjectivity(stmt: Statement):
    if stmt.sort == WORLD_SORT:
        _sort_error("the surjectivity axiom is agent-sorted")
    pair = _as_imp_a(stmt.formula)
    if pair is None:
        _mismatch("surjectivity axiom must be an implication")
    phi, r = pair
    match r:
        case PossWorld(SomeView(a, phi2)) if a == stmt.sort and phi2 == phi:
            return
    _mismatch("surjectivity axiom must have the shape phi -> <> E[a] phi")


def _match_functionality(stmt: Statement):
    if stmt.sort == WORLD_SORT:
        _sort_error("the functionality axiom is agent-sorted")
    pair = _as_imp_a(stmt.formula)
    if pair is None:
        _mismatch("functionality axiom must be an implication")
    l, phi = pair
    match l:
        case PossWorld(SomeView(a, phi2)) if a == stmt.sort and phi2 == phi:
            return
    _mismatch("functionality axiom must have the shape <> E[a] phi -> phi")


def _ne_formula(sig: Signature):
    out = SomeView(sig.agents[0], ATrue())
    for a in sig.agents[1:]:
        out = WNot(WAnd(WNot(out), WNot(SomeView(a, ATrue()))))
    return out


def _match_non_emptiness(stmt: Statement, sig: Signature):
    if stmt.sort != WORLD_SORT:
        _sort_error("the non-emptiness axiom is world-sorted")
    if stmt.formula != _ne_formula(sig):
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

    One walk builds the skeleton and stops at each variable, which
    ``structural_id`` names; nothing under a variable is walked twice.
    """
    steps = []
    ids: Dict[tuple, int] = {}
    numbers: Dict[int, int] = {}
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:                # a step whose operands are done
            steps.append(g)
        elif isinstance(g, _PROP_VARIABLES):
            steps.append(("var", numbers.setdefault(structural_id(g, ids), len(numbers))))
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
            case NecA(i):
                expected = nec_a(_premise(d.lines, k, i), stmt.sort)
                _expect(stmt, expected)
            case NecE(i):
                expected = nec_e(_premise(d.lines, k, i))
                _expect(stmt, expected)
            case RM(i, modality):
                if stmt.sort == WORLD_SORT:
                    _sort_error("monotonicity under <>/[] concludes at an agent sort")
                expected = rm(_premise(d.lines, k, i), stmt.sort, modality)
                _expect(stmt, expected)
            case RMPrime(i, modality):
                expected = rm_prime(_premise(d.lines, k, i), modality)
                _expect(stmt, expected)
            case Adj1Down(i):
                expected = adj1_down(_premise(d.lines, k, i))
                _expect(stmt, expected)
            case Adj1Up(i):
                expected = adj1_up(_premise(d.lines, k, i))
                _expect(stmt, expected)
            case Adj2Down(i):
                expected = adj2_down(_premise(d.lines, k, i))
                _expect(stmt, expected)
            case Adj2Up(i):
                expected = adj2_up(_premise(d.lines, k, i))
                _expect(stmt, expected)
            case AxSurjectivity():
                _match_surjectivity(stmt)
            case AxFunctionality():
                _match_functionality(stmt)
            case AxNonEmptiness():
                _match_non_emptiness(stmt, d.sig)
            case _:
                raise _RuleError("RuleMismatch", f"unknown justification {just!r}")
    except _RuleError as err:
        raise DerivationCheckError(k, err.kind, err.message) from None


def _expect(stmt: Statement, expected: Statement):
    if stmt.sort != expected.sort:
        _sort_error(f"expected sort {expected.sort}, stated sort {stmt.sort}")
    if stmt.formula != expected.formula:
        _mismatch("stated formula differs from the rule's conclusion")


def check_derivation(d: Derivation) -> None:
    """Check every line in order; raises at the first failing line."""
    for k in range(1, len(d.lines) + 1):
        check_line(d, k)


# --- semantic spot check ----------------------------------------------------------


class SoundnessCounterexample(Record):
    line: int
    model: object
    point: object


def soundness_spotcheck(d: Derivation, bounds: Optional[Bounds] = None
                        ) -> Optional[SoundnessCounterexample]:
    """Replay each accepted line against all models within bounds.

    World statements are checked at every edge, agent statements at every
    view of that agent.  Valuations vary only over the atoms each line
    mentions (exact: other atoms cannot influence it).  Returns the first
    violation or None; a violation would mean the kernel itself is unsound.
    """
    check_derivation(d)
    sig = d.sig
    if bounds is None:
        bounds = Bounds(agents=len(sig.agents), views=2, edges=3)
    bounds.validate()
    structures = _structures(sig.agents, bounds.views, bounds.edges)
    for line in d.lines:
        stmt = line.statement
        sort = "world" if stmt.sort == WORLD_SORT else stmt.sort
        program, sorts = compile_program(stmt.formula, sort)
        names = [n for a in sig.agents for n in sig.atoms_for(a) if sorts.get(n) == a]
        names += [n for n in sig.env_atoms if sorts.get(n) == "world"]
        if len(names) != len(sorts):
            raise SortError(f"line {line.index} mentions a name outside its sort's atoms")
        _, hit = first_witness(program, sort, structures, names, sorts, sig)
        if hit is not None:
            model, point = hit
            _revalidate(model, point, stmt.formula)
            return SoundnessCounterexample(line.index, model, point)
    return None
