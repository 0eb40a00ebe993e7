import random

import pytest

import hyperknow as hk
from hyperknow import parser, proofkernel, search
from hyperknow.errors import DerivationCheckError
from hyperknow.proofkernel import (
    MP,
    RM,
    RULES,
    Adj1Down,
    Adj1Up,
    Adj2Down,
    Adj2Up,
    AxFunctionality,
    AxNonEmptiness,
    AxSurjectivity,
    Derivation,
    DerivationLine,
    NecA,
    NecE,
    PropTaut,
    RMPrime,
    Statement,
    abstract_propositional,
    check_derivation,
    check_line,
    is_tautology,
    soundness_spotcheck,
)
from hyperknow.search import Bounds, enumerate_hypergraphs, iter_valuations, knowledge_schemes
from hyperknow.semantics import Evaluator, View, World
from hyperknow.syntax import (
    AAnd,
    AgentAtom,
    AMeta,
    ANot,
    ATrue,
    EnvAtom,
    PossWorld,
    SomeView,
    WAnd,
    WMeta,
    WNot,
    atoms_of,
    children,
    desugar,
    fold,
    substitute_metas,
    walk,
)

from conftest import CORPUS, RICH_SIG, random_agent, random_world, taut_oracle

SIG = hk.Signature(("a",), {"a": ("pa",)}, ("p",))


def _w(text, sig=SIG):
    return parser.parse_world(text, sig)


def _a(text, sig=SIG):
    return parser.parse_agent(text, "a", sig)


def _derivation(*lines, sig=SIG):
    out = []
    for i, (sort, text, just) in enumerate(lines, start=1):
        formula = _w(text, sig) if sort == "e" else parser.parse_agent(text, sort, sig)
        out.append(DerivationLine(index=i, statement=Statement(sort, formula),
                                  justification=just))
    return Derivation(sig=sig, lines=tuple(out))


def test_adjunction_one_down():
    d = _derivation(
        ("e", "A[a] pa -> A[a] pa", PropTaut()),
        ("a", "<> A[a] pa -> pa", Adj1Down(1)),
    )
    check_derivation(d)


def test_adjunction_two_up():
    d = _derivation(
        ("e", "E[a] pa -> E[a] pa", PropTaut()),
        ("a", "pa -> [] E[a] pa", Adj2Up(1)),
    )
    check_derivation(d)


def test_necessitation_needs_world_premise():
    d = _derivation(
        ("a", "pa -> pa", PropTaut()),
        ("a", "[] (p -> p)", NecA(1)),
    )
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(d)
    assert err.value.line == 2
    assert err.value.kind == "SortError"


def test_necessitation_to_an_agent_sort_rejects_the_world_sort():
    # [] X stated at sort e: the rule concludes at an agent sort, so the
    # kernel refuses the line and the spot check never evaluates it.
    d = _derivation(("e", "p -> p", PropTaut()))
    boxed = Statement("e", ANot(PossWorld(WNot(d.lines[0].statement.formula))))
    forged = Derivation(sig=SIG, lines=(*d.lines, DerivationLine(2, boxed, NecA(1))))
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(forged)
    assert (err.value.line, err.value.kind) == (2, "SortError")
    with pytest.raises(DerivationCheckError):
        soundness_spotcheck(forged)


def _q_implies_q():
    # The atom q is not declared in SIG.
    return WNot(WAnd(EnvAtom("q"), WNot(EnvAtom("q"))))


def _surjectivity_at(agent):
    # phi -> <> E[agent] phi at phi := true, in core form.
    return ANot(AAnd(ATrue(), ANot(PossWorld(SomeView(agent, ATrue())))))


@pytest.mark.parametrize("lines", [
    [(Statement("zz", _a("pa -> pa")), PropTaut())],
    [(Statement("a", _w("p -> p")), PropTaut())],
    [(Statement("e", _a("pa -> pa")), PropTaut())],
    [(Statement("e", _q_implies_q()), PropTaut())],
    [(Statement("e", _w("p -> p")), PropTaut()),
     (Statement("zz", ANot(PossWorld(WNot(_w("p -> p"))))), NecA(1))],
    [(Statement("zz", _surjectivity_at("zz")), AxSurjectivity())],
], ids=["undeclared-sort", "world-formula-at-agent", "agent-formula-at-world",
        "undeclared-atom", "necessitation-to-undeclared-sort", "surjectivity-at-undeclared-sort"])
def test_a_line_must_be_a_formula_of_its_stated_sort(lines):
    # Whatever the justification, the stated sort is e or a declared agent
    # and the formula is of that sort over the signature; otherwise the
    # kernel refuses the line and the spot check never evaluates it.
    d = Derivation(sig=SIG, lines=tuple(DerivationLine(k, stmt, just)
                                        for k, (stmt, just) in enumerate(lines, start=1)))
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(d)
    assert (err.value.line, err.value.kind) == (len(lines), "SortError")
    assert "the stated" in str(err.value)
    with pytest.raises(DerivationCheckError):
        soundness_spotcheck(d)


@pytest.mark.parametrize("formula", [None, "p", WNot(None)], ids=["None", "str", "WNot(None)"])
@pytest.mark.parametrize("premise", [False, True], ids=["alone", "after-a-premise"])
def test_a_line_that_is_not_a_formula_is_a_sort_error(formula, premise):
    # Under every justification, with or without a line it may cite.
    first = [DerivationLine(1, Statement("e", _w("p -> p")), PropTaut())] if premise else []
    for just in _forms(1, 1):
        d = Derivation(sig=SIG, lines=(*first, DerivationLine(len(first) + 1,
                                                             Statement("e", formula), just)))
        with pytest.raises(DerivationCheckError) as err:
            check_derivation(d)
        assert (err.value.line, err.value.kind) == (len(d.lines), "SortError"), just
        with pytest.raises(DerivationCheckError):
            soundness_spotcheck(d)


@pytest.mark.parametrize("stmt, just", [
    (Statement("e", WNot(None)), PropTaut()),
    # x -> <> E[a] x at x := None has the axiom's shape.
    (Statement("a", ANot(AAnd(None, ANot(PossWorld(SomeView("a", None)))))), AxSurjectivity()),
], ids=["taut", "surjectivity"])
def test_a_non_formula_inside_a_line_the_kernel_reads_is_a_sort_error(stmt, just):
    d = Derivation(sig=SIG, lines=(DerivationLine(1, stmt, just),))
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(d)
    assert (err.value.line, err.value.kind) == (1, "SortError")


def test_check_line_rejects_a_line_number_outside_the_derivation():
    # Line 0 or -1 must not stand for the last line: line 3 of ksafe_4.deriv
    # cites line 2, and a last line justified by taut checks anywhere.
    d = parser.parse_derivation((CORPUS / "ksafe_4.deriv").read_text())
    taut = _derivation(("e", "p -> p", PropTaut()), ("e", "p | ~p", PropTaut()))
    for derivation in (d, taut):
        n = len(derivation.lines)
        for k in (0, -1, -n, n + 1, 9):
            with pytest.raises(IndexError, match=f"no line {k} in a derivation of {n} lines"):
                check_line(derivation, k)
        for k in range(1, n + 1):
            check_line(derivation, k)


SIG2 = hk.Signature(("a", "b"), {"a": ("pa",)}, ("p",))

# Each rule of the table: its justification, an accepted premise (None for
# an axiom, a list for MP's two) and stated line, then faults.  A fault
# replaces the premise(s) and/or the stated line (None keeps it) and names
# the expected error kind, at the rule's line.  A statement is (sort, text),
# or (sort, text, the sort the text is parsed at).  The faults are: a
# premise of the wrong sort or shape, a stated line of the wrong sort or
# formula, a metavariable bound twice differently, and an agent clash.
# NecA and NecE take any premise formula, and NecA and RM name their agent
# only in the stated sort.  MP's faults: an implication that is not one, an
# antecedent of the wrong sort or not the implication's, a wrong
# consequent, and a stated line of the other sort.
_MP_E = [("e", "(p -> p) -> (p | ~p)"), ("e", "p -> p")]
_MP_A = [("a", "(pa -> pa) -> (pa | ~pa)"), ("a", "pa -> pa")]
_RULE_CASES = [
    (MP(1, 2), _MP_E, ("e", "p | ~p"), [
        ([("e", "(p -> p) & (p | ~p)"), _MP_E[1]], None, "RuleMismatch"),
        ([_MP_E[0], ("a", "p -> p", "e")], None, "SortError"),
        ([_MP_E[0], ("e", "p -> ~p")], None, "RuleMismatch"),
        (None, ("e", "p | p"), "RuleMismatch"),
        (None, ("a", "p | ~p", "e"), "SortError")]),
    (MP(1, 2), _MP_A, ("a", "pa | ~pa"), [
        ([("a", "(pa -> pa) & (pa | ~pa)"), _MP_A[1]], None, "RuleMismatch"),
        ([_MP_A[0], ("e", "pa -> pa", "a")], None, "SortError"),
        ([_MP_A[0], ("b", "pa -> pa", "a")], None, "SortError"),
        ([_MP_A[0], ("a", "pa -> ~pa")], None, "RuleMismatch"),
        (None, ("a", "pa | pa"), "RuleMismatch"),
        (None, ("e", "pa | ~pa", "a"), "SortError")]),
    (NecA(1), ("e", "p -> p"), ("a", "[] (p -> p)"), [
        (("a", "<> p -> <> p"), None, "SortError"),
        (None, ("e", "[] (p -> p)", "a"), "SortError"),
        (None, ("a", "<> (p -> p)"), "RuleMismatch"),
        (None, ("a", "[] (p -> ~p)"), "RuleMismatch")]),
    (NecE(1), ("a", "<> p -> <> p"), ("e", "A[a] (<> p -> <> p)"), [
        (("e", "p -> p"), None, "SortError"),
        (None, ("a", "A[a] (<> p -> <> p)", "e"), "SortError"),
        (None, ("e", "E[a] (<> p -> <> p)"), "RuleMismatch"),
        (None, ("e", "A[a] (<> p -> [] p)"), "RuleMismatch"),
        (None, ("e", "A[b] (<> p -> <> p)"), "RuleMismatch")]),
    (RM(1, "diamond"), ("e", "(p & p) -> p"), ("a", "<> (p & p) -> <> p"), [
        (("a", "(pa & pa) -> pa"), None, "SortError"),
        (("e", "p & p"), None, "RuleMismatch"),
        (None, ("e", "<> (p & p) -> <> p", "a"), "SortError"),
        (None, ("a", "[] (p & p) -> <> p"), "RuleMismatch"),
        (None, ("a", "<> (p & p) -> <> ~p"), "RuleMismatch")]),
    (RM(1, "box"), ("e", "(p & p) -> p"), ("a", "[] (p & p) -> [] p"), [
        (("a", "(pa & pa) -> pa"), None, "SortError"),
        (("e", "p & p"), None, "RuleMismatch"),
        (None, ("e", "[] (p & p) -> [] p", "a"), "SortError"),
        (None, ("a", "<> (p & p) -> [] p"), "RuleMismatch"),
        (None, ("a", "[] (p & ~p) -> [] p"), "RuleMismatch")]),
    (RMPrime(1, "some"), ("a", "(<> p & <> p) -> <> p"),
     ("e", "E[a] (<> p & <> p) -> E[a] <> p"), [
        (("e", "(p & p) -> p"), None, "SortError"),
        (("a", "<> p & <> p"), None, "RuleMismatch"),
        (None, ("a", "E[a] (<> p & <> p) -> E[a] <> p", "e"), "SortError"),
        (None, ("e", "A[a] (<> p & <> p) -> E[a] <> p"), "RuleMismatch"),
        (None, ("e", "E[a] (<> p & <> p) -> E[a] [] p"), "RuleMismatch"),
        (None, ("e", "E[a] (<> p & <> p) -> E[b] <> p"), "RuleMismatch")]),
    (RMPrime(1, "all"), ("a", "(<> p & <> p) -> <> p"),
     ("e", "A[a] (<> p & <> p) -> A[a] <> p"), [
        (("e", "(p & p) -> p"), None, "SortError"),
        (("a", "<> p & <> p"), None, "RuleMismatch"),
        (None, ("a", "A[a] (<> p & <> p) -> A[a] <> p", "e"), "SortError"),
        (None, ("e", "E[a] (<> p & <> p) -> A[a] <> p"), "RuleMismatch"),
        (None, ("e", "A[a] (<> p & <> p) -> A[a] [] p"), "RuleMismatch"),
        (None, ("e", "A[b] (<> p & <> p) -> A[a] <> p"), "RuleMismatch")]),
    (Adj1Down(1), ("e", "A[a] <> p -> A[a] <> p"), ("a", "<> A[a] <> p -> <> p"), [
        (("a", "<> p -> <> p"), None, "SortError"),
        (("e", "A[a] <> p -> E[a] <> p"), None, "RuleMismatch"),
        (None, ("e", "<> A[a] <> p -> <> p", "a"), "SortError"),
        (None, ("a", "[] A[a] <> p -> <> p"), "RuleMismatch"),
        (None, ("a", "<> A[a] <> p -> [] p"), "RuleMismatch"),
        (("e", "A[b] <> p -> A[b] <> p"), ("a", "<> A[b] <> p -> <> p"), "SortError")]),
    (Adj1Up(1), ("a", "<> p -> <> p"), ("e", "p -> A[a] <> p"), [
        (("e", "p -> p"), None, "SortError"),
        (("a", "[] p -> <> p"), None, "RuleMismatch"),
        (None, ("a", "p -> A[a] <> p", "e"), "SortError"),
        (None, ("e", "p -> E[a] <> p"), "RuleMismatch"),
        (None, ("e", "~p -> A[a] <> p"), "RuleMismatch"),
        (None, ("e", "p -> A[b] <> p"), "RuleMismatch")]),
    (Adj2Down(1), ("a", "[] p -> [] p"), ("e", "E[a] [] p -> p"), [
        (("e", "p -> p"), None, "SortError"),
        (("a", "[] p -> <> p"), None, "RuleMismatch"),
        (None, ("a", "E[a] [] p -> p", "e"), "SortError"),
        (None, ("e", "A[a] [] p -> p"), "RuleMismatch"),
        (None, ("e", "E[a] [] p -> ~p"), "RuleMismatch"),
        (None, ("e", "E[b] [] p -> p"), "RuleMismatch")]),
    (Adj2Up(1), ("e", "E[a] <> p -> E[a] <> p"), ("a", "<> p -> [] E[a] <> p"), [
        (("a", "<> p -> <> p"), None, "SortError"),
        (("e", "A[a] <> p -> E[a] <> p"), None, "RuleMismatch"),
        (None, ("e", "<> p -> [] E[a] <> p", "a"), "SortError"),
        (None, ("a", "<> p -> <> E[a] <> p"), "RuleMismatch"),
        (None, ("a", "[] p -> [] E[a] <> p"), "RuleMismatch"),
        (("e", "E[b] <> p -> E[b] <> p"), ("a", "<> p -> [] E[b] <> p"), "SortError")]),
    (AxSurjectivity(), None, ("a", "<> p -> <> E[a] <> p"), [
        (None, ("e", "<> p -> <> E[a] <> p", "a"), "SortError"),
        (None, ("a", "<> p -> [] E[a] <> p"), "RuleMismatch"),
        (None, ("a", "pa -> <> E[a] ~pa"), "RuleMismatch"),
        (None, ("a", "<> p -> <> E[b] <> p"), "RuleMismatch")]),
    (AxFunctionality(), None, ("a", "<> E[a] <> p -> <> p"), [
        (None, ("e", "<> E[a] <> p -> <> p", "a"), "SortError"),
        (None, ("a", "[] E[a] <> p -> <> p"), "RuleMismatch"),
        (None, ("a", "<> E[a] pa -> ~pa"), "RuleMismatch"),
        (None, ("a", "<> E[b] <> p -> <> p"), "RuleMismatch")]),
]


def _case(premise, stated, just):
    """The derivation of the premise(s) (taken as tautologies) and
    ``stated``."""
    premises = premise if isinstance(premise, list) else [premise] if premise else []
    lines = []
    for stmt, j in [*[(p, PropTaut()) for p in premises], (stated, just)]:
        sort, text, *parsed_at = stmt
        at = (parsed_at or [sort])[0]
        f = _w(text, SIG2) if at == "e" else parser.parse_agent(text, at, SIG2)
        lines.append(DerivationLine(len(lines) + 1, Statement(sort, f), j))
    return Derivation(sig=SIG2, lines=tuple(lines))


def test_rule_table_cases_cover_every_rule():
    # A row is keyed by the justification's class and its arguments after
    # the premise index; MP's two rows by the stated sort, e or an agent's.
    def key(just, stated):
        if type(just) is MP:
            return MP, "e" if stated[0] == "e" else proofkernel._AGENT
        return (type(just), *[getattr(just, f) for f in type(just).__match_args__][1:])
    keys = [key(just, stated) for just, _, stated, _ in _RULE_CASES]
    assert len(keys) == len(set(keys)) and set(keys) == set(RULES)


@pytest.mark.parametrize("just, premise, stated, faults", _RULE_CASES,
                         ids=[f"MP at {stated[0]}" if type(just) is MP else repr(just)
                              for just, _, stated, _ in _RULE_CASES])
def test_rule_table(just, premise, stated, faults):
    d = _case(premise, stated, just)
    check_derivation(d)
    assert soundness_spotcheck(d) is None
    k = len(d.lines)
    for bad_premise, bad_stated, kind in faults:
        bad = _case(bad_premise or premise, bad_stated or stated, just)
        with pytest.raises(DerivationCheckError) as err:
            check_line(bad, k)
        assert (err.value.line, err.value.kind) == (k, kind), (bad_premise, bad_stated)
    # A stated line with a node that is not a formula record, at its sort.
    malformed = Statement(stated[0], WNot(None) if stated[0] == "e" else ANot(None))
    bad = Derivation(sig=SIG2, lines=(*d.lines[:-1], DerivationLine(k, malformed, just)))
    with pytest.raises(DerivationCheckError) as err:
        check_line(bad, k)
    assert (err.value.line, err.value.kind) == (k, "SortError")


def test_wrong_conclusion_rejected():
    d = _derivation(
        ("e", "A[a] pa -> A[a] pa", PropTaut()),
        ("a", "<> A[a] pa -> ~pa", Adj1Down(1)),
    )
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(d)
    assert err.value.line == 2
    assert err.value.kind == "RuleMismatch"


def test_forward_reference_rejected():
    d = _derivation(("e", "p -> p", MP(1, 1)))
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(d)
    assert err.value.kind == "BadReference"


def test_forged_unsound_statement_has_no_rule():
    # Over several agents, alive(a) is false where a is dead, and indeed no
    # justification produces it.
    sig2 = hk.Signature(("a", "b"), {"a": ("pa",)}, ())
    for just in (PropTaut(), AxSurjectivity(), AxFunctionality(), AxNonEmptiness()):
        d = _derivation(("e", "E[a] true", just), sig=sig2)
        with pytest.raises(DerivationCheckError) as err:
            check_derivation(d)
        assert err.value.line == 1


def test_axiom_matchers():
    check_derivation(_derivation(("a", "pa -> <> E[a] pa", AxSurjectivity())))
    check_derivation(_derivation(("a", "<> E[a] pa -> pa", AxFunctionality())))
    check_derivation(_derivation(("e", "alive(a)", AxNonEmptiness())))
    sig2 = hk.Signature(("a", "b"))
    check_derivation(_derivation(("e", "alive(a) | alive(b)", AxNonEmptiness()),
                                 sig=sig2))
    sig3 = hk.Signature(("a", "b", "c"))
    check_derivation(_derivation(("e", "alive(a) | alive(b) | alive(c)", AxNonEmptiness()),
                                 sig=sig3))
    for text in ("alive(a) | (alive(b) | alive(c))", "alive(a) | alive(b)"):
        with pytest.raises(DerivationCheckError):
            # Grouped to the right, or missing an agent.
            check_derivation(_derivation(("e", text, AxNonEmptiness()), sig=sig3))
    with pytest.raises(DerivationCheckError):
        # Wrong disjunct order.
        check_derivation(_derivation(("e", "alive(b) | alive(a)", AxNonEmptiness()),
                                     sig=sig2))
    with pytest.raises(DerivationCheckError):
        check_derivation(_derivation(("a", "pa -> <> E[a] ~pa", AxSurjectivity())))


def test_modus_ponens_order():
    d = _derivation(
        ("e", "p -> p", PropTaut()),
        ("e", "(p -> p) -> (p | ~p)", PropTaut()),
        ("e", "p | ~p", MP(2, 1)),
    )
    check_derivation(d)
    swapped = _derivation(
        ("e", "p -> p", PropTaut()),
        ("e", "(p -> p) -> (p | ~p)", PropTaut()),
        ("e", "p | ~p", MP(1, 2)),
    )
    with pytest.raises(DerivationCheckError):
        check_derivation(swapped)


def test_adjunction_inversion():
    # Each pair is one statement of the world sort and one of sort a that
    # each adjunction turns into the other, in both directions.
    adj1 = [(("e", "p -> A[a] pa"), ("a", "<> p -> pa")),
            (("e", "(p & p) -> A[a] (pa & <> p)"), ("a", "<> (p & p) -> (pa & <> p)")),
            (("e", "(p & alive(a)) -> A[a] (pa & true)"),
             ("a", "<> (p & alive(a)) -> (pa & true)"))]
    adj2 = [(("a", "pa -> [] p"), ("e", "E[a] pa -> p")),
            (("a", "(pa | ~pa) -> [] (p & E[a] pa)"), ("e", "E[a] (pa | ~pa) -> p & E[a] pa"))]
    for pairs, down, up in ((adj1, Adj1Down, Adj1Up), (adj2, Adj2Down, Adj2Up)):
        for upper, lower in pairs:
            check_line(_derivation((*upper, PropTaut()), (*lower, down(1))), 2)
            check_line(_derivation((*lower, PropTaut()), (*upper, up(1))), 2)


def test_proptaut_matches_oracle():
    rng = random.Random(37)
    for _ in range(300):
        f = desugar(random_world(rng, SIG, 4))
        assert is_tautology(f) == taut_oracle(f)
    for _ in range(300):
        f = desugar(random_agent(rng, SIG, "a", 4))
        assert is_tautology(f) == taut_oracle(f)
    assert is_tautology(desugar(_w("p | ~p")))
    assert is_tautology(desugar(_w("E[a] pa -> E[a] pa")))
    assert not is_tautology(desugar(_w("E[a] pa -> A[a] pa")))


def test_proptaut_abstraction_shares_modal_nodes():
    # <> A[a] pa -> [] E[a] pa  is propositionally equivalent to
    # [] E[a] pa | [] E[a] ~pa  because the abstraction maps the repeated
    # occurrences of each underlying diamond formula to one variable.
    g = desugar(_a("(<> A[a] pa -> [] E[a] pa) -> ([] E[a] pa | [] E[a] ~pa)"))
    _, n = abstract_propositional(g)
    assert n == 2
    assert is_tautology(g)


def _numbered_by_structure(f):
    """A reference skeleton that does not use formula ``==`` or ``hash``:
    each variable is named by a structural key (type, name or agent,
    children's keys) in a table, then numbered by first occurrence."""
    table, numbers, steps = {}, {}, []

    def key(node, sort, kids):
        k = (type(node), getattr(node, "name", None) or getattr(node, "agent", None), *kids)
        return table.setdefault(k, len(table))

    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:
            steps.append(g)
        elif isinstance(g, (EnvAtom, AgentAtom, SomeView, PossWorld, WMeta, AMeta)):
            steps.append(("var", numbers.setdefault(fold(g, None, key), len(numbers))))
        else:
            todo.append(proofkernel._PROP_STEPS[type(g)])
            todo.extend(reversed([kid for kid, _ in children(g, None)]))
    return tuple(steps), len(numbers)


def test_abstraction_numbers_variables_as_by_structure():
    # Keying variables by the formulas (their ``==`` and ``hash``) gives the
    # skeleton and count of a structural numbering, on random core formulas
    # and on every corpus line.
    rng = random.Random("abstraction")
    formulas = [random_world(rng, RICH_SIG, 5) for _ in range(1000)]
    formulas += [random_agent(rng, RICH_SIG, rng.choice("ab"), 5) for _ in range(1000)]
    for path in _corpus_files():
        formulas += [line.statement.formula
                     for line in parser.parse_derivation(path.read_text()).lines]
    variables = 0
    for f in formulas:
        skeleton, n = abstract_propositional(f)
        assert (skeleton, n) == _numbered_by_structure(f), f
        variables += n
    assert variables > 2000


def test_proptaut_too_large():
    names = [f"x{i}" for i in range(21)]
    sig = hk.Signature(("a",), {}, tuple(names))
    f = desugar(parser.parse_world(" | ".join(names), sig))
    d = Derivation(sig=sig, lines=(
        DerivationLine(1, Statement("e", f), PropTaut()),))
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(d)
    assert err.value.kind == "PropTautTooLarge"


def _corpus_files():
    return sorted(CORPUS.glob("*.deriv"))


def test_corpus_exists():
    assert len(_corpus_files()) >= 4


@pytest.mark.parametrize("path", [p.name for p in sorted(CORPUS.glob('*.deriv'))])
def test_corpus_checks(path):
    d = parser.parse_derivation((CORPUS / path).read_text())
    check_derivation(d)


def _counting_sweeps(monkeypatch):
    """The programs the spot check sweeps, each with its sort, in order."""
    swept = []

    def first_witness(program, sort, *args):
        swept.append((program, sort))
        return search.first_witness(program, sort, *args)
    monkeypatch.setattr(proofkernel, "first_witness", first_witness)
    return swept


@pytest.mark.parametrize("path", [p.name for p in sorted(CORPUS.glob('*.deriv'))])
def test_corpus_soundness(path, monkeypatch):
    # Every corpus file's atoms fit one chunk, so its lines are swept at
    # once, as their conjunction.
    swept = _counting_sweeps(monkeypatch)
    d = parser.parse_derivation((CORPUS / path).read_text())
    assert soundness_spotcheck(d) is None
    assert swept == [(search.compile_program(proofkernel._conjunction(d.lines), "world")[0],
                      "world")]


def _corrupt(line):
    if isinstance(line.justification, PropTaut):
        bad = AxFunctionality()
    else:
        bad = PropTaut()
    return DerivationLine(index=line.index, statement=line.statement,
                          justification=bad, span=line.span)


@pytest.mark.parametrize("path", [p.name for p in sorted(CORPUS.glob('*.deriv'))])
def test_corpus_rejects_any_single_corruption(path):
    d = parser.parse_derivation((CORPUS / path).read_text())
    for k in range(1, len(d.lines) + 1):
        lines = list(d.lines)
        lines[k - 1] = _corrupt(lines[k - 1])
        corrupted = Derivation(sig=d.sig, lines=tuple(lines))
        with pytest.raises(DerivationCheckError) as err:
            check_derivation(corrupted)
        assert err.value.line == k


def test_corpus_ksafe_4_concludes_the_scheme():
    # The last line of ksafe_4.deriv is the Ksafe-4 scheme at PHI := p.
    d = parser.parse_derivation((CORPUS / "ksafe_4.deriv").read_text())
    check_derivation(d)
    inst = desugar(substitute_metas(knowledge_schemes("a")["ksafe_4"],
                                    {"PHI": EnvAtom("p")}))
    assert d.lines[-1].statement == Statement("e", inst)


def test_forged_line_rejected_before_soundness_runs():
    # alive(a) alone is not derivable over a two-agent signature and is false
    # where a is dead; no justification accepts it, so the kernel refuses the
    # derivation before the semantic spot check would even see it.
    sig2 = hk.Signature(("a", "b"))
    forged = Derivation(sig=sig2, lines=(
        DerivationLine(1, Statement("e", desugar(parser.parse_world(
            "alive(a)", sig2))), AxNonEmptiness()),))
    with pytest.raises(DerivationCheckError):
        proofkernel.soundness_spotcheck(forged)
    # Over a single agent the same formula is the non-emptiness axiom itself
    # and both the kernel and the spot check accept it.
    d = _derivation(("e", "alive(a)", AxNonEmptiness()))
    assert proofkernel.soundness_spotcheck(d) is None


def test_check_line_prefix_independence():
    d = parser.parse_derivation((CORPUS / "locality.deriv").read_text())
    for k in range(1, len(d.lines) + 1):
        check_line(d, k)


def _replay_one_valuation_at_a_time(d, bounds):
    """Reference spot check: every model of iter_valuations, pointwise."""
    sig = d.sig
    for line in d.lines:
        stmt = line.statement
        names = atoms_of(stmt.formula)
        vary_agent = {a: tuple(n for n in sig.atoms_for(a) if n in names) for a in sig.agents}
        vary_env = tuple(n for n in sig.env_atoms if n in names)
        for h in enumerate_hypergraphs(bounds, sig):
            for model in iter_valuations(h, vary_agent, vary_env):
                ev = Evaluator(model)
                if stmt.sort == "e":
                    points = [World(e) for e in model.edges]
                else:
                    points = [View(stmt.sort, v) for v in model.views_of(stmt.sort)]
                for p in points:
                    if not ev.sat(p, stmt.formula):
                        return line.index, model, p
    return None


def _random_line(rng, sig, sort, depth):
    if sort == "e":
        return random_world(rng, sig, depth)
    return random_agent(rng, sig, sort, depth)


def _valid_line(rng, sig, sort, pool):
    """``f -> f`` or ``(f & g) -> f`` over formulas drawn from a shared
    pool, in core form, so that lines restate each other's subformulas."""
    f, g = rng.choice(pool[sort]), rng.choice(pool[sort])
    if sort == "e":
        return WNot(WAnd(rng.choice((f, WAnd(f, g))), WNot(f)))
    return ANot(AAnd(rng.choice((f, AAnd(f, g))), ANot(f)))


def _agrees_with_the_replay(d, bounds):
    got = soundness_spotcheck(d, bounds)
    expected = _replay_one_valuation_at_a_time(d, bounds)
    if expected is None:
        assert got is None
        return None
    assert (got.line, got.model, got.point) == expected
    return got.line


def test_spotcheck_reports_the_first_violation_of_the_valuation_stream(monkeypatch):
    # Unsound lines only reach the spot check past the kernel, so the kernel
    # is switched off; the first violation must be the one that replaying
    # one valuation at a time finds first.  Derivations of 3 to 12 lines
    # hold up to a random line, so violations come early and late.  The
    # atoms fit one chunk, so each derivation is swept at once, and one
    # that fails is swept again line by line, up to its failing line.
    monkeypatch.setattr(proofkernel, "check_derivation", lambda d: None)
    swept = _counting_sweeps(monkeypatch)
    sig = hk.Signature(("a", "b"), {"a": ("pa", "qa"), "b": ("pb",)}, ("p", "r"))
    rng = random.Random("spotcheck")
    bounds = Bounds(agents=2, views=2, edges=2)
    failing = []
    for _ in range(25):
        pool = {sort: [_random_line(rng, sig, sort, 2) for _ in range(3)]
                for sort in ("e", "a", "b")}
        n = rng.randint(3, 12)
        first_random = rng.randint(1, n + 1)
        lines = []
        for k in range(1, n + 1):
            sort = rng.choice(("e", "a", "b"))
            f = (_random_line(rng, sig, sort, 3) if k >= first_random
                 else _valid_line(rng, sig, sort, pool))
            lines.append(DerivationLine(k, Statement(sort, f), PropTaut()))
        swept.clear()
        failing.append(_agrees_with_the_replay(Derivation(sig=sig, lines=tuple(lines)),
                                               bounds))
        assert len(swept) == 1 + (failing[-1] or 0)
    assert None in failing
    assert any(k is not None and k <= 2 for k in failing)
    assert any(k is not None and k >= 6 for k in failing)


def test_spotcheck_sweeps_lines_alone_when_their_atoms_overflow_a_chunk(monkeypatch):
    # Six environment atoms take 18 bits at 3 edges, more than one chunk
    # holds, so the lines are swept alone, in order, and a violation is the
    # one the replay finds.
    monkeypatch.setattr(proofkernel, "check_derivation", lambda d: None)
    swept = _counting_sweeps(monkeypatch)
    sig = hk.Signature(("a", "b"), {}, tuple(f"p{i}" for i in range(1, 7)))
    bounds = Bounds(agents=2, views=2, edges=3)
    texts = [f"p{i} -> p{i}" for i in range(1, 7)] + ["p6 -> (p5 -> p6)", "p6 -> p5"]
    lines = tuple(DerivationLine(k, Statement("e", _w(text, sig)), PropTaut())
                  for k, text in enumerate(texts, start=1))
    for d, line in ((Derivation(sig=sig, lines=lines[:-1]), None),
                    (Derivation(sig=sig, lines=lines), 8)):
        swept.clear()
        assert _agrees_with_the_replay(d, bounds) == line
        assert swept == [(search.compile_program(line.statement.formula, "world")[0], "world")
                         for line in d.lines]


# --- pinned outcomes of a bounded mutation set ---------------------------------

# tests/data/kernel_outcomes.txt holds kernel_outcomes() byte for byte; print
# the current text with ``PYTHONPATH=src python tests/test_proofkernel.py``.

OUTCOMES = CORPUS.parent / "tests" / "data" / "kernel_outcomes.txt"


def _forms(i, j):
    """The fifteen justification forms, with premise indices ``i`` and ``j``."""
    return (PropTaut(), MP(i, j), NecA(i), NecE(i), RM(i, "diamond"), RM(i, "box"),
            RMPrime(i, "some"), RMPrime(i, "all"), Adj1Down(i), Adj1Up(i),
            Adj2Down(i), Adj2Up(i), AxSurjectivity(), AxFunctionality(), AxNonEmptiness())


def kernel_outcomes(read=parser.parse_derivation) -> str:
    """``ok`` or the failing ``line kind`` of every corpus line restated under
    each justification form, at sort ``e`` and at the first agent.  The forms
    cite the line's own premise indices, then ``k-1`` and ``k-2``.  ``read``
    turns a corpus file's text into its derivation."""
    out = []
    for path in _corpus_files():
        d = read(path.read_text(encoding="utf-8"))
        for k, line in enumerate(d.lines, start=1):
            just = line.justification
            cited = [getattr(just, f) for f in type(just).__match_args__]
            i, j = ([n for n in cited if type(n) is int] + [k - 1, k - 2])[:2]
            for sort in ("e", d.sig.agents[0]):
                for form in _forms(i, j):
                    mutated = list(d.lines)
                    mutated[k - 1] = DerivationLine(k, Statement(sort, line.statement.formula),
                                                    form)
                    try:
                        check_line(Derivation(sig=d.sig, lines=tuple(mutated)), k)
                        verdict = "ok"
                    except DerivationCheckError as err:
                        verdict = f"{err.line} {err.kind}"
                    out.append(f"{path.name} {k} {sort} {form!r}: {verdict}")
    return "\n".join(out) + "\n"


def test_kernel_outcomes_match_the_golden_file():
    assert kernel_outcomes() == OUTCOMES.read_text(encoding="utf-8")


# --- the kernel does not depend on shared subformulas ------------------------------

def _lines_alone(d):
    """``d`` with each line's formula rebuilt on its own from its text, so
    that no two lines share a node, as in a derivation built in code."""
    lines = []
    for line in d.lines:
        sort, text = line.statement.sort, parser.render(line.statement.formula)
        alone = (parser.parse_world(text, d.sig) if sort == "e"
                 else parser.parse_agent(text, sort, d.sig))
        lines.append(DerivationLine(line.index, Statement(sort, alone), line.justification,
                                    line.span))
    return Derivation(d.sig, tuple(lines))


def _read_lines_alone(text):
    return _lines_alone(parser.parse_derivation(text))


def test_lines_rebuilt_alone_share_no_node():
    d = _read_lines_alone((CORPUS / "distribution.deriv").read_text(encoding="utf-8"))
    ids = [{id(node) for node, _ in walk(line.statement.formula, None)} for line in d.lines]
    assert sum(map(len, ids)) == len(set().union(*ids))


def test_kernel_outcomes_without_sharing_match_the_golden_file():
    assert kernel_outcomes(_read_lines_alone) == OUTCOMES.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", _corpus_files(), ids=lambda p: p.name)
def test_corpus_verdicts_do_not_depend_on_sharing(path, monkeypatch):
    parsed = parser.parse_derivation(path.read_text(encoding="utf-8"))
    alone = _lines_alone(parsed)
    assert alone == parsed
    swept = _counting_sweeps(monkeypatch)
    assert check_derivation(alone) is check_derivation(parsed) is None
    assert soundness_spotcheck(alone) is soundness_spotcheck(parsed) is None
    half = len(swept) // 2
    assert swept[:half] == swept[half:]


if __name__ == "__main__":
    print(kernel_outcomes(), end="")
