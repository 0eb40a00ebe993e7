import random

import pytest

import hyperknow as hk
from hyperknow import parser, proofkernel
from hyperknow.errors import DerivationCheckError
from hyperknow.proofkernel import (
    Adj1Down,
    Adj2Up,
    AxFunctionality,
    AxNonEmptiness,
    AxSurjectivity,
    Derivation,
    DerivationLine,
    MP,
    NecA,
    PropTaut,
    Statement,
    abstract_propositional,
    adj1_down,
    adj1_up,
    adj2_down,
    adj2_up,
    check_derivation,
    check_line,
    is_tautology,
    soundness_spotcheck,
)
from hyperknow.search import Bounds, enumerate_hypergraphs, iter_valuations, knowledge_schemes
from hyperknow.semantics import Evaluator, View, World
from hyperknow.syntax import (
    AgentAtom,
    AMeta,
    EnvAtom,
    PossWorld,
    SomeView,
    WMeta,
    atoms_of,
    children,
    desugar,
    fold,
    substitute_metas,
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
    stmts = [
        Statement("e", desugar(_w("p -> A[a] pa"))),
        Statement("e", desugar(_w("(p & p) -> A[a] (pa & <> p)"))),
    ]
    for s in stmts:
        assert adj1_up(adj1_down(s)) == s
    down = [
        Statement("a", desugar(_a("<> p -> pa"))),
        Statement("a", desugar(_a("<> (p & alive(a)) -> (pa & true)"))),
    ]
    for s in down:
        assert adj1_down(adj1_up(s)) == s
    s2 = Statement("a", desugar(_a("pa -> [] p")))
    assert adj2_up(adj2_down(s2)) == s2
    s3 = Statement("e", desugar(_w("E[a] pa -> p")))
    assert adj2_down(adj2_up(s3)) == s3


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


@pytest.mark.parametrize("path", [p.name for p in sorted(CORPUS.glob('*.deriv'))])
def test_corpus_soundness(path):
    d = parser.parse_derivation((CORPUS / path).read_text())
    assert soundness_spotcheck(d) is None


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


def test_spotcheck_reports_the_first_violation_of_the_valuation_stream(monkeypatch):
    # Unsound lines only reach the spot check past the kernel, so the kernel
    # is switched off; the first violation must be the one that replaying
    # one valuation at a time finds first.
    monkeypatch.setattr(proofkernel, "check_derivation", lambda d: None)
    sig = hk.Signature(("a", "b"), {"a": ("pa", "qa"), "b": ("pb",)}, ("p", "r"))
    rng = random.Random("spotcheck")
    bounds = Bounds(agents=2, views=2, edges=2)
    violations = 0
    for _ in range(25):
        lines = []
        for k in range(1, 4):
            sort = rng.choice(("e", "a", "b"))
            f = random_world(rng, sig, 3) if sort == "e" else random_agent(rng, sig, sort, 3)
            lines.append(DerivationLine(k, Statement(sort, f), PropTaut()))
        d = Derivation(sig=sig, lines=tuple(lines))
        got = soundness_spotcheck(d, bounds)
        expected = _replay_one_valuation_at_a_time(d, bounds)
        if expected is None:
            assert got is None
        else:
            violations += 1
            assert (got.line, got.model, got.point) == expected
    assert violations > 0
