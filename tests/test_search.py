import itertools
import random
import re
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import hyperknow as hk
from hyperknow import proofkernel, search
from hyperknow.errors import BoundsError, SortError
from hyperknow.search import (
    Bounds,
    Countermodel,
    ValidWithinBounds,
    check_scheme,
    enumerate_hypergraphs,
    enumerate_models,
    find_countermodel,
    iter_valuations,
    knowledge_schemes,
    interaction_schemes,
    scheme_functionality,
    scheme_non_emptiness,
    scheme_surjectivity,
    signature_for_bounds,
)
from hyperknow.semantics import Evaluator, View, World
from hyperknow.syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AImplies,
    AllViews,
    AMeta,
    ANot,
    AOr,
    ATrue,
    Box,
    EnvAtom,
    KB4Atom,
    PossWorld,
    SomeView,
    WAnd,
    WFalse,
    WImplies,
    WMeta,
    WNot,
    WOr,
    WorldFormula,
    WTrue,
    desugar,
    ksafe,
    kunsafe,
    substitute_metas,
    walk,
)

from conftest import (CORPUS, RICH_SIG, naive_hypergraph_count, random_agent, random_surface_agent,
                      random_surface_world, random_world)


def test_forced_single_structure():
    b = Bounds(agents=1, views=1, edges=1, agent_atoms=0, env_atoms=0)
    hs = list(enumerate_hypergraphs(b))
    assert len(hs) == 1
    models = list(enumerate_models(b))
    assert len(models) == 1


def test_enumeration_matches_naive_oracle():
    b = Bounds(agents=2, views=1, edges=3, agent_atoms=0, env_atoms=0)
    mine = len(list(enumerate_hypergraphs(b)))
    oracle = naive_hypergraph_count(("a", "b"), 1, 3)
    assert mine == oracle
    b2 = Bounds(agents=2, views=2, edges=2, agent_atoms=0, env_atoms=0)
    assert len(list(enumerate_hypergraphs(b2))) == \
        naive_hypergraph_count(("a", "b"), 2, 2)


def test_enumerated_models_pass_validation():
    b = Bounds(agents=2, views=1, edges=2, agent_atoms=1, env_atoms=1)
    sig = signature_for_bounds(b)
    count = 0
    for m in enumerate_models(b):
        hk.build_model(sig, m.hypergraph.views, m.edges, m.hypergraph.proj,
                       m.val_agent, m.val_env)
        count += 1
    assert count > 0


def test_enumeration_deterministic():
    b = Bounds(agents=2, views=1, edges=2, agent_atoms=0, env_atoms=0)
    first = [(h.edges, tuple(sorted(h.proj.items()))) for h in enumerate_hypergraphs(b)]
    second = [(h.edges, tuple(sorted(h.proj.items()))) for h in enumerate_hypergraphs(b)]
    assert first == second


def test_bounds_validation():
    with pytest.raises(BoundsError):
        Bounds(agents=0).validate()
    with pytest.raises(BoundsError):
        Bounds(agents=4).validate()
    with pytest.raises(BoundsError):
        Bounds(edges=6).validate()
    Bounds().validate()


def test_bounds_env_override(monkeypatch):
    monkeypatch.setenv("HYPERKNOW_MAX_BOUNDS", "edges=7, views=4")
    caps = search.hard_caps()
    assert caps["edges"] == 7
    assert caps["views"] == 4
    assert caps["agents"] == 3
    Bounds(edges=6).validate()


def test_bounds_env_skips_parts_that_are_not_decimal(monkeypatch):
    # "²".isdigit() holds but int("²") raises; such parts are malformed.
    monkeypatch.setenv("HYPERKNOW_MAX_BOUNDS", "edges=², views=4, agents=x")
    assert search.hard_caps() == {**search._ENV_CAPS, "views": 4}
    Bounds().validate()


SMALL = Bounds(agents=2, views=1, edges=2, agent_atoms=1, env_atoms=1)


def _literal_scheme_check(scheme, bounds, agent=None, height=1):
    """Oracle: instantiate metavariables with every formula up to the given
    height over the bounds alphabet, sweep every model, evaluate pointwise."""
    sig = signature_for_bounds(bounds)
    meta_sorts = hk.syntax.scheme_meta_sorts(scheme, sig, agent=agent)
    names = sorted(meta_sorts)

    def agent_pool(ag):
        leaves = [hk.syntax.ATrue(), hk.syntax.AFalse()] + \
            [AgentAtom(n) for n in sig.atoms_for(ag)]
        pool = list(leaves)
        for leaf in leaves:
            pool.append(hk.syntax.ANot(leaf))
        for leaf in [hk.syntax.WTrue()] + [EnvAtom(n) for n in sig.env_atoms]:
            pool.append(hk.syntax.PossWorld(leaf))
        return pool

    def world_pool():
        leaves = [hk.syntax.WTrue(), hk.syntax.WFalse()] + \
            [EnvAtom(n) for n in sig.env_atoms]
        pool = list(leaves)
        for leaf in leaves:
            pool.append(hk.syntax.WNot(leaf))
        for ag in sig.agents:
            pool.append(SomeView(ag, hk.syntax.ATrue()))
            for n in sig.atoms_for(ag):
                pool.append(SomeView(ag, AgentAtom(n)))
        return pool

    pools = [world_pool() if meta_sorts[n] == "world" else agent_pool(meta_sorts[n])
             for n in names]
    for m in enumerate_models(bounds):
        ev = Evaluator(m)
        for combo in itertools.product(*pools):
            inst = desugar(substitute_metas(scheme, dict(zip(names, combo))))
            if isinstance(scheme, WorldFormula):
                points = [("w", e) for e in m.edges]
            else:
                points = [("v", v) for v in m.views_of(agent)]
            for kind, p in points:
                ok = ev.sat_world(p, inst) if kind == "w" else \
                    ev.sat_agent(agent, p, inst)
                if not ok:
                    return "countermodel"
    return "valid"


@pytest.mark.parametrize("name,maker,agent", [
    ("collapse", lambda: interaction_schemes("a")[1], None),
    ("veracity", lambda: interaction_schemes("a")[3], None),
    ("ksafe_nec", lambda: knowledge_schemes("a")["ksafe_necessitation"], None),
    ("ksafe_b", lambda: knowledge_schemes("a")["ksafe_b"], None),
    ("ksafe_4", lambda: knowledge_schemes("a")["ksafe_4"], None),
    ("surjectivity", lambda: scheme_surjectivity("a"), "a"),
])
def test_extension_sweep_agrees_with_literal_instantiation(name, maker, agent):
    scheme = maker()
    fast = check_scheme(scheme, SMALL, agent=agent)
    kind = "valid" if isinstance(fast, ValidWithinBounds) else "countermodel"
    assert kind == _literal_scheme_check(scheme, SMALL, agent=agent)


def test_axiom_schemes_valid():
    b = Bounds(agents=2, views=2, edges=3)
    assert isinstance(check_scheme(scheme_surjectivity("a"), b, agent="a"),
                      ValidWithinBounds)
    assert isinstance(check_scheme(scheme_functionality("a"), b, agent="a"),
                      ValidWithinBounds)
    assert isinstance(check_scheme(scheme_non_emptiness(("a", "b")), b),
                      ValidWithinBounds)


def test_safe_knowledge_necessitation_fails():
    v = check_scheme(knowledge_schemes("a")["ksafe_necessitation"], Bounds())
    assert isinstance(v, Countermodel)
    # The witness is a world where a is dead.
    assert not v.model.alive(v.point.edge, "a")


def test_safe_knowledge_brouwer_fails_at_dead_worlds():
    # PHI -> Ksafe ~Ksafe ~PHI has a countermodel: safe knowledge of anything
    # is false wherever the agent is absent.
    v = check_scheme(knowledge_schemes("a")["ksafe_b"], Bounds())
    assert isinstance(v, Countermodel)
    assert not v.model.alive(v.point.edge, "a")


def test_safe_knowledge_brouwer_minimal_countermodel():
    # The smallest B countermodel: a is absent at e and p holds there, so
    # Ksafe[a] ~Ksafe[a] ~p (an E[a] formula) is false at e.
    m = hk.parse_model(
        "agents: a, b\n"
        "atoms[env]: p\n"
        "view b: b0\n"
        "edge e { b: b0 } env { p }\n")
    f = hk.parse_world("p -> Ksafe[a] ~Ksafe[a] ~p", m.sig)
    inst = desugar(substitute_metas(knowledge_schemes("a")["ksafe_b"],
                                    {"PHI": EnvAtom("p")}))
    assert f == inst
    assert not m.alive("e", "a")
    assert not Evaluator(m).sat_world("e", f)


def test_safe_knowledge_four_valid():
    # Nested safe knowledge rides the same view, so the 4 scheme survives
    # within bounds even though B does not.
    v = check_scheme(knowledge_schemes("a")["ksafe_4"], Bounds())
    assert isinstance(v, ValidWithinBounds)


def test_unsafe_knowledge_schemes_valid():
    schemes = knowledge_schemes("a")
    for name in ("kunsafe_k", "kunsafe_b", "kunsafe_4", "ksafe_k", "ksafe_t"):
        assert isinstance(check_scheme(schemes[name], Bounds()), ValidWithinBounds), name


def test_countermodel_reevaluates_false():
    schemes = knowledge_schemes("a")
    for name in ("ksafe_b", "ksafe_necessitation"):
        v = check_scheme(schemes[name], Bounds())
        assert isinstance(v, Countermodel)
        inst = desugar(substitute_metas(schemes[name], v.assignment))
        assert not Evaluator(v.model).sat(v.point, inst)


def test_scheme_with_concrete_atoms():
    # Atoms in a scheme are swept over all valuations, like metavariables.
    b = Bounds()
    sig = signature_for_bounds(b)
    s = hk.parse_world("q1 -> (?PHI -> q1)", sig, allow_metas=True)
    assert isinstance(check_scheme(s, b), ValidWithinBounds)
    v = check_scheme(hk.parse_world("q1 -> K[a] q1", sig), b)
    assert isinstance(v, Countermodel)
    assert v.point.edge in v.model.val_env["q1"]
    assert not Evaluator(v.model).sat_world(
        v.point.edge, desugar(hk.parse_world("q1 -> K[a] q1", sig)))
    locality = hk.parse_agent("p1_a -> [] E[a] p1_a", "a", sig)
    assert isinstance(check_scheme(locality, b, agent="a"), ValidWithinBounds)


@pytest.mark.parametrize("text, meta, agent", [
    ("?q1 | ~q1", "q1", None), ("?x | ~q1", "x", None), ("?p1_a | ~p1_a", "p1_a", "a")])
def test_metavariable_is_swept_apart_from_the_atom_of_its_name(text, meta, agent):
    # A metavariable draws a fresh atom even where an atom has its name, so
    # ?q1 | ~q1 fails where q2 and q1 are both false.
    b = Bounds()
    sig = signature_for_bounds(b)
    if agent is None:
        scheme, fresh = hk.parse_world(text, sig, allow_metas=True), EnvAtom("q2")
    else:
        scheme, fresh = hk.parse_agent(text, agent, sig, allow_metas=True), AgentAtom("p2_a")
    v = check_scheme(scheme, b, agent=agent)
    assert isinstance(v, Countermodel)
    assert v.assignment == {meta: fresh}
    assert not Evaluator(v.model).sat(v.point, substitute_metas(scheme, v.assignment))


def test_scheme_requires_atom_per_metavariable():
    b = Bounds(agents=2, views=1, edges=2, agent_atoms=0, env_atoms=0)
    with pytest.raises(BoundsError):
        check_scheme(interaction_schemes("a")[3], b)


@pytest.mark.parametrize("scheme, error, message", [
    (KB4Atom("u"), SortError, "a KB4 formula is no scheme: KB4Atom(name='u')"),
    (None, TypeError, "not a formula: None"),
], ids=["kb4", "none"])
def test_check_scheme_reads_the_sort_of_its_scheme(scheme, error, message):
    # Neither is an agent-sorted scheme without its agent.
    for agent in (None, "a"):
        with pytest.raises(error) as caught:
            check_scheme(scheme, Bounds(edges=2), agent=agent)
        assert type(caught.value) is error and str(caught.value) == message


def test_find_countermodel_ne_valid():
    b = Bounds()
    sig = signature_for_bounds(b)
    f = hk.parse_world("alive(a) | alive(b)", sig)
    assert isinstance(find_countermodel(f, b), ValidWithinBounds)


def test_find_countermodel_alive_minimal():
    b = Bounds()
    sig = signature_for_bounds(b)
    v = find_countermodel(hk.parse_world("alive(a)", sig), b)
    assert isinstance(v, Countermodel)
    assert len(v.model.edges) == 1
    assert sum(len(v.model.views_of(a)) for a in v.model.sig.agents) == 1
    assert not v.model.alive(v.point.edge, "a")


def _smaller_models(m, edge):
    """Model-level oracle for local minimality: every model one deletion
    smaller than ``m`` that keeps ``edge``.  An
    edge goes with the views only it held; a view goes only if every edge
    keeps some view."""
    h, agents = m.hypergraph, m.sig.agents

    def rebuild(edges, proj):
        held = {(a, v) for (_, a), v in proj.items()}
        views = {a: tuple(v for v in h.views[a] if (a, v) in held) for a in agents}
        return hk.build_model(
            m.sig, views, edges, proj,
            {a: {p: s & set(views[a]) for p, s in m.val_agent[a].items()} for a in agents},
            {p: s & set(edges) for p, s in m.val_env.items()})

    for e in h.edges:
        if e != edge:
            yield rebuild(tuple(x for x in h.edges if x != e),
                          {k: v for k, v in h.proj.items() if k[0] != e})
    for a in agents:
        for v in h.views[a]:
            proj = {k: w for k, w in h.proj.items() if (k[1], w) != (a, v)}
            if all(any((e, b) in proj for b in agents) for e in h.edges):
                yield rebuild(h.edges, proj)


def _assert_locally_minimal(v, core):
    edge = v.point.edge
    assert not Evaluator(v.model).sat_world(edge, core)
    for smaller in _smaller_models(v.model, edge):
        assert Evaluator(smaller).sat_world(edge, core)


def test_find_countermodel_safe_unsafe_gap():
    b = Bounds()
    sig = signature_for_bounds(b)
    f = hk.parse_world("K[a] q1 -> Ksafe[a] q1", sig)
    v = find_countermodel(f, b)
    assert isinstance(v, Countermodel)
    assert not v.model.alive(v.point.edge, "a")
    _assert_locally_minimal(v, desugar(f))


@pytest.mark.parametrize("b", [Bounds(), Bounds(agents=3, views=2, edges=3),
                               Bounds(agents=2, views=3, edges=3)],
                         ids=lambda b: f"{b.agents}-{b.views}-{b.edges}")
def test_find_countermodel_witnesses_locally_minimal(b):
    # The first witness of the structure stream is returned as it is: every
    # one-deletion substructure comes earlier in the stream, up to renaming.
    agents = search.default_agents(b.agents)
    sig = hk.Signature(agents, {a: (f"p{a}",) for a in agents}, ("q",))
    rng = random.Random("minimal-witnesses")
    found = 0
    for _ in range(50):
        f = random_world(rng, sig, 4)
        v = find_countermodel(f, b)
        if isinstance(v, Countermodel):
            found += 1
            _assert_locally_minimal(v, f)
    assert found >= 30


def test_every_sweep_revalidates_its_witness(monkeypatch):
    # A sweep that reports a point where the formula holds is caught by the
    # evaluator in each of its callers.
    monkeypatch.setattr(search, "sweep", lambda program, sort, run, names, sorts:
                        (1, (run.members[0], 0, World(run.members[0].edges[0]))))
    b = Bounds(edges=2)
    sig = signature_for_bounds(b)
    derivation = hk.parse_derivation("agents: a\natoms[env]: p\n1. e: p -> p ; taut\n")
    for verdict in (lambda: check_scheme(hk.parse_world("?PHI -> ?PHI", sig, allow_metas=True), b),
                    lambda: find_countermodel(hk.parse_world("q1 | ~q1", sig), b),
                    lambda: hk.soundness_spotcheck(derivation)):
        with pytest.raises(AssertionError, match="extension sweep and evaluator disagree"):
            verdict()


def test_find_countermodel_rejects_unknown_agents():
    # Also an agent that occurs only under a complemented modality.
    for f in (SomeView("z", ATrue()), AllViews("z", ATrue()), kunsafe("z", EnvAtom("u")),
              ksafe("z", EnvAtom("u")), WNot(SomeView("z", ANot(ATrue())))):
        with pytest.raises(BoundsError, match=re.escape("formula mentions agents ['z'] outside")):
            find_countermodel(f, Bounds())


@pytest.mark.parametrize("f, name", [
    (WMeta("x"), "x"),
    (WOr(WMeta("x"), WNot(WMeta("x"))), "x"),
    (AllViews("a", Box(WMeta("x"))), "x"),
    (WAnd(EnvAtom("u"), SomeView("b", AMeta("y"))), "y"),
], ids=["meta", "excluded-middle", "unsafe-knowledge", "agent-meta"])
def test_find_countermodel_rejects_metavariables_before_sweeping(f, name, monkeypatch):
    # A metavariable has no valuation to sweep, whether or not the formula
    # would be valid with it read as an atom.
    def no_sweep(*args):
        raise AssertionError("a formula with a metavariable was swept")
    monkeypatch.setattr(search, "first_witness", no_sweep)
    with pytest.raises(SortError, match=re.escape(f"cannot evaluate metavariable '?{name}'")):
        find_countermodel(f, Bounds())


@pytest.mark.parametrize("f, sort, error, message", [
    (ATrue(), "world", SortError, "not a formula of sort world: ATrue()"),
    (SomeView("a", EnvAtom("u")), "world", SortError,
     "not a formula of sort a: EnvAtom(name='u')"),
    (WNot(KB4Atom("p")), "world", SortError, "not a formula of sort world: KB4Atom(name='p')"),
    (WAnd(EnvAtom("u"), "u"), "world", TypeError, "not a formula: 'u'"),
    ("u", "world", TypeError, "not a formula: 'u'"),
    (None, "a", TypeError, "not a formula: None"),
], ids=["mis-sorted", "mis-sorted-below-a-view", "kb4", "string-child", "string", "none"])
def test_compile_program_rejects_what_is_not_a_formula_of_its_sort(f, sort, error, message):
    with pytest.raises(error) as caught:
        search.compile_program(f, sort)
    assert type(caught.value) is error and str(caught.value) == message


def test_derived_connectives_compile_as_their_core_forms():
    rng = random.Random("surface-programs")
    for _ in range(500):
        sort = rng.choice(("world", "a", "b"))
        f = (random_surface_world(rng, RICH_SIG, 5) if sort == "world"
             else random_surface_agent(rng, RICH_SIG, sort, 5))
        program, leaves = search.compile_program(f, sort)
        core_program, core_leaves = search.compile_program(desugar(f), sort)
        assert program == core_program, f
        assert list(leaves.items()) == list(core_leaves.items())
    for name, scheme in {**interaction_schemes("a"), **knowledge_schemes("a")}.items():
        sort = "world" if isinstance(scheme, WorldFormula) else "a"
        assert search.compile_program(scheme, sort, allow_metas=True) == \
            search.compile_program(desugar(scheme), sort, allow_metas=True), name


def _literal(f, sort, keys):
    """Reference for the compiler: the step of core formula ``f`` at
    ``sort``, as a nested key, and its complement bit.  A negation is its
    operand's step complemented, ``false`` is ``true`` complemented, and
    ``~x & y`` is ``y & ~x``.  Adds the key of every step to ``keys``."""
    t = type(f)
    if t in (WNot, ANot):
        key, bit = _literal(f.sub, sort, keys)
        return key, 1 - bit
    if t in (WTrue, ATrue, WFalse, AFalse):
        key, bit = ("top", sort), int(t in (WFalse, AFalse))
    elif t in (EnvAtom, AgentAtom):
        key, bit = ("atom", f.name), 0
    elif t in (WAnd, AAnd):
        operands = sorted([_literal(f.left, sort, keys), _literal(f.right, sort, keys)],
                          key=lambda literal: literal[1])
        key, bit = ("and", *operands), 0
    elif t is SomeView:
        key, bit = ("some", f.agent, _literal(f.sub, f.agent, keys)), 0
    else:
        assert t is PossWorld, f
        key, bit = ("poss", sort, _literal(f.sub, "world", keys)), 0
    keys.add(key)
    return key, bit


def test_programs_are_value_numbered():
    # One step per distinct core subformula at its sort, a negation counted
    # with its operand: a subformula that occurs twice, or the steps two
    # derived connectives share, cost one step, and a negation none; each
    # operand is an earlier step.  A complemented formula ends with one
    # ``not`` step.
    rng = random.Random("value-numbering")
    shared = 0
    for _ in range(500):
        sort = rng.choice(("world", "a", "b"))
        f = (random_surface_world(rng, RICH_SIG, 5) if sort == "world"
             else random_surface_agent(rng, RICH_SIG, sort, 5))
        program, _ = search.compile_program(f, sort)
        keys = set()
        _, bit = _literal(desugar(f), sort, keys)
        assert len(program) == len(keys) + bit and (program[-1][0] == "not") == bit, f
        assert len(set(program)) == len(program)
        assert all(i is None or i < k for k, step in enumerate(program) for i in step[2:])
        shared += len(program) < sum(1 for node, _ in walk(desugar(f), sort)
                                     if type(node) not in (WNot, ANot))
    assert shared > 100
    library = {**knowledge_schemes("a"), **{f"interaction_{k}": s
                                            for k, s in interaction_schemes("a").items()}}
    for name, steps in (("kunsafe_4", 7), ("ksafe_4", 7), ("interaction_2", 6)):
        scheme = library[name]
        sort = "world" if isinstance(scheme, WorldFormula) else "a"
        assert len(search.compile_program(scheme, sort, allow_metas=True)[0]) == steps, name


def test_no_step_reads_a_negation_through_a_step_of_its_own():
    # In random formulas, the scheme library and the corpus conjunctions the
    # spot check sweeps, every step that reads an operand is one of the
    # forms that absorb its operands' complement bits, and a ``not`` step is
    # only ever the last, a complemented formula's, which no step reads.
    forms = {"top", "atom", "and", "and_not", "nor", "some", "some_not", "poss", "poss_not"}
    rng = random.Random("no-negation-steps")
    programs = []
    for _ in range(300):
        sort = rng.choice(("world", "a", "b"))
        f = (random_surface_world(rng, RICH_SIG, 5) if sort == "world"
             else random_surface_agent(rng, RICH_SIG, sort, 5))
        programs.append(search.compile_program(f, sort)[0])
    for scheme in _scheme_library().values():
        sort = "world" if isinstance(scheme, WorldFormula) else "a"
        programs.append(search.compile_program(scheme, sort, allow_metas=True)[0])
    for path in sorted(CORPUS.glob("*.deriv")):
        d = hk.parser.parse_derivation(path.read_text())
        programs.append(search.compile_program(proofkernel._conjunction(d.lines), "world")[0])
    assert all(step[0] in forms for program in programs for step in program[:-1])
    assert {program[-1][0] == "not" for program in programs} == {False, True}
    assert {step[0] for program in programs for step in program} == forms | {"not"}


def test_negations_and_derived_connectives_compile_as_their_duals():
    # ``f`` and ``~~f``, and each derived connective and the complement of
    # its dual core form, are one program; ``~f`` differs from ``f`` in its
    # last ``not`` step alone.
    rng = random.Random("dual-programs")
    for _ in range(200):
        sort = rng.choice(("world", "a", "b"))
        if sort == "world":
            x, y = (random_surface_world(rng, RICH_SIG, 3) for _ in range(2))
            agent = rng.choice(RICH_SIG.agents)
            sub = random_surface_agent(rng, RICH_SIG, agent, 3)
            neg, pairs = WNot, [(WFalse(), WNot(WTrue())),
                                (AllViews(agent, sub), WNot(SomeView(agent, ANot(sub))))]
        else:
            x, y = (random_surface_agent(rng, RICH_SIG, sort, 3) for _ in range(2))
            sub = random_surface_world(rng, RICH_SIG, 3)
            neg, pairs = ANot, [(AFalse(), ANot(ATrue())), (Box(sub), ANot(PossWorld(WNot(sub))))]
        conj = WAnd if sort == "world" else AAnd
        pairs += [
            (x, neg(neg(x))),
            ((WOr if sort == "world" else AOr)(x, y), neg(conj(neg(x), neg(y)))),
            ((WImplies if sort == "world" else AImplies)(x, y), neg(conj(x, neg(y)))),
        ]
        for f, g in pairs:
            assert search.compile_program(f, sort) == search.compile_program(g, sort), (f, g)
        program, leaves = search.compile_program(x, sort)
        negated, negated_leaves = search.compile_program(neg(x), sort)
        longer, shorter = sorted((program, negated), key=len)[::-1]
        assert longer == (*shorter, ("not", None, len(shorter) - 1, None))
        assert leaves == negated_leaves


def test_values_are_dropped_after_their_last_reader(monkeypatch):
    # Stretches of three steps: each stretch drops exactly the values that
    # no later stretch reads, and the sweep finds what it finds in one
    # stretch.
    rng = random.Random("stretches")
    classes = search._structures(("a", "b"), 2, 2)
    formulas = [random_surface_world(rng, RICH_SIG, 5) for _ in range(100)]
    whole = [search.first_witness(*_sweep_args(f, classes)) for f in formulas]
    with monkeypatch.context() as m:
        m.setattr(search, "_STRETCH", 3)
        for f, expected in zip(formulas, whole):
            args = _sweep_args(f, classes)
            stretches = search._stretches(args[0], 3)
            assert [step for steps, _ in stretches for step in steps] == list(args[0])
            last = {}
            for s, (steps, _) in enumerate(stretches):
                for _, _, i, j in steps:
                    last.update({k: s for k in (i, j) if k is not None})
            assert [sorted(dead) for _, dead in stretches] == [
                sorted(k for k, s in last.items() if s == t)
                for t in range(len(stretches) - 1)] + [[]]
            checked, hit = search.first_witness(*args)
            assert checked == expected[0]
            assert (hit is None) == (expected[1] is None)
            if hit is not None:
                assert hit[1] == expected[1][1]
                assert hk.parser.render_model(hit[0]) == hk.parser.render_model(expected[1][0])

    # A wide chunk: a valid formula of about 200 steps over four environment
    # atoms is 16 bits at 4 edges, so chunks of 2**14 bits and stretches of
    # 16 steps.  It counts what one stretch counts and holds far fewer
    # values at once.
    sig = hk.Signature(("a", "b"), {}, ("q1", "q2", "q3", "q4"))
    x = random_surface_world(rng, sig, 5)
    while len(search.compile_program(x, "world")[0]) < 200:
        x = WAnd(x, random_surface_world(rng, sig, 5))
    f = WOr(x, WNot(x))
    program, sorts = search.compile_program(f, "world")
    assert sorted(sorts) == ["q1", "q2", "q3", "q4"] and len(program) <= 256
    lengths = []
    stretches = search._stretches

    def spy(program, length):
        lengths.append(length)
        return stretches(program, length)

    def peak():
        search._structures(("a", "b"), 2, 4)
        tracemalloc.start()
        try:
            return find_countermodel(f, Bounds()), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(search, "_stretches", spy)
    cut, cut_peak = peak()
    assert min(lengths) == 16
    lengths.clear()
    monkeypatch.setattr(search, "_WIDE", 1 << 14)
    one, one_peak = peak()
    assert set(lengths) == {256}
    labelled = sum(16 ** len(h.edges) for h in enumerate_hypergraphs(Bounds()))
    assert cut == one == ValidWithinBounds(models_checked=labelled)
    assert 3 * cut_peak < one_peak, (cut_peak, one_peak)


def _sweep_args(f, classes):
    program, sorts = search.compile_program(f, "world")
    return program, "world", classes, list(sorts), sorts, RICH_SIG


@pytest.mark.parametrize("b", [Bounds(), Bounds(agents=3, views=2, edges=3)],
                         ids=lambda b: f"{b.agents}-{b.views}-{b.edges}")
def test_find_countermodel_refutes_a_formula_as_its_core_form(b):
    rng = random.Random("surface-countermodels")
    valid = 0
    for _ in range(80):
        f = random_surface_world(rng, RICH_SIG, 4)
        surface, core = find_countermodel(f, b), find_countermodel(desugar(f), b)
        assert type(surface) is type(core), f
        if isinstance(core, ValidWithinBounds):
            valid += 1
            assert surface.models_checked == core.models_checked, f
        else:
            assert surface.point == core.point, f
            assert hk.parser.render_model(surface.model) == hk.parser.render_model(core.model)
    assert 0 < valid < 80


def test_iter_valuations_varies_only_requested_atoms():
    b = Bounds(agents=1, views=1, edges=1, agent_atoms=1, env_atoms=1)
    sig = signature_for_bounds(b)
    h = next(iter(enumerate_hypergraphs(b, sig)))
    models = list(iter_valuations(h, {"a": ()}, ("q1",)))
    assert len(models) == 2  # q1 in or out of the single edge
    assert all(m.val_agent["a"]["p1_a"] == frozenset() for m in models)


# --- the bit-sliced sweep ----------------------------------------------------------


def _valuation_order(sig, sorts):
    """Swept names in iter_valuations order, with its vary arguments."""
    vary_agent = {a: tuple(n for n in sig.atoms_for(a) if n in sorts) for a in sig.agents}
    vary_env = tuple(n for n in sig.env_atoms if n in sorts)
    names = [n for a in sig.agents for n in vary_agent[a]] + list(vary_env)
    return names, vary_agent, vary_env


def _points(model, sort):
    if sort == "world":
        return [World(e) for e in model.edges]
    return [View(sort, v) for v in model.views_of(sort)]


def _tables(h, intern):
    """The sweep's tables for one labelled hypergraph, standing for itself."""
    view_of = {}
    for a in h.sig.agents:
        index = {v: j for j, v in enumerate(h.views[a])}
        view_of[a] = tuple(index.get(h.proj.get((e, a))) for e in h.edges)
    return search._Structure(h.edges, h.views, view_of, intern, 1)


def _labelled_structures(agents, views, edges):
    """Tables of every structure of the labelled stream, in its order."""
    b = Bounds(agents=len(agents), views=views, edges=edges)
    intern = {}
    return search._Stream(_tables(h, intern)
                          for h in enumerate_hypergraphs(b, hk.Signature(agents)))


@pytest.mark.parametrize("chunk_bits", [14, 2])
@pytest.mark.parametrize("sort", ["world", "a", "b"])
def test_bit_sliced_extensions_match_evaluator(sort, chunk_bits, monkeypatch):
    # Every point, every assignment: bit t of a point's value is the
    # pointwise evaluator's verdict in the t-th model of iter_valuations.
    monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(f"bit-sliced/{sort}")
    sig = hk.Signature(("a", "b"), {"a": ("pa",), "b": ("pb",)}, ("u", "v"))
    b = Bounds(agents=2, views=2, edges=2)
    intern = {}
    structures = [(h, _tables(h, intern)) for h in enumerate_hypergraphs(b, sig)]
    assert all((h.edges, h.views) == (st.edges, st.views) for h, st in structures)
    for _ in range(12):
        f = random_world(rng, sig, 4) if sort == "world" else random_agent(rng, sig, sort, 4)
        program, sorts = search.compile_program(f, sort)
        names, vary_agent, vary_env = _valuation_order(sig, sorts)
        for h, st in rng.sample(structures, 6):
            values = {}
            for first, width, chunk in search.extension_chunks(program, search._Run((st,)),
                                                                names, sorts):
                for t in range(width):
                    values[first + t] = [x >> t & 1 == 1 for x in chunk]
            models = list(iter_valuations(h, vary_agent, vary_env))
            assert sorted(values) == list(range(len(models)))
            for t, m in enumerate(models):
                ev = Evaluator(m)
                assert values[t] == [ev.sat(p, f) for p in _points(m, sort)], (f, t)


# Verdicts and sweep counts at Bounds(edges=3), as the one-valuation-at-a-time
# sweep gave them: None is a countermodel at World("e1").
PINNED_AT_THREE_EDGES = {
    "surjectivity": 1091, "functionality": 1091, "interaction_1": 1091,
    "interaction_5": 1091, "locality": 1091, "non_emptiness": 335,
    "interaction_2": 2546, "interaction_3": 2546, "interaction_4": 2546,
    "interaction_6": 2546, "kunsafe_b": 2546, "kunsafe_4": 2546, "ksafe_t": 2546,
    "ksafe_4": 2546, "kunsafe_k": 19868, "ksafe_k": 19868,
    "ksafe_b": None, "ksafe_necessitation": None,
}


def _scheme_library():
    lib = {
        "surjectivity": scheme_surjectivity("a"),
        "functionality": scheme_functionality("a"),
        "non_emptiness": scheme_non_emptiness(("a", "b")),
        "locality": search.locality_scheme("a"),
    }
    lib.update({f"interaction_{k}": s for k, s in interaction_schemes("a").items()})
    lib.update(knowledge_schemes("a"))
    return lib


@pytest.mark.parametrize("name", sorted(PINNED_AT_THREE_EDGES))
def test_scheme_library_pinned_at_three_edges(name):
    scheme = _scheme_library()[name]
    agent = None if isinstance(scheme, WorldFormula) else "a"
    v = check_scheme(scheme, Bounds(edges=3), agent=agent)
    expected = PINNED_AT_THREE_EDGES[name]
    if expected is None:
        assert isinstance(v, Countermodel)
        assert v.point == World("e1")
    else:
        assert v == ValidWithinBounds(models_checked=expected)


def _first_failure(h, f, sort, vary_agent, vary_env):
    """Reference: one valuation at a time; the first falsifying model and
    every point it falsifies, in order."""
    for t, m in enumerate(iter_valuations(h, vary_agent, vary_env)):
        ev = Evaluator(m)
        failing = [p for p in _points(m, sort) if not ev.sat(p, f)]
        if failing:
            return t, m, failing
    return None


def test_sweep_witness_past_the_first_chunk(monkeypatch):
    monkeypatch.setattr(search, "_CHUNK_BITS", 2)
    sig = hk.Signature(("a", "b"), {"a": ("pa",)}, ("u", "v"))
    late = several = 0
    # The second formula's first countermodel can fail at several worlds.
    for text in ("~(u & v & E[a] pa)", "E[a] pa -> (alive(b) | (u & v & ~u))"):
        f = desugar(hk.parse_world(text, sig))
        program, sorts = search.compile_program(f, "world")
        names, vary_agent, vary_env = _valuation_order(sig, sorts)
        b = Bounds(agents=2, views=2, edges=2)
        intern = {}
        for h in enumerate_hypergraphs(b, sig):
            st = _tables(h, intern)
            count, hit = search.sweep(program, "world", search._Run((st,)), names, sorts)
            expected = _first_failure(h, f, "world", vary_agent, vary_env)
            if expected is None:
                assert hit is None
                continue
            t, model, failing = expected
            assert count == t + 1
            assert hit == (st, t, failing[0])
            values = search.assignment_values(st, names, sorts, t)
            assert search.witness_model(sig, st, sorts, values) == model
            late += t >= 4
            several += len(failing) > 1
    assert late > 0 and several > 0


def _swept(st):
    """A structure of the class stream as one that is swept, connected or not."""
    return search._Structure(st.edges, st.views, st.view_of, {}, st.weight)


def _per_class(program, sort, structures, names, sorts):
    """Reference: sweep each structure alone, as a run of one, until one has
    a falsifying assignment; the assignments swept, the hit, and each
    member's first falsifying assignment."""
    checked, first_hit, failures = 0, None, []
    for st in structures:
        count, hit = search.sweep(program, sort, search._Run((st,)), names, sorts)
        if first_hit is None:
            checked += count
            first_hit = hit
        if hit is not None:
            failures.append(hit[1])
    return checked, first_hit, failures


@pytest.mark.parametrize("run_edges", [256, 6])
@pytest.mark.parametrize("chunk_bits", [14, 2])
@pytest.mark.parametrize("agents,views,edges", [(2, 2, 2), (2, 2, 3), (3, 2, 2)],
                         ids=["2-2-2", "2-2-3", "3-2-2"])
def test_run_sweep_matches_a_per_class_loop(agents, views, edges, chunk_bits, run_edges,
                                            monkeypatch):
    # One interpretation per run of same-shape classes finds what sweeping
    # the classes one at a time finds, also when a later member of a run
    # fails in an earlier chunk than its first failing member, and when long
    # runs are split.  The class stream's runs hold its connected classes
    # only, and sweeping them finds what sweeping every class one at a time
    # finds: the same count and the same witness.
    monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(search, "_RUN_EDGES", run_edges)
    rng = random.Random(f"runs/{agents}-{views}-{edges}")
    agent_names = search.default_agents(agents)
    sig = hk.Signature(agent_names, {"a": ("pa", "qa"), "b": ("pb",)}, ("u", "v"))
    classes = search._Stream(search._structures(agent_names, views, edges))
    runs = classes.runs
    assert [st for run in runs for st in run.members] == [st for st in classes if st.connected]
    assert len(runs) < len(classes)
    assert all(run.points["world"] <= max(run_edges, edges) for run in runs)
    whole = search._Stream(map(_swept, classes))
    crossed = 0
    for _ in range(40):
        sort = rng.choice(("world", "a", "b"))
        f = random_world(rng, sig, 4) if sort == "world" else random_agent(rng, sig, sort, 4)
        program, sorts = search.compile_program(f, sort)
        names = list(sorts)
        for run in whole.runs:
            checked, hit, failures = _per_class(program, sort, run.members, names, sorts)
            assert search.sweep(program, sort, run, names, sorts) == (checked, hit)
            chunk = min(sum(search._widths(run.members[0], names, sorts)), chunk_bits)
            crossed += any(t >> chunk < failures[0] >> chunk for t in failures[1:])
        checked, hit, _ = _per_class(program, sort, whole, names, sorts)
        fast_checked, fast = search.first_witness(program, sort, classes, names, sorts, sig)
        assert fast_checked == checked
        if hit is None:
            assert fast is None
            continue
        st, t, point = hit
        model = search.witness_model(sig, st, sorts, search.assignment_values(st, names, sorts, t))
        assert fast[1] == point
        assert hk.parser.render_model(fast[0]) == hk.parser.render_model(model)
    assert crossed > 0 or chunk_bits == 14


# --- the class stream ---------------------------------------------------------------


_GRID = [(a, v, e) for a in (1, 2, 3) for v in (1, 2, 3) for e in (1, 2, 3)
         if (a, v) != (3, 3)]


@pytest.mark.parametrize("agents,views,edges", _GRID, ids=["-".join(map(str, g)) for g in _GRID])
def test_class_weights_sum_to_labelled_count(agents, views, edges):
    b = Bounds(agents=agents, views=views, edges=edges)
    classes = search._structures(search.default_agents(agents), views, edges)
    assert sum(st.weight for st in classes) == len(list(enumerate_hypergraphs(b)))


def _key(st, order=None, perms=None):
    """A labelled structure as per-agent view counts and view-index columns,
    its edges taken in ``order`` and each agent's views renamed by ``perms``."""
    order = order or range(len(st.edges))
    perms = perms or [range(len(st.views[a])) for a in sorted(st.view_of)]
    return tuple(
        (len(st.views[a]),
         tuple(None if st.view_of[a][i] is None else perm[st.view_of[a][i]] for i in order))
        for a, perm in zip(sorted(st.view_of), perms))


def _orbit(st):
    """Every labelled structure isomorphic to ``st``."""
    renamings = itertools.product(*[itertools.permutations(range(len(st.views[a])))
                                    for a in sorted(st.view_of)])
    orders = list(itertools.permutations(range(len(st.edges))))
    return {_key(st, order, perms) for perms in renamings for order in orders}


@pytest.mark.parametrize("agents,views,edges", [(2, 2, 3), (3, 2, 2), (2, 3, 3), (1, 3, 3)])
def test_class_representatives_are_distinct_and_cover_the_stream(agents, views, edges):
    # Brute force: the orbits of the representatives under edge permutation
    # and view renaming are disjoint, each as large as its weight, and
    # together they are the labelled stream.
    agent_names = search.default_agents(agents)
    seen = set()
    for st in search._structures(agent_names, views, edges):
        orbit = _orbit(st)
        assert len(orbit) == st.weight
        assert not orbit & seen
        seen |= orbit
    assert seen == {_key(st) for st in _labelled_structures(agent_names, views, edges)}


def _components(st):
    """The components of a structure, two edges meeting where they share a
    view (union-find over shared views), each a structure of its own with
    the views it holds."""
    parent = list(range(len(st.edges)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    owner = {}
    for a, column in st.view_of.items():
        for i, v in enumerate(column):
            if v is not None:
                parent[find(i)] = find(owner.setdefault((a, v), i))
    groups = {}
    for i in range(len(st.edges)):
        groups.setdefault(find(i), []).append(i)
    out = []
    for edges in groups.values():
        views, view_of = {}, {}
        for a, column in st.view_of.items():
            held = sorted({column[i] for i in edges} - {None})
            views[a] = tuple(st.views[a][v] for v in held)
            view_of[a] = tuple(None if column[i] is None else held.index(column[i])
                               for i in edges)
        out.append(search._Structure(tuple(st.edges[i] for i in edges), views, view_of, {}, 1))
    return out


@pytest.mark.parametrize("agents,views,edges", _GRID, ids=["-".join(map(str, g)) for g in _GRID])
def test_skipped_classes_split_into_earlier_classes(agents, views, edges):
    # A class is marked connected exactly when it has one component, and
    # each component of one that is not is, up to isomorphism, an earlier
    # class of the stream: the first witness is never in a skipped class.
    classes = search._structures(search.default_agents(agents), views, edges)
    position = {_key(st): n for n, st in enumerate(classes)}
    for n, st in enumerate(classes):
        parts = _components(st)
        assert st.connected == (len(parts) == 1)
        for part in parts if len(parts) > 1 else ():
            earlier = {position[k] for k in _orbit(part) if k in position}
            assert len(earlier) == 1 and min(earlier) < n


def test_golden_witnesses_are_connected():
    # Every countermodel pinned by the witness files lies in a connected
    # structure, as the skip rule requires.
    intern, seen = {}, 0
    for name in ("countermodel_witnesses.txt", "sweep_witnesses.txt"):
        text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
        for block in re.findall(r"(?:^    .*\n)+", text, re.M):
            model = hk.parse_model(textwrap.dedent(block))
            assert len(_components(_tables(model.hypergraph, intern))) == 1, block
            seen += 1
    assert seen > 100


def _labelled_sweep(monkeypatch, verdict):
    """The verdict computed over the labelled stream instead of the classes."""
    streams, swept = [], []
    sweep = search.sweep

    def labelled(*bounds):
        streams.append(_labelled_structures(*bounds))
        return streams[-1]

    def spy(program, sort, run, *rest):
        swept.extend(run.members)
        return sweep(program, sort, run, *rest)

    with monkeypatch.context() as m:
        m.setattr(search, "_structures", labelled)
        m.setattr(search, "sweep", spy)
        out = verdict()
    # The sweep read the labelled stream itself, in order, from its start.
    assert len(streams) == 1 and swept and swept == list(streams[0][:len(swept)])
    return out


def _same_verdict(fast, slow):
    if isinstance(slow, ValidWithinBounds):
        assert fast == slow
    else:
        assert isinstance(fast, Countermodel)
        assert fast.point == slow.point
        assert fast.assignment == slow.assignment
        assert hk.parser.render_model(fast.model) == hk.parser.render_model(slow.model)


@pytest.mark.parametrize("name", sorted(PINNED_AT_THREE_EDGES))
def test_scheme_library_matches_the_labelled_sweep(name, monkeypatch):
    scheme = _scheme_library()[name]
    agent = None if isinstance(scheme, WorldFormula) else "a"
    b = Bounds(edges=3)
    _same_verdict(check_scheme(scheme, b, agent=agent),
                  _labelled_sweep(monkeypatch, lambda: check_scheme(scheme, b, agent=agent)))


@pytest.mark.parametrize("b", [Bounds(agents=2, views=2, edges=3),
                               Bounds(agents=3, views=2, edges=2)], ids=["2-2-3", "3-2-2"])
def test_find_countermodel_matches_the_labelled_sweep(b, monkeypatch):
    rng = random.Random(f"class-stream/{b.agents}")
    sig = hk.Signature(search.default_agents(b.agents),
                       {"a": ("pa",), "b": ("pb",)}, ("u", "v"))
    kinds = set()
    for _ in range(50):
        f = random_world(rng, sig, 4)
        fast = find_countermodel(f, b)
        _same_verdict(fast, _labelled_sweep(monkeypatch, lambda: find_countermodel(f, b)))
        kinds.add(type(fast))
    assert kinds == {ValidWithinBounds, Countermodel}
