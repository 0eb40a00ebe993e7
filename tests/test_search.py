import itertools
import random

import pytest

import hyperknow as hk
from hyperknow import search
from hyperknow.errors import BoundsError
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
    AgentAtom,
    EnvAtom,
    SomeView,
    WorldFormula,
    desugar,
    substitute_metas,
)

from conftest import naive_hypergraph_count, random_agent, random_world


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


SMALL = Bounds(agents=2, views=1, edges=2, agent_atoms=1, env_atoms=1, depth=1)


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


def test_scheme_requires_atom_per_metavariable():
    b = Bounds(agents=2, views=1, edges=2, agent_atoms=0, env_atoms=0)
    with pytest.raises(BoundsError):
        check_scheme(interaction_schemes("a")[3], b)


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


def test_find_countermodel_safe_unsafe_gap():
    b = Bounds()
    sig = signature_for_bounds(b)
    f = hk.parse_world("K[a] q1 -> Ksafe[a] q1", sig)
    v = find_countermodel(f, b)
    assert isinstance(v, Countermodel)
    assert not v.model.alive(v.point.edge, "a")
    assert not Evaluator(v.model).sat_world(v.point.edge, desugar(f))
    # Local minimality: no single deletion keeps the formula false.
    core = desugar(f)
    for e in v.model.edges:
        if e == v.point.edge:
            continue
        reduced = search._drop_edge(v.model, e)
        if reduced is not None:
            assert Evaluator(reduced).sat_world(v.point.edge, core)
    for a in v.model.sig.agents:
        for view in v.model.views_of(a):
            reduced = search._drop_view(v.model, a, view)
            if reduced is not None:
                assert Evaluator(reduced).sat_world(v.point.edge, core)


def test_find_countermodel_rejects_unknown_agents():
    b = Bounds()
    with pytest.raises(BoundsError):
        find_countermodel(SomeView("z", hk.syntax.ATrue()), b)


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


@pytest.mark.parametrize("chunk_bits", [14, 2])
@pytest.mark.parametrize("sort", ["world", "a", "b"])
def test_bit_sliced_extensions_match_evaluator(sort, chunk_bits, monkeypatch):
    # Every point, every assignment: bit t of a point's value is the
    # pointwise evaluator's verdict in the t-th model of iter_valuations.
    monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(f"bit-sliced/{sort}")
    sig = hk.Signature(("a", "b"), {"a": ("pa",), "b": ("pb",)}, ("u", "v"))
    structures = list(enumerate_hypergraphs(Bounds(agents=2, views=2, edges=2), sig))
    for _ in range(12):
        f = random_world(rng, sig, 4) if sort == "world" else random_agent(rng, sig, sort, 4)
        program, sorts = search.compile_program(f, sort)
        names, vary_agent, vary_env = _valuation_order(sig, sorts)
        for h in rng.sample(structures, 6):
            st = search._Structure(h, {})
            values = {}
            for first, width, chunk in search.extension_chunks(program, st, names, sorts):
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
        for h in enumerate_hypergraphs(Bounds(agents=2, views=2, edges=2), sig):
            st = search._Structure(h, {})
            count, hit = search.sweep(program, "world", st, names, sorts)
            expected = _first_failure(h, f, "world", vary_agent, vary_env)
            if expected is None:
                assert hit is None
                continue
            t, model, failing = expected
            assert count == t + 1
            assert hit == (t, failing[0])
            assert search.witness_model(sig, st, names, sorts, t) == model
            late += t >= 4
            several += len(failing) > 1
    assert late > 0 and several > 0

