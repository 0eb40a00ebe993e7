import random

import pytest

import hyperknow as hk
from hyperknow import parser
from hyperknow.errors import SortError, ValidationError
from hyperknow.frames import kappa
from hyperknow.neighborhood import (
    GeneralizedEvaluator,
    build_generalized,
    from_functional,
    sat_generalized,
    shared_memory_example,
    to_neighborhood,
)
from hyperknow.semantics import Evaluator, View, World
from hyperknow.syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AllViews,
    ANot,
    ATrue,
    Box,
    EnvAtom,
    PossWorld,
    SomeView,
    WAnd,
    WFalse,
    WImplies,
    WNot,
    WTrue,
    desugar,
)

from conftest import random_agent, random_world, small_model_pool


@pytest.fixture(scope="module")
def shared():
    return shared_memory_example()


def test_shared_memory_shape(shared):
    g = shared.hypergraph
    assert len(g.edges) == 4
    assert sum(len(g.views[a]) for a in g.sig.agents) == 8
    assert sum(len(v) for v in g.incidence.values()) == 16
    for a in g.sig.agents:
        for v in g.views[a]:
            assert len(g.fiber(a, v)) == 2
    assert set(g.views_in("01", "a")) == {"a_L0", "a_R1"}


def test_neighborhood_export(shared):
    nf = to_neighborhood(shared.hypergraph)
    assert nf.n("a", "01") == frozenset({
        frozenset({"00", "01"}), frozenset({"01", "11"})})


def test_membership_property(shared):
    frames = [to_neighborhood(shared.hypergraph)]
    for m in small_model_pool(max_views=2, max_edges=2)[:30]:
        frames.append(to_neighborhood(from_functional(m).hypergraph))
    for nf in frames:
        for a in nf.neighborhoods:
            for s in nf.states:
                for hood in nf.n(a, s):
                    assert s in hood


def test_functional_embedding_has_singleton_neighborhoods(binary_input):
    g = from_functional(binary_input).hypergraph
    nf = to_neighborhood(g)
    for a in g.sig.agents:
        for e in g.edges:
            assert len(nf.n(a, e)) <= 1


def test_neighborhoods_of_functional_models_are_kappa_classes(h1, h3):
    for m in (h1, h3):
        nf = to_neighborhood(from_functional(m).hypergraph)
        fr = kappa(m.hypergraph)
        for a in m.sig.agents:
            for e in m.edges:
                cls = fr.class_of(a, e)
                hoods = nf.n(a, e)
                if cls is None:
                    assert hoods == frozenset()
                else:
                    assert hoods == frozenset({frozenset(cls)})


def test_generalized_sat_examples(shared):
    sig = shared.sig
    both_bits = hk.parse_world("E[a] reads0_a & E[a] reads1_a", sig)
    assert sat_generalized(shared, World("01"), both_bits)
    assert not sat_generalized(shared, World("00"), both_bits)
    all_zero = hk.parse_world("A[a] reads0_a", sig)
    assert sat_generalized(shared, World("00"), all_zero)
    assert not sat_generalized(shared, World("01"), all_zero)


def test_generalized_matches_functional_evaluator():
    rng = random.Random(31)
    for m in small_model_pool(max_views=2, max_edges=2):
        gm = from_functional(m)
        gev = GeneralizedEvaluator(gm)
        ev = Evaluator(m)
        for _ in range(4):
            f = random_world(rng, m.sig, 3)
            for e in m.edges:
                assert gev.sat_world(e, f) == ev.sat_world(e, f)
        for agent in m.sig.agents:
            phi = random_agent(rng, m.sig, agent, 3)
            for v in m.views_of(agent):
                assert gev.sat_agent(agent, v, phi) == ev.sat_agent(agent, v, phi)


def test_collapse_scheme_fails_with_multiple_views(shared):
    # E[a] phi -> A[a] phi is valid on functional models but not here.
    sig = shared.sig
    f = desugar(hk.parse_world("E[a] reads0_a -> A[a] reads0_a", sig))
    assert not sat_generalized(shared, World("01"), f)
    for m in small_model_pool(max_views=2, max_edges=2)[:20]:
        gm = from_functional(m)
        phi = hk.syntax.AgentAtom("pa")
        scheme = desugar(WImplies(SomeView("a", phi), AllViews("a", phi)))
        for e in m.edges:
            assert sat_generalized(gm, World(e), scheme)


def test_generalized_validation():
    sig = hk.Signature(("a",))
    with pytest.raises(ValidationError):
        build_generalized(sig, {"a": ("v1", "v2")}, ("e1",), {("e1", "a"): ("v1",)})
    with pytest.raises(ValidationError):
        build_generalized(sig, {"a": ("v1",)}, ("e1", "e2"),
                          {("e1", "a"): ("v1",), ("e2", "a"): ()})
    g = build_generalized(sig, {"a": ("v1", "v2")}, ("e1",),
                          {("e1", "a"): ("v1", "v2")})
    assert g.views_in("e1", "a") == ("v1", "v2")


def test_generalized_model_file_round_trip(shared):
    text = parser.render_model(shared)
    assert "mode: generalized" in text
    again = parser.parse_model(text)
    assert again.hypergraph.incidence == shared.hypergraph.incidence
    assert parser.render_model(again) == text


# --- the one evaluator on generalized models ----------------------------------------


def test_one_evaluator_and_functional_hypergraphs_keep_proj(h1):
    assert GeneralizedEvaluator is Evaluator
    # Callers tell the two kinds apart by the stored field.
    assert h1.hypergraph.proj and not hasattr(h1.hypergraph, "incidence")


def test_pointwise_api_accepts_generalized_models(shared):
    sig = shared.sig
    both_bits = hk.parse_world("E[a] reads0_a & E[a] reads1_a", sig)
    all_zero = hk.parse_world("A[a] reads0_a", sig)
    ev = Evaluator(shared)
    assert ev.sat_world("01", both_bits) and not ev.sat_world("00", both_bits)
    assert ev.sat_world("00", all_zero) and not ev.sat_world("01", all_zero)
    # Both bits are readable exactly where the cells differ.
    assert hk.extension_world(shared, both_bits) == frozenset({"01", "10"})
    assert hk.extension_world(shared, all_zero) == frozenset({"00"})
    assert not hk.valid_in_model(shared, both_bits)
    assert hk.valid_in_model(shared, hk.parse_world("E[a] reads0_a | E[a] reads1_a", sig))
    # The views whose fiber contains state 00, where a reads only zeros.
    some_all_zero = hk.parse_agent("<> A[a] reads0_a", "a", sig)
    assert hk.extension_agent(shared, "a", some_all_zero) == frozenset({"a_L0", "a_R0"})
    assert hk.alive(shared, "01", "a")
    assert hk.worlds_of_view(shared, "a", "a_L0") == ("00", "01")
    assert hk.worlds_of_view(shared, "b", "b_R1") == ("01", "11")


def test_undeclared_atoms_are_sort_errors_on_generalized_models(shared):
    with pytest.raises(SortError):
        sat_generalized(shared, World("01"), EnvAtom("nowhere"))
    with pytest.raises(SortError):
        sat_generalized(shared, View("a", "a_L0"), AgentAtom("nowhere"))
    with pytest.raises(SortError):
        Evaluator(shared).sat_world("01", SomeView("a", AgentAtom("reads0_b")))


def test_generalized_duplicate_edge_label_is_named():
    sig = hk.Signature(("a",))
    with pytest.raises(ValidationError) as err:
        build_generalized(sig, {"a": ("v1",)}, ("e1", "e1"), {("e1", "a"): ("v1",)})
    assert any("duplicate edge label" in v and "'e1'" in v for v in err.value.violations)



def test_strip_agent_atoms_keeps_a_generalized_model(shared):
    stripped = hk.strip_agent_atoms(shared)
    assert stripped.hypergraph.incidence == shared.hypergraph.incidence
    assert all(not stripped.sig.atoms_for(a) for a in stripped.sig.agents)
    assert stripped.val_env == shared.val_env
    assert Evaluator(stripped).sat_world("01", SomeView("a", PossWorld(WTrue())))


def test_underlying_simple_of_a_generalized_hypergraph(shared):
    simple = hk.underlying_simple(shared.hypergraph)
    assert len(simple.hyperedges) == 4
    # Edge 01: both agents read 0 on the left and 1 on the right.
    assert frozenset({("a", "a_L0"), ("a", "a_R1"), ("b", "b_L0"), ("b", "b_R1")}) \
        in simple.hyperedges
    assert all(len(edge) == 4 for edge in simple.hyperedges)


def test_is_isomorphic_rejects_several_views_in_one_edge(shared, h1):
    with pytest.raises(ValidationError) as err:
        hk.is_isomorphic(shared.hypergraph, h1.hypergraph)
    assert any("at most one view per agent per edge" in v for v in err.value.violations)
    with pytest.raises(ValidationError):
        hk.is_isomorphic(h1.hypergraph, shared.hypergraph)
    with pytest.raises(ValidationError):
        kappa(shared.hypergraph)


# --- an independent oracle: the neighborhood frame ----------------------------------


def _frame_sat(nf, val_env, f, state):
    """Atom-free agent subformulas are read at a neighborhood N: <>X iff N
    meets ext(X), []X iff N lies inside ext(X); E[a]/A[a] range over N_a."""
    def world(g, s):
        match g:
            case WTrue() | WFalse():
                return isinstance(g, WTrue)
            case EnvAtom(name):
                return s in val_env[name]
            case WNot(sub):
                return not world(sub, s)
            case WAnd(left, right):
                return world(left, s) and world(right, s)
            case SomeView(a, sub):
                return any(agent(sub, hood) for hood in nf.n(a, s))
            case AllViews(a, sub):
                return all(agent(sub, hood) for hood in nf.n(a, s))
        raise AssertionError(g)

    def agent(g, hood):
        match g:
            case ATrue() | AFalse():
                return isinstance(g, ATrue)
            case ANot(sub):
                return not agent(sub, hood)
            case AAnd(left, right):
                return agent(left, hood) and agent(right, hood)
            case PossWorld(sub):
                return any(world(sub, t) for t in hood)
            case Box(sub):
                return all(world(sub, t) for t in hood)
        raise AssertionError(g)

    return world(f, state)


def _random_world(rng, agents, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([WTrue(), WFalse(), EnvAtom("p"), EnvAtom("q")])
    k = rng.randrange(4)
    if k == 0:
        return WNot(_random_world(rng, agents, depth - 1))
    if k == 1:
        return WAnd(_random_world(rng, agents, depth - 1), _random_world(rng, agents, depth - 1))
    quantifier = SomeView if k == 2 else AllViews
    return quantifier(rng.choice(agents), _random_agent(rng, agents, depth - 1))


def _random_agent(rng, agents, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([ATrue(), AFalse()])
    k = rng.randrange(4)
    if k == 0:
        return ANot(_random_agent(rng, agents, depth - 1))
    if k == 1:
        return AAnd(_random_agent(rng, agents, depth - 1), _random_agent(rng, agents, depth - 1))
    modality = PossWorld if k == 2 else Box
    return modality(_random_world(rng, agents, depth - 1))


def _random_generalized(rng):
    sig = hk.Signature(("a", "b"), {}, ("p", "q"))
    edges = tuple(f"w{i}" for i in range(rng.randint(1, 4)))
    views = {"a": tuple(f"a{j}" for j in range(rng.randint(1, 3))),
             "b": tuple(f"b{j}" for j in range(rng.randint(0, 3)))}
    incidence = {(e, a): [v for v in views[a] if rng.random() < 0.4]
                 for e in edges for a in sig.agents}
    for a in sig.agents:
        for v in views[a]:
            if not any(v in incidence[(e, a)] for e in edges):
                incidence[(rng.choice(edges), a)].append(v)
    for e in edges:
        if not incidence[(e, "a")] and not incidence[(e, "b")]:
            incidence[(e, "a")].append(rng.choice(views["a"]))
    val_env = {p: {e for e in edges if rng.random() < 0.5} for p in sig.env_atoms}
    return hk.build_generalized_model(sig, views, edges, incidence, {}, val_env)


def test_evaluator_matches_neighborhood_frame_oracle():
    rng = random.Random(57)
    multi_view_worlds = 0
    for _ in range(80):
        m = _random_generalized(rng)
        g = m.hypergraph
        nf = to_neighborhood(g)
        multi_view_worlds += sum(len(g.views_in(e, a)) >= 2
                                 for e in g.edges for a in g.sig.agents)
        ev = Evaluator(m)
        for _ in range(8):
            f = _random_world(rng, g.sig.agents, 4)
            for e in g.edges:
                assert ev.sat_world(e, f) == _frame_sat(nf, m.val_env, f, e), (e, f)
    assert multi_view_worlds >= 40
