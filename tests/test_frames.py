import itertools
import random

import pytest

import hyperknow as hk
from hyperknow import search
from hyperknow.errors import NonEmptyAgentAtomsError, ValidationError
from hyperknow.frames import (
    FrameMorphism,
    HypergraphMorphism,
    build_frame,
    build_frame_model,
    check_frame_morphism,
    check_hypergraph_morphism,
    eta,
    eta_model,
    eta_morphism,
    is_isomorphic,
    is_isomorphic_frames,
    kappa,
    kappa_model,
    kappa_morphism,
)


def test_build_frame_validation():
    with pytest.raises(ValidationError):
        build_frame(("a",), ("w1", "w2"), {"a": (("w1",),)})  # w2 uncovered
    with pytest.raises(ValidationError):
        build_frame(("a",), ("w1",), {"a": (("w1",), ("w1",))})  # overlap
    fr = build_frame(("a", "b"), ("w1", "w2"), {"a": (("w2", "w1"),), "b": (("w2",),)})
    assert fr.classes["a"] == (("w1", "w2"),)  # canonical member order
    assert fr.dom("b") == frozenset({"w2"})


def test_eta_singleton():
    fr = build_frame(("a",), ("w",), {"a": (("w",),)})
    h = eta(fr)
    assert h.edges == ("w",)
    assert len(h.views["a"]) == 1


def test_eta_two_equivalent_worlds():
    fr = build_frame(("a",), ("w1", "w2"), {"a": (("w1", "w2"),)})
    h = eta(fr)
    assert len(h.edges) == 2
    assert len(h.views["a"]) == 1
    v = h.views["a"][0]
    assert set(h.worlds_of_view("a", v)) == {"w1", "w2"}


def test_eta_pairwise_frame_is_triangle_shaped(h3):
    # Three worlds, each pair equivalent for exactly one agent.
    fr = build_frame(
        ("a", "b", "c"), ("w1", "w2", "w3"),
        {"a": (("w1", "w2"),), "b": (("w1", "w3"),), "c": (("w2", "w3"),)})
    h = eta(fr)
    assert is_isomorphic(h, h3.hypergraph) is not None


def test_kappa_examples(h1, h2, h3):
    fr2 = kappa(h2.hypergraph)
    assert fr2.worlds == ("e_abc",)
    for agent in "abc":
        assert fr2.related(agent, "e_abc", "e_abc")

    fr3 = kappa(h3.hypergraph)
    assert len(fr3.worlds) == 3
    pairs = {("e_ab", "e_ac"): "a", ("e_ab", "e_bc"): "b", ("e_ac", "e_bc"): "c"}
    for (x, y), agent in pairs.items():
        for other in "abc":
            assert fr3.related(other, x, y) == (other == agent)

    fr1 = kappa(h1.hypergraph)
    assert len(fr1.worlds) == 7
    sizes = sorted(len(c) for c in fr1.classes["a"])
    assert sizes == [4]
    assert fr1.dom("a") == frozenset({"e_a", "e_ab", "e_ac", "e_abc"})


def test_eta_output_is_valid_hypergraph():
    for fr in search.enumerate_frames(("a", "b"), 3):
        h = eta(fr)  # build_hypergraph validates all four conditions
        assert set(h.edges) == set(fr.worlds)


def test_round_trip_hypergraphs():
    b = search.Bounds(agents=2, views=2, edges=4)
    for h in search.enumerate_hypergraphs(b):
        assert is_isomorphic(eta(kappa(h)), h) is not None


def test_round_trip_frames():
    for fr in search.enumerate_frames(("a", "b"), 3):
        assert is_isomorphic_frames(kappa(eta(fr)), fr) is not None


def test_eta_kappa_model_round_trip(binary_input):
    stripped = hk.strip_agent_atoms(binary_input)
    fm = kappa_model(stripped)
    assert len(fm.worlds) == 8
    assert fm.val["solo"] == stripped.val_env["solo"]
    back = eta_model(fm)
    assert is_isomorphic(back.hypergraph, stripped.hypergraph) is not None
    assert back.val_env["solo"] == stripped.val_env["solo"]


def test_kappa_model_rejects_agent_atoms(binary_input):
    with pytest.raises(NonEmptyAgentAtomsError):
        kappa_model(binary_input)


def test_empty_valuation_round_trip():
    fm = build_frame_model(("a",), ("w",), {"a": (("w",),)}, ("dusk",), {})
    m = eta_model(fm)
    assert m.val_env["dusk"] == frozenset()


def test_isomorphism_positive(h1):
    h = h1.hypergraph
    mor = is_isomorphic(eta(kappa(h)), h)
    assert mor is not None
    assert check_hypergraph_morphism(mor, eta(kappa(h)), h)


def test_isomorphism_negative(h2, h3):
    assert is_isomorphic(h2.hypergraph, h3.hypergraph) is None
    # Same sizes but different fiber structure.
    sig = hk.Signature(("a", "b"))
    h_shared = hk.build_hypergraph(
        sig, {"a": ("v1",), "b": ("w1",)}, ("e1", "e2"),
        {("e1", "a"): "v1", ("e2", "a"): "v1", ("e2", "b"): "w1"})
    h_split = hk.build_hypergraph(
        sig, {"a": ("v1",), "b": ("w1",)}, ("e1", "e2"),
        {("e1", "a"): "v1", ("e2", "b"): "w1"})
    assert is_isomorphic(h_shared, h_split) is None


def test_isomorphism_needs_backtracking():
    # Complete bipartite pairing vs doubled parallel edges: identical view
    # counts, edge counts and fiber sizes everywhere, so only the induced
    # view-map consistency check can tell them apart.
    sig = hk.Signature(("a", "b"))
    views = {"a": ("a1", "a2"), "b": ("b1", "b2")}
    complete = hk.build_hypergraph(
        sig, views, ("e1", "e2", "e3", "e4"),
        {("e1", "a"): "a1", ("e1", "b"): "b1",
         ("e2", "a"): "a1", ("e2", "b"): "b2",
         ("e3", "a"): "a2", ("e3", "b"): "b1",
         ("e4", "a"): "a2", ("e4", "b"): "b2"})
    doubled = hk.build_hypergraph(
        sig, views, ("e1", "e2", "e3", "e4"),
        {("e1", "a"): "a1", ("e1", "b"): "b1",
         ("e2", "a"): "a1", ("e2", "b"): "b1",
         ("e3", "a"): "a2", ("e3", "b"): "b2",
         ("e4", "a"): "a2", ("e4", "b"): "b2"})
    assert is_isomorphic(complete, doubled) is None
    # A relabeled copy of the complete pairing is found despite the swap.
    relabeled = hk.build_hypergraph(
        sig, views, ("f1", "f2", "f3", "f4"),
        {("f1", "a"): "a2", ("f1", "b"): "b2",
         ("f2", "a"): "a2", ("f2", "b"): "b1",
         ("f3", "a"): "a1", ("f3", "b"): "b2",
         ("f4", "a"): "a1", ("f4", "b"): "b1"})
    mor = is_isomorphic(complete, relabeled)
    assert mor is not None
    assert check_hypergraph_morphism(mor, complete, relabeled)


def test_frame_isomorphism_needs_backtracking():
    # Identical per-world class-size profiles; only the interplay between the
    # two agents' partitions distinguishes the frames.
    worlds = ("w1", "w2", "w3", "w4")
    a_classes = (("w1", "w2"), ("w3", "w4"))
    crossing = build_frame(("a", "b"), worlds,
                           {"a": a_classes, "b": (("w1", "w3"), ("w2", "w4"))})
    aligned = build_frame(("a", "b"), worlds,
                          {"a": a_classes, "b": (("w1", "w2"), ("w3", "w4"))})
    assert is_isomorphic_frames(crossing, aligned) is None
    shuffled = build_frame(("a", "b"), worlds,
                           {"a": (("w2", "w4"), ("w1", "w3")),
                            "b": (("w2", "w1"), ("w4", "w3"))})
    mor = is_isomorphic_frames(crossing, shuffled)
    assert mor is not None
    assert check_frame_morphism(mor, crossing, shuffled)


def test_identity_morphism(h1):
    h = h1.hypergraph
    mor = HypergraphMorphism(
        view_maps={a: {v: v for v in h.views[a]} for a in h.sig.agents},
        edge_map={e: e for e in h.edges})
    assert check_hypergraph_morphism(mor, h, h)


def test_collapse_morphism_h3_to_h2(h2, h3):
    mor = HypergraphMorphism(
        view_maps={a: {f"v{a}": f"v{a}"} for a in "abc"},
        edge_map={e: "e_abc" for e in h3.edges})
    assert check_hypergraph_morphism(mor, h3.hypergraph, h2.hypergraph)


def test_non_morphism_detected(h2, h3):
    # H2's world keeps agent c alive; sending it into a c-dead edge of H3
    # breaks the commutation condition.
    bad = HypergraphMorphism(
        view_maps={"a": {"va": "va"}, "b": {"vb": "vb"}, "c": {"vc": "vc"}},
        edge_map={"e_abc": "e_ab"})
    assert not check_hypergraph_morphism(bad, h2.hypergraph, h3.hypergraph)


def test_frame_morphism_check():
    fr1 = build_frame(("a",), ("w1", "w2"), {"a": (("w1", "w2"),)})
    fr2 = build_frame(("a",), ("u1", "u2"), {"a": (("u1",), ("u2",))})
    collapse = FrameMorphism(world_map={"w1": "u1", "w2": "u2"})
    assert not check_frame_morphism(collapse, fr1, fr2)  # splits a class
    merge = FrameMorphism(world_map={"u1": "w1", "u2": "w2"})
    assert check_frame_morphism(merge, fr2, fr1)


def test_functor_actions_preserve_morphisms():
    fr1 = build_frame(("a", "b"), ("w1", "w2"),
                      {"a": (("w1", "w2"),), "b": (("w1",), ("w2",))})
    fr2 = build_frame(("a", "b"), ("u1",), {"a": (("u1",),), "b": (("u1",),)})
    g = FrameMorphism(world_map={"w1": "u1", "w2": "u1"})
    assert check_frame_morphism(g, fr1, fr2)
    transported = eta_morphism(g, fr1, fr2)
    assert check_hypergraph_morphism(transported, eta(fr1), eta(fr2))
    # And back: the edge map of a hypergraph morphism is a frame morphism.
    back = kappa_morphism(transported)
    assert check_frame_morphism(back, kappa(eta(fr1)), kappa(eta(fr2)))


def test_functor_action_on_enumerated_isos():
    count = 0
    for fr in search.enumerate_frames(("a", "b"), 2):
        ident = FrameMorphism(world_map={w: w for w in fr.worlds})
        assert check_frame_morphism(ident, fr, fr)
        transported = eta_morphism(ident, fr, fr)
        assert check_hypergraph_morphism(transported, eta(fr), eta(fr))
        count += 1
    assert count > 0


def test_morphism_check_rejects_generalized_hypergraphs():
    generalized = hk.shared_memory_example().hypergraph
    functional = hk.example("shared-memory-functionalized").hypergraph
    views = {a: {v: v for v in generalized.views[a]} for a in generalized.sig.agents}
    for source, target in ((generalized, functional), (functional, generalized)):
        mor = HypergraphMorphism(view_maps=views,
                                 edge_map={e: target.edges[0] for e in source.edges})
        with pytest.raises(ValidationError):
            check_hypergraph_morphism(mor, source, target)
        with pytest.raises(ValidationError):
            is_isomorphic(source, target)


# --- the one isomorphism search against brute force ---------------------------


def _hypergraphs_isomorphic(h1, h2):
    """Brute force: some edge bijection carries each agent's views
    bijectively onto views."""
    agents = h1.sig.agents
    if (agents != h2.sig.agents or len(h1.edges) != len(h2.edges)
            or any(len(h1.views[a]) != len(h2.views[a]) for a in agents)):
        return False
    for image in itertools.permutations(h2.edges):
        pairs = [(a, h1.view_in(e, a), h2.view_in(f, a))
                 for e, f in zip(h1.edges, image) for a in agents]
        if any((v is None) != (w is None) for _, v, w in pairs):
            continue
        per_agent = [{(v, w) for b, v, w in pairs if b == a and v is not None}
                     for a in agents]
        if all(len({v for v, _ in r}) == len(r) == len({w for _, w in r})
               for r in per_agent):
            return True
    return False


def _frames_isomorphic(f1, f2):
    """Brute force: some world bijection preserves and reflects every
    agent's relation."""
    if f1.agents != f2.agents or len(f1.worlds) != len(f2.worlds):
        return False
    for image in itertools.permutations(f2.worlds):
        g = dict(zip(f1.worlds, image))
        if all(f1.related(a, x, y) == f2.related(a, g[x], g[y])
               for a in f1.agents for x in f1.worlds for y in f1.worlds):
            return True
    return False


def _shuffled_hypergraph(h, rng):
    """A copy of h with its edges and views renamed and reordered."""
    edges = rng.sample(h.edges, len(h.edges))
    edge_name = {e: f"x{i}" for i, e in enumerate(edges)}
    views, view_name = {}, {}
    for a in h.sig.agents:
        order = rng.sample(h.views[a], len(h.views[a]))
        view_name.update({(a, v): f"{a}_{i}" for i, v in enumerate(order)})
        views[a] = tuple(view_name[(a, v)] for v in order)
    proj = {(edge_name[e], a): view_name[(a, v)] for (e, a), v in h.proj.items()}
    return hk.build_hypergraph(h.sig, views, [edge_name[e] for e in edges], proj)


def _shuffled_frame(fr, rng):
    """A copy of fr with its worlds renamed and reordered."""
    name = dict(zip(fr.worlds, rng.sample([f"u{i}" for i in range(len(fr.worlds))],
                                          len(fr.worlds))))
    return build_frame(fr.agents, rng.sample([name[w] for w in fr.worlds], len(fr.worlds)),
                       {a: [[name[w] for w in cls] for cls in fr.classes[a]]
                        for a in fr.agents})


def _pairs(structures, sample, shuffled, rng):
    """Every pair when ``sample`` is None; else a seeded sample of pairs plus
    as many (structure, shuffled copy) pairs."""
    if sample is None:
        return list(itertools.product(structures, repeat=2))
    picks = [tuple(rng.sample(structures, 2)) for _ in range(sample)]
    return picks + [(s, shuffled(s, rng)) for s in rng.choices(structures, k=sample)]


@pytest.mark.parametrize("edges, sample", [(2, None), (3, 300)], ids=["all-2-2-2", "sample-2-2-3"])
def test_hypergraph_isomorphism_matches_brute_force(edges, sample):
    rng = random.Random(11)
    hs = list(search.enumerate_hypergraphs(search.Bounds(agents=2, views=2, edges=edges)))
    verdicts = set()
    for h1, h2 in _pairs(hs, sample, _shuffled_hypergraph, rng):
        mor = is_isomorphic(h1, h2)
        assert (mor is not None) == _hypergraphs_isomorphic(h1, h2)
        verdicts.add(mor is not None)
        if mor is not None:
            inverse = HypergraphMorphism(
                view_maps={a: {w: v for v, w in vm.items()} for a, vm in mor.view_maps.items()},
                edge_map={f: e for e, f in mor.edge_map.items()})
            assert len(inverse.edge_map) == len(h1.edges)
            assert check_hypergraph_morphism(mor, h1, h2)
            assert check_hypergraph_morphism(inverse, h2, h1)
    assert verdicts == {True, False}


@pytest.mark.parametrize("worlds, sample", [(2, None), (3, 300)], ids=["all-2", "sample-3"])
def test_frame_isomorphism_matches_brute_force(worlds, sample):
    rng = random.Random(12)
    frs = [fr for fr in search.enumerate_frames(("a", "b"), worlds)
           if sample is None or len(fr.worlds) == worlds]
    verdicts = set()
    for f1, f2 in _pairs(frs, sample, _shuffled_frame, rng):
        mor = is_isomorphic_frames(f1, f2)
        assert (mor is not None) == _frames_isomorphic(f1, f2)
        verdicts.add(mor is not None)
        if mor is not None:
            inverse = FrameMorphism(world_map={y: x for x, y in mor.world_map.items()})
            assert len(inverse.world_map) == len(f1.worlds)
            assert check_frame_morphism(mor, f1, f2)
            assert check_frame_morphism(inverse, f2, f1)
    assert verdicts == {True, False}


def test_isomorphism_past_the_recursion_limit():
    # 1,320 deals: more points than Python's default recursion limit.
    h = hk.example("card-game", cards=12, agents=3).hypergraph
    back = eta(kappa(h))
    mor = is_isomorphic(h, back)
    assert mor is not None
    assert check_hypergraph_morphism(mor, h, back)
    fr = kappa(h)
    fr_back = kappa(back)
    mor = is_isomorphic_frames(fr, fr_back)
    assert mor is not None
    assert check_frame_morphism(mor, fr, fr_back)


def test_frame_isomorphism_with_an_agent_name_that_is_no_token():
    # build_frame accepts any agent name; eta's Signature would not.
    fr = build_frame(("x y",), ("w1", "w2", "w3"), {"x y": (("w1", "w2"), ("w3",))})
    assert is_isomorphic_frames(fr, fr) is not None
    assert is_isomorphic_frames(fr, _shuffled_frame(fr, random.Random(3))) is not None


def _cycles(*lengths):
    """Agents a and b, each view in two edges and each edge holding one view
    of each: the edges walk cycles through the given numbers of a-views."""
    views = {"a": [], "b": []}
    edges, proj = [], {}
    for c, k in enumerate(lengths):
        for i in range(k):
            for j in (i, (i + 1) % k):
                e = f"c{c}_{i}_{j}"
                edges.append(e)
                proj[(e, "a")] = f"a{c}_{i}"
                proj[(e, "b")] = f"b{c}_{j}"
        views["a"] += [f"a{c}_{i}" for i in range(k)]
        views["b"] += [f"b{c}_{i}" for i in range(k)]
    return hk.build_hypergraph(hk.Signature(("a", "b")), views, edges, proj)


def test_isomorphism_backtracks_out_of_the_wrong_cycle():
    # Every edge has the same profile, so the long cycle's first edge is
    # first tried on a short cycle; that fails only when the cycle closes,
    # and the search must undo the block maps of the abandoned depths.
    long_first, short_first = _cycles(4, 2, 2), _cycles(2, 2, 4)
    mor = is_isomorphic(long_first, short_first)
    assert mor is not None
    assert check_hypergraph_morphism(mor, long_first, short_first)
    mor = is_isomorphic_frames(kappa(long_first), kappa(short_first))
    assert mor is not None
    assert check_frame_morphism(mor, kappa(long_first), kappa(short_first))
    assert is_isomorphic(long_first, _cycles(4, 4)) is None
    assert is_isomorphic_frames(kappa(long_first), kappa(_cycles(4, 4))) is None
