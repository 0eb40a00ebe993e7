import itertools

import pytest

import hyperknow as hk
from hyperknow.core import build_model, downward_closure, underlying_simple
from hyperknow.errors import UnknownPointError, ValidationError


def test_build_model_single_world(h2):
    assert h2.edges == ("e_abc",)
    assert h2.views_of("a") == ("va",)


def test_build_model_minimal():
    sig = hk.Signature(("a",))
    m = build_model(sig, {"a": ("v",)}, ("e",), {("e", "a"): "v"})
    assert m.alive("e", "a")


def test_missing_edge_reports_all_surjectivity_violations():
    sig = hk.Signature(("a", "b", "c"))
    views = {"a": ("va",), "b": ("vb",), "c": ("vc",)}
    with pytest.raises(ValidationError) as err:
        build_model(sig, views, (), {})
    surjectivity = [v for v in err.value.violations if v.startswith("surjectivity")]
    assert len(surjectivity) == 3


def test_validation_collects_multiple_kinds():
    sig = hk.Signature(("a", "b"))
    views = {"a": ("va",), "b": ("vb",)}
    edges = ("e1", "e2")
    proj = {("e1", "a"): "vb"}  # wrong color, vb never covered, e2 empty
    with pytest.raises(ValidationError) as err:
        build_model(sig, views, edges, proj)
    text = "\n".join(err.value.violations)
    assert "color discipline" in text
    assert "surjectivity" in text
    assert "non-emptiness" in text


def test_alive(h1, h2):
    assert not h1.alive("e_ab", "c")
    assert h2.alive("e_abc", "a")
    for e in h1.edges:
        assert any(h1.alive(e, a) for a in h1.sig.agents)
    with pytest.raises(UnknownPointError):
        h1.alive("nope", "a")
    with pytest.raises(UnknownPointError):
        h1.alive("e_ab", "z")


def test_worlds_of_view(h2, h3):
    assert set(h3.worlds_of_view("a", "va")) == {"e_ab", "e_ac"}
    assert h2.worlds_of_view("a", "va") == ("e_abc",)
    sig = hk.Signature(("a",))
    m = build_model(sig, {"a": ("v",)}, ("e",), {("e", "a"): "v"})
    assert m.worlds_of_view("a", "v") == ("e",)
    with pytest.raises(UnknownPointError):
        h2.worlds_of_view("a", "vq")


def test_fibers_partition_alive_set(h1, h3, binary_input):
    for m in (h1, h3, binary_input):
        for a in m.sig.agents:
            fibers = [set(m.worlds_of_view(a, v)) for v in m.views_of(a)]
            alive_set = {e for e in m.edges if m.alive(e, a)}
            assert set().union(*fibers) == alive_set if fibers else not alive_set
            for f1, f2 in itertools.combinations(fibers, 2):
                assert not (f1 & f2)


def test_underlying_simple_h1(h1):
    s = underlying_simple(h1.hypergraph)
    assert len(s.vertices) == 3
    assert len(s.hyperedges) == 7


def test_underlying_simple_nested_worlds():
    # One-view-per-agent structure whose worlds are {x}, {x,y}, {x,y,z}.
    sig = hk.Signature(("a", "b", "c"))
    views = {"a": ("x",), "b": ("y",), "c": ("z",)}
    edges = ("e1", "e2", "e3")
    proj = {("e1", "a"): "x",
            ("e2", "a"): "x", ("e2", "b"): "y",
            ("e3", "a"): "x", ("e3", "b"): "y", ("e3", "c"): "z"}
    m = build_model(sig, views, edges, proj)
    s = underlying_simple(m.hypergraph)
    assert s.hyperedges == frozenset({
        frozenset({("a", "x")}),
        frozenset({("a", "x"), ("b", "y")}),
        frozenset({("a", "x"), ("b", "y"), ("c", "z")}),
    })


def test_underlying_simple_never_emits_empty_vertex_set():
    b = hk.Bounds(agents=2, views=2, edges=2, agent_atoms=0, env_atoms=0)
    for h in hk.enumerate_hypergraphs(b):
        for edge in underlying_simple(h).hyperedges:
            assert edge


def test_underlying_simple_collapses_parallel_edges():
    sig = hk.Signature(("a", "b"))
    views = {"a": ("va",), "b": ("vb",)}
    edges = ("e1", "e2")
    proj = {("e1", "a"): "va", ("e1", "b"): "vb",
            ("e2", "a"): "va", ("e2", "b"): "vb"}
    m = build_model(sig, views, edges, proj)
    assert len(underlying_simple(m.hypergraph).hyperedges) == 1


def test_downward_closure_triangle():
    s = hk.SimpleHypergraph(
        vertices=frozenset("xyz"),
        hyperedges=frozenset({frozenset("xyz")}))
    c = downward_closure(s)
    assert len(c.hyperedges) == 7
    again = downward_closure(c)
    assert again.hyperedges == c.hyperedges


def test_downward_closure_idempotent_on_closed_input():
    s = hk.SimpleHypergraph(
        vertices=frozenset("xy"),
        hyperedges=frozenset({frozenset("x"), frozenset("y"), frozenset("xy")}))
    assert downward_closure(s).hyperedges == s.hyperedges


def test_card_game_structure():
    m = hk.example("card-game", cards=4, agents=3)
    assert sum(len(m.views_of(a)) for a in m.sig.agents) == 12
    assert len(m.edges) == 24
    for a in m.sig.agents:
        for v in m.views_of(a):
            assert len(m.worlds_of_view(a, v)) == 6


def test_card_game_closure_is_a_torus():
    # Independent count straight from the deals, bypassing the model API.
    deals = list(itertools.permutations(range(1, 5), 3))
    triangles = {frozenset((f"c{c}", ag) for c, ag in zip(deal, "abc"))
                 for deal in deals}
    simplices = set()
    for t in triangles:
        members = sorted(t, key=repr)
        for k in (1, 2, 3):
            simplices.update(frozenset(s) for s in itertools.combinations(members, k))
    by_dim = {}
    for s in simplices:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    assert by_dim == {0: 12, 1: 36, 2: 24}
    assert by_dim[0] - by_dim[1] + by_dim[2] == 0

    m = hk.example("card-game", cards=4, agents=3)
    complex_ = downward_closure(underlying_simple(m.hypergraph))
    assert complex_.face_counts() == by_dim
    assert complex_.euler_characteristic() == 0


def test_example_registry(h1, binary_input):
    assert len(h1.edges) == 7
    assert sum(len(h1.views_of(a)) for a in h1.sig.agents) == 3
    assert len(binary_input.edges) == 8
    assert sum(len(binary_input.views_of(a)) for a in binary_input.sig.agents) == 4
    assert len(binary_input.val_env["solo"]) == 4
    with pytest.raises(ValidationError):
        hk.example("nope")
    with pytest.raises(ValidationError):
        hk.example("card-game", cards=3, agents=3)


def test_shared_memory_functionalized_shape():
    m = hk.example("shared-memory-functionalized")
    assert len(m.edges) == 16
    assert sum(len(m.views_of(a)) for a in m.sig.agents) == 8
    for e in m.edges:
        for a in m.sig.agents:
            assert m.alive(e, a)


def test_signature_atom_uniqueness():
    with pytest.raises(ValidationError):
        hk.Signature(("a", "b"), {"a": ("p",), "b": ("p",)})
    with pytest.raises(ValidationError):
        hk.Signature(("a",), {"a": ("p",)}, ("p",))
    sig = hk.Signature(("a",), {"a": ("p",)}, ("q",))
    assert sig.sort_of_atom("p") == "a"
    assert sig.sort_of_atom("q") == "env"
    assert sig.sort_of_atom("r") is None


def test_signature_reserves_the_agent_name_world():
    # The sort checker names a world position "world" and an agent position
    # by its agent, so an agent of that name could be used nowhere.
    with pytest.raises(ValidationError) as err:
        hk.Signature(("a", "world"), {"world": ("p",)})
    assert err.value.violations == [
        "signature: agent name 'world' is reserved for the world sort"]
    assert hk.Signature(("worlds", "e")).agents == ("worlds", "e")


def test_deterministic_iteration_order():
    m1 = hk.example("binary-input")
    m2 = hk.example("binary-input")
    assert m1.edges == m2.edges
    assert m1.views_of("a") == m2.views_of("a")


def test_strip_agent_atoms(binary_input):
    stripped = hk.strip_agent_atoms(binary_input)
    assert all(not stripped.sig.atoms_for(a) for a in stripped.sig.agents)
    assert stripped.val_env == binary_input.val_env
    assert stripped.edges == binary_input.edges
