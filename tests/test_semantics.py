import random

import pytest

import hyperknow as hk
from hyperknow import parser
from hyperknow.errors import SortError, UnknownPointError
from hyperknow.semantics import (
    Evaluator,
    extension_agent,
    extension_world,
    sat_agent,
    sat_world,
    valid_in_model,
)
from hyperknow.syntax import (
    AllViews,
    Box,
    SomeView,
    WNot,
    alive,
    desugar,
    disj,
    ksafe,
    kunsafe,
)

from conftest import random_world, small_model_pool


def w(text, m):
    return parser.parse_world(text, m.sig)


def a(text, agent, m):
    return parser.parse_agent(text, agent, m.sig)


def test_alive_examples(h1):
    assert sat_world(h1, "e_ab", w("alive(a)", h1))
    assert sat_world(h1, "e_ab", w("alive(b)", h1))
    assert not sat_world(h1, "e_ab", w("alive(c)", h1))


def test_agent_knowledge_examples(h1, h2, h3):
    assert sat_agent(h1, "a", "va", a("~[] alive(b)", "a", h1))
    assert sat_agent(h2, "a", "va", a("[] (alive(b) & alive(c))", "a", h2))
    assert sat_agent(
        h3, "a", "va",
        a("[](alive(b) | alive(c)) & ~[] alive(b) & ~[] alive(c)", "a", h3))


def test_binary_input_examples(binary_input):
    m = binary_input
    assert sat_agent(m, "a", "a0", a("0a", "a", m))
    assert sat_agent(m, "a", "a0", a("~[] E[b] true", "a", m))
    assert sat_agent(m, "a", "a0", a("~[] solo", "a", m))
    assert sat_agent(m, "a", "a0", a("<> E[b] 1b", "a", m))
    assert sat_agent(m, "a", "a0", a("[](~solo -> E[b](0b | 1b))", "a", m))
    assert sat_agent(m, "a", "a0", a("[] A[b](0b | 1b)", "a", m))


def test_extensions(binary_input, h1):
    assert extension_world(binary_input, w("solo", binary_input)) == \
        frozenset({"solo_a0", "solo_a1", "solo_b0", "solo_b1"})
    assert extension_world(h1, w("true", h1)) == frozenset(h1.edges)
    assert extension_world(h1, w("alive(a) & alive(b) & alive(c)", h1)) == \
        frozenset({"e_abc"})
    assert extension_agent(binary_input, "a", a("0a", "a", binary_input)) == \
        frozenset({"a0"})


def test_valid_in_model(h1, h2):
    assert valid_in_model(h2, w("alive(a)", h2))
    assert not valid_in_model(h1, w("alive(a)", h1))
    ne = w("alive(a) | alive(b) | alive(c)", h1)
    assert valid_in_model(h1, ne)
    assert valid_in_model(h2, ne)


def test_unknown_points(h1):
    with pytest.raises(UnknownPointError):
        sat_world(h1, "zz", w("true", h1))
    with pytest.raises(UnknownPointError):
        sat_agent(h1, "a", "zz", a("true", "a", h1))


def test_metavariable_rejected(h1):
    with pytest.raises(SortError):
        sat_world(h1, "e_a", hk.syntax.WMeta("x"))


def test_undeclared_atom_is_a_sort_error_in_every_branch(h1):
    # Extensions are computed for every subformula, so no branch is skipped.
    with pytest.raises(SortError):
        sat_world(h1, "e_a", disj(hk.syntax.WTrue(), hk.syntax.EnvAtom("nowhere")))


def test_safe_unsafe_agreement_when_alive():
    rng = random.Random(13)
    for m in small_model_pool():
        for e in m.edges:
            for agent in m.sig.agents:
                for _ in range(3):
                    phi = random_world(rng, m.sig, 3)
                    safe = sat_world(m, e, desugar(ksafe(agent, phi)))
                    unsafe = sat_world(m, e, desugar(kunsafe(agent, phi)))
                    if m.alive(e, agent):
                        assert safe == unsafe
                    else:
                        assert not safe
                        assert unsafe


def test_collapse_scheme_pointwise():
    # E[a] phi -> A[a] phi holds everywhere in functional models.
    rng = random.Random(17)
    from conftest import random_agent
    for m in small_model_pool():
        ev = Evaluator(m)
        for agent in m.sig.agents:
            for _ in range(4):
                phi = random_agent(rng, m.sig, agent, 3)
                f = desugar(hk.syntax.WImplies(
                    SomeView(agent, phi), AllViews(agent, phi)))
                for e in m.edges:
                    assert ev.sat_world(e, f)


def test_desugared_equals_sugared():
    rng = random.Random(19)
    for m in small_model_pool(max_views=2, max_edges=2)[:40]:
        ev = Evaluator(m)
        for _ in range(5):
            phi = random_world(rng, m.sig, 3)
            sugared = hk.syntax.WImplies(
                kunsafe("a", phi), disj(ksafe("a", phi), WNot(alive("a"))))
            for e in m.edges:
                assert ev.sat_world(e, sugared) == ev.sat_world(e, desugar(sugared))


def test_agent_self_decidability():
    # []E[a] phi | []E[a] ~phi, lifted to worlds, is valid everywhere.
    rng = random.Random(23)
    from conftest import random_agent
    for m in small_model_pool():
        ev = Evaluator(m)
        for agent in m.sig.agents:
            for _ in range(3):
                phi = random_agent(rng, m.sig, agent, 3)
                lifted = desugar(AllViews(agent, hk.syntax.AOr(
                    Box(SomeView(agent, phi)),
                    Box(SomeView(agent, hk.syntax.ANot(phi))))))
                for e in m.edges:
                    assert ev.sat_world(e, lifted)


def test_memoized_evaluator_matches_fresh(binary_input):
    rng = random.Random(29)
    ev = Evaluator(binary_input)
    for _ in range(50):
        f = random_world(rng, binary_input.sig, 4)
        for e in binary_input.edges:
            assert ev.sat_world(e, f) == sat_world(binary_input, e, f)


def test_shared_evaluator_across_threads(binary_input):
    # Concurrent queries on one shared evaluator must agree with the
    # sequential answers.
    import threading

    rng = random.Random(31)
    formulas = [random_world(rng, binary_input.sig, 4) for _ in range(40)]
    expected = {(i, e): sat_world(binary_input, e, f)
                for i, f in enumerate(formulas) for e in binary_input.edges}
    shared = Evaluator(binary_input)
    failures = []

    def work(chunk):
        for i, f in chunk:
            for e in binary_input.edges:
                if shared.sat_world(e, f) != expected[(i, e)]:
                    failures.append((i, e))

    chunks = [list(enumerate(formulas))[k::4] for k in range(4)]
    threads = [threading.Thread(target=work, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
