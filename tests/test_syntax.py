import itertools
import random
import sys

import pytest

import hyperknow as hk
from hyperknow.errors import (
    AgentMismatchError,
    SortError,
    UnknownAgentError,
    UnknownAtomError,
    WrongSortAtomError,
)
from hyperknow.syntax import (
    AgentAtom,
    AllViews,
    ANot,
    ATrue,
    Box,
    EnvAtom,
    PossWorld,
    SomeView,
    WAnd,
    WImplies,
    WNot,
    WOr,
    WTrue,
    Var,
    alive,
    atoms_of,
    desugar,
    fold,
    is_core,
    ksafe,
    kunsafe,
    match,
    modal_depth,
    sort_check_agent,
    sort_check_world,
)

from conftest import random_world


def test_desugar_safe_knowledge():
    f = desugar(ksafe("a", EnvAtom("p")))
    # E[a] ~<>~p
    assert f == SomeView("a", ANot(PossWorld(WNot(EnvAtom("p")))))
    assert is_core(f)


def test_desugar_alive():
    assert desugar(alive("a")) == SomeView("a", ATrue())


def test_desugar_unsafe_knowledge():
    f = desugar(kunsafe("a", EnvAtom("p")))
    assert f == WNot(SomeView("a", ANot(ANot(PossWorld(WNot(EnvAtom("p")))))))


def test_desugar_connectives():
    p, q = EnvAtom("p"), EnvAtom("q")
    assert desugar(WOr(p, q)) == WNot(WAnd(WNot(p), WNot(q)))
    assert desugar(WImplies(p, q)) == WNot(WAnd(p, WNot(q)))
    assert desugar(AllViews("a", ATrue())) == WNot(SomeView("a", ANot(ATrue())))


@pytest.fixture
def sig():
    return hk.Signature(("a", "b"), {"a": ("pa",), "b": ("pb",)}, ("u",))


def _random_sugared(rng, sig, depth):
    """Random formula that may contain derived constructors."""
    core = random_world(rng, sig, depth)
    # Splice sugar on top to exercise desugaring.
    wrappers = [
        lambda f: WOr(f, EnvAtom("u")),
        lambda f: WImplies(EnvAtom("u"), f),
        lambda f: AllViews("a", PossWorld(f)),
        lambda f: ksafe("b", f),
        lambda f: kunsafe("a", f),
        lambda f: f,
    ]
    return rng.choice(wrappers)(core)


def test_desugar_idempotent_and_core(sig):
    rng = random.Random(7)
    for _ in range(300):
        f = _random_sugared(rng, sig, 4)
        once = desugar(f)
        assert is_core(once)
        assert desugar(once) == once


def _structural_key(f):
    # A nested tuple of each node's type, name, agent and children's keys:
    # spans and object identity play no part in it.
    return fold(f, None, lambda node, sort, kids: (
        type(node), getattr(node, "name", None), getattr(node, "agent", None), *kids))


def _equal_pairs(formulas):
    """Check ``==`` against the structural key on every pair, and that
    equal formulas hash alike; return the number of equal pairs."""
    keys = [_structural_key(f) for f in formulas]
    equal = 0
    for (f, k), (g, l) in itertools.combinations(zip(formulas, keys), 2):
        assert (f == g) == (k == l), (f, g)
        if k == l:
            assert hash(f) == hash(g), (f, g)
            equal += 1
    return equal


def test_structural_id_agrees_with_equality(sig):
    # ``==`` holds exactly for formulas with the same structural key, and
    # equal formulas hash alike; reparsed copies carry spans, which
    # equality ignores.
    rng = random.Random("structural-id")
    formulas = [_random_sugared(rng, sig, 3) for _ in range(200)]
    formulas += [hk.parse_world(hk.render(f), sig) for f in formulas[:50]]
    assert _equal_pairs(formulas) >= 50


def test_kernel_comparison_agrees_with_structural_id(sig):
    # The proof kernel compares formulas with ``==`` and numbers its
    # variables by ``hash``; both must agree with the structural key,
    # desugared copies (which share subtrees with the originals) included.
    rng = random.Random("kernel-same")
    formulas = [_random_sugared(rng, sig, 3) for _ in range(150)]
    formulas += [hk.parse_world(hk.render(f), sig) for f in formulas[:50]]
    formulas += [desugar(f) for f in formulas[:50]]
    assert _equal_pairs(formulas) >= 50


def test_sort_check_crosslevel_example(sig):
    # E[a] <> (A[b] [] true) is well-sorted.
    f = SomeView("a", PossWorld(AllViews("b", Box(WTrue()))))
    assert sort_check_world(f, sig) is f


def test_sort_check_errors(sig):
    with pytest.raises(AgentMismatchError):
        sort_check_agent(AgentAtom("pb"), "a", sig)
    with pytest.raises(AgentMismatchError):
        sort_check_world(SomeView("a", AgentAtom("pb")), sig)
    with pytest.raises(WrongSortAtomError):
        sort_check_world(EnvAtom("pa"), sig)
    with pytest.raises(WrongSortAtomError):
        sort_check_agent(AgentAtom("u"), "a", sig)
    with pytest.raises(UnknownAtomError):
        sort_check_world(EnvAtom("zz"), sig)
    with pytest.raises(UnknownAgentError):
        sort_check_world(SomeView("z", ATrue()), sig)
    with pytest.raises(UnknownAgentError, match="'zz'"):
        # Checked outermost first: the agent, not the atom under it.
        sort_check_world(SomeView("zz", AgentAtom("nowhere")), sig)
    with pytest.raises(SortError):
        sort_check_world(ATrue(), sig)


def test_sort_check_commutes_with_desugar(sig):
    rng = random.Random(11)
    for _ in range(200):
        f = _random_sugared(rng, sig, 4)
        sort_check_world(f, sig)
        sort_check_world(desugar(f), sig)
    bad = SomeView("a", AgentAtom("pb"))
    with pytest.raises(SortError):
        sort_check_world(bad, sig)
    with pytest.raises(SortError):
        sort_check_world(desugar(bad), sig)


def test_modal_depth():
    assert modal_depth(EnvAtom("p")) == 0
    assert modal_depth(alive("a")) == 1
    assert modal_depth(ksafe("a", EnvAtom("p"))) == 2
    assert modal_depth(kunsafe("a", ksafe("b", EnvAtom("p")))) == 4
    assert modal_depth(WAnd(alive("a"), EnvAtom("p"))) == 1


def test_atoms_of(sig):
    f = WAnd(SomeView("a", AgentAtom("pa")), WOr(EnvAtom("u"), alive("b")))
    assert atoms_of(f) == {"pa", "u"}


def test_desugar_preserves_modal_depth(sig):
    rng = random.Random(5)
    for _ in range(200):
        f = _random_sugared(rng, sig, 4)
        assert modal_depth(desugar(f)) == modal_depth(f)


def test_match_binds_a_formula_an_agent_and_a_name():
    env = {}
    pattern = WAnd(SomeView(Var("a"), Var("x")), EnvAtom(Var("n")))
    assert match(pattern, WAnd(SomeView("b", AgentAtom("pb")), EnvAtom("p")), env)
    assert env == {"a": "b", "x": AgentAtom("pb"), "n": "p"}
    # A binding made before the call stands.
    assert not match(pattern, WAnd(SomeView("c", ATrue()), EnvAtom("p")), {"a": "b"})


def test_match_repeated_variable_needs_equal_not_identical():
    pattern = WAnd(Var("x"), WNot(Var("x")))
    left, right = desugar(ksafe("a", EnvAtom("p"))), desugar(ksafe("a", EnvAtom("p")))
    assert left is not right
    env = {}
    assert match(pattern, WAnd(left, WNot(right)), env) and env["x"] == left
    assert not match(pattern, WAnd(left, WNot(desugar(ksafe("a", EnvAtom("q"))))), {})


def test_match_fails_on_a_type_clash_deep_in_the_pattern():
    pattern = SomeView(Var("a"), ANot(PossWorld(WNot(Var("x")))))
    assert match(pattern, desugar(ksafe("a", EnvAtom("p"))), {})
    # The same shape but for the innermost node: E[a] ~<> p.
    assert not match(pattern, SomeView("a", ANot(PossWorld(EnvAtom("p")))), {})
    assert not match(WNot(Var("x")), ANot(ATrue()), {})


def test_match_needs_no_recursion():
    pattern, f = Var("x"), EnvAtom("p")
    for _ in range(100_000):
        pattern, f = WNot(pattern), WNot(f)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        env = {}
        assert match(pattern, f, env) and env == {"x": EnvAtom("p")}
        assert not match(WNot(pattern), f, {})
    finally:
        sys.setrecursionlimit(limit)
