import itertools
import random
import re
import sys
from pathlib import Path

import pytest

import hyperknow as hk
from hyperknow.errors import (
    AgentMismatchError,
    SortError,
    UnknownAgentError,
    UnknownAtomError,
    WrongSortAtomError,
)
from hyperknow import kb4, search, semantics, syntax
from hyperknow.errors import HyperknowError
from hyperknow.parser import _parse, parse_world_inferring
from hyperknow.syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AllViews,
    AMeta,
    ANot,
    ATrue,
    Box,
    EnvAtom,
    KB4And,
    KB4Atom,
    KB4Knows,
    KB4Not,
    PossWorld,
    SomeView,
    WAnd,
    WFalse,
    WImplies,
    WMeta,
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
    scheme_meta_sorts,
    sort_check_agent,
    sort_check_kb4,
    sort_check_world,
    sort_of,
)

from conftest import RICH_SIG, random_surface_agent, random_surface_world, random_world


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


def test_equality_agrees_with_the_structural_key(sig):
    # ``==`` holds exactly for formulas with the same structural key, and
    # equal formulas hash alike; reparsed copies carry spans, which
    # equality ignores.
    rng = random.Random("structural-id")
    formulas = [_random_sugared(rng, sig, 3) for _ in range(200)]
    formulas += [hk.parse_world(hk.render(f), sig) for f in formulas[:50]]
    assert _equal_pairs(formulas) >= 50


def test_kernel_comparison_agrees_with_the_structural_key(sig):
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


def test_match_compares_a_fixed_name_with_equality():
    pattern = SomeView("a", Var("x"))
    env = {}
    assert match(pattern, SomeView("a", ATrue()), env) and env == {"x": ATrue()}
    assert not match(pattern, SomeView("b", ATrue()), {})
    # A pattern of variables alone binds as before.
    env = {}
    assert match(SomeView(Var("a"), Var("x")), SomeView("b", ATrue()), env)
    assert env == {"a": "b", "x": ATrue()}


# --- the per-type tables ------------------------------------------------------------


def test_every_node_type_is_in_every_table_of_its_sort():
    steps = {"world": search._WORLD_STEPS, "agent": search._AGENT_STEPS}
    clauses = {"world": semantics._WORLD_CLAUSES, "agent": semantics._AGENT_CLAUSES}
    for t in syntax._CHILDREN:
        sort = ("world" if issubclass(t, syntax.WorldFormula) else
                "agent" if issubclass(t, syntax.AgentFormula) else "kb4")
        node = t(*([None] * (len(t._fields) - 1)))
        assert sort_of(node) == sort, t
        assert t in syntax._REBUILD, t
        if sort == "kb4":
            assert t in kb4._CLAUSES and t in kb4._TRANSLATE, t
            assert all(t not in table for table in (*steps.values(), *clauses.values())), t
        else:
            assert [s for s, table in steps.items() if t in table] == [sort], t
            assert [s for s, table in clauses.items() if t in table] == [sort], t
            assert t not in kb4._CLAUSES and t not in kb4._TRANSLATE, t


@pytest.mark.parametrize("value", [None, "p", 1, syntax.WorldFormula(), Var("x")])
def test_sort_of_a_non_formula_is_a_type_error(value):
    with pytest.raises(TypeError, match="not a formula"):
        sort_of(value)


def test_an_agent_may_be_named_like_a_sort():
    # A position's sort is "world", an agent's name, or that of a KB4
    # formula, which no agent name can take.
    sig = hk.Signature(("kb4", "agent"), {"kb4": ("p",), "agent": ("q",)}, ("u",))
    f = SomeView("kb4", AgentAtom("p"))
    assert sort_check_world(WAnd(f, SomeView("agent", AgentAtom("q"))), sig)
    assert sort_check_agent(AgentAtom("p"), "kb4", sig) == AgentAtom("p")
    assert scheme_meta_sorts(AMeta("X"), sig, "kb4") == {"X": "kb4"}
    with pytest.raises(TypeError, match="not a KB4 formula"):
        sort_check_kb4(AgentAtom("p"), sig)


# --- pinned outcomes of the sort checker ------------------------------------------

# tests/data/sort_check_outcomes.txt holds sort_check_outcomes() byte for byte;
# print the current text with ``PYTHONPATH=src python tests/test_syntax.py``.

SORT_OUTCOMES = Path(__file__).parent / "data" / "sort_check_outcomes.txt"

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_LEAVES = {*RICH_SIG.env_atoms, *RICH_SIG.atoms_for("a"), *RICH_SIG.atoms_for("b"),
           "true", "false"}
# An atom of another sort than each atom's: an agent's for an environment
# atom, the environment's or the other agent's for an agent's.
_OTHER_SORT = {"u": "pa", "v": "pb", "pa": "pb", "qa": "u", "pb": "v"}


def _random_kb4(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return KB4Atom(rng.choice(RICH_SIG.env_atoms))
    k = rng.randrange(3)
    if k == 0:
        return KB4Not(_random_kb4(rng, depth - 1))
    if k == 1:
        return KB4And(_random_kb4(rng, depth - 1), _random_kb4(rng, depth - 1))
    return KB4Knows(rng.choice(RICH_SIG.agents), _random_kb4(rng, depth - 1))


def _one_name_mutations(rng, text):
    """``text`` with one name changed, for each of: an unknown atom, an atom
    of another sort, an unknown agent and the metavariable ``?X``, each at a
    leaf or an agent picked by ``rng``."""
    names = list(_NAME_RE.finditer(text))
    leaves = [m for m in names if m.group() in _LEAVES]
    agents = [m for m in names if m.group() in RICH_SIG.agents]
    out = []
    for label, pool, new in (
            ("zz", leaves, lambda n: "zz"),
            ("other", leaves, lambda n: _OTHER_SORT.get(n, rng.choice(["u", "pa", "pb"]))),
            ("c", agents, lambda n: "c"),
            ("?X", leaves, lambda n: "?X")):
        if pool:
            m = rng.choice(pool)
            out.append((label, text[:m.start()] + new(m.group()) + text[m.end():]))
    return out


def _sort_check_texts():
    """(label, sort, text): seeded surface texts over ``RICH_SIG`` of each
    sort, ``sort`` being "world", an agent or "kb4", and their one-name
    mutations."""
    rng = random.Random("sort-check")
    texts = []
    for i in range(24):
        texts.append((f"w{i}", "world", hk.render(random_surface_world(rng, RICH_SIG, 3))))
    for i in range(24):
        agent = RICH_SIG.agents[i % 2]
        texts.append((f"a{i}", agent,
                      hk.render(random_surface_agent(rng, RICH_SIG, agent, 3))))
    for i in range(12):
        texts.append((f"k{i}", "kb4", hk.render(_random_kb4(rng, 3))))
    texts += [("ww", "world", "?X & E[a] <> ?X"), ("wa", "world", "E[a] ?X & E[b] ?X"),
              ("aw", "a", "?X & <> E[a] ?X"),
              # A metavariable before an atom of two sorts, and before an
              # unknown agent.
              ("wm", "world", "?X & E[a] pa & pa"), ("wc", "world", "?X | E[c] true")]
    return [(f"{label}{suffix}", sort, variant) for label, sort, text in texts
            for suffix, variant in [("", text), *(("-" + m, t) for m, t in
                                                 _one_name_mutations(rng, text))]]


# Code-built formulas that no parse gives: misplaced nodes of every sort, a
# hole, and a metavariable at two sorts.
_BUILT = (
    SomeView("a", WTrue()), SomeView("a", ANot(EnvAtom("u"))), WAnd(WTrue(), ATrue()),
    WNot(AgentAtom("pa")), PossWorld(ATrue()), AAnd(ATrue(), WFalse()), Box(AgentAtom("pa")),
    SomeView("a", PossWorld(AFalse())), WAnd(WTrue(), KB4Atom("u")),
    SomeView("a", KB4Not(KB4Atom("u"))), ANot(KB4Atom("u")),
    KB4And(KB4Atom("u"), WTrue()), KB4Knows("a", EnvAtom("u")), KB4Not(ATrue()),
    KB4Atom("pa"), KB4Atom("zz"), KB4Knows("c", KB4Atom("zz")), KB4Knows("a", KB4Atom("v")),
    WNot(None), ANot(None), KB4Not(None), None, "p",
    WAnd(WMeta("X"), SomeView("a", AMeta("X"))), SomeView("a", PossWorld(WMeta("X"))),
    WAnd(SomeView("a", AMeta("X")), SomeView("b", AMeta("X"))),
    AAnd(AMeta("X"), PossWorld(WMeta("X"))),
    SomeView("c", AgentAtom("zz")), AllViews("a", AMeta("Y")),
)


def _outcome(run):
    try:
        result = run()
    except (HyperknowError, TypeError) as err:
        span = getattr(err, "span", None)
        where = f" {span.start}-{span.end}" if span is not None else ""
        return f"{type(err).__name__}{where} {err}"
    if isinstance(result, dict):
        return f"ok {sorted(result.items())}"
    if isinstance(result, tuple):
        f, sig = result
        return f"ok {hk.render(f)} {sig!r}"
    return f"ok {hk.render(result)}"


def _entry_points(sort, text):
    """(name, call) of every sort-checking entry point that reads a text of
    ``sort``: the parsers, and the checkers on the formula as parsed."""
    sig = RICH_SIG
    if sort == "kb4":
        return [("parse_kb4", lambda: hk.parse_kb4(text, sig)),
                ("sort_check_kb4", lambda: sort_check_kb4(_parse(text, "kb4"), sig))]
    if sort == "world":
        return [("parse_world", lambda: hk.parse_world(text, sig)),
                ("parse_world metas", lambda: hk.parse_world(text, sig, allow_metas=True)),
                ("parse_world_inferring", lambda: parse_world_inferring(text, sig.agents)),
                ("sort_check_world", lambda: sort_check_world(_parse(text, "world"), sig)),
                ("scheme_meta_sorts", lambda: scheme_meta_sorts(_parse(text, "world"), sig))]
    other = "b" if sort == "a" else "a"
    return [("parse_agent", lambda: hk.parse_agent(text, sort, sig)),
            ("parse_agent metas", lambda: hk.parse_agent(text, sort, sig, allow_metas=True)),
            (f"parse_agent {other}", lambda: hk.parse_agent(text, other, sig)),
            ("sort_check_agent", lambda: sort_check_agent(_parse(text, "agent"), sort, sig)),
            ("sort_check_agent c", lambda: sort_check_agent(_parse(text, "agent"), "c", sig)),
            ("scheme_meta_sorts", lambda: scheme_meta_sorts(_parse(text, "agent"), sig, sort))]


def _built_entry_points(f):
    sig = RICH_SIG
    return [("sort_check_world", lambda: sort_check_world(f, sig)),
            ("sort_check_world metas", lambda: sort_check_world(f, sig, allow_metas=True)),
            ("sort_check_agent metas", lambda: sort_check_agent(f, "a", sig, allow_metas=True)),
            ("sort_check_kb4", lambda: sort_check_kb4(f, sig)),
            ("scheme_meta_sorts", lambda: scheme_meta_sorts(f, sig)),
            ("scheme_meta_sorts a", lambda: scheme_meta_sorts(f, sig, "a"))]


def sort_check_outcomes() -> str:
    """Each input's header line, then one line per entry point: ``ok`` and
    the rendered result, or the error's type, span and message."""
    out = []
    for label, sort, text in _sort_check_texts():
        out.append(f"[{label} {sort}] {text}")
        out += [f"{name}: {_outcome(run)}" for name, run in _entry_points(sort, text)]
    for i, f in enumerate(_BUILT):
        out.append(f"[built{i}] {f!r}")
        out += [f"{name}: {_outcome(run)}" for name, run in _built_entry_points(f)]
    return "".join(line + "\n" for line in out)


def test_sort_check_outcomes_match_the_golden_file():
    assert sort_check_outcomes() == SORT_OUTCOMES.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(sort_check_outcomes(), end="")
