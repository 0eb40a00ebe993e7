"""The contract of the package's record types (``hyperknow.record``).

Every record class is built from a table of sample values, and what its
instances do is pinned to what the earlier ``dataclass`` versions did:
``repr`` text, ``==`` (spans ignored on formula nodes only), ``hash``,
frozen attributes, argument errors, ``replace`` and fresh mutable defaults.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperknow as hk
from hyperknow import core, frames, neighborhood, proofkernel, search, semantics, syntax
from hyperknow.errors import ValidationError
from hyperknow.syntax import EnvAtom, SourceSpan, WAnd, WTrue

SRC = Path(__file__).resolve().parent.parent / "src"

SIG = core.Signature(("a",), {"a": ("pa",)}, ("p",))
HYPERGRAPH = core.build_hypergraph(SIG, {"a": ("v",)}, ("e",), {("e", "a"): "v"})
GENERALIZED = core.build_generalized(SIG, {"a": ("v",)}, ("e",), {("e", "a"): ("v",)})
MODEL = core.build_model(SIG, HYPERGRAPH.views, HYPERGRAPH.edges, HYPERGRAPH.proj,
                         {"a": {"pa": {"v"}}}, {"p": {"e"}})
FRAME = frames.build_frame(("a",), ("w",), {"a": [["w"]]})
P, Q = EnvAtom("p"), EnvAtom("q")
PA = syntax.AgentAtom("pa")
STATEMENT = proofkernel.Statement("e", WTrue())

# (class, positional arguments, repr), the repr as the dataclass gave it.
SAMPLES = [
    (SourceSpan, (0, 1, 1, 1), "SourceSpan(start=0, end=1, line=1, column=1)"),
    (syntax.WTrue, (), "WTrue()"),
    (syntax.WFalse, (), "WFalse()"),
    (syntax.EnvAtom, ("p",), "EnvAtom(name='p')"),
    (syntax.WNot, (P,), "WNot(sub=EnvAtom(name='p'))"),
    (syntax.WAnd, (P, WTrue()), "WAnd(left=EnvAtom(name='p'), right=WTrue())"),
    (syntax.SomeView, ("a", PA), "SomeView(agent='a', sub=AgentAtom(name='pa'))"),
    (syntax.WMeta, ("PHI",), "WMeta(name='PHI')"),
    (syntax.WOr, (P, Q), "WOr(left=EnvAtom(name='p'), right=EnvAtom(name='q'))"),
    (syntax.WImplies, (P, Q), "WImplies(left=EnvAtom(name='p'), right=EnvAtom(name='q'))"),
    (syntax.AllViews, ("a", PA), "AllViews(agent='a', sub=AgentAtom(name='pa'))"),
    (syntax.ATrue, (), "ATrue()"),
    (syntax.AFalse, (), "AFalse()"),
    (syntax.AgentAtom, ("pa",), "AgentAtom(name='pa')"),
    (syntax.ANot, (PA,), "ANot(sub=AgentAtom(name='pa'))"),
    (syntax.AAnd, (PA, syntax.ATrue()), "AAnd(left=AgentAtom(name='pa'), right=ATrue())"),
    (syntax.PossWorld, (P,), "PossWorld(sub=EnvAtom(name='p'))"),
    (syntax.AMeta, ("phi",), "AMeta(name='phi')"),
    (syntax.AOr, (PA, PA), "AOr(left=AgentAtom(name='pa'), right=AgentAtom(name='pa'))"),
    (syntax.AImplies, (PA, PA),
     "AImplies(left=AgentAtom(name='pa'), right=AgentAtom(name='pa'))"),
    (syntax.Box, (P,), "Box(sub=EnvAtom(name='p'))"),
    (syntax.KB4Atom, ("p",), "KB4Atom(name='p')"),
    (syntax.KB4Not, (syntax.KB4Atom("p"),), "KB4Not(sub=KB4Atom(name='p'))"),
    (syntax.KB4And, (syntax.KB4Atom("p"), syntax.KB4Atom("q")),
     "KB4And(left=KB4Atom(name='p'), right=KB4Atom(name='q'))"),
    (syntax.KB4Knows, ("a", syntax.KB4Atom("p")), "KB4Knows(agent='a', sub=KB4Atom(name='p'))"),
    (core.Signature, (("a",), {"a": ("pa",)}, ("p",)),
     "Signature(agents=('a',), agent_atoms={'a': ('pa',)}, env_atoms=('p',))"),
    (core.ChromaticHypergraph, (SIG, {"a": ("v",)}, ("e",), {("e", "a"): "v"}),
     "ChromaticHypergraph(sig=Signature(agents=('a',), agent_atoms={'a': ('pa',)}, "
     "env_atoms=('p',)), views={'a': ('v',)}, edges=('e',), proj={('e', 'a'): 'v'})"),
    (core.GeneralizedChromaticHypergraph, (SIG, {"a": ("v",)}, ("e",), {("e", "a"): ("v",)}),
     "GeneralizedChromaticHypergraph(sig=Signature(agents=('a',), agent_atoms={'a': "
     "('pa',)}, env_atoms=('p',)), views={'a': ('v',)}, edges=('e',), "
     "incidence={('e', 'a'): ('v',)})"),
    (core.ChromaticHypergraphModel, (HYPERGRAPH, {"a": {}}, {}),
     "ChromaticHypergraphModel(hypergraph=ChromaticHypergraph(sig=Signature(agents=('a',), "
     "agent_atoms={'a': ('pa',)}, env_atoms=('p',)), views={'a': ('v',)}, edges=('e',), "
     "proj={('e', 'a'): 'v'}), val_agent={'a': {}}, val_env={})"),
    (core.SimpleHypergraph, (frozenset({1}), frozenset({frozenset({1})})),
     "SimpleHypergraph(vertices=frozenset({1}), hyperedges=frozenset({frozenset({1})}))"),
    (core.SimplicialComplex, (frozenset({1}), frozenset({frozenset({1})})),
     "SimplicialComplex(vertices=frozenset({1}), hyperedges=frozenset({frozenset({1})}))"),
    (frames.PartialEpistemicFrame, (("a",), ("w",), {"a": (("w",),)}),
     "PartialEpistemicFrame(agents=('a',), worlds=('w',), classes={'a': (('w',),)})"),
    (frames.PartialEpistemicModel, (FRAME, ("p",), {"p": frozenset({"w"})}),
     "PartialEpistemicModel(frame=PartialEpistemicFrame(agents=('a',), worlds=('w',), "
     "classes={'a': (('w',),)}), atoms=('p',), val={'p': frozenset({'w'})})"),
    (frames.HypergraphMorphism, ({"a": {"v": "v"}}, {"e": "e"}),
     "HypergraphMorphism(view_maps={'a': {'v': 'v'}}, edge_map={'e': 'e'})"),
    (frames.FrameMorphism, ({"w": "w"},), "FrameMorphism(world_map={'w': 'w'})"),
    (neighborhood.NeighborhoodFrame, (("e",), {"a": {"e": frozenset()}}),
     "NeighborhoodFrame(states=('e',), neighborhoods={'a': {'e': frozenset()}})"),
    (proofkernel.Statement, ("e", WTrue()), "Statement(sort='e', formula=WTrue())"),
    (proofkernel.PropTaut, (), "PropTaut()"),
    (proofkernel.MP, (1, 2), "MP(implication=1, antecedent=2)"),
    (proofkernel.NecA, (1,), "NecA(premise=1)"),
    (proofkernel.NecE, (1,), "NecE(premise=1)"),
    (proofkernel.RM, (1, "box"), "RM(premise=1, modality='box')"),
    (proofkernel.RMPrime, (1, "all"), "RMPrime(premise=1, modality='all')"),
    (proofkernel.Adj1Down, (1,), "Adj1Down(premise=1)"),
    (proofkernel.Adj1Up, (1,), "Adj1Up(premise=1)"),
    (proofkernel.Adj2Down, (1,), "Adj2Down(premise=1)"),
    (proofkernel.Adj2Up, (1,), "Adj2Up(premise=1)"),
    (proofkernel.AxSurjectivity, (), "AxSurjectivity()"),
    (proofkernel.AxFunctionality, (), "AxFunctionality()"),
    (proofkernel.AxNonEmptiness, (), "AxNonEmptiness()"),
    (proofkernel.DerivationLine, (1, STATEMENT, proofkernel.PropTaut(), SourceSpan(0, 1, 1, 1)),
     "DerivationLine(index=1, statement=Statement(sort='e', formula=WTrue()), "
     "justification=PropTaut(), span=SourceSpan(start=0, end=1, line=1, column=1))"),
    (proofkernel.Derivation, (SIG, ()),
     "Derivation(sig=Signature(agents=('a',), agent_atoms={'a': ('pa',)}, "
     "env_atoms=('p',)), lines=())"),
    (proofkernel.SoundnessCounterexample, (1, None, semantics.World("e")),
     "SoundnessCounterexample(line=1, model=None, point=World(edge='e'))"),
    (search.Bounds, (3, 2, 3, 1, 1),
     "Bounds(agents=3, views=2, edges=3, agent_atoms=1, env_atoms=1)"),
    (search.ValidWithinBounds, (7,), "ValidWithinBounds(models_checked=7)"),
    (search.Countermodel, (None, semantics.View("a", "v"), {"x": P}),
     "Countermodel(model=None, point=View(agent='a', view='v'), "
     "assignment={'x': EnvAtom(name='p')})"),
    (semantics.World, ("e",), "World(edge='e')"),
    (semantics.View, ("a", "v"), "View(agent='a', view='v')"),
]

IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# Built only through their subclasses: the formula sorts' marker bases, the
# node shapes of hyperknow.syntax and the hypergraphs' common base.
ABSTRACT = {"WorldFormula", "AgentFormula", "KB4Formula", "_Node", "_Constant", "_Named",
            "_Unary", "_Binary", "_Labelled", "_Hypergraph"}
FORMULAS = (syntax.WorldFormula, syntax.AgentFormula, syntax.KB4Formula)
# Every field has a default.
ALL_DEFAULTS = (search.Bounds, search.ValidWithinBounds)


def _fields(cls):
    return cls.__match_args__


def _compared(x):
    """The values ``==`` and ``hash`` see, as the dataclasses compared them."""
    return tuple(getattr(x, n) for n in _fields(type(x))
                 if not (n == "span" and isinstance(x, FORMULAS)))


def test_the_table_covers_every_record_class():
    from hyperknow.record import Record
    todo, found = [Record], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__name__ not in ABSTRACT:
                found.add(sub)
    assert found | {SourceSpan} == {cls for cls, _, _ in SAMPLES}
    assert len(SAMPLES) == 58


def test_match_args_list_every_field_in_order():
    assert WAnd.__match_args__ == ("left", "right", "span")
    assert WTrue.__match_args__ == ("span",)
    assert syntax.SomeView.__match_args__ == ("agent", "sub", "span")
    assert core.Signature.__match_args__ == ("agents", "agent_atoms", "env_atoms")
    assert core.ChromaticHypergraph.__match_args__ == ("sig", "views", "edges", "proj")
    assert proofkernel.PropTaut.__match_args__ == ()
    assert syntax.WorldFormula.__match_args__ == ()


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_repr_equality_and_hash(cls, args, text):
    x, y = cls(*args), cls(*args)
    assert repr(x) == text
    assert x == y and not x != y
    assert x is not y
    try:
        h = hash(_compared(x))
    except TypeError:       # a field holds a dict, as the dataclass did
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == h
    assert x != object()
    if cls is not SourceSpan:       # a named tuple equals its plain tuple
        assert x != args


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_records_are_frozen(cls, args, text):
    x = cls(*args)
    name = _fields(cls)[0] if _fields(cls) else "anything"
    with pytest.raises(AttributeError):
        setattr(x, name, 1)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == cls(*args)


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_missing_or_extra_arguments_raise_type_error(cls, args, text):
    with pytest.raises(TypeError):
        cls(*args, None, None, None, None, None, None, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    fields = _fields(cls)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{fields[0]: args[0]})
    if args and fields[0] != "span" and cls not in ALL_DEFAULTS:
        with pytest.raises(TypeError):
            cls()


def test_keyword_calls_build_the_same_record():
    for cls, args, _ in SAMPLES:
        assert cls(**dict(zip(_fields(cls), args))) == cls(*args), cls


def test_formula_equality_ignores_spans_but_derivation_lines_do_not():
    span, other = SourceSpan(0, 1, 1, 1), SourceSpan(4, 5, 1, 5)
    f, g = WAnd(EnvAtom("p", span=span), WTrue(span)), WAnd(EnvAtom("p"), WTrue(), span=other)
    assert f == g and hash(f) == hash(g)
    assert repr(f) == repr(g) == "WAnd(left=EnvAtom(name='p'), right=WTrue())"
    assert f.left.span == span and g.span == other
    assert f != WAnd(EnvAtom("q"), WTrue())
    assert WTrue() != syntax.ATrue() and EnvAtom("p") != syntax.KB4Atom("p")
    line = proofkernel.DerivationLine(1, STATEMENT, proofkernel.PropTaut(), span)
    assert line != proofkernel.DerivationLine(1, STATEMENT, proofkernel.PropTaut(), other)
    assert line == proofkernel.DerivationLine(1, STATEMENT, proofkernel.PropTaut(), span)


def test_shared_and_separately_built_formulas_compare_alike():
    shared = WAnd(P, Q)
    f = WAnd(shared, shared)
    g = WAnd(WAnd(EnvAtom("p"), EnvAtom("q")), WAnd(EnvAtom("p"), EnvAtom("q")))
    assert f == g and hash(f) == hash(g) == hash((shared, shared))
    assert f != WAnd(shared, WAnd(P, P))
    assert {f: 1}[g] == 1


def test_replace_builds_through_the_constructor():
    from hyperknow.record import replace
    assert replace(semantics.World("e"), edge="f") == semantics.World("f")
    assert replace(EnvAtom("p", span=SourceSpan(0, 1, 1, 1)), name="q").span == \
        SourceSpan(0, 1, 1, 1)
    with pytest.raises(ValidationError):
        replace(SIG, agents=("a", "a"))
    with pytest.raises(ValidationError):
        replace(core.SimpleHypergraph(frozenset({1}), frozenset()),
                hyperedges=frozenset({frozenset({2})}))
    with pytest.raises(TypeError):
        replace(SIG, no_such_field=())
    stripped = hk.strip_agent_atoms(MODEL)
    assert stripped.sig.agent_atoms == {} and stripped.val_agent == {"a": {}}
    assert stripped.hypergraph.views_in("e", "a") == ("v",)
    g = core.strip_agent_atoms(core.ChromaticHypergraphModel(GENERALIZED, {"a": {}}, {}))
    assert type(g.hypergraph) is core.GeneralizedChromaticHypergraph


def test_no_two_instances_share_a_mutable_default():
    one, two = core.Signature(("a",)), core.Signature(("b",))
    assert one.agent_atoms == two.agent_atoms == {} and one.agent_atoms is not two.agent_atoms
    one, two = frames.PartialEpistemicModel(FRAME), frames.PartialEpistemicModel(FRAME)
    assert one.val == two.val == {} and one.val is not two.val
    point = semantics.World("e")
    one, two = search.Countermodel(MODEL, point), search.Countermodel(model=MODEL, point=point)
    assert one.assignment == two.assignment == {} and one.assignment is not two.assignment
    assert search.Bounds() == search.Bounds(2, 2, 4, 2, 2)


def test_importing_the_cli_loads_no_code_generation():
    # Start-up stays cheap: no dataclasses (and no inspect, which they load).
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    code = ("import sys, hyperknow, hyperknow.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"


def test_pickling_rebuilds_through_the_constructor():
    import pickle
    f = WAnd(EnvAtom("p", span=SourceSpan(0, 1, 1, 1)), WTrue())
    hash(f)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.left.span == SourceSpan(0, 1, 1, 1)
    assert "_hash" not in vars(g)       # a hash is not carried to another process
    assert pickle.loads(pickle.dumps(MODEL)).hypergraph.views_in("e", "a") == ("v",)
