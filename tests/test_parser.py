import random

import pytest
from hypothesis import given, settings, strategies as st

import hyperknow as hk
from hyperknow import parser
from hyperknow.errors import ParseError, SortError
from hyperknow.syntax import (
    AllViews,
    ATrue,
    Box,
    EnvAtom,
    KB4Knows,
    PossWorld,
    SomeView,
    WNot,
    desugar,
)

from conftest import random_agent, random_world


@pytest.fixture
def sig():
    return hk.Signature(("a", "b"), {"a": ("pa", "qa"), "b": ("0b", "1b")}, ("p", "solo"))


def test_parse_crosslevel(sig):
    env_sig = hk.Signature(("a", "b"), {}, ("0b", "1b"))
    f = parser.parse_world("E[a]<> (A[b][] (0b | 1b))", env_sig)
    expected = desugar(SomeView("a", PossWorld(
        AllViews("b", Box(WNot(hk.syntax.WAnd(WNot(EnvAtom("0b")), WNot(EnvAtom("1b")))))))))
    assert f == expected


def test_parse_alive(sig):
    f = parser.parse_world("alive(b)", sig)
    assert f == SomeView("b", ATrue())
    sig3 = hk.Signature(("a", "b", "c"))
    assert parser.parse_world("alive(c)", sig3) == SomeView("c", ATrue())


def test_syntax_error_offset(sig):
    with pytest.raises(ParseError) as err:
        parser.parse_world("p &", sig)
    assert err.value.span.start == 3


def test_render_resugars_dual(sig):
    f = parser.parse_world("~E[a]~pa", sig)
    assert parser.render(f) == "A[a] pa"


def test_render_knowledge_sugar(sig):
    assert parser.render(parser.parse_world("Ksafe[a] p", sig)) == "Ksafe[a] p"
    assert parser.render(parser.parse_world("K[a] p", sig)) == "K[a] p"
    assert parser.render(parser.parse_world("E[a] ~<>~p", sig)) == "Ksafe[a] p"
    assert parser.render(parser.parse_world("A[a] []p", sig)) == "K[a] p"


def test_precedence(sig):
    f = parser.parse_world("p | solo & p -> p", sig)
    g = parser.parse_world("(p | (solo & p)) -> p", sig)
    assert f == g
    assert parser.parse_world("p -> solo -> p", sig) == \
        parser.parse_world("p -> (solo -> p)", sig)


def test_modal_prefix_binds_tight(sig):
    f = parser.parse_world("E[a] pa & p", sig)
    g = parser.parse_world("(E[a] pa) & p", sig)
    assert f == g


def test_sort_errors_have_spans(sig):
    with pytest.raises(SortError) as err:
        parser.parse_world("E[a] 0b", sig)
    assert err.value.span is not None
    assert 0 <= err.value.span.start <= err.value.span.end <= len("E[a] 0b")


def test_error_spans_inside_input(sig):
    bad_inputs = ["", "~", "( p", "p @", "E[a", "E[z] true", "alive(", "?x",
                  "p & & p", "\"unclosed", "K[a]"]
    for text in bad_inputs:
        with pytest.raises((ParseError, SortError)) as err:
            parser.parse_world(text, sig)
        span = err.value.span
        assert span is not None, text
        assert 0 <= span.start <= span.end <= max(len(text), 1), text


def test_round_trip_seeded(sig):
    rng = random.Random(424242)
    for _ in range(500):
        f = random_world(rng, sig, 5)
        assert parser.parse_world(parser.render(f), sig) == f
    for _ in range(500):
        agent = rng.choice(sig.agents)
        f = random_agent(rng, sig, agent, 5)
        assert parser.parse_agent(parser.render(f), agent, sig) == f


# Mutually recursive hypothesis strategies over the fixture signature.
_SIG = hk.Signature(("a", "b"), {"a": ("pa", "qa"), "b": ("0b", "1b")}, ("p", "solo"))
_world_st = st.deferred(lambda: st.one_of(
    st.sampled_from([hk.syntax.WTrue(), hk.syntax.WFalse()]
                    + [EnvAtom(n) for n in _SIG.env_atoms]),
    st.builds(hk.syntax.WNot, _world_st),
    st.builds(hk.syntax.WAnd, _world_st, _world_st),
    st.builds(lambda x: SomeView("a", x), _agent_a_st),
    st.builds(lambda x: SomeView("b", x), _agent_b_st),
))
_agent_a_st = st.deferred(lambda: st.one_of(
    st.sampled_from([hk.syntax.ATrue(), hk.syntax.AFalse()]
                    + [hk.syntax.AgentAtom(n) for n in _SIG.atoms_for("a")]),
    st.builds(hk.syntax.ANot, _agent_a_st),
    st.builds(hk.syntax.AAnd, _agent_a_st, _agent_a_st),
    st.builds(PossWorld, _world_st),
))
_agent_b_st = st.deferred(lambda: st.one_of(
    st.sampled_from([hk.syntax.ATrue(), hk.syntax.AFalse()]
                    + [hk.syntax.AgentAtom(n) for n in _SIG.atoms_for("b")]),
    st.builds(hk.syntax.ANot, _agent_b_st),
    st.builds(hk.syntax.AAnd, _agent_b_st, _agent_b_st),
    st.builds(PossWorld, _world_st),
))


@given(_world_st)
@settings(max_examples=300, deadline=None)
def test_round_trip_hypothesis(f):
    assert parser.parse_world(parser.render(f), _SIG) == f


@given(_agent_a_st)
@settings(max_examples=200, deadline=None)
def test_round_trip_agent_hypothesis(f):
    assert parser.parse_agent(parser.render(f), "a", _SIG) == f


def test_render_of_sugared_is_desugared_round_trip(sig):
    f = hk.syntax.kunsafe("a", hk.syntax.WImplies(EnvAtom("p"), hk.syntax.alive("b")))
    text = parser.render(f)
    assert parser.parse_world(text, sig) == desugar(f)


def test_metavariables(sig):
    f = parser.parse_world("E[a] ?x -> ?Y", sig, allow_metas=True)
    assert "?" in parser.render(f)
    with pytest.raises(SortError):
        parser.parse_world("?x", sig)  # metas rejected by default
    with pytest.raises(SortError):
        # Same metavariable at two different sorts.
        parser.parse_world("E[a] ?x & E[b] ?x", sig, allow_metas=True)


def test_parse_kb4(sig):
    f = parser.parse_kb4("~K[a] K[b] p", sig)
    assert f == hk.syntax.KB4Not(KB4Knows("a", KB4Knows("b", hk.syntax.KB4Atom("p"))))
    assert parser.render(f) == "~K[a] K[b] p"
    g = parser.parse_kb4("p -> K[a](p | solo)", sig)
    assert parser.parse_kb4(parser.render(g), sig) == g


def test_model_file_h3_round_trip(h3):
    text = parser.render_model(h3)
    again = parser.parse_model(text)
    assert again.edges == h3.edges
    assert again.hypergraph.proj == h3.hypergraph.proj
    assert parser.render_model(again) == text


def test_model_file_all_examples_round_trip():
    for name in hk.example_names():
        m = hk.example(name)
        text = parser.render_model(m)
        again = parser.parse_model(text)
        assert parser.render_model(again) == text


def test_model_file_duplicate_edge_label():
    text = """
agents: a
view a: v
edge e1 { a: v }
edge e1 { a: v }
"""
    with pytest.raises(ParseError) as err:
        parser.parse_model(text)
    assert "e1" in str(err.value)


def test_model_file_duplicate_agent_entry_requires_generalized_mode():
    text = """
agents: a
view a: v1
view a: v2
edge e1 { a: v1, a: v2 }
"""
    with pytest.raises(ParseError):
        parser.parse_model(text)
    generalized = parser.parse_model("mode: generalized\n" + text)
    assert generalized.hypergraph.views_in("e1", "a") == ("v1", "v2")


def test_model_file_comments_and_quotes():
    text = """
# a tiny model
agents: a  # trailing comment
view a: "odd name{1}"
edge "e 1" { a: "odd name{1}" }
"""
    m = parser.parse_model(text)
    assert m.edges == ("e 1",)
    assert parser.parse_model(parser.render_model(m)).edges == ("e 1",)


def test_frame_file_round_trip(h3):
    fm = hk.kappa_model(h3)
    text = parser.render_frame(fm)
    again = parser.parse_frame(text)
    assert again.frame == fm.frame
    assert again.val == fm.val


def test_frame_file_empty_valuation_round_trips():
    text = "agents: a\nworlds: w1\nclass a: w1\nenv dusk:\n"
    fm = parser.parse_frame(text)
    assert fm.val["dusk"] == frozenset()
    assert parser.parse_frame(parser.render_frame(fm)).val == fm.val


def test_derivation_file_errors():
    with pytest.raises(ParseError):
        parser.parse_derivation("1. e: true ; taut")  # missing signature
    with pytest.raises(ParseError):
        parser.parse_derivation("agents: a\n2. e: true ; taut")  # bad numbering
    with pytest.raises(ParseError):
        parser.parse_derivation("agents: a\n1. q: true ; taut")  # unknown sort
    with pytest.raises(ParseError):
        parser.parse_derivation("agents: a\n1. e: true ; zap")  # unknown rule


_MODEL_HEAD = "agents: a\natoms[a]: pa\natoms[env]: p\n"
_MODEL_BODY = "view a: a1 { pa }\nedge e1 { a: a1 } env { p }\n"
_DERIVATION_BODY = "1. e: p -> p ; taut\n"


@pytest.mark.parametrize("read, body", [(parser.parse_model, _MODEL_BODY),
                                        (parser.parse_derivation, _DERIVATION_BODY)])
def test_signature_header_rejects_undeclared_owner_and_duplicates(read, body):
    # Both file formats read their header with one reader.
    assert read(_MODEL_HEAD + body).sig.atoms_for("a") == ("pa",)
    for extra, message in (("atoms[zz]: s\n", "unknown agent 'zz'"),
                           ("atoms[env]: q\n", "duplicate 'atoms[env]'"),
                           ("atoms[a]: qa\n", "duplicate 'atoms[a]'"),
                           ("agents: b\n", "duplicate 'agents'")):
        text = _MODEL_HEAD + extra + body
        with pytest.raises(ParseError) as err:
            read(text)
        assert message in str(err.value)
        line = text.count("\n", 0, text.index(extra)) + 1
        assert err.value.span.line == line
        assert text[err.value.span.start:err.value.span.end] == extra.split("[")[0].split(":")[0]
