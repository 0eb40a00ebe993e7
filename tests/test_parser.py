import functools
import hashlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hyperknow as hk
from hyperknow import parser, proofkernel
from hyperknow.errors import HyperknowError, ParseError, SortError, ValidationError
from hyperknow.syntax import (
    AgentAtom,
    AllViews,
    ATrue,
    Box,
    EnvAtom,
    KB4Atom,
    KB4Knows,
    PossWorld,
    SomeView,
    WNot,
    desugar,
    walk,
)

from conftest import (CORPUS, FRAME_HEADERS, FRAME_LINES, MODEL_HEADERS, MODEL_LINES,
                      MODEL_SOUP, random_agent, random_world, small_model_pool)


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


# The canonical text of each kind of grammar row, written out by hand:
# binary and prefix operators by token kind, over the operands "{l}", "{r}"
# and "{x}".  A row of a new kind fails below until its text is added here.
_ROW_TEXT = {"PIPE": "{l} | {r}", "ARROW": "{l} -> {r}", "AMP": "{l} & {r}",
             "TILDE": "~{x}", "DIAMOND": "<> {x}", "BOX": "[] {x}",
             "head": "{name}[a] {x}", "call": "{name}(a)", "constant": "{name}",
             "atom": "{x}", "meta": "?{x}"}
# An atom of each operand sort, and a second one for right operands, over
# the ``sig`` fixture.
_OPERANDS = {"world": (EnvAtom("p"), EnvAtom("solo")),
             "agent": (AgentAtom("pa"), AgentAtom("qa")),
             "kb4": (KB4Atom("p"), KB4Atom("solo"))}
_PARSE = {"world": lambda text, sig: parser.parse_world(text, sig, allow_metas=True),
          "agent": lambda text, sig: parser.parse_agent(text, "a", sig, allow_metas=True),
          "kb4": parser.parse_kb4}


def _grammar_rows():
    """(sort, kind, name, instance over atoms, the names filling its text)
    for every row of every sort's grammar."""
    for sort, g in parser._GRAMMARS.items():
        left, right = _OPERANDS[sort]
        for kind, (_, _, build) in g.binary.items():
            yield (sort, kind, kind, build(left, right, span=None),
                   {"l": left.name, "r": right.name})
        for kind, (build, operand) in g.prefix.items():
            x = _OPERANDS[operand][0]
            yield sort, kind, kind, build(x), {"x": x.name}
        for name, (build, operand) in g.heads.items():
            x = _OPERANDS[operand][0]
            yield sort, "head", name, build("a", x), {"name": name, "x": x.name}
        for name, build in g.calls.items():
            yield sort, "call", name, build("a"), {"name": name}
        for name, build in g.constants.items():
            yield sort, "constant", name, build(), {"name": name}
        yield sort, "atom", "atom", left, {"x": left.name}
        if g.meta is not None:
            yield sort, "meta", "meta", g.meta("X"), {"x": "X"}


_ROWS = list(_grammar_rows())


@pytest.mark.parametrize("sort, kind, name, f, names", _ROWS,
                         ids=[f"{sort}-{kind}-{name}" if kind == "head" else f"{sort}-{name}"
                              for sort, kind, name, _, _ in _ROWS])
def test_every_grammar_row_round_trips(sig, sort, kind, name, f, names):
    # Each surface form of each sort renders to its own text, not to another
    # form with the same core shape (K[a] p, not A[a] [] p), and reads back.
    text = _ROW_TEXT[kind].format_map(names)
    assert parser.render(f) == text
    assert _PARSE[sort](text, sig) == desugar(f)


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


# --- equal subformulas of a derivation's lines are one object -------------------

_CORPUS_FILES = sorted(CORPUS.glob("*.deriv"))
_NUMBERED_LINE = re.compile(r"\s*\d+\.\s*(\S+)\s*:(.*);[^;]*$")


def _nodes(d):
    return [node for line in d.lines for node, _ in walk(line.statement.formula, None)]


@pytest.mark.parametrize("path", _CORPUS_FILES, ids=lambda p: p.name)
def test_a_parsed_derivation_shares_its_equal_subformulas(path):
    text = path.read_text(encoding="utf-8")
    d = parser.parse_derivation(text)
    first = {}
    assert all(first.setdefault(node, node) is node for node in _nodes(d))
    # Each line is the formula its text gives when parsed alone.
    numbered = [m.groups() for m in map(_NUMBERED_LINE.match, text.splitlines()) if m]
    assert len(numbered) == len(d.lines)
    for line, (sort, formula) in zip(d.lines, numbered):
        alone = (parser.parse_world(formula, d.sig) if sort == "e"
                 else parser.parse_agent(formula, sort, d.sig))
        assert line.statement == proofkernel.Statement(sort, alone)


def test_two_parses_of_one_text_share_no_node():
    # The table lives as long as one parse: nothing is kept between parses.
    text = (CORPUS / "distribution.deriv").read_text(encoding="utf-8")
    d, again = parser.parse_derivation(text), parser.parse_derivation(text)
    assert d == again
    assert not {id(node) for node in _nodes(d)} & {id(node) for node in _nodes(again)}


def test_a_shared_subformula_is_its_first_occurrence():
    # It keeps the span of the first place it is written; the proof kernel
    # reads no span of a formula.
    d = parser.parse_derivation("agents: a\natoms[env]: p, q\n"
                                "1. e: p | q -> p | q ; taut\n2. e: ~(p | q) | (p | q) ; taut\n")
    one, two = (line.statement.formula for line in d.lines)
    p_or_q = one.sub.left
    assert p_or_q == parser.parse_world("p | q", d.sig)
    assert p_or_q is one.sub.right.sub is two.sub.left.sub.sub is two.sub.right.sub
    assert (p_or_q.span.line, p_or_q.span.column) == (3, 7)


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


@pytest.mark.parametrize("read, body", [(parser.parse_model, "view world: v0\nedge e0 { world: v0 }\n"),
                                        (parser.parse_derivation, "1. e: true ; taut\n")])
def test_an_agent_named_world_is_rejected(read, body):
    with pytest.raises(ValidationError) as err:
        read("agents: world\n" + body)
    assert str(err.value) == "signature: agent name 'world' is reserved for the world sort"


# --- tokenizer, checked against the text itself --------------------------------

# Every token shape, whitespace, comments, and characters that start no token
# (alone, or in a failed attempt at one: '-' without '>', '<' without '>',
# '"' without its closing quote).
_PIECES = ("agents", "e1", "_x9", "0b", "Ksafe", "->", "<>", "[]", "(", ")", "[", "]",
           "{", "}", ",", ":", ";", ".", "~", "&", "|", "?", '"a b"', '""', '"#"',
           "# note", "#", " ", "  ", "\t", "\r", "\n", "\n", "-", "<", ">", '"', "@",
           "é", "\x00", "!")
_KINDS = {"->": "ARROW", "<>": "DIAMOND", "[]": "BOX", "(": "LPAREN", ")": "RPAREN",
          "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE", ",": "COMMA",
          ":": "COLON", ";": "SEMI", ".": "DOT", "~": "TILDE", "&": "AMP", "|": "PIPE",
          "?": "QMARK", "\n": "NL"}


def _line_and_column(text, start):
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join), st.booleans())
@settings(derandomize=True, deadline=None, max_examples=400)
def test_tokens_agree_with_the_text(text, keep_newlines):
    try:
        tokens = parser.tokenize(text, keep_newlines=keep_newlines)
    except ParseError as err:
        # The first character that starts no token, named and pointed at.
        span = err.span
        char = text[span.start:span.end]
        assert len(char) == 1 and str(err).startswith(f"unexpected character {char!r}")
        assert (span.line, span.column) == _line_and_column(text, span.start)
        parser.tokenize(text[:span.start], keep_newlines=keep_newlines)
        return
    *tokens, eof = tokens
    assert eof.kind == "EOF" and eof.text == ""
    assert (eof.span.start, eof.span.end) == (len(text), len(text))
    assert (eof.span.line, eof.span.column) == _line_and_column(text, len(text))
    end = 0
    for tok in tokens:
        span = tok.span
        assert text[span.start:span.end] == tok.text
        assert (span.line, span.column) == _line_and_column(text, span.start)
        # Between tokens lie only blanks and comments (and dropped newlines).
        gap = r"(?:[ \t\r]|#[^\n]*)*" if keep_newlines else r"(?:[ \t\r\n]|#[^\n]*)*"
        assert re.fullmatch(gap, text[end:span.start])
        end = span.end
        if re.fullmatch(r"[A-Za-z0-9_]+", tok.text):
            assert tok.kind == "IDENT"
        elif tok.text.startswith('"'):
            assert tok.kind == "STRING" and re.fullmatch(r'"[^"\n]*"', tok.text)
        else:
            assert tok.kind == _KINDS[tok.text]
    assert re.fullmatch(r"(?:[ \t\r\n]|#[^\n]*)*", text[end:])


# Each message carries the line and column of the span's start.  A line's own
# end-of-input token has its newline's span; the file's last one is empty.
_PINNED_ERRORS = [
    ("model", "agents: a\nview a: v1 { p\n",
     "expected '}' (line 2, column 15)", (24, 25, 2, 15)),
    ("model", "agents: a\nedge e1 { a v1 }\n",
     "expected ':' (line 2, column 13)", (22, 24, 2, 13)),
    ("model", "agents: a\nmode: weird\n",
     "unknown mode 'weird' (line 2, column 7)", (16, 21, 2, 7)),
    ("model", "agents: a\nview a: v1\nview a: v1\n",
     "duplicate view 'v1' of agent a (line 3, column 9)", (29, 31, 3, 9)),
    ("model", "agents: a\nview a: v1\nedge e1 { a: v1, b: v2 }\n",
     "edge 'e1' mentions unknown agent 'b' (line 3, column 21)", (41, 43, 3, 21)),
    ("model", 'agents: a\nview a: "v1\n',
     "unexpected character '\"' (line 2, column 9)", (18, 19, 2, 9)),
    ("model", "agents: a\n  frobnicate  # why\n",
     "unknown declaration 'frobnicate' (line 2, column 3)", (12, 22, 2, 3)),
    ("model", "agents: a\nedge e1 { a: v1 } env { p\n",
     "expected '}' (line 2, column 26)", (35, 36, 2, 26)),
    ("model", "agents: a\nview a: v\nview b: w\nedge e { a: v }\n",
     "view 'w' declared for unknown agent 'b' (line 3, column 6)", (25, 26, 3, 6)),
    ("frame", "agents: a\nworlds: w1\nclass b: w1\n",
     "class declared for unknown agent 'b' (line 3, column 7)", (27, 28, 3, 7)),
    ("frame", "agents: a\nworlds: w1\nclass a: w1,\n",
     "expected world name (line 3, column 13)", (33, 34, 3, 13)),
    ("frame", "agents: a\nworlds: w1\nenv p: w1\nenv p: w1\n",
     "duplicate 'env p' declaration (line 4, column 1)", (31, 34, 4, 1)),
    ("frame", "agents: a\nworlds: w1 - w2\n",
     "unexpected character '-' (line 2, column 12)", (21, 22, 2, 12)),
    ("derivation", "agents: a\natoms[env]: p\n1. e: p -> ; taut\n",
     "expected a world formula (line 3, column 12)", (35, 36, 3, 12)),
    ("derivation", "agents: a\natoms[env]: p\n1. e: p -> p ; taut\n2. e: p ; mp 1\n",
     "expected premise line number (line 4, column 15)", (58, 59, 4, 15)),
    ("derivation", "agents: a\n1 e: true ; taut\n",
     "expected '.' (line 2, column 3)", (12, 13, 2, 3)),
    ("derivation", "agents: a\natoms[env]: p\n1. e: p -> p ; taut\n3. e: p ; taut\n",
     "expected line number 2, got 3 (line 4, column 1)", (44, 45, 4, 1)),
    ("derivation", "agents: a\r\n1. e: true",
     "expected ';' before the justification (line 2, column 11)", (21, 21, 2, 11)),
]


@pytest.mark.parametrize("fmt, text, message, span", _PINNED_ERRORS)
def test_parse_error_messages_and_spans_are_pinned(fmt, text, message, span):
    with pytest.raises(ParseError) as err:
        getattr(parser, f"parse_{fmt}")(text)
    assert str(err.value) == message
    got = err.value.span
    assert (got.start, got.end, got.line, got.column) == span


# --- model, frame and derivation files, pinned -------------------------------------
#
# tests/data/file_reader_outcomes.txt holds file_reader_outcomes() byte for
# byte, as the token reader that came before the word walk gave them: for
# each group of inputs a ``[group]`` line, then one line per input, a digest
# of its text and its outcome: the error's type, span and message, or
# ``read`` and a digest of what was read.  Print the current text with
# ``PYTHONPATH=src python tests/test_parser.py``.

OUTCOMES = Path(__file__).parent / "data" / "file_reader_outcomes.txt"


def _builtin_model_texts():
    models = {name: hk.example(name) for name in hk.example_names() if name != "card-game"}
    for cards in range(4, 8):
        models[f"card-game-{cards}x3"] = hk.example("card-game", cards=cards, agents=3)
    models["shared-memory-generalized"] = hk.neighborhood.shared_memory_example()
    return {name: parser.render_model(m) for name, m in models.items()}


def _respellings(text):
    """``text`` as other files that read to the same model: a comment, a
    quoted name, tabs, and \\r\\n line ends."""
    quoted = re.sub(r"(view \w+: )(\w+)", r'\1"\2"', text, count=1)
    return [text, text.replace("\n", "  # note\n", 1), quoted,
            text.replace(" ", "\t"), text.replace("\n", "\r\n"),
            text.replace(": ", ":").replace(", ", ","), "\n\n" + text + "   \n"]


_BUILTIN_TEXTS = _builtin_model_texts()
_POOL_TEXTS = [parser.render_model(m) for m in small_model_pool()]

# Every declaration form: in two small model files, one generalized, in a
# frame file, and in a derivation's header lines.
_SMALL_MODELS = {
    "functional": "agents: a, b\natoms[a]: p\natoms[env]: q\nview a: x { p }\nview b: z\n"
                  "edge e { a: x, b: z } env { q }\nedge f { b: z }\n",
    "generalized": "agents: a\natoms[a]: p\nmode: generalized\nview a: x\nview a: y { p }\n"
                   "edge e { a: x, a: y }\n",
}
_SMALL_FRAME = ('agents: a, b\nworlds: w1, "w 2"\nclass a: w1, "w 2"\nclass b: w1\n'
                'class b: "w 2"\nenv p: w1\nenv q:\n')
_DERIVATION_HEADER = 'agents: a, b\natoms[a]: pa\natoms[env]: p, "r s"\n'
_MUTATION_CHARS = ' \t\r\n{}:,[]#"-a_e'


def _mutations(text, upto):
    """``text`` with one character deleted, replaced or inserted at each
    position up to ``upto``."""
    for i in range(upto + 1):
        yield text[:i] + text[i + 1:]
        for c in _MUTATION_CHARS:
            yield text[:i] + c + text[i + 1:]
            yield text[:i] + c + text[i:]


def _pairs(headers, lines):
    for header in (*headers, ""):
        for first in lines:
            yield f"{header}{first}\n"
            for second in lines:
                yield f"{header}{first}\n{second}\n"


def _golden_groups():
    """The golden file's groups: name -> (file format, input texts)."""
    groups = {"model-pairs": ("model", _pairs(MODEL_HEADERS, MODEL_LINES))}
    for name, text in _SMALL_MODELS.items():
        groups[f"model-mutation-{name}"] = ("model", _mutations(text, len(text)))
    for name, text in _BUILTIN_TEXTS.items():
        groups[f"model-respelled-{name}"] = ("model", _respellings(text))
    for i in range(0, len(_POOL_TEXTS), 8):
        groups[f"model-respelled-pool-{i}"] = (
            "model", [v for text in _POOL_TEXTS[i:i + 8] for v in _respellings(text)])
    groups["frame-pairs"] = ("frame", _pairs(FRAME_HEADERS, FRAME_LINES))
    groups["frame-mutation"] = ("frame", _mutations(_SMALL_FRAME, len(_SMALL_FRAME)))
    groups["derivation-header-mutation"] = (
        "derivation", _mutations(_DERIVATION_HEADER + _DERIVATION_BODY, len(_DERIVATION_HEADER)))
    return {name: (fmt, list(dict.fromkeys(texts))) for name, (fmt, texts) in groups.items()}


_GROUPS = _golden_groups()


def _digest(text):
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def _read(fmt, text):
    """What reading ``text`` gives, as text: the model or frame rendered
    with its valuations, or the derivation's record."""
    if fmt == "model":
        m = parser.parse_model(text)
        return repr((type(m).__name__, parser.render_model(m),
                     sorted((a, sorted((atom, sorted(v)) for atom, v in val.items()))
                            for a, val in m.val_agent.items()),
                     sorted((atom, sorted(v)) for atom, v in m.val_env.items())))
    if fmt == "frame":
        fm = parser.parse_frame(text)
        return repr((parser.render_frame(fm), sorted((a, sorted(v)) for a, v in fm.val.items())))
    return repr(parser.parse_derivation(text))


def _outcome(fmt, text):
    try:
        return f"read {_digest(_read(fmt, text))}"
    except HyperknowError as err:
        span = getattr(err, "span", None)
        where = f" {span.start}-{span.end}" if span is not None else ""
        # Escaped, so that a '\r' in a name stays on its line.
        message = str(err).encode("unicode_escape").decode("ascii")
        return f"{type(err).__name__}{where} {message}"


def _group_outcomes(name, fmt, texts):
    return [f"[{name}]", *[f"{_digest(text)} {_outcome(fmt, text)}" for text in texts]]


def file_reader_outcomes() -> str:
    return "".join(line + "\n" for name, (fmt, texts) in _GROUPS.items()
                   for line in _group_outcomes(name, fmt, texts))


@functools.cache
def _golden():
    """The golden file's lines by group, the ``[group]`` lines dropped."""
    groups = {}
    for line in OUTCOMES.read_text(encoding="utf-8").split("\n")[:-1]:
        if line.startswith("["):
            lines = groups[line[1:-1]] = []
        else:
            lines.append(line)
    return groups


def _assert_group_is_pinned(name):
    fmt, texts = _GROUPS[name]
    want = _golden()[name]
    assert len(want) == len(texts)
    for text, line in zip(texts, want):
        assert f"{_digest(text)} {_outcome(fmt, text)}" == line, text


def test_golden_file_holds_every_group_and_input():
    assert {name: [line.split(" ", 1)[0] for line in lines]
            for name, lines in _golden().items()} == \
        {name: [_digest(text) for text in texts] for name, (_, texts) in _GROUPS.items()}


# The model reader agrees with the token reader it replaced, whose outcomes
# the golden file holds.
def test_model_readers_agree_on_every_pair_of_soup_lines():
    _assert_group_is_pinned("model-pairs")


@pytest.mark.parametrize("name", _SMALL_MODELS)
def test_model_readers_agree_on_every_one_character_mutation(name):
    _assert_group_is_pinned(f"model-mutation-{name}")


@pytest.mark.parametrize("name", [*_BUILTIN_TEXTS, *[f"pool-{i}" for i in
                                                     range(0, len(_POOL_TEXTS), 8)]])
def test_model_readers_agree_on_respelled_renderings(name):
    _assert_group_is_pinned(f"model-respelled-{name}")


@pytest.mark.parametrize("name", ["frame-pairs", "frame-mutation", "derivation-header-mutation"])
def test_frame_and_derivation_headers_are_pinned(name):
    _assert_group_is_pinned(name)


def test_word_lines_are_the_texts_of_the_tokens():
    # A file of names and marks is split at its spaced marks, and its words
    # are those of the piece split; either way they are the tokens' texts.
    for _, texts in _GROUPS.values():
        for text in texts:
            lines = parser._lines(text)
            if parser._spaced(text):
                pieces = [parser._piece_words(line) for line in text.split("\n")]
                assert lines == [[*words, ""] for words in pieces if words], text
            try:
                tokens = parser._Lines(text).lines
            except ParseError:
                continue
            assert lines == [[tok.text for tok in line[:-1]] + [""] for line in tokens], text


@pytest.mark.parametrize("name", _BUILTIN_TEXTS)
def test_builtin_renderings_take_the_word_path(name):
    """The benchmarked model files are split at their spaced marks."""
    text = _BUILTIN_TEXTS[name]
    assert parser._spaced(text)
    assert parser.render_model(parser.parse_model(text)) == text


def _assert_reads_back_or_points_into(text):
    """A model's rendering reads back to an equal model; a ``ParseError``
    points into the text, at the line and column it names."""
    try:
        m = parser.parse_model(text)
    except ParseError as err:
        span = err.span
        assert 0 <= span.start <= span.end <= len(text), text
        assert (span.line, span.column) == _line_and_column(text, span.start), text
        return
    except HyperknowError:
        return
    assert parser.parse_model(parser.render_model(m)) == m, text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(MODEL_SOUP)
def test_model_soup_reads_back_or_points_into_the_text(text):
    _assert_reads_back_or_points_into(text)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.sampled_from([v for t in _BUILTIN_TEXTS.values() for v in _respellings(t)])
       | st.sampled_from([v for t in _POOL_TEXTS for v in _respellings(t)]),
       st.sampled_from(("delete", "replace", "insert")), st.floats(0, 1, exclude_max=True),
       st.sampled_from(' \t\r\n{}:,[]#"-ab0_e'))
def test_mutated_renderings_read_back_or_point_into_the_text(text, how, where, char):
    i = int(where * len(text))
    rest = text[i:] if how == "insert" else text[i + 1:]
    _assert_reads_back_or_points_into(text[:i] + ("" if how == "delete" else char) + rest)


if __name__ == "__main__":
    print(file_reader_outcomes(), end="")
