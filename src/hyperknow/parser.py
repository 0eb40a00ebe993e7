"""Surface syntax: tokenizer, precedence parser, and canonical renderer.

The tokenizer is one scan: a single ``findall`` over an alternation of the
token shapes (with a one-character catch-all) cuts the text into pieces,
and one loop names each piece's kind from a table and counts lines and
columns.  A token keeps its offset, line and column; its ``SourceSpan`` is
built only when read, which happens for error reports and formula nodes.
(The command line reads its files through this module and builds its own
argument parser once per process; see ``cli``.)

Formula grammar (tightest first): ``~`` and the modal prefixes, ``&``, ``|``,
``->`` (right-associative; ``&`` and ``|`` associate to the left).  Modal
prefixes: ``E[a]``/``A[a]`` quantify over agent a's views in the current
world, ``<>``/``[]`` quantify over the worlds containing the current view
(the agent is the one owning the enclosing agent sort).  Sugar:
``alive(a)``, ``Ksafe[a]``, ``K[a]`` and ``true``/``false``.  ``?name`` is a
scheme metavariable where those are allowed.

Each of the three sorts (world, agent, KB4) has an operator table
(``_GRAMMARS``): its binary operators with precedence, associativity and
builder, its prefix operators with the sort of their operand, and its
constants, atoms and metavariables.  One precedence-climbing loop reads all
three; parentheses and runs of prefix operators go on an explicit stack, so
nesting depth costs no recursion.

``parse_*`` return well-sorted core formulas with source spans;
``render`` prints canonical text whose re-parse is structurally identical:
one rule table per sort re-introduces the derived connectives greedily,
indexed by node type and first child type so that a node tries only the
rules that can match it, and the renderer works through a stack of text
pieces and subformulas.

The module also reads and writes the model, frame, and derivation file
formats.  Files are line-oriented; ``#`` starts a comment.  Names are bare
tokens or double-quoted strings (quoting is needed for the view names
produced by the frame-to-hypergraph conversion).  A model file of bare names
alone is read by splitting its lines into words, without tokens; every other
file, and every fault, goes through the tokenizer (see ``parse_model``).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from . import proofkernel
from .core import (
    ChromaticHypergraphModel,
    GeneralizedChromaticHypergraph,
    Signature,
    build_generalized_model,
    build_model,
)
from .errors import ParseError, SortError, ValidationError
from .frames import PartialEpistemicModel, build_frame_model
from .syntax import (
    AAnd,
    AFalse,
    AgentAtom,
    AgentFormula,
    AImplies,
    AllViews,
    AMeta,
    ANot,
    AOr,
    ATrue,
    Box,
    EnvAtom,
    KB4And,
    KB4Atom,
    KB4Formula,
    KB4Knows,
    KB4Not,
    PossWorld,
    SomeView,
    SourceSpan,
    WAnd,
    WFalse,
    WImplies,
    WMeta,
    WNot,
    WorldFormula,
    WOr,
    WTrue,
    children,
    desugar,
    sort_check_agent,
    sort_check_kb4,
    sort_check_world,
    walk,
)

# --- tokenizer ---------------------------------------------------------------

# The pieces of the input, tried in this order at each position.  The
# catch-all "." makes the pieces cover the text exactly, so a character that
# no token starts with comes out as a piece of its own.
_PIECE_RE = re.compile(r'\n|[ \t\r]+|#[^\n]*|->|<>|\[\]|[A-Za-z0-9_]+|"[^"\n]*"|.', re.S)
_IDENT_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
# Pieces longer than one character take their kind from their first one...
_RUN_KINDS = {"#": "COMMENT", '"': "STRING", **dict.fromkeys(" \t\r", "WS"),
              **dict.fromkeys(_IDENT_CHARS, "IDENT")}
# ...except the two-character operators, which are listed here with every
# legal one-character piece.  A one-character piece missing here, such as a
# lone '"', '-' or '<', starts no token.
_PIECE_KINDS = {
    **{c: kind for c, kind in _RUN_KINDS.items() if c != '"'},
    "\n": "NL", "->": "ARROW", "<>": "DIAMOND", "[]": "BOX",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE",
    ",": "COMMA", ":": "COLON", ";": "SEMI", ".": "DOT", "~": "TILDE", "&": "AMP",
    "|": "PIPE", "?": "QMARK",
}


class Token:
    """A token: its kind, its text and where it starts.

    ``span`` is built when it is read, which is rare outside error reports
    and formula nodes; it covers the token's text.  The end-of-line token of
    a line-oriented file has its newline as text (``""`` at the end of the
    file), so its span is the newline's.
    """

    __slots__ = ("kind", "text", "start", "line", "column")

    def __init__(self, kind, text, start, line, column):
        self.kind = kind
        self.text = text
        self.start = start
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.start + len(self.text), self.line, self.column)

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str, keep_newlines: bool = False) -> List[Token]:
    """The tokens of ``text``, ending with an ``EOF`` token.  Whitespace and
    comments are dropped, newlines too unless ``keep_newlines``."""
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0
    pos = 0
    for piece in _PIECE_RE.findall(text):
        kind = _PIECE_KINDS.get(piece)
        if kind is None:
            if len(piece) == 1:
                span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
                raise ParseError(f"unexpected character {piece!r}", span)
            kind = _RUN_KINDS[piece[0]]
        if kind == "NL":
            if keep_newlines:
                append(Token("NL", "\n", pos, line, pos - line_start + 1))
            line += 1
            line_start = pos + 1
        elif kind != "WS" and kind != "COMMENT":
            append(Token(kind, piece, pos, line, pos - line_start + 1))
        pos += len(piece)
    append(Token("EOF", "", pos, line, pos - line_start + 1))
    return tokens


# --- formula parsing ----------------------------------------------------------

_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def _ksafe(agent, sub, span):
    return SomeView(agent, Box(sub, span=sub.span), span=span)


def _knows(agent, sub, span):
    # K[a]: knowledge transported to worlds, vacuous where the agent is dead.
    return AllViews(agent, Box(sub, span=sub.span), span=span)


def _kb4_or(left, right, span):
    return KB4Not(KB4And(KB4Not(left, span=left.span), KB4Not(right, span=right.span),
                         span=span), span=span)


def _kb4_implies(left, right, span):
    return KB4Not(KB4And(left, KB4Not(right, span=right.span), span=span), span=span)


def _alive(agent, span):
    return SomeView(agent.text, ATrue(span=agent.span), span=span)


class _Grammar(NamedTuple):
    """What one sort reads.

    ``binary`` maps a token kind to (precedence, right-associative?,
    builder); ``prefix`` maps a token kind to (builder, sort of the operand)
    and ``heads`` does the same for the modal heads written ``NAME[agent]``;
    ``calls`` maps the leaves written ``NAME(agent)`` to their builders; then
    come the constants, and the atom and metavariable node types.
    """

    what: str
    binary: dict
    prefix: dict
    heads: dict
    calls: dict
    constants: dict
    atom: type
    meta: Optional[type]


_GRAMMARS = {
    "world": _Grammar(
        "a world formula",
        {"ARROW": (_PREC_IMP, True, WImplies), "PIPE": (_PREC_OR, False, WOr),
         "AMP": (_PREC_AND, False, WAnd)},
        {"TILDE": (WNot, "world")},
        {"E": (SomeView, "agent"), "A": (AllViews, "agent"),
         "Ksafe": (_ksafe, "world"), "K": (_knows, "world")},
        {"alive": _alive}, {"true": WTrue, "false": WFalse}, EnvAtom, WMeta),
    "agent": _Grammar(
        "an agent formula",
        {"ARROW": (_PREC_IMP, True, AImplies), "PIPE": (_PREC_OR, False, AOr),
         "AMP": (_PREC_AND, False, AAnd)},
        {"TILDE": (ANot, "agent"), "DIAMOND": (PossWorld, "world"), "BOX": (Box, "world")},
        {}, {}, {"true": ATrue, "false": AFalse}, AgentAtom, AMeta),
    "kb4": _Grammar(
        "a KB4 formula",
        {"ARROW": (_PREC_IMP, True, _kb4_implies), "PIPE": (_PREC_OR, False, _kb4_or),
         "AMP": (_PREC_AND, False, KB4And)},
        {"TILDE": (KB4Not, "kb4")},
        {"K": (KB4Knows, "kb4")}, {}, {}, KB4Atom, None),
}


class _Frame:
    """One level of the parse: the top, or the inside of a parenthesis.

    ``operators`` holds the binary operators not yet applied, ``prefixes``
    the prefix operators waiting for the next operand, innermost last, as
    (builder, (agent,) or (), first token, sort of the operand).
    """

    __slots__ = ("sort", "operands", "operators", "prefixes")

    def __init__(self, sort):
        self.sort = sort
        self.operands = []
        self.operators = []
        self.prefixes = []

    def reduce(self, above):
        """Apply the pending binary operators that bind tighter than ``above``."""
        operands, operators = self.operands, self.operators
        while operators and operators[-1][0] > above:
            _, build = operators.pop()
            right = operands.pop()
            left = operands[-1]
            operands[-1] = build(left, right, span=_join(left.span, right.span))


class _FormulaParser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        # Every token list ends with EOF, ``advance`` stops there, and the
        # parser looks one token ahead only past an IDENT, so this is in range.
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        """Consume a token of ``kind``, which is never ``EOF``."""
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.span)
        self.pos += 1
        return tok

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.span)

    def formula(self, sort: str):
        """Read a formula of ``sort`` (``"world"``, ``"agent"`` or ``"kb4"``)
        and stop before the first token that cannot continue it.

        Precedence climbing: ``~`` and the modal prefixes bind tightest,
        then ``&``, ``|`` and ``->`` (right-associative).  Parentheses open a
        new frame on an explicit stack, so nesting depth costs no recursion.
        """
        outer = []
        frame = _Frame(sort)
        while True:
            # Operand position: prefix operators, then a leaf or a '('.
            prefixes = frame.prefixes
            g = _GRAMMARS[prefixes[-1][3] if prefixes else frame.sort]
            tok = self.peek()
            if tok.kind in g.prefix:
                self.advance()
                build, operand = g.prefix[tok.kind]
                prefixes.append((build, (), tok, operand))
                continue
            if tok.kind == "IDENT" and tok.text in g.heads and self.peek(1).kind == "LBRACK":
                self.advance()
                self.advance()
                agent = self.expect("IDENT", "agent name")
                self.expect("RBRACK", "']'")
                build, operand = g.heads[tok.text]
                prefixes.append((build, (agent.text,), tok, operand))
                continue
            if tok.kind == "LPAREN":
                self.advance()
                outer.append(frame)
                frame = _Frame(prefixes[-1][3] if prefixes else frame.sort)
                continue
            node = self._leaf(g, tok)
            while True:
                # A complete operand: apply the waiting prefixes, then look
                # for a binary operator of the frame's sort.
                prefixes = frame.prefixes
                while prefixes:
                    build, agent, head, _ = prefixes.pop()
                    node = build(*agent, node, span=_join(head.span, node.span))
                frame.operands.append(node)
                op = _GRAMMARS[frame.sort].binary.get(self.peek().kind)
                if op is not None:
                    prec, right_assoc, build = op
                    frame.reduce(prec if right_assoc else prec - 1)
                    frame.operators.append((prec, build))
                    self.advance()
                    break
                frame.reduce(0)
                node = frame.operands[0]
                if not outer:
                    return node
                self.expect("RPAREN", "')'")
                frame = outer.pop()

    def _leaf(self, g: _Grammar, tok: Token):
        if tok.kind == "QMARK" and g.meta is not None:
            self.advance()
            name = self.expect("IDENT", "metavariable name")
            return g.meta(name.text, span=_join(tok.span, name.span))
        if tok.kind != "IDENT":
            raise ParseError(f"expected {g.what}", tok.span)
        if tok.text in g.calls and self.peek(1).kind == "LPAREN":
            self.advance()
            self.advance()
            agent = self.expect("IDENT", "agent name")
            close = self.expect("RPAREN", "')'")
            return g.calls[tok.text](agent, _join(tok.span, close.span))
        self.advance()
        if tok.text in g.constants:
            return g.constants[tok.text](span=tok.span)
        return g.atom(tok.text, span=tok.span)


def _join(a: Optional[SourceSpan], b: Optional[SourceSpan]) -> Optional[SourceSpan]:
    if a is None:
        return b
    if b is None:
        return a
    return SourceSpan(a.start, b.end, a.line, a.column)


def _parse(text: str, sort: str):
    p = _FormulaParser(tokenize(text))
    raw = p.formula(sort)
    p.expect_eof()
    return raw


def parse_world(text: str, sig: Signature, allow_metas: bool = False) -> WorldFormula:
    raw = _parse(text, "world")
    sort_check_world(raw, sig, allow_metas=allow_metas)
    return desugar(raw)


def parse_agent(text: str, agent: str, sig: Signature, allow_metas: bool = False) -> AgentFormula:
    raw = _parse(text, "agent")
    sort_check_agent(raw, agent, sig, allow_metas=allow_metas)
    return desugar(raw)


def parse_kb4(text: str, sig: Signature) -> KB4Formula:
    raw = _parse(text, "kb4")
    sort_check_kb4(raw, sig)
    return raw


def parse_world_inferring(text: str, agents: Tuple[str, ...]):
    """Parse a world formula, declaring unknown atoms by their position.

    Returns ``(formula, signature)``, the formula sort-checked but as parsed,
    derived connectives and all: its one consumer, the countermodel search,
    compiles them directly and re-validates its witness with the evaluator,
    which has clauses for them, so desugaring would only cost a walk.
    Convenient for CLI invocations that supply a formula without a model
    file.
    """
    raw = _parse(text, "world")
    env_atoms: List[str] = []
    agent_atoms = {a: [] for a in agents}
    for f, sort in walk(raw, "world"):
        match f:
            case EnvAtom(n):
                if n in env_atoms:
                    continue
                for a, lst in agent_atoms.items():
                    if n in lst:
                        raise SortError(
                            f"atom '{n}' used both for agent {a} and the environment",
                            node=f)
                env_atoms.append(n)
            case AgentAtom(n):
                for a, lst in agent_atoms.items():
                    if n in lst and a != sort:
                        raise SortError(
                            f"atom '{n}' used for two different agents", node=f)
                if n in env_atoms:
                    raise SortError(
                        f"atom '{n}' used both for the environment and agent {sort}",
                        node=f)
                if n not in agent_atoms[sort]:
                    agent_atoms[sort].append(n)
            case SomeView(a, _) | AllViews(a, _):
                if a not in agent_atoms:
                    raise SortError(f"unknown agent '{a}'", node=f)
    sig = Signature(tuple(agents),
                    {a: tuple(v) for a, v in agent_atoms.items()},
                    tuple(env_atoms))
    sort_check_world(raw, sig)
    return raw, sig


# --- rendering ----------------------------------------------------------------
#
# Rules per sort and node type, tried in order, greedily re-introduce the
# derived connectives.  A pattern is (type, sub-pattern, ...) over the node's
# children; a string names the child found there.  A rule gives the
# precedence of its text (None: never parenthesized) and its pieces: text, in
# which "{a}" is the agent of the outermost view quantifier and "{n}" the
# name of an atom or metavariable, or (child name, precedence of its place).


def _connectives(Not, And):
    return {
        Not: [
            ((Not, (And, (Not, "l"), (Not, "r"))), _PREC_OR,
             (("l", _PREC_OR), " | ", ("r", _PREC_OR + 1))),
            ((Not, (And, "l", (Not, "r"))), _PREC_IMP,
             (("l", _PREC_IMP + 1), " -> ", ("r", _PREC_IMP))),
            ((Not, "x"), None, ("~", ("x", _PREC_UNARY))),
        ],
        And: [((And, "l", "r"), _PREC_AND, (("l", _PREC_AND), " & ", ("r", _PREC_AND + 1)))],
    }


def _prefixed(text, pattern):
    return (pattern, None, (text, ("x", _PREC_UNARY)))


def _leaf_rule(cls, text):
    return {cls: [((cls,), None, (text,))]}


_WORLD_RULES = {
    **_leaf_rule(WTrue, "true"), **_leaf_rule(WFalse, "false"),
    **_leaf_rule(EnvAtom, "{n}"), **_leaf_rule(WMeta, "?{n}"),
    **_connectives(WNot, WAnd),
    SomeView: [
        ((SomeView, (ATrue,)), None, ("alive({a})",)),
        _prefixed("Ksafe[{a}] ", (SomeView, (ANot, (PossWorld, (WNot, "x"))))),
        _prefixed("E[{a}] ", (SomeView, "x")),
    ],
}
_WORLD_RULES[WNot] = [
    _prefixed("K[{a}] ", (WNot, (SomeView, (ANot, (ANot, (PossWorld, (WNot, "x"))))))),
    _prefixed("A[{a}] ", (WNot, (SomeView, (ANot, "x")))),
] + _WORLD_RULES[WNot]

_AGENT_RULES = {
    **_leaf_rule(ATrue, "true"), **_leaf_rule(AFalse, "false"),
    **_leaf_rule(AgentAtom, "{n}"), **_leaf_rule(AMeta, "?{n}"),
    **_connectives(ANot, AAnd),
    PossWorld: [_prefixed("<> ", (PossWorld, "x"))],
}
_AGENT_RULES[ANot] = [_prefixed("[] ", (ANot, (PossWorld, (WNot, "x"))))] + _AGENT_RULES[ANot]

_KB4_RULES = {
    **_leaf_rule(KB4Atom, "{n}"),
    **_connectives(KB4Not, KB4And),
    KB4Knows: [_prefixed("K[{a}] ", (KB4Knows, "x"))],
}


class _RuleIndex(dict):
    """One sort's rules keyed by (node type, type of the node's first child,
    None for a leaf): a rule is listed only where its pattern can match, so
    a node whose first child rules a pattern out costs that rule nothing."""

    def __init__(self, rules):
        super().__init__()
        self.rules = rules

    def __missing__(self, key):
        node_type, child_type = key
        fits = self[key] = [rule for rule in self.rules.get(node_type, ())
                            if len(rule[0]) < 2 or isinstance(rule[0][1], str)
                            or rule[0][1][0] is child_type]
        return fits


# Keyed by sort: "world", any agent, and None for KB4 (whose nodes keep it).
_RULES = {"world": (_RuleIndex(_WORLD_RULES), "not a core world formula"),
          "agent": (_RuleIndex(_AGENT_RULES), "not a core agent formula"),
          None: (_RuleIndex(_KB4_RULES), "not a KB4 formula")}


def render(f) -> str:
    """Canonical text for a formula of any sort.

    Derived connectives are re-introduced greedily; the output re-parses to a
    structurally identical formula.
    """
    f = desugar(f)
    if isinstance(f, WorldFormula):
        sort = "world"
    elif isinstance(f, AgentFormula):
        sort = "agent"
    elif isinstance(f, KB4Formula):
        sort = None
    else:
        raise TypeError(f"not a formula: {f!r}")
    out = []
    todo = [(f, sort, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, s, ctx = item
        rules, error = _RULES[s if s is None or s == "world" else "agent"]
        kids = children(node, s)
        for pattern, prec, pieces in rules[type(node), type(kids[0][0]) if kids else None]:
            binds = _match(pattern, node, kids)
            if binds is not None:
                break
        else:
            raise TypeError(f"{error}: {node!r}")
        parts = [piece.format_map(binds) if isinstance(piece, str)
                 else (*binds[piece[0]], piece[1]) for piece in pieces]
        if prec is not None and prec < ctx:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


def _match(pattern, node, kids):
    """The bindings of a rendering pattern at ``node``, whose type the
    pattern's head already is, or None.  ``kids`` are the node's children."""
    binds = {"n": getattr(node, "name", None)}
    if isinstance(node, (SomeView, KB4Knows)):
        binds["a"] = node.agent
    todo = [(sub, c, cs) for sub, (c, cs) in zip(pattern[1:], kids)]
    while todo:
        pat, n, s = todo.pop()
        if isinstance(pat, str):
            binds[pat] = (n, s)
            continue
        if type(n) is not pat[0]:
            return None
        if "a" not in binds and isinstance(n, (SomeView, KB4Knows)):
            binds["a"] = n.agent
        todo.extend((sub, c, cs) for sub, (c, cs) in zip(pat[1:], children(n, s)))
    return binds


# --- line-oriented files ------------------------------------------------------


class _Lines:
    """Tokenized file split at newlines, comments stripped."""

    def __init__(self, text: str):
        tokens = tokenize(text, keep_newlines=True)
        self.lines: List[List[Token]] = []
        current: List[Token] = []
        for tok in tokens:
            if tok.kind == "NL" or tok.kind == "EOF":
                if current:
                    # The line's EOF is its newline (or the end of the file).
                    current.append(Token("EOF", tok.text, tok.start, tok.line, tok.column))
                    self.lines.append(current)
                    current = []
            else:
                current.append(tok)


def _name_token(p: _FormulaParser, what: str) -> Tuple[str, Token]:
    tok = p.peek()
    if tok.kind == "IDENT":
        p.advance()
        return tok.text, tok
    if tok.kind == "STRING":
        p.advance()
        return tok.text[1:-1], tok
    raise ParseError(f"expected {what}", tok.span)


def _name_list(p: _FormulaParser, what: str, allow_empty: bool = False) -> List[str]:
    if allow_empty and p.peek().kind == "EOF":
        return []
    names = [_name_token(p, what)[0]]
    while p.peek().kind == "COMMA":
        p.advance()
        names.append(_name_token(p, what)[0])
    return names


class _Header:
    """The signature header that model and derivation files share: one
    ``agents:`` line and at most one ``atoms[owner]:`` line per owner."""

    def __init__(self):
        self.agents: Optional[List[str]] = None
        self.atoms = {}     # owner -> (names, span of the line)

    def read(self, p: _FormulaParser, head: Token):
        """Read the ``agents:`` or ``atoms[...]:`` line that ``head`` starts."""
        p.advance()
        if head.text == "agents":
            p.expect("COLON", "':'")
            if self.agents is not None:
                raise ParseError("duplicate 'agents' declaration", head.span)
            self.agents = _name_list(p, "agent name")
            p.expect_eof()
            return
        p.expect("LBRACK", "'['")
        owner = p.expect("IDENT", "agent name or 'env'").text
        p.expect("RBRACK", "']'")
        p.expect("COLON", "':'")
        names = _name_list(p, "atom name")
        p.expect_eof()
        if owner in self.atoms:
            raise ParseError(f"duplicate 'atoms[{owner}]' declaration", head.span)
        self.atoms[owner] = (names, head.span)

    def signature(self) -> Signature:
        if self.agents is None:
            raise ParseError("missing 'agents' declaration", SourceSpan(0, 0, 1, 1))
        for owner, (_, span) in self.atoms.items():
            if owner != "env" and owner not in self.agents:
                raise ParseError(f"atoms declared for unknown agent '{owner}'", span)
        return _signature(self.agents, {owner: names for owner, (names, _) in self.atoms.items()})


def _signature(agents, atoms) -> Signature:
    """The signature of an ``agents:`` list and the ``atoms[owner]:`` lists."""
    return Signature(tuple(agents), {a: tuple(atoms.get(a, ())) for a in agents},
                     tuple(atoms.get("env", ())))


def parse_model(text: str):
    """Read the model file format.

    Returns a :class:`ChromaticHypergraphModel`, or a generalized model when
    the file declares ``mode: generalized`` (which permits several views of
    one agent in the same edge).

    A file of bare names and ``{ } : , [ ]`` alone, which is what
    ``render_model`` writes for bare names, is read by words and never
    tokenized.  Any other file, and any file the word reader finds a fault
    in, is read by the token reader, which makes every error report.
    """
    if _WORD_FILE_RE.fullmatch(text):
        try:
            model = _model_by_words(text)
        except ValidationError:
            model = None
        if model is not None:
            return model
    return _model_by_tokens(text)


# The characters of a file the word reader takes.  Spaced at its marks, such
# a file splits into words that are each a bare name or one mark.
_WORD_FILE_RE = re.compile(r"[A-Za-z0-9_ \t\r\n{}:,\[\]]*")
_MARKS = frozenset("{}:,[]")


def _word_names(words):
    """The names of ``name , name , ... , name``, or None for other words."""
    names = words[::2]
    if (len(words) % 2 and words[1::2].count(",") == len(words) // 2
            and _MARKS.isdisjoint(names)):
        return names
    return None


def _model_by_words(text: str):
    """The model of a file of bare names and marks, read by words, or None
    where a line or a check does not fit; then the token reader reads it.

    It accepts only files that the token reader accepts, with the same
    result.  Duplicate views and edges, and edges naming an unknown agent,
    fail the builder's checks with ``ValidationError``, so only the faults
    the builder cannot see are checked here.  An agent or owner that is a
    mark is never a declared agent.
    """
    for mark in "{}:,[]":
        text = text.replace(mark, f" {mark} ")
    agents = None
    atoms = {}              # owner -> [name, ...]
    generalized = False
    views = {}              # agent -> [view, ...]
    view_atoms = []         # (agent, view, [atom, ...], None)
    edges = []
    edge_views = []         # (edge, agent, view, None)
    edge_env = []           # (edge, [atom, ...])
    for line in text.split("\n"):
        words = line.split()
        if not words:
            continue
        head = words[0]
        if head == "view":
            # view A : V   or   view A : V { names }
            if len(words) < 4 or words[2] != ":" or words[3] in _MARKS:
                return None
            names = []
            if len(words) > 4:
                if words[4] != "{" or words[-1] != "}":
                    return None
                names = _word_names(words[5:-1])
                if names is None:
                    return None
            views.setdefault(words[1], []).append(words[3])
            view_atoms.append((words[1], words[3], names, None))
        elif head == "edge":
            # edge E { A : V , ... , A : V }   then optionally   env { names }
            close = words.index("}") if "}" in words else 0
            if close < 3:
                return None
            ename, body, rest = words[1], words[3:close], words[close + 1:]
            k = (len(body) + 1) // 4
            if (words[2] != "{" or ename in _MARKS
                    or len(body) % 4 != 3 or body[1::4].count(":") != k
                    or body[3::4].count(",") != k - 1 or not _MARKS.isdisjoint(body[::2])):
                return None
            agents_here = body[::4]
            if not generalized and len(set(agents_here)) != k:
                return None
            if rest:
                names = _word_names(rest[2:-1])
                if rest[:2] != ["env", "{"] or rest[-1] != "}" or names is None:
                    return None
                edge_env.append((ename, names))
            edges.append(ename)
            edge_views += [(ename, a, v, None) for a, v in zip(agents_here, body[2::4])]
        elif head == "atoms":
            # atoms [ O ] : names
            names = _word_names(words[5:])
            if names is None or words[1] != "[" or words[3:5] != ["]", ":"] or words[2] in atoms:
                return None
            atoms[words[2]] = names
        elif head == "agents":
            if agents is not None or words[1:2] != [":"]:
                return None
            agents = _word_names(words[2:])
            if agents is None:
                return None
        elif words == ["mode", ":", "generalized"]:
            generalized = True
        else:
            return None
    if agents is None or not atoms.keys() - {"env"} <= set(agents):
        return None
    sig = _signature(agents, atoms)
    if not views.keys() <= set(sig.agents):
        return None
    return _model_from(sig, generalized, views, edges, view_atoms, edge_views, edge_env)


def _model_by_tokens(text: str):
    """The model of a file in the model format, read token by token; every
    fault in the file is reported from here."""
    header = _Header()
    generalized = False
    views = {}          # agent -> [view, ...]
    seen_views = set()  # (agent, view)
    view_atoms = []     # (agent, view, [atom, ...], agent token)
    edges = []          # edge name in declaration order
    seen_edges = set()
    edge_views = []     # (edge, agent, view, view token)
    edge_env = []       # (edge, [atom, ...])

    for line in _Lines(text).lines:
        p = _FormulaParser(line)
        head = p.peek()
        if head.kind != "IDENT":
            raise ParseError("expected a declaration", head.span)
        if head.text in ("agents", "atoms"):
            header.read(p, head)
        elif head.text == "mode":
            p.advance()
            p.expect("COLON", "':'")
            mode = p.expect("IDENT", "mode name")
            p.expect_eof()
            if mode.text != "generalized":
                raise ParseError(f"unknown mode '{mode.text}'", mode.span)
            generalized = True
        elif head.text == "view":
            p.advance()
            atok = p.expect("IDENT", "agent name")
            agent = atok.text
            p.expect("COLON", "':'")
            vname, vtok = _name_token(p, "view name")
            atoms = []
            if p.peek().kind == "LBRACE":
                p.advance()
                atoms = _name_list(p, "atom name")
                p.expect("RBRACE", "'}'")
            p.expect_eof()
            if (agent, vname) in seen_views:
                raise ParseError(f"duplicate view '{vname}' of agent {agent}", vtok.span)
            seen_views.add((agent, vname))
            views.setdefault(agent, []).append(vname)
            view_atoms.append((agent, vname, atoms, atok))
        elif head.text == "edge":
            p.advance()
            ename, etok = _name_token(p, "edge name")
            if ename in seen_edges:
                raise ParseError(f"duplicate edge label '{ename}'", etok.span)
            seen_edges.add(ename)
            edges.append(ename)
            p.expect("LBRACE", "'{'")
            seen_agents = set()
            while True:
                agent = p.expect("IDENT", "agent name").text
                p.expect("COLON", "':'")
                vname, vtok = _name_token(p, "view name")
                if agent in seen_agents and not generalized:
                    raise ParseError(
                        f"agent {agent} listed twice in edge {ename} "
                        "(only legal under 'mode: generalized')", vtok.span)
                seen_agents.add(agent)
                edge_views.append((ename, agent, vname, vtok))
                if p.peek().kind == "COMMA":
                    p.advance()
                    continue
                break
            p.expect("RBRACE", "'}'")
            if p.peek().kind == "IDENT" and p.peek().text == "env":
                p.advance()
                p.expect("LBRACE", "'{'")
                atoms = _name_list(p, "atom name")
                p.expect("RBRACE", "'}'")
                edge_env.append((ename, atoms))
            p.expect_eof()
        else:
            raise ParseError(f"unknown declaration '{head.text}'", head.span)

    sig = header.signature()
    for agent, vname, _, atok in view_atoms:
        if agent not in sig.agents:
            raise ParseError(f"view '{vname}' declared for unknown agent '{agent}'",
                             atok.span)
    for ename, agent, vname, vtok in edge_views:
        if agent not in sig.agents:
            raise ParseError(f"edge '{ename}' mentions unknown agent '{agent}'", vtok.span)
    return _model_from(sig, generalized, views, edges, view_atoms, edge_views, edge_env)


def _model_from(sig, generalized, views, edges, view_atoms, edge_views, edge_env):
    """Build the model that either reader has read."""
    val_agent = {a: {atom: set() for atom in sig.atoms_for(a)} for a in sig.agents}
    for agent, vname, atoms, _ in view_atoms:
        for atom in atoms:
            val_agent.setdefault(agent, {}).setdefault(atom, set()).add(vname)
    val_env = {atom: set() for atom in sig.env_atoms}
    for ename, atoms in edge_env:
        for atom in atoms:
            val_env.setdefault(atom, set()).add(ename)

    if generalized:
        incidence = {}
        for ename, agent, vname, _ in edge_views:
            incidence.setdefault((ename, agent), []).append(vname)
        return build_generalized_model(
            sig, views, tuple(edges),
            {k: tuple(v) for k, v in incidence.items()},
            val_agent, val_env)

    proj = {}
    for ename, agent, vname, _ in edge_views:
        proj[(ename, agent)] = vname
    return build_model(sig, views, tuple(edges), proj, val_agent, val_env)


def parse_frame(text: str) -> PartialEpistemicModel:
    """Read the frame file format: worlds, per-agent equivalence classes,
    and optional environment valuations."""
    header = _Header()
    worlds: Optional[List[str]] = None
    classes = []      # (agent, [world, ...], agent token)
    env_lines = []    # (atom, [world, ...])
    env_atoms = set()

    for line in _Lines(text).lines:
        p = _FormulaParser(line)
        head = p.peek()
        if head.kind != "IDENT":
            raise ParseError("expected a declaration", head.span)
        if head.text == "agents":
            header.read(p, head)
        elif head.text == "worlds":
            p.advance()
            p.expect("COLON", "':'")
            if worlds is not None:
                raise ParseError("duplicate 'worlds' declaration", head.span)
            worlds = _name_list(p, "world name")
            p.expect_eof()
        elif head.text == "class":
            p.advance()
            atok = p.expect("IDENT", "agent name")
            p.expect("COLON", "':'")
            members = _name_list(p, "world name")
            p.expect_eof()
            classes.append((atok.text, members, atok))
        elif head.text == "env":
            p.advance()
            atom = p.expect("IDENT", "atom name").text
            p.expect("COLON", "':'")
            members = _name_list(p, "world name", allow_empty=True)
            p.expect_eof()
            if atom in env_atoms:
                raise ParseError(f"duplicate 'env {atom}' declaration", head.span)
            env_atoms.add(atom)
            env_lines.append((atom, members))
        else:
            raise ParseError(f"unknown declaration '{head.text}'", head.span)

    agents = header.agents
    if agents is None:
        raise ParseError("missing 'agents' declaration", SourceSpan(0, 0, 1, 1))
    if worlds is None:
        raise ParseError("missing 'worlds' declaration", SourceSpan(0, 0, 1, 1))
    class_map = {a: [] for a in agents}
    for agent, members, atok in classes:
        if agent not in class_map:
            raise ParseError(f"class declared for unknown agent '{agent}'", atok.span)
        class_map[agent].append(tuple(members))
    atoms = tuple(atom for atom, _ in env_lines)
    val = {atom: frozenset(members) for atom, members in env_lines}
    return build_frame_model(tuple(agents), tuple(worlds), class_map, atoms, val)


def parse_derivation(text: str) -> proofkernel.Derivation:
    """Read a derivation file: signature header plus numbered proof lines.

    Line format: ``k. <sort>: <formula> ; <rule> [premise indices]`` where
    the sort is ``e`` for world statements or an agent name.
    """
    header = _Header()
    lines = []

    sig = None
    for raw_line in _Lines(text).lines:
        p = _FormulaParser(raw_line)
        head = p.peek()
        if head.kind == "IDENT" and (head.text, p.peek(1).kind) in (
                ("agents", "COLON"), ("atoms", "LBRACK")):
            if lines:
                raise ParseError("signature header must precede the numbered lines",
                                 head.span)
            header.read(p, head)
            if "e" in (header.agents or ()):
                raise ParseError(
                    "agent name 'e' conflicts with the world sort marker", head.span)
            continue
        # A numbered derivation line.
        if header.agents is None:
            raise ParseError("derivation lines must follow an 'agents' declaration",
                             head.span)
        if sig is None:
            sig = header.signature()
        idx_tok = p.expect("IDENT", "line number")
        if not idx_tok.text.isdigit():
            raise ParseError("expected a line number", idx_tok.span)
        index = int(idx_tok.text)
        if index != len(lines) + 1:
            raise ParseError(
                f"expected line number {len(lines) + 1}, got {index}", idx_tok.span)
        p.expect("DOT", "'.'")
        sort_tok = p.expect("IDENT", "sort ('e' or an agent name)")
        sort = sort_tok.text
        if sort != "e" and sort not in sig.agents:
            raise ParseError(f"unknown sort '{sort}'", sort_tok.span)
        p.expect("COLON", "':'")
        if sort == "e":
            raw = p.formula("world")
            sort_check_world(raw, sig)
        else:
            raw = p.formula("agent")
            sort_check_agent(raw, sort, sig)
        formula = desugar(raw)
        p.expect("SEMI", "';' before the justification")
        just = _parse_justification(p)
        p.expect_eof()
        lines.append(proofkernel.DerivationLine(
            index=index,
            statement=proofkernel.Statement(sort, formula),
            justification=just,
            span=idx_tok.span,
        ))

    if sig is None:
        sig = header.signature()
    return proofkernel.Derivation(sig=sig, lines=tuple(lines))


# Rule keyword -> (justification class, its fixed arguments): the premise
# line numbers fill the class's other fields, first.
_JUSTIFICATIONS = {
    "taut": (proofkernel.PropTaut,),
    "mp": (proofkernel.MP,),
    "ax_surj": (proofkernel.AxSurjectivity,),
    "ax_fun": (proofkernel.AxFunctionality,),
    "ax_ne": (proofkernel.AxNonEmptiness,),
    "nec_a": (proofkernel.NecA,),
    "nec_e": (proofkernel.NecE,),
    "rm_diam": (proofkernel.RM, "diamond"),
    "rm_box": (proofkernel.RM, "box"),
    "rm_some": (proofkernel.RMPrime, "some"),
    "rm_all": (proofkernel.RMPrime, "all"),
    "adj1_down": (proofkernel.Adj1Down,),
    "adj1_up": (proofkernel.Adj1Up,),
    "adj2_down": (proofkernel.Adj2Down,),
    "adj2_up": (proofkernel.Adj2Up,),
}


def _parse_justification(p: _FormulaParser):
    tok = p.expect("IDENT", "rule name")
    if tok.text not in _JUSTIFICATIONS:
        raise ParseError(f"unknown rule '{tok.text}'", tok.span)
    cls, *fixed = _JUSTIFICATIONS[tok.text]
    premises = [_premise_index(p) for _ in range(len(cls.__match_args__) - len(fixed))]
    return cls(*premises, *fixed)


def _premise_index(p: _FormulaParser) -> int:
    tok = p.expect("IDENT", "premise line number")
    if not tok.text.isdigit():
        raise ParseError("expected a premise line number", tok.span)
    return int(tok.text)


# --- rendering files ----------------------------------------------------------

_BARE_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _quote(name: str) -> str:
    if _BARE_NAME_RE.match(name):
        return name
    if '"' in name or "\n" in name:
        raise ValueError(f"name cannot be written in the file format: {name!r}")
    return f'"{name}"'


def render_model(m) -> str:
    """Canonical model file text; re-parses to an equal model."""
    if not isinstance(m, ChromaticHypergraphModel):
        raise TypeError(f"not a model: {m!r}")
    sig, h = m.sig, m.hypergraph
    out = []
    out.append("agents: " + ", ".join(sig.agents))
    for a in sig.agents:
        atoms = sig.atoms_for(a)
        if atoms:
            out.append(f"atoms[{a}]: " + ", ".join(atoms))
    if sig.env_atoms:
        out.append("atoms[env]: " + ", ".join(sig.env_atoms))
    if isinstance(h, GeneralizedChromaticHypergraph):
        out.append("mode: generalized")
    for a in sig.agents:
        for v in h.views.get(a, ()):
            atoms = [atom for atom in sig.atoms_for(a) if v in m.val_agent[a][atom]]
            line = f"view {a}: {_quote(v)}"
            if atoms:
                line += " { " + ", ".join(atoms) + " }"
            out.append(line)
    for e in h.edges:
        entries = []
        for a in sig.agents:
            for v in h.views_in(e, a):
                entries.append(f"{a}: {_quote(v)}")
        line = f"edge {_quote(e)} {{ " + ", ".join(entries) + " }"
        env = [atom for atom in sig.env_atoms if e in m.val_env[atom]]
        if env:
            line += " env { " + ", ".join(env) + " }"
        out.append(line)
    return "\n".join(out) + "\n"


def render_frame(fm: PartialEpistemicModel) -> str:
    """Canonical frame file text; re-parses to an equal frame model."""
    fr = fm.frame
    out = ["agents: " + ", ".join(fr.agents)]
    out.append("worlds: " + ", ".join(_quote(w) for w in fr.worlds))
    for a in fr.agents:
        for cls in fr.classes[a]:
            out.append(f"class {a}: " + ", ".join(_quote(w) for w in cls))
    for atom in fm.atoms:
        members = [w for w in fr.worlds if w in fm.val[atom]]
        out.append(f"env {atom}: " + ", ".join(_quote(w) for w in members))
    return "\n".join(out) + "\n"
