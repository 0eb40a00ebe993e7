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
``parse_world_inferring`` declares the atoms it meets and checks the
formula in the same single walk.  ``render`` prints canonical text whose
re-parse is structurally identical; it takes a formula's sort from
``syntax.sort_of`` and reads ``_GRAMMARS`` backwards, so each surface form
is stated once, for reading and writing alike: at import, every form of a
sort is built by its row's builder on metavariables and desugared, which
gives the core shape it stands for, and its metavariables become pattern
variables.  At each node the renderer writes the first form whose shape
``syntax.match`` finds there (the order is stated at ``_Grammar``), trying
only the forms whose node type and first child type fit, and it works
through a stack of text pieces and subformulas.

The module also reads and writes the model, frame, and derivation file
formats.  Files are line-oriented; ``#`` starts a comment.  Names are bare
tokens or double-quoted strings (quoting is needed for the view names
produced by the frame-to-hypergraph conversion).  Model and frame files,
and the header lines of derivation files, are read by one walk over each
line's words, the texts its tokens have, without building tokens: a file of
bare names and ``{ } : , [ ]`` alone is spaced at those marks and split
with ``str.split``, any other file is split by the tokenizer's piece shapes.
Only when the walk finds a fault is the file tokenized, for its span.
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
from .errors import ParseError, SortError
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
    Var,
    alive,
    children,
    desugar,
    ksafe,
    kunsafe,
    match,
    sort_check_agent,
    sort_check_kb4,
    sort_check_world,
    sort_of,
    substitute_metas,
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


def _kb4_or(left, right, span):
    return KB4Not(KB4And(KB4Not(left, span=left.span), KB4Not(right, span=right.span),
                         span=span), span=span)


def _kb4_implies(left, right, span):
    return KB4Not(KB4And(left, KB4Not(right, span=right.span), span=span), span=span)


class _Grammar(NamedTuple):
    """What one sort reads.

    ``binary`` maps a token kind to (precedence, right-associative?,
    builder); ``prefix`` maps a token kind to (builder, sort of the operand)
    and ``heads`` does the same for the modal heads written ``NAME[agent]``;
    ``calls`` maps the leaves written ``NAME(agent)`` to their builders; then
    come the constants, and the atom and metavariable node types.

    ``render`` reads the tables backwards and writes, at each node, the
    first form that fits: it tries the calls, then the heads, the binary
    operators, the prefixes, the constants, and last the atom and the
    metavariable, each table in its order.  So a form whose core shape is an
    instance of another's comes first: ``K`` before ``A``, ``Ksafe`` before
    ``E``, ``|`` before ``->``, ``[]`` before ``~``.
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
        {"PIPE": (_PREC_OR, False, WOr), "ARROW": (_PREC_IMP, True, WImplies),
         "AMP": (_PREC_AND, False, WAnd)},
        {"TILDE": (WNot, "world")},
        {"Ksafe": (ksafe, "world"), "E": (SomeView, "agent"),
         "K": (kunsafe, "world"), "A": (AllViews, "agent")},
        {"alive": alive}, {"true": WTrue, "false": WFalse}, EnvAtom, WMeta),
    "agent": _Grammar(
        "an agent formula",
        {"PIPE": (_PREC_OR, False, AOr), "ARROW": (_PREC_IMP, True, AImplies),
         "AMP": (_PREC_AND, False, AAnd)},
        {"BOX": (Box, "world"), "TILDE": (ANot, "agent"), "DIAMOND": (PossWorld, "world")},
        {}, {}, {"true": ATrue, "false": AFalse}, AgentAtom, AMeta),
    "kb4": _Grammar(
        "a KB4 formula",
        {"PIPE": (_PREC_OR, False, _kb4_or), "ARROW": (_PREC_IMP, True, _kb4_implies),
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
            return g.calls[tok.text](agent.text, span=_join(tok.span, close.span))
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

    One walk reads the formula: the parser puts each node at its sort, so
    the atoms and agents are all it must check, and a metavariable, which
    is never allowed here, is reported only after them.
    """
    raw = _parse(text, "world")
    env_atoms: List[str] = []
    agent_atoms = {a: [] for a in agents}
    meta = None     # the first metavariable, reported once every atom is read
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
            case WMeta() | AMeta():
                if meta is None:
                    meta = f
    sig = Signature(tuple(agents),
                    {a: tuple(v) for a, v in agent_atoms.items()},
                    tuple(env_atoms))
    if meta is not None:
        raise SortError(f"metavariable '?{meta.name}' not allowed here", node=meta)
    return raw, sig


# --- rendering ----------------------------------------------------------------
#
# A rule is (pattern, precedence of its text or None when it is never
# parenthesized, pieces).  A piece is text, in which "{a}" is the agent and
# "{n}" the name of an atom or metavariable, or (pattern variable, sort of
# the operand there, precedence of its place).

_OPERATOR_TEXT = {"PIPE": " | ", "ARROW": " -> ", "AMP": " & ",
                  "TILDE": "~", "DIAMOND": "<> ", "BOX": "[] "}
# The metavariable that stands for an operand of each sort; KB4 has none of
# its own and borrows the world's.
_OPERAND = {"world": WMeta, "agent": AMeta, "kb4": WMeta}
_PATTERN_VARS = {name: Var(name) for name in "lrx"}


def _pattern(f):
    """The core shape of ``f``, its metavariables turned pattern variables."""
    return substitute_metas(desugar(f), _PATTERN_VARS)


def _render_rules(sort, g: _Grammar):
    """The rules of one sort, read off its grammar, in the order that
    ``render`` tries them."""
    rules = [(_pattern(build(Var("a"))), None, (f"{name}({{a}})",))
             for name, build in g.calls.items()]
    rules += [(_pattern(build(Var("a"), _OPERAND[operand]("x"))), None,
               (f"{name}[{{a}}] ", ("x", operand, _PREC_UNARY)))
              for name, (build, operand) in g.heads.items()]
    rules += [(_pattern(build(_OPERAND[sort]("l"), _OPERAND[sort]("r"), span=None)), prec,
               (("l", sort, prec + right), _OPERATOR_TEXT[kind], ("r", sort, prec + (not right))))
              for kind, (prec, right, build) in g.binary.items()]
    rules += [(_pattern(build(_OPERAND[operand]("x"))), None,
               (_OPERATOR_TEXT[kind], ("x", operand, _PREC_UNARY)))
              for kind, (build, operand) in g.prefix.items()]
    rules += [(build(), None, (name,)) for name, build in g.constants.items()]
    rules.append((g.atom(Var("n")), None, ("{n}",)))
    if g.meta is not None:
        rules.append((g.meta(Var("n")), None, ("?{n}",)))
    return rules


def _first_child_type(f):
    kids = children(f, None)
    return type(kids[0][0]) if kids else None


class _RuleIndex(dict):
    """One sort's rules keyed by (node type, type of the node's first child,
    None for a leaf): a rule is listed only where its pattern can match, so
    a node whose first child rules a pattern out costs that rule nothing."""

    def __init__(self, rules):
        super().__init__()
        self.rules = rules

    def __missing__(self, key):
        node_type, child_type = key
        fits = self[key] = [rule for rule in self.rules if type(rule[0]) is node_type
                            and _first_child_type(rule[0]) in (Var, child_type)]
        return fits


_RULES = {sort: _RuleIndex(_render_rules(sort, g)) for sort, g in _GRAMMARS.items()}
_NOT_RENDERED = {"world": "not a core world formula", "agent": "not a core agent formula",
                 "kb4": "not a KB4 formula"}


def render(f) -> str:
    """Canonical text for a formula of any sort.

    Derived connectives are re-introduced greedily; the output re-parses to a
    structurally identical formula.
    """
    f = desugar(f)
    out = []
    todo = [(f, sort_of(f), 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, s, ctx = item
        for pattern, prec, pieces in _RULES[s][type(node), _first_child_type(node)]:
            env = {}
            if match(pattern, node, env):
                break
        else:
            raise TypeError(f"{_NOT_RENDERED[s]}: {node!r}")
        parts = [piece.format_map(env) if isinstance(piece, str)
                 else (env[piece[0]], *piece[1:]) for piece in pieces]
        if prec is not None and prec < ctx:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


# --- line-oriented files ------------------------------------------------------
#
# The walk over a line's words (see the module docstring) is made of helpers
# that take the words and an index into them.  On a mismatch they raise a
# ``_Fault`` that points at a word; only then is the file tokenized, to turn
# the word into its token's span.


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


# A file of these characters alone, spaced at its marks, splits by
# ``str.split`` into the texts of its tokens, unless it holds "[]": that is
# one token, and no valid file holds it.
_WORD_FILE_RE = re.compile(r"[A-Za-z0-9_ \t\r\n{}:,\[\]]*")
# Any other file is split line by line into the tokenizer's pieces without
# blanks; a comment is the last piece of its line.
_WORD_RE = re.compile(r'#.*|->|<>|\[\]|[A-Za-z0-9_]+|"[^"]*"|[^ \t\r]')
_IDENT_FIRST = frozenset(_IDENT_CHARS)


def _spaced(text: str) -> bool:
    """Whether ``_lines`` splits ``text`` at its spaced marks."""
    return "[]" not in text and _WORD_FILE_RE.fullmatch(text) is not None


def _piece_words(line: str) -> List[str]:
    """The texts of the tokens of ``line``, a line of a file."""
    words = _WORD_RE.findall(line)
    if words and words[-1][0] == "#":
        words.pop()
    return words


def _lines(text: str) -> List[List[str]]:
    """The words of each line of ``text`` that has a token, in order: the
    texts of the tokens that ``_Lines`` gives, with ``""`` for the line's end.
    Both splits give the same words where both apply."""
    if _spaced(text):
        for mark in "{}:,[]":
            text = text.replace(mark, f" {mark} ")
        split = map(str.split, text.split("\n"))
    else:
        split = map(_piece_words, text.split("\n"))
    lines = []
    for words in split:
        if words:
            words.append("")
            lines.append(words)
    return lines


class _Fault(Exception):
    """A mismatch that a walk over words found: its message, and the index
    of the word it points at on line ``k`` of the file's word lines, which
    the walk fills in when the fault is not on the line being read."""

    def __init__(self, message: str, i: int, k: Optional[int] = None):
        super().__init__(message)
        self.message, self.i, self.k = message, i, k

    def error(self, text: str, k: int) -> ParseError:
        """This fault of ``text``, found while line ``k`` was read, as a
        ``ParseError``.  The file is tokenized first, so an unexpected
        character anywhere in it is reported instead; else the span is that
        of the token the fault's word is the text of."""
        line = _Lines(text).lines[k if self.k is None else self.k]
        return ParseError(self.message, line[self.i].span)


def _name(words: List[str], i: int, what: str) -> Tuple[str, int]:
    """The name at word ``i``, bare or quoted, and the index after it."""
    w = words[i]
    if w[:1] in _IDENT_FIRST:
        return w, i + 1
    if len(w) > 1 and w[0] == '"':
        return w[1:-1], i + 1
    raise _Fault(f"expected {what}", i)


def _names(words: List[str], i: int, what: str) -> Tuple[List[str], int]:
    """The names of the comma list at word ``i``, and the index after it."""
    name, i = _name(words, i, what)
    names = [name]
    while words[i] == ",":
        name, i = _name(words, i + 1, what)
        names.append(name)
    return names, i


def _ident(words: List[str], i: int, what: str) -> str:
    """The bare name at word ``i``."""
    w = words[i]
    if w[:1] not in _IDENT_FIRST:
        raise _Fault(f"expected {what}", i)
    return w


def _mark(words: List[str], i: int, mark: str) -> int:
    """The index after ``mark``, which must be word ``i``."""
    if words[i] != mark:
        raise _Fault(f"expected '{mark}'", i)
    return i + 1


def _end(words: List[str], i: int) -> None:
    """Word ``i`` must be the end of the line."""
    if words[i]:
        raise _Fault(f"unexpected trailing input {words[i]!r}", i)


def _unknown(head: str) -> _Fault:
    """The fault of a line that starts with ``head`` and is no declaration."""
    if head[:1] in _IDENT_FIRST:
        return _Fault(f"unknown declaration '{head}'", 0)
    return _Fault("expected a declaration", 0)


def _missing(what: str) -> ParseError:
    return ParseError(f"missing '{what}' declaration", SourceSpan(0, 0, 1, 1))


class _Header:
    """The signature header that all three file formats share: one
    ``agents:`` line and, but in frame files, at most one ``atoms[owner]:``
    line per owner."""

    def __init__(self):
        self.agents: Optional[List[str]] = None
        self.atoms = {}     # owner -> (names, index of the line)

    def read(self, words: List[str], k: int):
        """Read the ``agents:`` or ``atoms[...]:`` line ``words``, line ``k``."""
        if words[0] == "agents":
            i = _mark(words, 1, ":")
            if self.agents is not None:
                raise _Fault("duplicate 'agents' declaration", 0)
            self.agents, i = _names(words, i, "agent name")
            _end(words, i)
            return
        owner = _ident(words, _mark(words, 1, "["), "agent name or 'env'")
        names, i = _names(words, _mark(words, _mark(words, 3, "]"), ":"), "atom name")
        _end(words, i)
        if owner in self.atoms:
            raise _Fault(f"duplicate 'atoms[{owner}]' declaration", 0)
        self.atoms[owner] = (names, k)

    def signature(self) -> Signature:
        if self.agents is None:
            raise _missing("agents")
        for owner, (_, k) in self.atoms.items():
            if owner != "env" and owner not in self.agents:
                raise _Fault(f"atoms declared for unknown agent '{owner}'", 0, k)
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

    The faults are checked in this order: each line's, in order; a missing
    ``agents`` line, then atoms of an unknown owner; the signature's own;
    views, then edges, of an unknown agent; then the model builder's.
    """
    header = _Header()
    generalized = False
    views = {}          # agent -> [view, ...]
    seen_views = set()  # (agent, view)
    view_atoms = []     # (agent, view, [atom, ...], index of the line)
    edges = []          # edge name in declaration order
    seen_edges = set()
    edge_views = []     # (edge, agent, view, (index of the line, of the view))
    edge_env = []       # (edge, [atom, ...])
    try:
        for k, words in enumerate(_lines(text)):
            head = words[0]
            if head == "view":
                # view A: V   or   view A: V { names }
                agent = _ident(words, 1, "agent name")
                vname, i = _name(words, _mark(words, 2, ":"), "view name")
                atoms = []
                if words[i] == "{":
                    atoms, i = _names(words, i + 1, "atom name")
                    i = _mark(words, i, "}")
                _end(words, i)
                if (agent, vname) in seen_views:
                    raise _Fault(f"duplicate view '{vname}' of agent {agent}", 3)
                seen_views.add((agent, vname))
                views.setdefault(agent, []).append(vname)
                view_atoms.append((agent, vname, atoms, k))
            elif head == "edge":
                # edge E { A: V, ..., A: V }   then optionally   env { names }
                ename, i = _name(words, 1, "edge name")
                if ename in seen_edges:
                    raise _Fault(f"duplicate edge label '{ename}'", 1)
                seen_edges.add(ename)
                edges.append(ename)
                i = _mark(words, i, "{")
                seen_agents = set()
                while True:
                    agent = _ident(words, i, "agent name")
                    v = _mark(words, i + 1, ":")
                    vname, i = _name(words, v, "view name")
                    if agent in seen_agents and not generalized:
                        raise _Fault(f"agent {agent} listed twice in edge {ename} "
                                     "(only legal under 'mode: generalized')", v)
                    seen_agents.add(agent)
                    edge_views.append((ename, agent, vname, (k, v)))
                    if words[i] != ",":
                        break
                    i += 1
                i = _mark(words, i, "}")
                if words[i] == "env":
                    atoms, i = _names(words, _mark(words, i + 1, "{"), "atom name")
                    i = _mark(words, i, "}")
                    edge_env.append((ename, atoms))
                _end(words, i)
            elif head == "agents" or head == "atoms":
                header.read(words, k)
            elif head == "mode":
                mode = _ident(words, _mark(words, 1, ":"), "mode name")
                _end(words, 3)
                if mode != "generalized":
                    raise _Fault(f"unknown mode '{mode}'", 2)
                generalized = True
            else:
                raise _unknown(head)
        sig = header.signature()
        for agent, vname, _, k in view_atoms:
            if agent not in sig.agents:
                raise _Fault(f"view '{vname}' declared for unknown agent '{agent}'", 1, k)
        for ename, agent, vname, (k, i) in edge_views:
            if agent not in sig.agents:
                raise _Fault(f"edge '{ename}' mentions unknown agent '{agent}'", i, k)
    except _Fault as fault:
        # A fault is raised only once a line has been read, so ``k`` is bound.
        raise fault.error(text, k) from None
    return _model_from(sig, generalized, views, edges, view_atoms, edge_views, edge_env)


def _model_from(sig, generalized, views, edges, view_atoms, edge_views, edge_env):
    """Build the model that ``parse_model`` has read."""
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
    classes = []      # (agent, [world, ...], index of the line)
    env_lines = []    # (atom, [world, ...])
    env_atoms = set()
    try:
        for k, words in enumerate(_lines(text)):
            head = words[0]
            if head == "class":
                agent = _ident(words, 1, "agent name")
                members, i = _names(words, _mark(words, 2, ":"), "world name")
                _end(words, i)
                classes.append((agent, members, k))
            elif head == "env":
                atom = _ident(words, 1, "atom name")
                i = _mark(words, 2, ":")
                members = []
                if words[i]:
                    members, i = _names(words, i, "world name")
                _end(words, i)
                if atom in env_atoms:
                    raise _Fault(f"duplicate 'env {atom}' declaration", 0)
                env_atoms.add(atom)
                env_lines.append((atom, members))
            elif head == "worlds":
                i = _mark(words, 1, ":")
                if worlds is not None:
                    raise _Fault("duplicate 'worlds' declaration", 0)
                worlds, i = _names(words, i, "world name")
                _end(words, i)
            elif head == "agents":
                header.read(words, k)
            else:
                raise _unknown(head)
        agents = header.agents
        if agents is None:
            raise _missing("agents")
        if worlds is None:
            raise _missing("worlds")
        class_map = {a: [] for a in agents}
        for agent, members, k in classes:
            if agent not in class_map:
                raise _Fault(f"class declared for unknown agent '{agent}'", 1, k)
            class_map[agent].append(tuple(members))
    except _Fault as fault:
        raise fault.error(text, k) from None
    atoms = tuple(atom for atom, _ in env_lines)
    val = {atom: frozenset(members) for atom, members in env_lines}
    return build_frame_model(tuple(agents), tuple(worlds), class_map, atoms, val)


def parse_derivation(text: str) -> proofkernel.Derivation:
    """Read a derivation file: signature header plus numbered proof lines.

    Line format: ``k. <sort>: <formula> ; <rule> [premise indices]`` where
    the sort is ``e`` for world statements or an agent name.  The header
    lines are walked by their tokens' texts, as model files are.

    Equal subformulas of the file's lines are one object: every line's
    formula is desugared against one table for the file (``syntax.desugar``),
    which is dropped when the parse returns, so two parses share no node.
    The proof kernel's comparisons between lines then stop at a shared node.
    """
    header = _Header()
    lines = []
    sig = None
    shared = {}     # the core subformulas built so far, for desugar
    try:
        for k, raw_line in enumerate(_Lines(text).lines):
            p = _FormulaParser(raw_line)
            head = p.peek()
            if head.kind == "IDENT" and (head.text, p.peek(1).kind) in (
                    ("agents", "COLON"), ("atoms", "LBRACK")):
                if lines:
                    raise ParseError("signature header must precede the numbered lines",
                                     head.span)
                header.read([tok.text for tok in raw_line[:-1]] + [""], k)
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
            lines.append(_derivation_line(p, sig, len(lines) + 1, shared))
        if sig is None:
            sig = header.signature()
    except _Fault as fault:
        raise fault.error(text, k) from None
    return proofkernel.Derivation(sig=sig, lines=tuple(lines))


def _derivation_line(p: _FormulaParser, sig: Signature, expected: int, shared: dict):
    """The numbered line that ``p`` reads, which must be line ``expected``;
    its formula is desugared against the file's table ``shared``."""
    idx_tok = p.expect("IDENT", "line number")
    if not idx_tok.text.isdigit():
        raise ParseError("expected a line number", idx_tok.span)
    index = int(idx_tok.text)
    if index != expected:
        raise ParseError(f"expected line number {expected}, got {index}", idx_tok.span)
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
    formula = desugar(raw, shared)
    p.expect("SEMI", "';' before the justification")
    just = _parse_justification(p)
    p.expect_eof()
    return proofkernel.DerivationLine(
        index=index,
        statement=proofkernel.Statement(sort, formula),
        justification=just,
        span=idx_tok.span,
    )


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
