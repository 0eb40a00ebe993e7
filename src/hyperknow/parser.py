"""Surface syntax: tokenizer, precedence parser, and canonical renderer.

Formula grammar (tightest first): ``~`` and the modal prefixes, ``&``, ``|``,
``->`` (right-associative; ``&`` and ``|`` associate to the left).  Modal
prefixes: ``E[a]``/``A[a]`` quantify over agent a's views in the current
world, ``<>``/``[]`` quantify over the worlds containing the current view
(the agent is the one owning the enclosing agent sort).  Sugar:
``alive(a)``, ``Ksafe[a]``, ``K[a]`` and ``true``/``false``.  ``?name`` is a
scheme metavariable where those are allowed.

``parse_*`` return well-sorted core formulas with source spans;
``render`` prints canonical text whose re-parse is structurally identical
(derived connectives are re-introduced greedily).

The module also reads and writes the model, frame, and derivation file
formats.  Files are line-oriented; ``#`` starts a comment.  Names are bare
tokens or double-quoted strings (quoting is needed for the view names
produced by the frame-to-hypergraph conversion).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

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
    desugar,
    sort_check_agent,
    sort_check_kb4,
    sort_check_world,
)

# --- tokenizer ---------------------------------------------------------------

_TOKEN_PATTERNS = [
    ("NL", r"\n"),
    ("WS", r"[ \t\r]+"),
    ("COMMENT", r"#[^\n]*"),
    ("ARROW", r"->"),
    ("DIAMOND", r"<>"),
    ("BOX", r"\[\]"),
    ("IDENT", r"[A-Za-z0-9_]+"),
    ("STRING", r'"[^"\n]*"'),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACK", r"\["),
    ("RBRACK", r"\]"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
    ("COLON", r":"),
    ("SEMI", r";"),
    ("DOT", r"\."),
    ("TILDE", r"~"),
    ("AMP", r"&"),
    ("PIPE", r"\|"),
    ("QMARK", r"\?"),
]
_MASTER_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_PATTERNS))


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind, text, span):
        self.kind = kind
        self.text = text
        self.span = span

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str, keep_newlines: bool = False) -> List[Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        m = _MASTER_RE.match(text, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        end = m.end()
        if kind == "NL":
            if keep_newlines:
                tokens.append(Token("NL", "\n", SourceSpan(pos, end, line, pos - line_start + 1)))
            line += 1
            line_start = end
        elif kind not in ("WS", "COMMENT"):
            span = SourceSpan(pos, end, line, pos - line_start + 1)
            tokens.append(Token(kind, m.group(), span))
        pos = end
    tokens.append(Token("EOF", "", SourceSpan(n, n, line, n - line_start + 1)))
    return tokens


# --- formula parsing ----------------------------------------------------------

_MODAL_IDENTS = {"E", "A", "Ksafe", "K"}


class _FormulaParser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.span)
        return self.advance()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.span)

    # Right-associative implication over left-associative | over &.
    def world(self) -> WorldFormula:
        left = self._world_or()
        if self.peek().kind == "ARROW":
            self.advance()
            right = self.world()
            return WImplies(left, right, span=_join(left.span, right.span))
        return left

    def _world_or(self) -> WorldFormula:
        left = self._world_and()
        while self.peek().kind == "PIPE":
            self.advance()
            right = self._world_and()
            left = WOr(left, right, span=_join(left.span, right.span))
        return left

    def _world_and(self) -> WorldFormula:
        left = self._world_unary()
        while self.peek().kind == "AMP":
            self.advance()
            right = self._world_unary()
            left = WAnd(left, right, span=_join(left.span, right.span))
        return left

    def _world_unary(self) -> WorldFormula:
        tok = self.peek()
        if tok.kind == "TILDE":
            self.advance()
            sub = self._world_unary()
            return WNot(sub, span=_join(tok.span, sub.span))
        if tok.kind == "QMARK":
            self.advance()
            name = self.expect("IDENT", "metavariable name")
            return WMeta(name.text, span=_join(tok.span, name.span))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.world()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            if tok.text in _MODAL_IDENTS and self.peek(1).kind == "LBRACK":
                return self._world_modal()
            if tok.text == "alive" and self.peek(1).kind == "LPAREN":
                self.advance()
                self.advance()
                agent = self.expect("IDENT", "agent name")
                close = self.expect("RPAREN", "')'")
                return SomeView(agent.text, ATrue(span=agent.span),
                                span=_join(tok.span, close.span))
            self.advance()
            if tok.text == "true":
                return WTrue(span=tok.span)
            if tok.text == "false":
                return WFalse(span=tok.span)
            return EnvAtom(tok.text, span=tok.span)
        raise ParseError("expected a world formula", tok.span)

    def _world_modal(self) -> WorldFormula:
        head = self.advance()
        self.expect("LBRACK", "'['")
        agent = self.expect("IDENT", "agent name")
        self.expect("RBRACK", "']'")
        if head.text == "E":
            sub = self._agent_unary()
            return SomeView(agent.text, sub, span=_join(head.span, sub.span))
        if head.text == "A":
            sub = self._agent_unary()
            return AllViews(agent.text, sub, span=_join(head.span, sub.span))
        if head.text == "Ksafe":
            sub = self._world_unary()
            box = Box(sub, span=sub.span)
            return SomeView(agent.text, box, span=_join(head.span, sub.span))
        # K[a]: knowledge transported to worlds, vacuous where the agent is dead.
        sub = self._world_unary()
        box = Box(sub, span=sub.span)
        return AllViews(agent.text, box, span=_join(head.span, sub.span))

    def agent(self) -> AgentFormula:
        left = self._agent_or()
        if self.peek().kind == "ARROW":
            self.advance()
            right = self.agent()
            return AImplies(left, right, span=_join(left.span, right.span))
        return left

    def _agent_or(self) -> AgentFormula:
        left = self._agent_and()
        while self.peek().kind == "PIPE":
            self.advance()
            right = self._agent_and()
            left = AOr(left, right, span=_join(left.span, right.span))
        return left

    def _agent_and(self) -> AgentFormula:
        left = self._agent_unary()
        while self.peek().kind == "AMP":
            self.advance()
            right = self._agent_unary()
            left = AAnd(left, right, span=_join(left.span, right.span))
        return left

    def _agent_unary(self) -> AgentFormula:
        tok = self.peek()
        if tok.kind == "TILDE":
            self.advance()
            sub = self._agent_unary()
            return ANot(sub, span=_join(tok.span, sub.span))
        if tok.kind == "DIAMOND":
            self.advance()
            sub = self._world_unary()
            return PossWorld(sub, span=_join(tok.span, sub.span))
        if tok.kind == "BOX":
            self.advance()
            sub = self._world_unary()
            return Box(sub, span=_join(tok.span, sub.span))
        if tok.kind == "QMARK":
            self.advance()
            name = self.expect("IDENT", "metavariable name")
            return AMeta(name.text, span=_join(tok.span, name.span))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.agent()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "true":
                return ATrue(span=tok.span)
            if tok.text == "false":
                return AFalse(span=tok.span)
            return AgentAtom(tok.text, span=tok.span)
        raise ParseError("expected an agent formula", tok.span)

    def kb4(self) -> KB4Formula:
        left = self._kb4_or()
        if self.peek().kind == "ARROW":
            self.advance()
            right = self.kb4()
            span = _join(left.span, right.span)
            return KB4Not(KB4And(left, KB4Not(right, span=right.span), span=span), span=span)
        return left

    def _kb4_or(self) -> KB4Formula:
        left = self._kb4_and()
        while self.peek().kind == "PIPE":
            self.advance()
            right = self._kb4_and()
            span = _join(left.span, right.span)
            left = KB4Not(
                KB4And(KB4Not(left, span=left.span), KB4Not(right, span=right.span), span=span),
                span=span)
        return left

    def _kb4_and(self) -> KB4Formula:
        left = self._kb4_unary()
        while self.peek().kind == "AMP":
            self.advance()
            right = self._kb4_unary()
            left = KB4And(left, right, span=_join(left.span, right.span))
        return left

    def _kb4_unary(self) -> KB4Formula:
        tok = self.peek()
        if tok.kind == "TILDE":
            self.advance()
            sub = self._kb4_unary()
            return KB4Not(sub, span=_join(tok.span, sub.span))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.kb4()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            if tok.text == "K" and self.peek(1).kind == "LBRACK":
                head = self.advance()
                self.advance()
                agent = self.expect("IDENT", "agent name")
                self.expect("RBRACK", "']'")
                sub = self._kb4_unary()
                return KB4Knows(agent.text, sub, span=_join(head.span, sub.span))
            self.advance()
            return KB4Atom(tok.text, span=tok.span)
        raise ParseError("expected a KB4 formula", tok.span)


def _join(a: Optional[SourceSpan], b: Optional[SourceSpan]) -> Optional[SourceSpan]:
    if a is None:
        return b
    if b is None:
        return a
    return SourceSpan(a.start, b.end, a.line, a.column)


def parse_world(text: str, sig: Signature, allow_metas: bool = False) -> WorldFormula:
    p = _FormulaParser(tokenize(text))
    raw = p.world()
    p.expect_eof()
    sort_check_world(raw, sig, allow_metas=allow_metas)
    return desugar(raw)


def parse_agent(text: str, agent: str, sig: Signature, allow_metas: bool = False) -> AgentFormula:
    p = _FormulaParser(tokenize(text))
    raw = p.agent()
    p.expect_eof()
    sort_check_agent(raw, agent, sig, allow_metas=allow_metas)
    return desugar(raw)


def parse_kb4(text: str, sig: Signature) -> KB4Formula:
    p = _FormulaParser(tokenize(text))
    raw = p.kb4()
    p.expect_eof()
    sort_check_kb4(raw, sig)
    return raw


def parse_world_inferring(text: str, agents: Tuple[str, ...]):
    """Parse a world formula, declaring unknown atoms by their position.

    Returns ``(formula, signature)``.  Convenient for CLI invocations that
    supply a formula without a model file.
    """
    p = _FormulaParser(tokenize(text))
    raw = p.world()
    p.expect_eof()
    env_atoms: List[str] = []
    agent_atoms = {a: [] for a in agents}

    def collect(f, sort):
        match f:
            case EnvAtom(n):
                if n in env_atoms:
                    return
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
            case WNot(x) | ANot(x):
                collect(x, sort)
            case WAnd(l, r) | WOr(l, r) | WImplies(l, r) | AAnd(l, r) | AOr(l, r) | AImplies(l, r):
                collect(l, sort)
                collect(r, sort)
            case SomeView(a, x) | AllViews(a, x):
                if a not in agent_atoms:
                    raise SortError(f"unknown agent '{a}'", node=f)
                collect(x, a)
            case PossWorld(x) | Box(x):
                collect(x, "world")
            case _:
                pass

    collect(raw, "world")
    sig = Signature(tuple(agents),
                    {a: tuple(v) for a, v in agent_atoms.items()},
                    tuple(env_atoms))
    sort_check_world(raw, sig)
    return desugar(raw), sig


# --- rendering ----------------------------------------------------------------

_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def render(f) -> str:
    """Canonical text for a formula of any sort.

    Derived connectives are re-introduced greedily; the output re-parses to a
    structurally identical formula.
    """
    f = desugar(f)
    if isinstance(f, WorldFormula):
        return _render_w(f, 0)
    if isinstance(f, AgentFormula):
        return _render_a(f, 0)
    if isinstance(f, KB4Formula):
        return _render_kb4(f, 0)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, level: int, ctx: int) -> str:
    return f"({text})" if level < ctx else text


def _render_w(f, ctx) -> str:
    match f:
        case WTrue():
            return "true"
        case WFalse():
            return "false"
        case EnvAtom(n):
            return n
        case WMeta(n):
            return f"?{n}"
        case SomeView(a, ATrue()):
            return f"alive({a})"
        case SomeView(a, ANot(PossWorld(WNot(x)))):
            return f"Ksafe[{a}] {_render_w(x, _PREC_UNARY)}"
        case SomeView(a, x):
            return f"E[{a}] {_render_a(x, _PREC_UNARY)}"
        case WNot(SomeView(a, ANot(ANot(PossWorld(WNot(x)))))):
            return f"K[{a}] {_render_w(x, _PREC_UNARY)}"
        case WNot(SomeView(a, ANot(x))):
            return f"A[{a}] {_render_a(x, _PREC_UNARY)}"
        case WNot(WAnd(WNot(l), WNot(r))):
            text = f"{_render_w(l, _PREC_OR)} | {_render_w(r, _PREC_OR + 1)}"
            return _wrap(text, _PREC_OR, ctx)
        case WNot(WAnd(l, WNot(r))):
            text = f"{_render_w(l, _PREC_IMP + 1)} -> {_render_w(r, _PREC_IMP)}"
            return _wrap(text, _PREC_IMP, ctx)
        case WNot(x):
            return f"~{_render_w(x, _PREC_UNARY)}"
        case WAnd(l, r):
            text = f"{_render_w(l, _PREC_AND)} & {_render_w(r, _PREC_AND + 1)}"
            return _wrap(text, _PREC_AND, ctx)
    raise TypeError(f"not a core world formula: {f!r}")


def _render_a(f, ctx) -> str:
    match f:
        case ATrue():
            return "true"
        case AFalse():
            return "false"
        case AgentAtom(n):
            return n
        case AMeta(n):
            return f"?{n}"
        case ANot(PossWorld(WNot(x))):
            return f"[] {_render_w(x, _PREC_UNARY)}"
        case PossWorld(x):
            return f"<> {_render_w(x, _PREC_UNARY)}"
        case ANot(AAnd(ANot(l), ANot(r))):
            text = f"{_render_a(l, _PREC_OR)} | {_render_a(r, _PREC_OR + 1)}"
            return _wrap(text, _PREC_OR, ctx)
        case ANot(AAnd(l, ANot(r))):
            text = f"{_render_a(l, _PREC_IMP + 1)} -> {_render_a(r, _PREC_IMP)}"
            return _wrap(text, _PREC_IMP, ctx)
        case ANot(x):
            return f"~{_render_a(x, _PREC_UNARY)}"
        case AAnd(l, r):
            text = f"{_render_a(l, _PREC_AND)} & {_render_a(r, _PREC_AND + 1)}"
            return _wrap(text, _PREC_AND, ctx)
    raise TypeError(f"not a core agent formula: {f!r}")


def _render_kb4(f, ctx) -> str:
    match f:
        case KB4Atom(n):
            return n
        case KB4Knows(a, x):
            return f"K[{a}] {_render_kb4(x, _PREC_UNARY)}"
        case KB4Not(KB4And(KB4Not(l), KB4Not(r))):
            text = f"{_render_kb4(l, _PREC_OR)} | {_render_kb4(r, _PREC_OR + 1)}"
            return _wrap(text, _PREC_OR, ctx)
        case KB4Not(KB4And(l, KB4Not(r))):
            text = f"{_render_kb4(l, _PREC_IMP + 1)} -> {_render_kb4(r, _PREC_IMP)}"
            return _wrap(text, _PREC_IMP, ctx)
        case KB4Not(x):
            return f"~{_render_kb4(x, _PREC_UNARY)}"
        case KB4And(l, r):
            text = f"{_render_kb4(l, _PREC_AND)} & {_render_kb4(r, _PREC_AND + 1)}"
            return _wrap(text, _PREC_AND, ctx)
    raise TypeError(f"not a KB4 formula: {f!r}")


# --- line-oriented files ------------------------------------------------------


class _Lines:
    """Tokenized file split at newlines, comments stripped."""

    def __init__(self, text: str):
        tokens = tokenize(text, keep_newlines=True)
        self.lines: List[List[Token]] = []
        current: List[Token] = []
        for tok in tokens:
            if tok.kind in ("NL", "EOF"):
                if current:
                    eol = Token("EOF", "", tok.span)
                    current.append(eol)
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


def parse_model(text: str):
    """Read the model file format.

    Returns a :class:`ChromaticHypergraphModel`, or a generalized model when
    the file declares ``mode: generalized`` (which permits several views of
    one agent in the same edge).
    """
    agents: Optional[List[str]] = None
    agent_atoms = {}
    env_atoms: Optional[List[str]] = None
    generalized = False
    views = {}          # agent -> [view, ...]
    view_atoms = []     # (agent, view, [atom, ...])
    edges = []          # edge name in declaration order
    edge_views = []     # (edge, agent, view, span)
    edge_env = []       # (edge, [atom, ...])

    for line in _Lines(text).lines:
        p = _FormulaParser(line)
        head = p.peek()
        if head.kind != "IDENT":
            raise ParseError("expected a declaration", head.span)
        if head.text == "agents":
            p.advance()
            p.expect("COLON", "':'")
            if agents is not None:
                raise ParseError("duplicate 'agents' declaration", head.span)
            agents = _name_list(p, "agent name")
            p.expect_eof()
        elif head.text == "atoms":
            p.advance()
            p.expect("LBRACK", "'['")
            owner = p.expect("IDENT", "agent name or 'env'").text
            p.expect("RBRACK", "']'")
            p.expect("COLON", "':'")
            names = _name_list(p, "atom name")
            p.expect_eof()
            if owner == "env":
                if env_atoms is not None:
                    raise ParseError("duplicate 'atoms[env]' declaration", head.span)
                env_atoms = names
            else:
                if owner in agent_atoms:
                    raise ParseError(f"duplicate 'atoms[{owner}]' declaration", head.span)
                agent_atoms[owner] = names
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
            agent = p.expect("IDENT", "agent name").text
            p.expect("COLON", "':'")
            vname, vtok = _name_token(p, "view name")
            atoms = []
            if p.peek().kind == "LBRACE":
                p.advance()
                atoms = _name_list(p, "atom name")
                p.expect("RBRACE", "'}'")
            p.expect_eof()
            if vname in views.setdefault(agent, []):
                raise ParseError(f"duplicate view '{vname}' of agent {agent}", vtok.span)
            views[agent].append(vname)
            view_atoms.append((agent, vname, atoms))
        elif head.text == "edge":
            p.advance()
            ename, etok = _name_token(p, "edge name")
            if ename in edges:
                raise ParseError(f"duplicate edge label '{ename}'", etok.span)
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
                edge_views.append((ename, agent, vname, vtok.span))
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

    if agents is None:
        raise ParseError("missing 'agents' declaration",
                         SourceSpan(0, 0, 1, 1))
    for agent, vname, _ in view_atoms:
        if agent not in agents:
            raise ParseError(f"view '{vname}' declared for unknown agent '{agent}'",
                             SourceSpan(0, 0, 1, 1))
    for ename, agent, vname, span in edge_views:
        if agent not in agents:
            raise ParseError(f"edge '{ename}' mentions unknown agent '{agent}'", span)
    sig = Signature(
        tuple(agents),
        {a: tuple(agent_atoms.get(a, ())) for a in agents},
        tuple(env_atoms or ()),
    )

    val_agent = {a: {atom: set() for atom in sig.atoms_for(a)} for a in agents}
    for agent, vname, atoms in view_atoms:
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
    for ename, agent, vname, span in edge_views:
        proj[(ename, agent)] = vname
    return build_model(sig, views, tuple(edges), proj, val_agent, val_env)


def parse_frame(text: str) -> PartialEpistemicModel:
    """Read the frame file format: worlds, per-agent equivalence classes,
    and optional environment valuations."""
    agents: Optional[List[str]] = None
    worlds: Optional[List[str]] = None
    classes = []      # (agent, [world, ...])
    env_lines = []    # (atom, [world, ...])

    for line in _Lines(text).lines:
        p = _FormulaParser(line)
        head = p.peek()
        if head.kind != "IDENT":
            raise ParseError("expected a declaration", head.span)
        if head.text == "agents":
            p.advance()
            p.expect("COLON", "':'")
            if agents is not None:
                raise ParseError("duplicate 'agents' declaration", head.span)
            agents = _name_list(p, "agent name")
            p.expect_eof()
        elif head.text == "worlds":
            p.advance()
            p.expect("COLON", "':'")
            if worlds is not None:
                raise ParseError("duplicate 'worlds' declaration", head.span)
            worlds = _name_list(p, "world name")
            p.expect_eof()
        elif head.text == "class":
            p.advance()
            agent = p.expect("IDENT", "agent name").text
            p.expect("COLON", "':'")
            members = _name_list(p, "world name")
            p.expect_eof()
            classes.append((agent, members))
        elif head.text == "env":
            p.advance()
            atom = p.expect("IDENT", "atom name").text
            p.expect("COLON", "':'")
            members = _name_list(p, "world name", allow_empty=True)
            p.expect_eof()
            if any(atom == seen for seen, _ in env_lines):
                raise ParseError(f"duplicate 'env {atom}' declaration", head.span)
            env_lines.append((atom, members))
        else:
            raise ParseError(f"unknown declaration '{head.text}'", head.span)

    if agents is None:
        raise ParseError("missing 'agents' declaration", SourceSpan(0, 0, 1, 1))
    if worlds is None:
        raise ParseError("missing 'worlds' declaration", SourceSpan(0, 0, 1, 1))
    class_map = {a: [] for a in agents}
    for agent, members in classes:
        if agent not in class_map:
            raise ParseError(f"class declared for unknown agent '{agent}'",
                             SourceSpan(0, 0, 1, 1))
        class_map[agent].append(tuple(members))
    atoms = tuple(atom for atom, _ in env_lines)
    val = {atom: frozenset(members) for atom, members in env_lines}
    return build_frame_model(tuple(agents), tuple(worlds), class_map, atoms, val)


def parse_derivation(text: str) -> proofkernel.Derivation:
    """Read a derivation file: signature header plus numbered proof lines.

    Line format: ``k. <sort>: <formula> ; <rule> [premise indices]`` where
    the sort is ``e`` for world statements or an agent name.
    """
    sig_agents: Optional[List[str]] = None
    agent_atoms = {}
    env_atoms: Optional[List[str]] = None
    lines = []

    sig = None
    for raw_line in _Lines(text).lines:
        p = _FormulaParser(raw_line)
        head = p.peek()
        if head.kind == "IDENT" and head.text == "agents" and p.peek(1).kind == "COLON":
            if lines:
                raise ParseError("signature header must precede the numbered lines",
                                 head.span)
            p.advance()
            p.advance()
            sig_agents = _name_list(p, "agent name")
            if "e" in sig_agents:
                raise ParseError(
                    "agent name 'e' conflicts with the world sort marker", head.span)
            p.expect_eof()
            continue
        if head.kind == "IDENT" and head.text == "atoms" and p.peek(1).kind == "LBRACK":
            if lines:
                raise ParseError("signature header must precede the numbered lines",
                                 head.span)
            p.advance()
            p.advance()
            owner = p.expect("IDENT", "agent name or 'env'").text
            p.expect("RBRACK", "']'")
            p.expect("COLON", "':'")
            names = _name_list(p, "atom name")
            p.expect_eof()
            if owner == "env":
                env_atoms = names
            else:
                agent_atoms[owner] = names
            continue
        # A numbered derivation line.
        if sig_agents is None:
            raise ParseError("derivation lines must follow an 'agents' declaration",
                             head.span)
        if sig is None:
            sig = Signature(
                tuple(sig_agents),
                {a: tuple(agent_atoms.get(a, ())) for a in sig_agents},
                tuple(env_atoms or ()),
            )
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
            raw = p.world()
            sort_check_world(raw, sig)
        else:
            raw = p.agent()
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

    if sig_agents is None:
        raise ParseError("missing 'agents' declaration", SourceSpan(0, 0, 1, 1))
    if sig is None:
        sig = Signature(
            tuple(sig_agents),
            {a: tuple(agent_atoms.get(a, ())) for a in sig_agents},
            tuple(env_atoms or ()),
        )
    return proofkernel.Derivation(sig=sig, lines=tuple(lines))


_RULES_NO_ARGS = {
    "taut": proofkernel.PropTaut,
    "ax_surj": proofkernel.AxSurjectivity,
    "ax_fun": proofkernel.AxFunctionality,
    "ax_ne": proofkernel.AxNonEmptiness,
}

_RULES_ONE_ARG = {
    "nec_a": lambda i: proofkernel.NecA(i),
    "nec_e": lambda i: proofkernel.NecE(i),
    "rm_diam": lambda i: proofkernel.RM(i, "diamond"),
    "rm_box": lambda i: proofkernel.RM(i, "box"),
    "rm_some": lambda i: proofkernel.RMPrime(i, "some"),
    "rm_all": lambda i: proofkernel.RMPrime(i, "all"),
    "adj1_down": lambda i: proofkernel.Adj1Down(i),
    "adj1_up": lambda i: proofkernel.Adj1Up(i),
    "adj2_down": lambda i: proofkernel.Adj2Down(i),
    "adj2_up": lambda i: proofkernel.Adj2Up(i),
}


def _parse_justification(p: _FormulaParser):
    tok = p.expect("IDENT", "rule name")
    name = tok.text
    if name in _RULES_NO_ARGS:
        return _RULES_NO_ARGS[name]()
    if name in _RULES_ONE_ARG:
        return _RULES_ONE_ARG[name](_premise_index(p))
    if name == "mp":
        i = _premise_index(p)
        j = _premise_index(p)
        return proofkernel.MP(i, j)
    raise ParseError(f"unknown rule '{name}'", tok.span)


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
