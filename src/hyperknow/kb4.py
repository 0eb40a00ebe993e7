"""KB4 Kripke semantics over partial epistemic models, and the embedding
into the two-level logic.

``sat_kb4`` evaluates directly on the frame: the knowledge operator
quantifies over the worlds related by the agent's partial equivalence
relation, and is vacuously true where the agent is undefined.  Like the
hypergraph evaluator, ``KB4Evaluator`` computes extensions (frozensets of
worlds) with a ``syntax.fold`` and keeps them in a memo keyed by subformula
identity; it shares no clause with ``semantics``.  ``translate`` maps
knowledge to the world-level unsafe-knowledge operator.  The two routes are
deliberately independent implementations so that
:func:`check_translation_equiv` is a meaningful cross-check.
"""

from __future__ import annotations

from .errors import SortError, UnknownPointError
from .frames import PartialEpistemicModel, eta_model
from .semantics import Evaluator
from .syntax import (
    EnvAtom,
    KB4And,
    KB4Atom,
    KB4Formula,
    KB4Knows,
    KB4Not,
    WAnd,
    WNot,
    WorldFormula,
    desugar,
    fold,
    kunsafe,
)


class KB4Evaluator:
    """Evaluator over one frame model with a memo of extensions: each
    subformula's value is the frozenset of worlds satisfying it."""

    def __init__(self, model: PartialEpistemicModel):
        self.model = model
        self._worlds = frozenset(model.frame.worlds)
        self._memo = {}

    def sat(self, world: str, f: KB4Formula) -> bool:
        if world not in self._worlds:
            raise UnknownPointError(f"unknown world '{world}'")
        return world in fold(f, None, self._clause, self._memo)

    def _clause(self, f, sort, subs) -> frozenset:
        clause = _CLAUSES.get(type(f))
        if clause is None:
            raise SortError(f"not a KB4 formula: {f!r}", node=f)
        return clause(self, f, subs)


def _atom(ev, f, x):
    try:
        return frozenset(ev.model.val[f.name])
    except KeyError:
        raise SortError(f"atom '{f.name}' is not declared in this model", node=f) from None


# A clause takes the evaluator, the node and the extensions of its children
# (frozensets of worlds), and gives the node's.  Knowledge is vacuously true
# where the agent's relation is undefined.
_CLAUSES = {
    KB4Atom: _atom,
    KB4Not: lambda ev, f, x: ev._worlds - x[0],
    KB4And: lambda ev, f, x: x[0] & x[1],
    KB4Knows: lambda ev, f, x: frozenset(
        w for w in ev.model.frame.worlds
        if (cls := ev.model.frame.class_of(f.agent, w)) is None or x[0].issuperset(cls)),
}


def sat_kb4(m: PartialEpistemicModel, world: str, f: KB4Formula) -> bool:
    return KB4Evaluator(m).sat(world, f)


_TRANSLATE = {
    KB4Atom: lambda f, x: EnvAtom(f.name, span=f.span),
    KB4Not: lambda f, x: WNot(x[0], span=f.span),
    KB4And: lambda f, x: WAnd(x[0], x[1], span=f.span),
    KB4Knows: lambda f, x: desugar(kunsafe(f.agent, x[0])),
}


def _translate_node(f, sort, x):
    try:
        return _TRANSLATE[type(f)](f, x)
    except KeyError:
        raise TypeError(f"not a KB4 formula: {f!r}") from None


def translate(f: KB4Formula) -> WorldFormula:
    """Knowledge becomes unsafe knowledge; everything else is homomorphic.

    Returns a core world formula.  A subformula object shared within ``f``
    is translated once, into one object, so an Evaluator's memo (keyed by
    identity) evaluates it once.
    """
    return fold(f, None, _translate_node, {})


def check_translation_equiv(m: PartialEpistemicModel, f: KB4Formula) -> bool:
    """Does the direct KB4 evaluation agree with evaluating the translation
    on the converted hypergraph model, at every world?"""
    direct = KB4Evaluator(m)
    converted = Evaluator(eta_model(m))
    translated = translate(f)
    return all(direct.sat(w, f) == converted.sat_world(w, translated)
               for w in m.frame.worlds)
