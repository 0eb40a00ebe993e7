"""Reference semantics for checking hyperknow's outputs, written apart from it.

Nothing here imports hyperknow.  Formulas are nested tuples; a model is a
``RefModel`` with an incidence relation (an agent may hold several views of
one world, which covers generalized models too).  Satisfaction is computed
as extension sets, straight from the clauses:

* ``E[a] X`` holds at a world where some view of ``a`` in it satisfies X,
  ``A[a] X`` where every such view does (vacuously where ``a`` is absent);
* ``<> X`` holds at a view when some world containing it satisfies X,
  ``[] X`` when every such world does;
* ``alive(a) = E[a] true``, ``Ksafe[a] X = E[a] [] X``,
  ``K[a] X = A[a] [] X``;
* KB4 ``K[a] X`` holds at a world whose ``a``-class is undefined, or whose
  whole class satisfies X.

World formulas: ``("true",) ("false",) ("atom", q) ("not", f) ("and", f, g)
("or", f, g) ("imp", f, g) ("E", a, af) ("A", a, af) ("alive", a)
("Ksafe", a, f) ("K", a, f)``.  Agent formulas: the Boolean tags plus
``("dia", f) ("box", f)``.  Metavariables are ``("meta", name)``.
"""

from __future__ import annotations

import itertools

BINARY = {"and": "&", "or": "|", "imp": "->"}


# --- rendering in the concrete syntax ------------------------------------------


def render(f) -> str:
    """Concrete syntax; every binary connective is parenthesised, so the
    text is a unary-level expression wherever it is placed."""
    tag = f[0]
    if tag in ("true", "false"):
        return tag
    if tag == "atom":
        return f[1]
    if tag == "meta":
        return "?" + f[1]
    if tag == "not":
        return "~" + render(f[1])
    if tag in BINARY:
        return f"({render(f[1])} {BINARY[tag]} {render(f[2])})"
    if tag == "alive":
        return f"alive({f[1]})"
    if tag in ("E", "A", "Ksafe", "K"):
        return f"{tag}[{f[1]}] {render(f[2])}"
    if tag == "dia":
        return "<> " + render(f[1])
    if tag == "box":
        return "[] " + render(f[1])
    raise ValueError(f"unknown tag {tag!r}")


def render_kb4(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "not":
        return "~" + render_kb4(f[1])
    if tag in BINARY:
        return f"({render_kb4(f[1])} {BINARY[tag]} {render_kb4(f[2])})"
    if tag == "K":
        return f"K[{f[1]}] {render_kb4(f[2])}"
    raise ValueError(f"unknown KB4 tag {tag!r}")


def substitute(f, assignment):
    """Replace ``("meta", n)`` leaves by ``assignment[n]``."""
    tag = f[0]
    if tag == "meta":
        return assignment[f[1]]
    if tag in ("not", "dia", "box"):
        return (tag, substitute(f[1], assignment))
    if tag in BINARY:
        return (tag, substitute(f[1], assignment), substitute(f[2], assignment))
    if tag in ("E", "A", "Ksafe", "K"):
        return (tag, f[1], substitute(f[2], assignment))
    return f


def atom_sorts(f, sort="world", acc=None):
    """Map each atom and metavariable name to ``"world"`` or its agent."""
    acc = {} if acc is None else acc
    tag = f[0]
    if tag in ("atom", "meta"):
        acc[f[1]] = sort
    elif tag == "not":
        atom_sorts(f[1], sort, acc)
    elif tag in BINARY:
        atom_sorts(f[1], sort, acc)
        atom_sorts(f[2], sort, acc)
    elif tag in ("E", "A"):
        atom_sorts(f[2], f[1], acc)
    elif tag in ("Ksafe", "K", "dia", "box"):
        atom_sorts(f[-1], "world", acc)
    return acc


# --- models -----------------------------------------------------------------


class RefModel:
    """Agents, views, worlds, an incidence relation and two valuations."""

    def __init__(self, agents, views, edges, inc, val_agent=None, val_env=None):
        self.agents = tuple(agents)
        self.views = {a: tuple(views.get(a, ())) for a in self.agents}
        self.edges = tuple(edges)
        self.inc = {k: frozenset(v) for k, v in inc.items() if v}
        self.val_agent = {a: {p: frozenset(s) for p, s in (val_agent or {}).get(a, {}).items()}
                          for a in self.agents}
        self.val_env = {p: frozenset(s) for p, s in (val_env or {}).items()}
        self.fiber = {(a, v): frozenset(e for e in self.edges if v in self.inc.get((e, a), ()))
                      for a in self.agents for v in self.views[a]}

    def problems(self):
        """Violations of the model conditions (empty for a valid model)."""
        out = []
        for (a, v), fib in self.fiber.items():
            if not fib:
                out.append(f"view {v} of {a} belongs to no world")
        for e in self.edges:
            if not any(self.inc.get((e, a)) for a in self.agents):
                out.append(f"world {e} holds no view")
        for (e, a), vs in self.inc.items():
            if e not in self.edges or a not in self.agents or not vs <= set(self.views[a]):
                out.append(f"incidence ({e}, {a}) leaves the model")
        return out

    def key(self):
        """Everything that defines the model, with empty valuations dropped."""
        val_agent = {(a, p): s for a in self.agents for p, s in self.val_agent[a].items() if s}
        val_env = {p: s for p, s in self.val_env.items() if s}
        return self.agents, self.views, self.edges, self.inc, val_agent, val_env

    def without_edge(self, edge):
        """Drop a world, then every view left in no world."""
        edges = [e for e in self.edges if e != edge]
        inc = {(e, a): vs for (e, a), vs in self.inc.items() if e != edge}
        views = {a: [v for v in self.views[a] if any(v in inc.get((e, a), ()) for e in edges)]
                 for a in self.agents}
        return self._restricted(views, edges, inc)

    def without_view(self, agent, view):
        views = {a: [v for v in self.views[a] if (a, v) != (agent, view)] for a in self.agents}
        inc = {(e, a): (vs - {view} if a == agent else vs) for (e, a), vs in self.inc.items()}
        return self._restricted(views, self.edges, inc)

    def _restricted(self, views, edges, inc):
        val_agent = {a: {p: s & set(views[a]) for p, s in self.val_agent[a].items()}
                     for a in self.agents}
        val_env = {p: s & set(edges) for p, s in self.val_env.items()}
        return RefModel(self.agents, views, edges, inc, val_agent, val_env)


def wext(m: RefModel, f) -> frozenset:
    """The worlds of ``m`` satisfying world formula ``f``."""
    tag = f[0]
    if tag == "true":
        return frozenset(m.edges)
    if tag == "false":
        return frozenset()
    if tag == "atom":
        return m.val_env.get(f[1], frozenset())
    if tag == "not":
        return frozenset(m.edges) - wext(m, f[1])
    if tag == "and":
        return wext(m, f[1]) & wext(m, f[2])
    if tag == "or":
        return wext(m, f[1]) | wext(m, f[2])
    if tag == "imp":
        return (frozenset(m.edges) - wext(m, f[1])) | wext(m, f[2])
    if tag == "alive":
        return frozenset(e for e in m.edges if m.inc.get((e, f[1])))
    if tag in ("E", "A", "Ksafe", "K"):
        a = f[1]
        inner = f[2] if tag in ("E", "A") else ("box", f[2])
        good = aext(m, a, inner)
        if tag in ("E", "Ksafe"):
            return frozenset(e for e in m.edges if m.inc.get((e, a), frozenset()) & good)
        return frozenset(e for e in m.edges if m.inc.get((e, a), frozenset()) <= good)
    raise ValueError(f"not a world formula: {f!r}")


def aext(m: RefModel, a, f) -> frozenset:
    """The views of agent ``a`` satisfying agent formula ``f``."""
    tag = f[0]
    views = frozenset(m.views.get(a, ()))
    if tag == "true":
        return views
    if tag == "false":
        return frozenset()
    if tag == "atom":
        return m.val_agent.get(a, {}).get(f[1], frozenset())
    if tag == "not":
        return views - aext(m, a, f[1])
    if tag == "and":
        return aext(m, a, f[1]) & aext(m, a, f[2])
    if tag == "or":
        return aext(m, a, f[1]) | aext(m, a, f[2])
    if tag == "imp":
        return (views - aext(m, a, f[1])) | aext(m, a, f[2])
    if tag in ("dia", "box"):
        good = wext(m, f[1])
        if tag == "dia":
            return frozenset(v for v in views if m.fiber[(a, v)] & good)
        return frozenset(v for v in views if m.fiber[(a, v)] <= good)
    raise ValueError(f"not an agent formula: {f!r}")


def kb4ext(worlds, classes, val, f) -> frozenset:
    """KB4 extension on a partial epistemic frame (``classes[a]`` is a list
    of disjoint world sets)."""
    tag = f[0]
    if tag == "atom":
        return frozenset(val.get(f[1], ()))
    if tag == "not":
        return frozenset(worlds) - kb4ext(worlds, classes, val, f[1])
    if tag == "and":
        return kb4ext(worlds, classes, val, f[1]) & kb4ext(worlds, classes, val, f[2])
    if tag == "or":
        return kb4ext(worlds, classes, val, f[1]) | kb4ext(worlds, classes, val, f[2])
    if tag == "imp":
        return ((frozenset(worlds) - kb4ext(worlds, classes, val, f[1]))
                | kb4ext(worlds, classes, val, f[2]))
    if tag == "K":
        good = kb4ext(worlds, classes, val, f[2])
        out = set(worlds)
        for cls in classes.get(f[1], ()):
            if not set(cls) <= good:
                out -= set(cls)
        return frozenset(out)
    raise ValueError(f"not a KB4 formula: {f!r}")


def eta_of_frame(agents, worlds, classes, val) -> RefModel:
    """Worlds become edges, each class becomes one view of its agent."""
    views = {a: [f"{a}#{i}" for i in range(len(classes.get(a, ())))] for a in agents}
    inc = {}
    for a in agents:
        for i, cls in enumerate(classes.get(a, ())):
            for w in cls:
                inc[(w, a)] = {f"{a}#{i}"}
    return RefModel(agents, views, worlds, inc, {}, val)


# --- reading models -----------------------------------------------------------


def _names(text):
    return [n.strip().strip('"') for n in text.split(",") if n.strip()]


def model_from_text(text: str) -> RefModel:
    """Read the model file format (``agents:``, ``atoms[..]:``, ``mode:``,
    ``view``, ``edge``)."""
    agents, views, edges, inc = [], {}, [], {}
    val_agent, val_env = {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if line.startswith("agents:"):
            agents = _names(line[len("agents:"):])
        elif line.startswith("atoms[") or line.startswith("mode:"):
            continue
        elif head == "view":
            owner, _, rest = rest.partition(":")
            name, _, atoms = rest.partition("{")
            v = name.strip().strip('"')
            views.setdefault(owner.strip(), []).append(v)
            for p in _names(atoms.rstrip("} ")):
                val_agent.setdefault(owner.strip(), {}).setdefault(p, set()).add(v)
        elif head == "edge":
            name, _, rest = rest.partition("{")
            e = name.strip().strip('"')
            edges.append(e)
            members, _, env = rest.partition("}")
            for item in members.split(","):
                if item.strip():
                    a, _, v = item.partition(":")
                    inc.setdefault((e, a.strip()), set()).add(v.strip().strip('"'))
            if "env" in env:
                for p in _names(env.split("{", 1)[1].rstrip("} ")):
                    val_env.setdefault(p, set()).add(e)
        else:
            raise ValueError(f"unreadable model line {raw!r}")
    return RefModel(agents, views, edges, inc, val_agent, val_env)


def model_from_program(m) -> RefModel:
    """Read a hyperknow model object through its public fields."""
    h = m.hypergraph
    agents = h.sig.agents
    if hasattr(h, "incidence"):
        inc = {k: set(v) for k, v in h.incidence.items()}
    else:
        inc = {k: {v} for k, v in h.proj.items()}
    val_agent = {a: {p: set(s) for p, s in m.val_agent.get(a, {}).items()} for a in agents}
    return RefModel(agents, {a: h.views.get(a, ()) for a in agents}, h.edges, inc,
                    val_agent, {p: set(s) for p, s in m.val_env.items()})


def formula_from_program(node):
    """Convert a hyperknow formula object, by class name, into tuples."""
    kind = type(node).__name__
    simple = {"WTrue": ("true",), "WFalse": ("false",), "ATrue": ("true",), "AFalse": ("false",)}
    if kind in simple:
        return simple[kind]
    if kind in ("EnvAtom", "AgentAtom", "KB4Atom"):
        return ("atom", node.name)
    if kind in ("WMeta", "AMeta"):
        return ("meta", node.name)
    if kind in ("WNot", "ANot", "KB4Not"):
        return ("not", formula_from_program(node.sub))
    pairs = {"WAnd": "and", "AAnd": "and", "KB4And": "and", "WOr": "or", "AOr": "or",
             "WImplies": "imp", "AImplies": "imp"}
    if kind in pairs:
        return (pairs[kind], formula_from_program(node.left), formula_from_program(node.right))
    if kind in ("SomeView", "AllViews", "KB4Knows"):
        tag = {"SomeView": "E", "AllViews": "A", "KB4Knows": "K"}[kind]
        return (tag, node.agent, formula_from_program(node.sub))
    if kind in ("PossWorld", "Box"):
        return ("dia" if kind == "PossWorld" else "box", formula_from_program(node.sub))
    raise ValueError(f"unknown formula node {kind}")


# --- exhaustive enumeration at small bounds ------------------------------------


def structures(agents, max_views, max_edges):
    """Every structure up to edge relabelling: per-agent view counts up to
    ``max_views``, and 1 to ``max_edges`` worlds taken as a multiset of
    rows (one view or absence per agent), covering every view."""
    agents = tuple(agents)
    for counts in itertools.product(range(max_views + 1), repeat=len(agents)):
        views = {a: [f"{a}{i}" for i in range(c)] for a, c in zip(agents, counts)}
        rows = [r for r in itertools.product(*[[None] + views[a] for a in agents])
                if any(x is not None for x in r)]
        for k in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(rows, k):
                used = {(a, v) for r in combo for a, v in zip(agents, r) if v is not None}
                if len(used) != sum(counts):
                    continue
                edges = [f"w{i}" for i in range(k)]
                inc = {(e, a): {v} for e, r in zip(edges, combo)
                       for a, v in zip(agents, r) if v is not None}
                yield RefModel(agents, views, edges, inc)


def valuations(skeleton: RefModel, sorts):
    """Every valuation of the named atoms (``sorts[name]`` is ``"world"`` or
    an agent) on the skeleton."""
    names = list(sorts)
    domains = []
    for n in names:
        pts = skeleton.edges if sorts[n] == "world" else skeleton.views.get(sorts[n], ())
        domains.append([frozenset(c) for k in range(len(pts) + 1)
                        for c in itertools.combinations(pts, k)])
    for choice in itertools.product(*domains):
        val_env, val_agent = {}, {}
        for n, s in zip(names, choice):
            if sorts[n] == "world":
                val_env[n] = s
            else:
                val_agent.setdefault(sorts[n], {})[n] = s
        yield RefModel(skeleton.agents, skeleton.views, skeleton.edges, skeleton.inc,
                       val_agent, val_env)


def points_failing(m: RefModel, f, sort):
    """The points of the given sort (``"world"`` or an agent) where f fails."""
    if sort == "world":
        return sorted(set(m.edges) - wext(m, f))
    return sorted(set(m.views.get(sort, ())) - aext(m, sort, f))


def counterexample(f, sort, agents, max_views, max_edges):
    """The first (model, point) within the small bounds where ``f`` fails,
    or None.  Every atom of ``f`` is swept over all its valuations."""
    sorts = atom_sorts(f, sort)
    for skeleton in structures(agents, max_views, max_edges):
        for m in valuations(skeleton, sorts):
            bad = points_failing(m, f, sort)
            if bad:
                return m, bad[0]
    return None
