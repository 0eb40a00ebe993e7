"""The three workloads: their inputs, their operations and their output checks.

Each workload draws its inputs from a fixed generation seed (``GEN_SEED``)
so that every run does the same amount of work.  The run's ``--seed`` then
fixes, deterministically, the order of the operations in a pass and, where
atom names are free (the refutation formulas), a renaming of the atoms.
Neither changes what an operation costs or what it counts, so counts repeat
exactly across seeds and timings differ only by machine noise.

Every operation reaches hyperknow through module attributes looked up at call
time (``hk.search.check_scheme``), so the traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import reference as ref

GEN_SEED = 20230801


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    # The operation is one of the two deep-nesting queries that fail at the
    # parent commit (RecursionError); its failure is counted, not an error.
    known_fault: bool = False


@dataclass
class State:
    ops: List[Op]
    data: Dict[str, object] = field(default_factory=dict)


# --- random formulas -------------------------------------------------------------


class FormulaGen:
    """Random formulas over a signature: ``env`` atoms and ``agent_atoms[a]``."""

    def __init__(self, rng, agents, env, agent_atoms, leaf_p=0.2):
        self.rng, self.agents, self.env = rng, tuple(agents), tuple(env)
        self.agent_atoms, self.leaf_p = agent_atoms, leaf_p

    def world(self, depth):
        r = self.rng
        if depth == 0 or r.random() < self.leaf_p:
            leaves = [("atom", q) for q in self.env] + [("alive", a) for a in self.agents]
            return r.choice(leaves or [("true",)])
        op = r.choice(("not", "and", "or", "imp", "E", "A", "Ksafe", "K"))
        if op == "not":
            return ("not", self.world(depth - 1))
        if op in ref.BINARY:
            return (op, self.world(depth - 1), self.world(depth - 1))
        a = r.choice(self.agents)
        if op in ("E", "A"):
            return (op, a, self.agent(a, depth - 1))
        return (op, a, self.world(depth - 1))

    def agent(self, a, depth):
        r = self.rng
        if depth == 0 or r.random() < self.leaf_p:
            leaves = [("atom", p) for p in self.agent_atoms.get(a, ())]
            return r.choice(leaves or [("true",)])
        op = r.choice(("not", "and", "or", "imp", "dia", "box"))
        if op == "not":
            return ("not", self.agent(a, depth - 1))
        if op in ref.BINARY:
            return (op, self.agent(a, depth - 1), self.agent(a, depth - 1))
        return (op, self.world(depth - 1))


def rename(f, names):
    tag = f[0]
    if tag == "atom":
        return ("atom", names.get(f[1], f[1]))
    return tuple(rename(x, names) if isinstance(x, tuple) else x for x in f)


def shuffled(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def point_key(point):
    """A World or View verdict point as a plain tuple."""
    if hasattr(point, "edge"):
        return ("world", point.edge)
    return ("view", point.agent, point.view)


def within_bounds(m: ref.RefModel, agents, views, edges):
    return (len(m.agents) <= agents and len(m.edges) <= edges
            and all(len(vs) <= views for vs in m.views.values()))


# --- scheme-sweep --------------------------------------------------------------

# Verdicts the satisfaction clauses force (see the README): every library
# scheme is valid except safe-knowledge B and necessitation, which fail at a
# world where the agent is absent.
EXPECTED_INVALID = {"ksafe_b", "ksafe_necessitation"}
SWEEP_BOUNDS = {2: dict(agents=2, views=2, edges=3), 3: dict(agents=3, views=2, edges=3)}
THREE_AGENT_SCHEMES = ("ax_non_emptiness", "interaction_1", "locality", "ksafe_t")
# The reference sweeps these smaller bounds exhaustively (agents -> views, edges).
REF_BOUNDS = {1: (2, 2), 2: (2, 2), 3: (1, 2)}


def scheme_library(search, agents):
    lib = {
        "ax_surjectivity": (search.scheme_surjectivity("a"), "a"),
        "ax_functionality": (search.scheme_functionality("a"), "a"),
        "ax_non_emptiness": (search.scheme_non_emptiness(agents), None),
    }
    for k, scheme in search.interaction_schemes("a").items():
        lib[f"interaction_{k}"] = (scheme, None if isinstance(scheme, search.WorldFormula) else "a")
    lib["locality"] = (search.locality_scheme("a"), "a")
    for name, scheme in search.knowledge_schemes("a").items():
        lib[name] = (scheme, None)
    return lib


def setup_scheme_sweep(hk, root: Path, seed: int, _inputs) -> State:
    """Validity: scheme sweeps, derivation checks and soundness spotchecks."""
    search = hk.search
    sweeps = []
    for n_agents, names in ((2, None), (3, THREE_AGENT_SCHEMES)):
        agents = search.default_agents(n_agents)
        bounds = search.Bounds(**SWEEP_BOUNDS[n_agents])
        for name, (scheme, agent) in scheme_library(search, agents).items():
            if names is None or name in names:
                sweeps.append((f"{name}@{n_agents}", name, scheme, agent, bounds))
    derivations = {}
    for path in sorted((root / "corpus").glob("*.deriv")):
        derivations[path.name] = hk.parse_derivation(path.read_text(encoding="utf-8"))
    if not derivations:
        raise SystemExit("scheme-sweep: no corpus/*.deriv found")
    # Fill the structure cache at each sweep bound through a public call.
    for n_agents in SWEEP_BOUNDS:
        b = search.Bounds(**SWEEP_BOUNDS[n_agents])
        formula, _sig = hk.parser.parse_world_inferring("true", search.default_agents(n_agents))
        search.find_countermodel(formula, b)

    ops = []
    for label, _name, scheme, agent, bounds in sweeps:
        ops.append(Op(f"check_scheme:{label}",
                      lambda s=scheme, b=bounds, a=agent: hk.search.check_scheme(s, b, agent=a)))
    for fname, d in derivations.items():
        ops.append(Op(f"check_derivation:{fname}",
                      lambda d=d: hk.proofkernel.check_derivation(d)))
        ops.append(Op(f"soundness_spotcheck:{fname}",
                      lambda d=d: hk.proofkernel.soundness_spotcheck(d)))
    return State(shuffled(ops, seed), {"sweeps": sweeps, "derivations": derivations})


def _instantiate(scheme_ref):
    """Each metavariable becomes a fresh atom (its sort follows its place)."""
    return ref.substitute(scheme_ref, {n: ("atom", "m_" + n) for n in _metas(scheme_ref, set())})


def _metas(f, acc):
    if f[0] == "meta":
        acc.add(f[1])
    for x in f[1:]:
        if isinstance(x, tuple):
            _metas(x, acc)
    return acc


def check_scheme_sweep(hk, state: State, outputs) -> List[str]:
    problems = []
    for label, name, scheme, agent, bounds in state.data["sweeps"]:
        out = outputs[f"check_scheme:{label}"]
        scheme_ref = ref.formula_from_program(scheme)
        sort = "world" if agent is None else agent
        agents = hk.search.default_agents(bounds.agents)
        inst = _instantiate(scheme_ref)
        views, edges = REF_BOUNDS[bounds.agents]
        ref_counter = ref.counterexample(inst, sort, agents, views, edges)
        expect_valid = name not in EXPECTED_INVALID
        if (ref_counter is None) != expect_valid:
            problems.append(f"{label}: the reference disagrees with the stated verdict")
        if expect_valid:
            if not hasattr(out, "models_checked"):
                problems.append(f"{label}: expected valid, got {type(out).__name__}")
            continue
        if not hasattr(out, "point"):
            problems.append(f"{label}: expected a countermodel, got {type(out).__name__}")
            continue
        m = ref.model_from_program(out.model)
        assigned = {n: ref.formula_from_program(a) for n, a in out.assignment.items()}
        if set(assigned) != _metas(scheme_ref, set()):
            problems.append(f"{label}: countermodel does not assign every metavariable")
            continue
        f = ref.substitute(scheme_ref, assigned)
        key = point_key(out.point)
        bad = ref.points_failing(m, f, sort)
        if m.problems() or not within_bounds(m, bounds.agents, bounds.views, bounds.edges):
            problems.append(f"{label}: countermodel is not a model within bounds")
        elif key[-1] not in bad:
            problems.append(f"{label}: countermodel holds at {key} under the reference")
    for fname, d in state.data["derivations"].items():
        if outputs[f"check_derivation:{fname}"] is not None:
            problems.append(f"{fname}: check_derivation returned a value")
        if outputs[f"soundness_spotcheck:{fname}"] is not None:
            problems.append(f"{fname}: soundness_spotcheck reported a counterexample")
        agents = d.sig.agents
        views, edges = REF_BOUNDS[len(agents)]
        for line in d.lines:
            f = ref.formula_from_program(line.statement.formula)
            sort = "world" if line.statement.sort == "e" else line.statement.sort
            if ref.counterexample(f, sort, agents, views, edges) is not None:
                problems.append(f"{fname}: line {line.index} fails under the reference")
    return problems


# --- countermodel ---------------------------------------------------------------

CM_AGENTS = ("a", "b")
CM_FALSIFIABLE = 600
CM_DEPTH = 4
# Valid by the clauses: instances of library schemes, a tautology and
# non-emptiness.  Their subformula F is atom-free, so that a full sweep of
# the default bounds stays near 0.1 s.
CM_VALID_TEMPLATES = (
    lambda a, f: ("imp", ("K", a, f), ("K", a, ("K", a, f))),
    lambda a, f: ("imp", f, ("K", a, ("not", ("K", a, ("not", f))))),
    lambda a, f: ("imp", ("Ksafe", a, f), f),
    lambda a, f: ("imp", ("Ksafe", a, f), ("Ksafe", a, ("Ksafe", a, f))),
    lambda a, f: ("imp", ("E", a, ("box", f)), f),
    lambda a, f: ("imp", f, ("A", a, ("dia", f))),
    lambda a, f: ("or", f, ("not", f)),
    lambda a, f: ("or", ("alive", "a"), ("alive", "b")),
)
ENV_NAMES = ("q", "r", "s", "u", "w", "x")
AGENT_NAMES = {"a": ("pa", "qa", "ra", "sa"), "b": ("pb", "qb", "rb", "sb")}


def countermodel_inputs(seed):
    """The fixed formula list from GEN_SEED, atoms renamed by ``seed``:
    [(label, tree, text, valid by construction)].

    Random formulas (one atom per sort) are kept only when the reference
    falsifies them within 2 agents, 1 view each and 2 worlds, so that none
    is a costly valid sweep by accident and each falsifying structure comes
    early in the stream."""
    rng = random.Random(GEN_SEED)
    gen = FormulaGen(rng, CM_AGENTS, ("Q",), {"a": ("PA",), "b": ("PB",)})
    trees = []
    while len(trees) < CM_FALSIFIABLE:
        tree = gen.world(CM_DEPTH)
        if ref.counterexample(tree, "world", CM_AGENTS, 1, 2) is not None:
            trees.append((tree, False))
    atom_free = FormulaGen(rng, CM_AGENTS, (), {}, leaf_p=0.5)
    for template in CM_VALID_TEMPLATES:
        trees.append((template(rng.choice(CM_AGENTS), atom_free.world(1)), True))
    pick = random.Random(seed)
    names = {"Q": pick.choice(ENV_NAMES), "PA": pick.choice(AGENT_NAMES["a"]),
             "PB": pick.choice(AGENT_NAMES["b"])}
    out = []
    for i, (tree, valid) in enumerate(trees):
        tree = rename(tree, names)
        out.append((f"f{i:03d}", tree, ref.render(tree), valid))
    return out


def setup_countermodel(hk, root: Path, seed: int, formulas) -> State:
    """Refutation: the CLI's countermodel path without printing."""
    bounds = hk.search.Bounds()
    agents = hk.search.default_agents(bounds.agents)
    formula, _sig = hk.parser.parse_world_inferring("true", agents)
    hk.search.find_countermodel(formula, bounds)   # fills the structure cache

    def op(text):
        f, _sig = hk.parser.parse_world_inferring(text, agents)
        return hk.search.find_countermodel(f, bounds)

    ops = [Op(f"find_countermodel:{label}", lambda t=text: op(t))
           for label, _tree, text, _valid in formulas]
    return State(shuffled(ops, seed), {"formulas": formulas, "bounds": bounds})


def check_countermodel(hk, state: State, outputs) -> List[str]:
    problems = []
    b = state.data["bounds"]
    for label, tree, _text, valid in state.data["formulas"]:
        out = outputs[f"find_countermodel:{label}"]
        if hasattr(out, "models_checked"):
            if ref.counterexample(tree, "world", CM_AGENTS, 2, 2) is not None:
                problems.append(f"{label}: reported valid, the reference falsifies it")
            continue
        if valid:
            problems.append(f"{label}: valid by the clauses, yet a countermodel came back")
        m = ref.model_from_program(out.model)
        edge = out.point.edge
        if m.problems() or not within_bounds(m, b.agents, b.views, b.edges):
            problems.append(f"{label}: countermodel is not a model within bounds")
            continue
        if edge in ref.wext(m, tree):
            problems.append(f"{label}: countermodel satisfies the formula at {edge}")
            continue
        for smaller in [m.without_edge(e) for e in m.edges if e != edge] + \
                [m.without_view(a, v) for a in m.agents for v in m.views[a]]:
            if not smaller.problems() and edge not in ref.wext(smaller, tree):
                problems.append(f"{label}: countermodel is not locally minimal")
                break
    return problems


# --- model-check ------------------------------------------------------------------

CARD_GAMES = ((4, 3), (5, 3), (6, 3), (7, 3))
MC_QUERIES = 16         # per model and sort
MC_DEPTH = 4
MC_CLI_EVERY = 4        # every fourth formula query runs through hyperknow.cli.run
KB4_FRAMES = 4
KB4_QUERIES = 10        # per frame
DEEP_NOT_FAIL, DEEP_MODAL_FAIL = 1000, 300
DEEP_NOT_OK, DEEP_MODAL_OK = 150, 40

# Worked examples with their stated verdicts (acceptance criteria 1 and 2).
WORKED = (
    ("h1", ("world", "e_ab"), "alive(a)", True),
    ("h1", ("world", "e_ab"), "alive(b)", True),
    ("h1", ("world", "e_ab"), "alive(c)", False),
    ("h1", ("view", "a", "va"), "~[] alive(b)", True),
    ("h2", ("view", "a", "va"), "[](alive(b) & alive(c))", True),
    ("h3", ("view", "a", "va"), "[](alive(b) | alive(c)) & ~[]alive(b) & ~[]alive(c)", True),
    ("binary-input", ("view", "a", "a0"), "0a", True),
    ("binary-input", ("view", "a", "a0"), "~[] E[b] true", True),
    ("binary-input", ("view", "a", "a0"), "<> E[b] 1b", True),
    ("binary-input", ("view", "a", "a0"), "[](~solo -> E[b](0b | 1b))", True),
    ("binary-input", ("view", "a", "a0"), "[] A[b](0b | 1b)", True),
)


def model_texts(hk):
    texts = {}
    for cards, players in CARD_GAMES:
        texts[f"card-game-{cards}x{players}"] = hk.render_model(
            hk.example("card-game", cards=cards, agents=players))
    for name in ("binary-input", "h1", "h2", "h3", "shared-memory-functionalized"):
        texts[name] = hk.render_model(hk.example(name))
    texts["shared-memory-generalized"] = hk.render_model(hk.neighborhood.shared_memory_example())
    return texts


def random_frame(rng, agents, n_worlds, atoms):
    worlds = [f"w{i}" for i in range(n_worlds)]
    classes = {}
    for a in agents:
        dom = [w for w in worlds if rng.random() < 0.8]
        rng.shuffle(dom)
        parts, i = [], 0
        while i < len(dom):
            k = rng.randint(1, 3)
            parts.append(sorted(dom[i:i + k], key=worlds.index))
            i += k
        classes[a] = parts
    covered = {w for parts in classes.values() for cls in parts for w in cls}
    for w in worlds:
        if w not in covered:
            classes[agents[0]].append([w])
    val = {p: {w for w in worlds if rng.random() < 0.5} | {rng.choice(worlds)} for p in atoms}
    return worlds, classes, val


def frame_text(agents, worlds, classes, val):
    lines = ["agents: " + ", ".join(agents), "worlds: " + ", ".join(worlds)]
    for a in agents:
        for cls in classes[a]:
            lines.append(f"class {a}: " + ", ".join(cls))
    for p, members in val.items():
        lines.append(f"env {p}: " + ", ".join(w for w in worlds if w in members))
    return "\n".join(lines) + "\n"


def _kb4_formula(rng, agents, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        return ("atom", rng.choice(atoms))
    op = rng.choice(("not", "and", "or", "imp", "K", "K"))
    if op == "not":
        return ("not", _kb4_formula(rng, agents, atoms, depth - 1))
    if op == "K":
        return ("K", rng.choice(agents), _kb4_formula(rng, agents, atoms, depth - 1))
    return (op, _kb4_formula(rng, agents, atoms, depth - 1),
            _kb4_formula(rng, agents, atoms, depth - 1))


def model_check_inputs():
    """The fixed query list, independent of hyperknow: built from GEN_SEED."""
    rng = random.Random(GEN_SEED)
    frames = []
    for i in range(KB4_FRAMES):
        agents = ("a", "b", "c")[: 2 + i % 2]
        frames.append((f"frame{i}",) + (agents,) + random_frame(rng, agents, 6 + 3 * i, ("p", "q")))
    kb4 = []
    for name, agents, worlds, classes, val in frames:
        for j in range(KB4_QUERIES):
            kb4.append((name, _kb4_formula(rng, agents, ("p", "q"), 4)))
    return rng, frames, kb4


def setup_model_check(hk, root: Path, seed: int, _inputs) -> State:
    rng, frames, kb4 = model_check_inputs()
    texts = model_texts(hk)
    models = {name: hk.parse_model(text) for name, text in texts.items()}
    frame_models = {name: hk.parse_frame(frame_text(agents, worlds, classes, val))
                    for name, agents, worlds, classes, val in frames}
    frame_models["binary-input-frame"] = hk.parse_frame(hk.render_frame(
        hk.kappa_model(hk.strip_agent_atoms(models["binary-input"]))))

    queries = []   # (label, model name, sort, tree, text)
    n = 0
    for name, m in models.items():
        sig = m.sig
        agent_atoms = {a: sig.atoms_for(a) for a in sig.agents}
        gen = FormulaGen(rng, sig.agents, sig.env_atoms, agent_atoms)
        for j in range(MC_QUERIES):
            tree = gen.world(MC_DEPTH)
            queries.append((f"q{n:03d}", name, "world", tree, ref.render(tree)))
            n += 1
            a = sig.agents[j % len(sig.agents)]
            tree = gen.agent(a, MC_DEPTH)
            queries.append((f"q{n:03d}", name, a, tree, ref.render(tree)))
            n += 1

    generalized = {name for name, m in models.items() if hasattr(m.hypergraph, "incidence")}

    def evaluate(name, sort, text):
        m = models[name]
        if sort == "world":
            f = hk.parser.parse_world(text, m.sig)
            points = [hk.semantics.World(e) for e in m.edges]
        else:
            f = hk.parser.parse_agent(text, sort, m.sig)
            points = [hk.semantics.View(sort, v) for v in m.views_of(sort)]
        if name in generalized:
            return tuple(hk.neighborhood.sat_generalized(m, p, f) for p in points)
        ev = hk.semantics.Evaluator(m)
        return tuple(ev.sat(p, f) for p in points)

    def via_cli(name, sort, text):
        m = models[name]
        if sort == "world":
            argv = ["valid", "--model", "-", "--formula", text]
        else:
            argv = ["check", "--model", "-", "--view", f"{sort}:{m.views_of(sort)[0]}",
                    "--formula", text]
        return run_cli(hk, argv, texts[name])

    ops = []
    for i, (label, name, sort, _tree, text) in enumerate(queries):
        if i % MC_CLI_EVERY == MC_CLI_EVERY - 1:
            ops.append(Op(f"cli:{label}", lambda n=name, s=sort, t=text: via_cli(n, s, t)))
        else:
            ops.append(Op(f"eval:{label}", lambda n=name, s=sort, t=text: evaluate(n, s, t)))
    for i, (name, point, text, _expected) in enumerate(WORKED):
        ops.append(Op(f"worked:{i}", lambda n=name, p=point, t=text: evaluate_point(hk, models[n], p, t)))
    for i, (fname, tree) in enumerate(kb4):
        ops.append(Op(f"kb4:{i}", lambda fm=frame_models[fname], t=ref.render_kb4(tree):
                      kb4_agreement(hk, fm, t)))
    for name, m in models.items():
        if name not in generalized:
            ops.append(Op(f"roundtrip:{name}", lambda h=m.hypergraph: hypergraph_round_trip(hk, h)))
        ops.append(Op(f"neighborhood:{name}", lambda m=m: export(hk, m)))
    for name, fm in frame_models.items():
        ops.append(Op(f"frame_roundtrip:{name}", lambda fm=fm: frame_round_trip(hk, fm)))
    one_world = models["h2"]
    deep = (
        ("deep_not_fail", "~" * DEEP_NOT_FAIL + "true", True),
        ("deep_modal_fail", "E[a] <> " * DEEP_MODAL_FAIL + "true", True),
        ("deep_not_ok", "~" * DEEP_NOT_OK + "true", False),
        ("deep_modal_ok", "E[a] <> " * DEEP_MODAL_OK + "true", False),
    )
    for label, text, fault in deep:
        ops.append(Op(f"deep:{label}", lambda t=text: hk.semantics.Evaluator(one_world).sat_world(
            one_world.edges[0], hk.parser.parse_world(t, one_world.sig)), known_fault=fault))
    data = {"texts": texts, "models": models, "queries": queries, "frames": frames,
            "kb4": kb4, "frame_models": frame_models, "generalized": generalized}
    return State(shuffled(ops, seed), data)


def run_cli(hk, argv, stdin_text):
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = hk.cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def evaluate_point(hk, m, point, text):
    if point[0] == "world":
        return hk.semantics.Evaluator(m).sat_world(point[1], hk.parser.parse_world(text, m.sig))
    return hk.semantics.Evaluator(m).sat_agent(
        point[1], point[2], hk.parser.parse_agent(text, point[1], m.sig))


def kb4_agreement(hk, fm, text):
    sig = hk.Signature(fm.frame.agents, {}, fm.atoms)
    f = hk.parser.parse_kb4(text, sig)
    agree = hk.kb4.check_translation_equiv(fm, f)
    ev = hk.kb4.KB4Evaluator(fm)
    return agree, tuple(ev.sat(w, f) for w in fm.frame.worlds)


def hypergraph_round_trip(hk, h):
    fr = hk.frames.kappa(h)
    back = hk.frames.eta(fr)
    iso = hk.frames.is_isomorphic(h, back)
    iso_frames = hk.frames.is_isomorphic_frames(fr, hk.frames.kappa(back))
    return iso is not None, iso_frames is not None, fr


def frame_round_trip(hk, fm):
    m = hk.frames.eta_model(fm)
    back = hk.frames.kappa_model(m)
    iso = hk.frames.is_isomorphic_frames(fm.frame, back.frame)
    return iso is not None, tuple(sorted((p, tuple(sorted(s))) for p, s in back.val.items()))


def export(hk, m):
    g = m.hypergraph if hasattr(m.hypergraph, "incidence") else \
        hk.neighborhood.from_functional(m).hypergraph
    return hk.neighborhood.to_neighborhood(g)


def summarize_model_check(out):
    if isinstance(out, tuple) and len(out) == 3 and hasattr(out[2], "classes"):
        return out[:2] + (tuple(sorted(out[2].classes.items())),)
    if hasattr(out, "neighborhoods"):
        return tuple(sorted((a, tuple(sorted((s, tuple(sorted(map(sorted, n))))
                                             for s, n in per.items())))
                            for a, per in out.neighborhoods.items()))
    return out


def _points(m: ref.RefModel, sort):
    return list(m.edges) if sort == "world" else list(m.views[sort])


def check_model_check(hk, state: State, outputs) -> List[str]:
    problems = []
    d = state.data
    refs = {name: ref.model_from_text(text) for name, text in d["texts"].items()}
    for name, m in d["models"].items():
        if ref.model_from_program(m).key() != refs[name].key():
            problems.append(f"{name}: parse_model disagrees with the model text")
    for i, (label, name, sort, tree, _text) in enumerate(d["queries"]):
        m = refs[name]
        ext = ref.wext(m, tree) if sort == "world" else ref.aext(m, sort, tree)
        expected = tuple(p in ext for p in _points(m, sort))
        if f"eval:{label}" in outputs:
            if outputs[f"eval:{label}"] != expected:
                problems.append(f"{label}: evaluation disagrees with the reference")
            continue
        code, text = outputs[f"cli:{label}"]
        if sort == "world":
            failing = [e for e, ok in zip(m.edges, expected) if not ok]
            want = (0, "valid in the model\n") if not failing else \
                (1, "falsified at " + ", ".join(failing) + "\n")
        else:
            v = m.views[sort][0]
            word = "true" if expected[0] else "false"
            want = (0 if expected[0] else 1, f"{word} at view {v} of agent {sort}\n")
        if (code, text) != want:
            problems.append(f"{label}: CLI printed {text!r} with exit {code}, expected {want!r}")
    for i, (_name, _point, _text, expected) in enumerate(WORKED):
        if outputs[f"worked:{i}"] is not expected:
            problems.append(f"worked example {i}: verdict differs from the stated one")
    frames = {name: (agents, worlds, classes, val) for name, agents, worlds, classes, val in d["frames"]}
    for i, (fname, tree) in enumerate(d["kb4"]):
        agree, got = outputs[f"kb4:{i}"]
        agents, worlds, classes, val = frames[fname]
        ext = ref.kb4ext(worlds, classes, val, tree)
        if not agree:
            problems.append(f"kb4:{i}: translation disagrees with KB4 evaluation")
        if got != tuple(w in ext for w in worlds):
            problems.append(f"kb4:{i}: KB4 evaluation disagrees with the reference")
        translated = _translate(tree)
        if ref.wext(ref.eta_of_frame(agents, worlds, classes, val), translated) != ext:
            problems.append(f"kb4:{i}: reference translation disagrees (benchmark fault)")
    for name, m in refs.items():
        if name not in d["generalized"]:
            iso, iso_frames, fr = outputs[f"roundtrip:{name}"]
            classes = {a: sorted(tuple(sorted(m.fiber[(a, v)])) for v in m.views[a]) for a in m.agents}
            got = {a: sorted(tuple(sorted(c)) for c in fr.classes.get(a, ())) for a in m.agents}
            if not (iso and iso_frames) or classes != got:
                problems.append(f"roundtrip:{name}: not isomorphic, or kappa classes differ")
        frame = outputs[f"neighborhood:{name}"]
        for a in m.agents:
            for e in m.edges:
                want = {m.fiber[(a, v)] for v in m.inc.get((e, a), ())}
                if set(frame.n(a, e)) != want:
                    problems.append(f"neighborhood:{name}: N[{a}]({e}) differs")
    for name, fm in d["frame_models"].items():
        iso, val = outputs[f"frame_roundtrip:{name}"]
        if not iso or val != tuple(sorted((p, tuple(sorted(s))) for p, s in fm.val.items())):
            problems.append(f"frame_roundtrip:{name}: not isomorphic, or valuation lost")
    for label, want in (("deep_not_ok", DEEP_NOT_OK % 2 == 0), ("deep_modal_ok", True),
                        ("deep_not_fail", DEEP_NOT_FAIL % 2 == 0), ("deep_modal_fail", True)):
        key = f"deep:{label}"
        if key in outputs and outputs[key] is not want:
            problems.append(f"{key}: returned {outputs[key]!r}, parity gives {want}")
    return problems


def _translate(f):
    """KB4 knowledge becomes A[a] [] (vacuous knowledge), the rest is kept."""
    if f[0] == "atom":
        return f
    if f[0] == "K":
        return ("K", f[1], _translate(f[2]))
    return (f[0],) + tuple(_translate(x) for x in f[1:])


def summarize_search(out):
    """Verdicts as plain tuples (no hyperknow objects)."""
    if out is None:
        return None
    if hasattr(out, "models_checked"):
        return ("valid", out.models_checked)
    if hasattr(out, "point"):
        m = out.model
        return ("counter", point_key(out.point), tuple(m.edges),
                tuple(sorted(m.hypergraph.proj.items())))
    return ("other", type(out).__name__, getattr(out, "line", None))


def no_inputs(seed):
    return None


# name -> (inputs made before set-up, untimed; timed set-up; output summary
# compared across passes; output checks)
WORKLOADS = {
    "scheme-sweep": (no_inputs, setup_scheme_sweep, summarize_search, check_scheme_sweep),
    "countermodel": (countermodel_inputs, setup_countermodel, summarize_search, check_countermodel),
    "model-check": (no_inputs, setup_model_check, summarize_model_check, check_model_check),
}
