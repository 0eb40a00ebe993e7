"""Command-line front end.

Exit codes: 0 = satisfied / valid / ok, 1 = falsified / countermodel /
rejected, 2 = usage or input error.  ``-`` means standard input wherever a
file is expected.  ``--format machine`` switches a report to a versioned
JSON document (``format_version`` 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import parser as pa
from . import proofkernel, search
from .core import ChromaticHypergraph, GeneralizedChromaticHypergraph, example, example_names
from .errors import DerivationCheckError, HyperknowError
from .frames import eta_model, kappa_model
from .kb4 import translate
from .neighborhood import to_neighborhood
from .semantics import Evaluator

FORMAT_VERSION = 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise HyperknowError(f"cannot read {path}: {err}") from None


def _emit(args, text: str, machine: dict):
    if getattr(args, "format", "text") == "machine":
        machine = {"format_version": FORMAT_VERSION, **machine}
        print(json.dumps(machine, indent=2, sort_keys=False, default=_jsonable))
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, frozenset):
        return sorted(obj)
    return str(obj)


def _model_json(m) -> dict:
    h = m.hypergraph
    generalized = isinstance(h, GeneralizedChromaticHypergraph)
    edges = {}
    for e in h.edges:
        entry = {}
        for a in m.sig.agents:
            vs = h.views_in(e, a)
            if vs:
                entry[a] = list(vs) if generalized else vs[0]
        edges[e] = entry
    return {
        "agents": list(m.sig.agents),
        "views": {a: list(h.views.get(a, ())) for a in m.sig.agents},
        "edges": edges,
        "generalized": generalized,
    }


def cmd_check(args) -> int:
    model = pa.parse_model(_read(args.model))
    if args.world is not None and args.view is not None:
        raise HyperknowError("--world and --view are mutually exclusive")
    if args.world is None and args.view is None:
        raise HyperknowError("one of --world or --view is required")
    if args.world is not None:
        formula = pa.parse_world(args.formula, model.sig)
        verdict = Evaluator(model).sat_world(args.world, formula)
        where = f"world {args.world}"
    else:
        agent, _, view = args.view.partition(":")
        if not view:
            raise HyperknowError("--view expects AGENT:VIEW")
        formula = pa.parse_agent(args.formula, agent, model.sig)
        verdict = Evaluator(model).sat_agent(agent, view, formula)
        where = f"view {view} of agent {agent}"
    _emit(args, f"{'true' if verdict else 'false'} at {where}",
          {"command": "check", "verdict": bool(verdict), "point": where,
           "formula": pa.render(formula)})
    return 0 if verdict else 1


def cmd_valid(args) -> int:
    model = pa.parse_model(_read(args.model))
    formula = pa.parse_world(args.formula, model.sig)
    ev = Evaluator(model)
    failures = [e for e in model.edges if not ev.sat_world(e, formula)]
    ok = not failures
    text = ("valid in the model" if ok
            else "falsified at " + ", ".join(failures))
    _emit(args, text, {"command": "valid", "verdict": ok, "falsified_at": failures})
    return 0 if ok else 1


def cmd_convert(args) -> int:
    if args.to == "frame":
        model = pa.parse_model(_read(args.model))
        if not isinstance(model.hypergraph, ChromaticHypergraph):
            raise HyperknowError("only ordinary (functional) models convert to frames")
        fm = kappa_model(model)
        text = pa.render_frame(fm).rstrip("\n")
        _emit(args, text, {"command": "convert", "to": "frame",
                           "worlds": list(fm.frame.worlds)})
        return 0
    fm = pa.parse_frame(_read(args.model))
    model = eta_model(fm)
    text = pa.render_model(model).rstrip("\n")
    _emit(args, text, {"command": "convert", "to": "hypergraph",
                       **_model_json(model)})
    return 0


def cmd_translate_kb4(args) -> int:
    agents = tuple(a.strip() for a in args.agents.split(",") if a.strip())
    if args.model is not None:
        sig = pa.parse_model(_read(args.model)).sig
    else:
        # Atoms are implicitly environment atoms of the translation target.
        tokens = pa.tokenize(args.formula)
        names = []
        for i, tok in enumerate(tokens):
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if (tok.kind == "IDENT" and tok.text not in ("K",)
                    and not (nxt is not None and nxt.kind == "LBRACK")
                    and tok.text not in names and tok.text not in agents):
                names.append(tok.text)
        from .core import Signature
        sig = Signature(agents, {}, tuple(names))
    kf = pa.parse_kb4(args.formula, sig)
    out = translate(kf)
    _emit(args, pa.render(out), {"command": "translate-kb4",
                                 "input": args.formula,
                                 "output": pa.render(out)})
    return 0


def cmd_countermodel(args) -> int:
    bounds = search.Bounds(agents=args.agents, views=args.views, edges=args.edges)
    bounds.validate()
    agents = search.default_agents(args.agents)
    formula, _sig = pa.parse_world_inferring(args.formula, agents)
    verdict = search.find_countermodel(formula, bounds)
    if isinstance(verdict, search.ValidWithinBounds):
        _emit(args, f"valid within bounds ({verdict.models_checked} valuation sweeps)",
              {"command": "countermodel", "verdict": "valid-within-bounds",
               "sweeps": verdict.models_checked})
        return 0
    model_text = pa.render_model(verdict.model).rstrip("\n")
    text = f"countermodel at world {verdict.point.edge}:\n{model_text}"
    _emit(args, text, {"command": "countermodel", "verdict": "countermodel",
                       "point": verdict.point.edge, **_model_json(verdict.model)})
    return 1


def cmd_prove(args) -> int:
    derivation = pa.parse_derivation(_read(args.check))
    try:
        proofkernel.check_derivation(derivation)
    except DerivationCheckError as err:
        _emit(args, f"rejected: {err}",
              {"command": "prove", "verdict": "rejected", "line": err.line,
               "kind": err.kind, "message": str(err)})
        return 1
    report = {"command": "prove", "verdict": "ok", "lines": len(derivation.lines)}
    if args.soundness:
        counter = proofkernel.soundness_spotcheck(derivation)
        if counter is not None:
            _emit(args, f"KERNEL BUG: line {counter.line} fails at {counter.point}",
                  {"command": "prove", "verdict": "unsound", "line": counter.line})
            return 1
        report["soundness"] = "ok"
    _emit(args, f"ok ({len(derivation.lines)} lines)", report)
    return 0


def cmd_example(args) -> int:
    params = {}
    if args.name == "card-game":
        params = {"cards": args.cards, "agents": args.players}
    m = example(args.name, **params)
    if getattr(args, "format", "text") == "machine":
        _emit(args, "", {"command": "example", "name": args.name, **_model_json(m)})
    else:
        print(pa.render_model(m), end="")
    return 0


def cmd_neighborhood(args) -> int:
    model = pa.parse_model(_read(args.model))
    frame = to_neighborhood(model.hypergraph)
    lines = ["states: " + ", ".join(frame.states)]
    table = {}
    for a in model.sig.agents:
        table[a] = {}
        for s in frame.states:
            hoods = sorted(frame.n(a, s), key=lambda x: sorted(x))
            rendered = " ".join("{" + ",".join(sorted(h, key=_state_key(frame))) + "}"
                                for h in hoods)
            lines.append(f"N[{a}]({s}) = {rendered}")
            table[a][s] = [sorted(h, key=_state_key(frame)) for h in hoods]
    _emit(args, "\n".join(lines),
          {"command": "neighborhood", "states": list(frame.states),
           "neighborhoods": table})
    return 0


def _state_key(frame):
    order = {s: i for i, s in enumerate(frame.states)}
    return lambda s: order[s]


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperknow",
        description="Two-level epistemic logic on chromatic hypergraphs.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report format (machine = versioned JSON)")

    p = sub.add_parser("check", help="evaluate a formula at one point of a model")
    p.add_argument("--model", required=True, help="model file ('-' for stdin)")
    p.add_argument("--world", help="evaluate a world formula at this edge")
    p.add_argument("--view", help="evaluate an agent formula at AGENT:VIEW")
    p.add_argument("--formula", required=True)
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("valid", help="check a world formula at every world of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    add_format(p)
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("convert", help="convert between model and frame formats")
    p.add_argument("--model", required=True,
                   help="input file: a model for --to frame, a frame for --to hypergraph")
    p.add_argument("--to", choices=("frame", "hypergraph"), required=True)
    add_format(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("translate-kb4", help="translate a KB4 formula to a world formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--agents", default="a,b", help="comma-separated agent names")
    p.add_argument("--model", help="take the signature from this model file")
    add_format(p)
    p.set_defaults(func=cmd_translate_kb4)

    p = sub.add_parser("countermodel", help="bounded countermodel search for a world formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--edges", type=int, default=4)
    add_format(p)
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("prove", help="check a derivation file")
    p.add_argument("--check", required=True, help="derivation file ('-' for stdin)")
    p.add_argument("--soundness", action="store_true",
                   help="also replay every line against enumerated models")
    add_format(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("example", help="print a built-in model file")
    p.add_argument("name", choices=example_names())
    p.add_argument("--cards", type=int, default=4, help="card-game deck size")
    p.add_argument("--players", type=int, default=3, help="card-game agent count")
    add_format(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("neighborhood", help="print the neighborhood-frame export")
    p.add_argument("--model", required=True)
    add_format(p)
    p.set_defaults(func=cmd_neighborhood)

    return top


def run(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HyperknowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
