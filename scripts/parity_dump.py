#!/usr/bin/env python3
"""Print a deterministic dump of the sweep verdicts, for comparing two trees
of this repository with ``cmp``.

Four parts, one line per verdict (a countermodel adds its model, rendered
in the model file format) or per rendered formula:

- the scheme library under ``check_scheme`` at ``Bounds(edges=3)``,
  ``Bounds()`` and 3 agents with 2 views and 3 edges, 2 views and 4 edges,
  and 3 views and 4 edges: verdict and ``models_checked``, or the witness
  point, metavariable assignment and model;
- ``find_countermodel`` at ``Bounds()`` on ``kb4.translate`` of every KB4
  formula of ``enumerate_kb4_formulas(("q",), ("a", "b"), max_size=N)``;
- ``soundness_spotcheck`` on each corpus derivation;
- ``parser.render`` of every library scheme at 2 agents and of every line
  of each corpus derivation, so that the renderer's rules are compared too.

The text depends on no hash seed: models are rendered, not ``repr``-ed.
Run it as ``PYTHONPATH=src python3 scripts/parity_dump.py > dump.txt`` in
each tree; ``--max-size`` and ``--edges`` shrink the inputs (a bound of
the grid that the edge limit makes equal to an earlier one is swept once).
"""

import argparse
from pathlib import Path

from hyperknow import WorldFormula, kb4, parser, search
from hyperknow.proofkernel import soundness_spotcheck

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def scheme_library(agents):
    table = {
        "surjectivity": (search.scheme_surjectivity("a"), "a"),
        "functionality": (search.scheme_functionality("a"), "a"),
        "non_emptiness": (search.scheme_non_emptiness(agents), None),
        "locality": (search.locality_scheme("a"), "a"),
    }
    for k, scheme in search.interaction_schemes("a").items():
        table[f"interaction_{k}"] = (scheme, None if isinstance(scheme, WorldFormula) else "a")
    for name, scheme in search.knowledge_schemes("a").items():
        table[name] = (scheme, None)
    return table


def verdict_lines(label, v):
    if isinstance(v, search.ValidWithinBounds):
        return [f"{label}: valid {v.models_checked}"]
    assignment = ", ".join(f"{k}={parser.render(f)}" for k, f in sorted(v.assignment.items()))
    return [f"{label}: countermodel at {v.point!r} [{assignment}]",
            *("    " + line for line in parser.render_model(v.model).splitlines())]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-size", type=int, default=6,
                    help="largest KB4 formula refuted (default 6)")
    ap.add_argument("--edges", type=int, default=4,
                    help="edge bound of the scheme sweeps, at most 4 (default 4)")
    args = ap.parse_args()

    grid = [search.Bounds(edges=3), search.Bounds(), search.Bounds(agents=3, views=2, edges=3),
            search.Bounds(agents=3, views=2, edges=4), search.Bounds(agents=3, views=3, edges=4)]
    bounds = []
    for b in grid:
        if b.edges > args.edges:
            b = search.Bounds(agents=b.agents, views=b.views, edges=args.edges)
        if b not in bounds:
            bounds.append(b)
    out = []
    for b in bounds:
        agents = search.default_agents(b.agents)
        for name, (scheme, agent) in scheme_library(agents).items():
            out += verdict_lines(f"scheme {b.agents}/{b.views}/{b.edges} {name}",
                                 search.check_scheme(scheme, b, agent=agent))

    formulas = search.enumerate_kb4_formulas(("q",), ("a", "b"), max_size=args.max_size)
    for k, f in enumerate(formulas):
        out += verdict_lines(f"kb4 {k} {parser.render(f)}",
                             search.find_countermodel(kb4.translate(f), search.Bounds()))

    derivations = {path.name: parser.parse_derivation(path.read_text(encoding="utf-8"))
                   for path in sorted(CORPUS.glob("*.deriv"))}
    for name, d in derivations.items():
        hit = soundness_spotcheck(d)
        if hit is None:
            out.append(f"corpus {name}: sound")
        else:
            out += [f"corpus {name}: line {hit.line} fails at {hit.point!r}",
                    *("    " + line for line in parser.render_model(hit.model).splitlines())]

    for name, (scheme, _) in scheme_library(search.default_agents(2)).items():
        out.append(f"render scheme {name}: {parser.render(scheme)}")
    for name, d in derivations.items():
        out += [f"render {name} {line.index}: {parser.render(line.statement.formula)}"
                for line in d.lines]
    print("\n".join(out))


if __name__ == "__main__":
    main()
