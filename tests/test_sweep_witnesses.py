"""Sweep verdicts and witnesses pinned byte for byte.

``tests/data/sweep_witnesses.txt`` holds, for every row of the scheme
library at 2 and at 3 agents with 2 views and 3 edges and at the default
bounds, the verdict, ``models_checked``, the witness point, the
metavariable assignment and the rendered countermodel, and the result of
``soundness_spotcheck`` on every corpus derivation.  A change to the sweep
engine must leave all of it unchanged.  Print the current text with
``PYTHONPATH=src python tests/test_sweep_witnesses.py``.
"""

from pathlib import Path

from hyperknow import WorldFormula, parse_derivation, parser, proofkernel, search

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "sweep_witnesses.txt"
BOUNDS = (search.Bounds(agents=2, views=2, edges=3), search.Bounds(agents=3, views=2, edges=3),
          search.Bounds())


def library(agents):
    rows = {
        "surjectivity": (search.scheme_surjectivity("a"), "a"),
        "functionality": (search.scheme_functionality("a"), "a"),
        "non_emptiness": (search.scheme_non_emptiness(agents), None),
    }
    for k, scheme in search.interaction_schemes("a").items():
        rows[f"interaction_{k}"] = (scheme, None if isinstance(scheme, WorldFormula) else "a")
    rows["locality"] = (search.locality_scheme("a"), "a")
    rows.update((name, (scheme, None)) for name, scheme in search.knowledge_schemes("a").items())
    return rows


def _witness(point, model):
    return [f"  countermodel at {point!r}",
            *("    " + line for line in parser.render_model(model).splitlines())]


def witness_dump() -> str:
    out = []
    for b in BOUNDS:
        for name, (scheme, agent) in library(search.default_agents(b.agents)).items():
            out.append(f"check_scheme {name} at {b.agents}/{b.views}/{b.edges}")
            v = search.check_scheme(scheme, b, agent=agent)
            if isinstance(v, search.ValidWithinBounds):
                out.append(f"  valid, models_checked {v.models_checked}")
                continue
            out.extend(f"  {n} := {parser.render(f)}" for n, f in v.assignment.items())
            out.extend(_witness(v.point, v.model))
    for path in sorted((ROOT / "corpus").glob("*.deriv")):
        out.append(f"soundness_spotcheck {path.name}")
        cx = proofkernel.soundness_spotcheck(parse_derivation(path.read_text(encoding="utf-8")))
        if cx is None:
            out.append("  sound within bounds")
        else:
            out.append(f"  line {cx.line}")
            out.extend(_witness(cx.point, cx.model))
    return "\n".join(out) + "\n"


def test_sweep_witnesses_match_the_golden_file():
    assert witness_dump() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(witness_dump(), end="")
