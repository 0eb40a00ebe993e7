"""Countermodel verdicts and witnesses pinned byte for byte.

``tests/data/countermodel_witnesses.txt`` holds, for the formulas of the
CLI tests and for seeded random formulas that use every derived
connective, at the default bounds and at 3 agents with 2 views and 3 edges,
``find_countermodel``'s verdict: ``models_checked`` of a valid formula, or
the witness point and the rendered countermodel.  A change to the
countermodel path must leave all of it unchanged.  Print the current text
with ``PYTHONPATH=src python tests/test_countermodel_witnesses.py``.
"""

import random
from pathlib import Path

from conftest import RICH_SIG, random_surface_world
from hyperknow import parser, search

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "countermodel_witnesses.txt"
BOUNDS = (search.Bounds(), search.Bounds(agents=3, views=2, edges=3))
CLI_FORMULAS = ("alive(a)", "alive(a) | alive(b)", "K[a] q -> Ksafe[a] q", "K[a] p -> p")


def formulas():
    """The CLI formulas as the CLI parses them, then 200 random ones."""
    out = [parser.parse_world_inferring(text, ("a", "b"))[0] for text in CLI_FORMULAS]
    rng = random.Random(2023)
    out += [random_surface_world(rng, RICH_SIG, 4) for _ in range(200)]
    return out


def witness_dump() -> str:
    out = []
    for f in formulas():
        for b in BOUNDS:
            out.append(f"find_countermodel {parser.render(f)} at {b.agents}/{b.views}/{b.edges}")
            v = search.find_countermodel(f, b)
            if isinstance(v, search.ValidWithinBounds):
                out.append(f"  valid, models_checked {v.models_checked}")
                continue
            out.append(f"  countermodel at {v.point!r}")
            out.extend("    " + line for line in parser.render_model(v.model).splitlines())
    return "\n".join(out) + "\n"


def test_countermodel_witnesses_match_the_golden_file():
    assert witness_dump() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(witness_dump(), end="")
