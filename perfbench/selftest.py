#!/usr/bin/env python3
"""Show that each workload's output check catches a corrupted output.

    python3 perfbench/selftest.py

For every workload this runs set-up and one pass, confirms that the check
passes on the real outputs, then corrupts outputs one at a time and
confirms that the check reports each corruption.  Exits 0 when every
corruption was caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run


def corruptions(hk, name, outputs):
    """(description, corrupted outputs) pairs for one workload."""
    out = []

    def replaced(label, value):
        changed = dict(outputs)
        changed[label] = value
        return changed

    if name == "scheme-sweep":
        invalid = next(k for k in outputs if k.startswith("check_scheme:ksafe_b@"))
        out.append(("a falsified scheme reported valid",
                    replaced(invalid, hk.search.ValidWithinBounds(models_checked=1))))
        cm = outputs[invalid]
        m = cm.model
        flipped = hk.build_model(m.sig, m.hypergraph.views, m.edges, m.hypergraph.proj,
                                 m.val_agent, {p: frozenset(m.edges) - s for p, s in m.val_env.items()})
        out.append(("a countermodel whose valuation makes the scheme true",
                    replaced(invalid, hk.search.Countermodel(flipped, cm.point, cm.assignment))))
        spot = next(k for k in outputs if k.startswith("soundness_spotcheck:"))
        out.append(("a spotcheck reporting a counterexample", replaced(spot, "counterexample")))
    elif name == "countermodel":
        falsified = next(k for k, v in sorted(outputs.items())
                         if k.startswith("find_countermodel:") and hasattr(v, "point"))
        out.append(("a falsifiable formula reported valid",
                    replaced(falsified, hk.search.ValidWithinBounds(models_checked=1))))
        cm = outputs[falsified]
        m, h = cm.model, cm.model.hypergraph
        extra = "e_extra"
        proj = dict(h.proj)
        proj.update({(extra, a): v for (e, a), v in h.proj.items() if e == cm.point.edge})
        val_env = {p: s | ({extra} if cm.point.edge in s else set()) for p, s in m.val_env.items()}
        bigger = hk.build_model(m.sig, h.views, h.edges + (extra,), proj, m.val_agent, val_env)
        out.append(("a countermodel with a redundant world (not locally minimal)",
                    replaced(falsified, hk.search.Countermodel(bigger, cm.point, {}))))
    else:
        query = next(k for k in sorted(outputs) if k.startswith("eval:"))
        answer = outputs[query]
        out.append(("one flipped answer of a query",
                    replaced(query, (not answer[0],) + tuple(answer[1:]))))
        cli = next(k for k in sorted(outputs) if k.startswith("cli:"))
        code, text = outputs[cli]
        out.append(("a CLI verdict with the opposite exit code", replaced(cli, (1 - code, text))))
        kb4 = next(k for k in sorted(outputs) if k.startswith("kb4:"))
        out.append(("KB4 disagreement", replaced(kb4, (False,) + tuple(outputs[kb4][1:]))))
    return out


def main() -> int:
    if not run.add_source_paths():
        return 2
    import workloads

    probe = run.SpeedProbe()
    missed = 0
    for name, (make_inputs, workload_setup, _summarize, check) in workloads.WORKLOADS.items():
        hk, state, _seconds, _scale = run.setup(workload_setup, 1, make_inputs(1), probe)
        outputs, failures, _lat, _s, _scale = run.run_pass(state.ops, probe)
        clean = check(hk, state, copy.copy(outputs))
        print(f"{name}: clean outputs -> {len(clean)} problem(s)")
        missed += bool(clean)
        for description, bad in corruptions(hk, name, outputs):
            found = check(hk, state, bad)
            print(f"  {description}: {'caught' if found else 'MISSED'}"
                  + (f" ({found[0]})" if found else ""))
            missed += not found
    print("selftest", "passed" if not missed else f"failed ({missed})")
    return 0 if not missed else 1


if __name__ == "__main__":
    sys.exit(main())
