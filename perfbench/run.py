#!/usr/bin/env python3
"""Benchmark one hyperknow workload in one process and one thread.

    python3 perfbench/run.py --workload scheme-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: hyperknow is imported from ``src/`` next to
this directory, never from an installed copy.  A run repeats whole passes
over the workload's operations until ``--seconds`` have passed.  It sets up
(a cold import of hyperknow, parsing, filling the structure cache)
``SETUP_ROUNDS`` times, spread evenly over the run, and reports the median
as ``setup_s``; spreading the rounds makes them see the same machine as the
passes.  After the passes it checks the outputs of the last set-up's first
pass against the independent reference (``reference.py``) and checks that
every pass repeated them.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end times are given at a fixed reference speed of the machine.
The machine this benchmark was built on changes speed by up to 1.6x over
seconds to minutes, so the same code reads differently from run to run.
Between operations, after every ``PROBE_EVERY_S`` of operation time, a run
times a speed probe (``SpeedProbe``): the independent reference evaluator on
a fixed list of formulas and models that the benchmark makes itself, work of
the same kind as hyperknow's, which no change to hyperknow can move.  Set-up
is bracketed by ``SETUP_PROBES`` probes on each side.  Each time is
multiplied by ``REFERENCE_PROBE_S`` over the probes' mean time around it:
the time the work would take on a machine that runs the probe in
``REFERENCE_PROBE_S``.  Probe time is in no measured time.  The wall times
and the factors are printed on the line before the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up once,
alternates untraced and traced passes, and reports the layer metrics of the
median traced pass, the untraced remainder and the tracing overhead, all in
wall time; it also writes the spans of the last traced pass under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 5
PROBE_EVERY_S = 0.1        # operation time between two speed probes in a pass
SETUP_PROBES = 5           # speed probes before and after each set-up
REFERENCE_PROBE_S = 0.0055 # a probe's time at the reference speed
OUT_DIR = ROOT / ".perfbench"


def add_source_paths() -> bool:
    """Import hyperknow from this checkout's ``src/``, and the benchmark's modules."""
    if not (ROOT / "src" / "hyperknow" / "__init__.py").is_file():
        print(f"error: no hyperknow sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    return True


def forget_hyperknow():
    """Drop every hyperknow module, so that the next import starts cold."""
    for name in [m for m in sys.modules if m == "hyperknow" or m.startswith("hyperknow.")]:
        del sys.modules[name]
    gc.collect()


class SpeedProbe:
    """Times the reference evaluator (``reference.wext``) on fixed formulas
    over fixed models, all drawn from ``PROBE_SEED`` by the benchmark itself.

    The probe exercises what hyperknow's evaluator does (frozensets, dicts,
    tuples, recursion) with nothing of hyperknow in it, so that only the
    machine's speed moves it.  A fixed computation of another kind (a loop
    of integer arithmetic, say) was tried and followed the machine's drift
    less closely, see the README."""

    PROBE_SEED = 4711
    SIZES = (20, 60, 200)       # worlds per model
    FORMULAS = 12               # per model, of depth 4

    def __init__(self):
        import reference as ref
        import workloads
        rng = random.Random(self.PROBE_SEED)
        agents = ("a", "b", "c")
        self.wext = ref.wext
        self.cases = []
        for n in self.SIZES:
            m = ref.eta_of_frame(agents, *workloads.random_frame(rng, agents, n, ("p", "q")))
            gen = workloads.FormulaGen(rng, agents, ("p", "q"), {})
            self.cases += [(m, gen.world(4)) for _ in range(self.FORMULAS)]

    def __call__(self) -> float:
        """Seconds one probe takes."""
        start = time.perf_counter()
        for m, f in self.cases:
            self.wext(m, f)
        return time.perf_counter() - start


def setup(workload_setup, seed, inputs, probe, tracer=None):
    """Import hyperknow and set the workload up: (hk, state, seconds, scale).

    ``scale`` is ``REFERENCE_PROBE_S`` over the median of the probes taken
    just before and just after."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    hk = importlib.import_module("hyperknow")
    importlib.import_module("hyperknow.cli")
    if tracer is not None:
        tracer.install()
    state = workload_setup(hk, ROOT, seed, inputs)
    seconds = time.perf_counter() - start
    probes += [probe() for _ in range(SETUP_PROBES)]
    return hk, state, seconds, REFERENCE_PROBE_S / statistics.median(probes)


def run_pass(ops, probe, tracer=None):
    """One pass over the operations: (outputs, failures, latencies, seconds, scale).

    After every ``PROBE_EVERY_S`` of operation time, and at the end, it runs a
    speed probe between two operations; probe time is in neither the
    latencies nor the seconds.  ``scale`` is ``REFERENCE_PROBE_S`` over the
    probes' mean time, each probe weighted by the operation time before it."""
    outputs, failures, latencies = {}, {}, []
    clock = time.perf_counter
    probed = weight = since = probing = 0.0
    start = clock()
    for op in ops:
        if since >= PROBE_EVERY_S:
            t0 = clock()
            probed += since * probe()
            weight, since = weight + since, 0.0
            probing += clock() - t0
        if tracer is not None:
            tracer.enter("bench.op")
        t0 = clock()
        try:
            outputs[op.label] = op.fn()
        except Exception as err:        # recorded here, judged after the pass
            failures[op.label] = err
        latency = clock() - t0
        latencies.append(latency)
        since += latency
        if tracer is not None:
            tracer.exit()
    seconds = clock() - start - probing
    probed += since * probe()
    weight += since
    return outputs, failures, latencies, seconds, REFERENCE_PROBE_S * weight / probed


def failure_problems(ops, failures):
    """Only the known deep-nesting operations may fail, and only by recursion
    depth or a hyperknow error (a nesting limit, should one be added)."""
    known = {op.label for op in ops if op.known_fault}
    problems = []
    for label, err in failures.items():
        if label not in known:
            problems.append(f"{label} failed: {type(err).__name__}: {err}"[:300])
        elif not isinstance(err, RecursionError) and \
                type(err).__module__.split(".")[0] != "hyperknow":
            problems.append(f"{label} failed outside the known fault: {type(err).__name__}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not add_source_paths():
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    make_inputs, workload_setup, summarize, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    rounds = 1 if tracer else SETUP_ROUNDS

    start = time.perf_counter()
    deadline = start + args.seconds
    hk = state = None
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):       # untimed: let the processor reach its speed
        probe()
    setup_times, setup_scaled, pass_times, scales, latencies = [], [], [], [], []
    op_latencies = {}       # label -> its latency in every pass, at the reference speed
    traced_times, untraced_times, layer_rows, remainders = [], [], [], []
    problems, first_summary, check_outputs = [], None, None
    passes = failed = 0
    while True:
        if len(setup_times) < rounds and \
                time.perf_counter() >= start + args.seconds * len(setup_times) / rounds:
            if state is not None:
                # Free the previous round's modules, caches and outputs first.
                del hk, state
                check_outputs = None
                forget_hyperknow()
            hk, state, seconds, scale = setup(workload_setup, args.seed, inputs, probe, tracer)
            setup_times.append(seconds)
            setup_scaled.append(seconds * scale)
            if tracer is not None:
                tracer.uninstall()
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
            tracer.reset_pass()
        outputs, failures, lat, seconds, scale = run_pass(state.ops, probe,
                                                          tracer if traced else None)
        if traced:
            tracer.uninstall()
            traced_times.append(seconds)
            layer_rows.append(tracer.pass_metrics())
            remainders.append(seconds - tracer.traced_total())
        elif tracer is not None:
            untraced_times.append(seconds)
        passes += 1
        failed += len(failures)
        pass_times.append(seconds)
        scales.append(scale)
        latencies.extend(x * scale for x in lat)
        for op, x in zip(state.ops, lat):
            op_latencies.setdefault(op.label, []).append(x * scale)
        # Summaries hold no hyperknow objects, so earlier set-ups can be freed.
        summary = ({label: summarize(out) for label, out in outputs.items()},
                   sorted(failures))
        if first_summary is None:
            first_summary = summary
            problems += failure_problems(state.ops, failures)
        elif summary != first_summary and "a pass did not repeat the first pass" not in problems:
            problems.append("a pass did not repeat the first pass")
        if check_outputs is None:
            check_outputs = outputs
        del outputs, failures
        gc.collect()
        if time.perf_counter() >= deadline and len(setup_times) == rounds and \
                (tracer is None or layer_rows):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += check(hk, state, check_outputs)
    for line in problems:
        print("CHECK FAILED: " + line, file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "pass_s": {"value": statistics.median(t * k for t, k in zip(pass_times, scales)),
                       "unit": "s"},
            # The median operation's typical latency: each operation's median
            # over the passes first, so that one slow sample of an operation
            # near the middle does not move the result.
            "op_p50_ms": {"value": statistics.median(
                statistics.median(v) for v in op_latencies.values()) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = {}
        for name in layer_rows[0]:
            unit = tracing.unit_of(name)
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": middle(row[name] for row in layer_rows), "unit": unit}
        traced_s = statistics.median(traced_times)
        metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.untraced_remainder_s"] = {"value": statistics.median(remainders), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - statistics.median(untraced_times),
                                       "unit": "s"}
    q = statistics.quantiles(latencies, n=20) if len(latencies) >= 2 else [latencies[0]] * 19
    print(f"# {args.workload} seed={args.seed} passes={passes} ops/pass={len(state.ops)} "
          f"op_ms (reference speed, pooled) p50={statistics.median(latencies) * 1e3:.3f} "
          f"p90={q[17] * 1e3:.3f} p95={q[18] * 1e3:.3f} samples={len(latencies)}; wall time: "
          f"setup_s={['%.3f' % s for s in setup_times]} "
          f"pass_s median={statistics.median(pass_times):.3f} "
          f"{['%.3f' % s for s in pass_times]} scale={['%.3f' % k for k in scales]}")
    result = {"correct": not problems, "attempted": passes * len(state.ops), "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{stem}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
