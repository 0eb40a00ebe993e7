"""In-memory span tracing of hyperknow's layers, from outside the program.

``Tracer.install`` wraps each layer's public functions by replacing the name
in every ``hyperknow`` module that looks it up (modules import each other's
functions by name, so ``hyperknow.search.build_model`` is wrapped as well as
``hyperknow.core.build_model``), and wraps the evaluator classes' methods on
the class itself, which every importer shares.  On the recursive functions
only the outermost call records a span.  ``uninstall`` puts the originals
back, so untraced passes run the program as it is.

A span's self time is its duration minus the time its child spans cover.
Each layer metric named ``<layer>.<what>_s`` is the self time of that
layer's spans in one pass.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, function names): the layer boundaries.
FUNCTIONS = {
    "search.check_scheme": ("hyperknow.search", ("check_scheme",)),
    "search.find_countermodel": ("hyperknow.search", ("find_countermodel",)),
    "proofkernel.check": ("hyperknow.proofkernel", ("check_derivation",)),
    "proofkernel.spotcheck": ("hyperknow.proofkernel", ("soundness_spotcheck",)),
    "core.build_model": ("hyperknow.core", ("build_model",)),
    "syntax.desugar": ("hyperknow.syntax", ("desugar",)),
    "parser.parse_formula": ("hyperknow.parser",
                             ("parse_world", "parse_agent", "parse_kb4", "parse_world_inferring")),
    "parser.parse_model": ("hyperknow.parser", ("parse_model", "parse_frame")),
    "neighborhood.sat": ("hyperknow.neighborhood", ("sat_generalized",)),
    "neighborhood.export": ("hyperknow.neighborhood", ("to_neighborhood", "from_functional")),
    "frames.convert": ("hyperknow.frames", ("kappa", "eta", "kappa_model", "eta_model")),
    "frames.iso": ("hyperknow.frames", ("is_isomorphic", "is_isomorphic_frames")),
    "kb4.sat": ("hyperknow.kb4", ("sat_kb4", "check_translation_equiv")),
    "kb4.translate": ("hyperknow.kb4", ("translate",)),
    "cli.run": ("hyperknow.cli", ("run",)),
}
# span name -> (module, class, methods): recursive evaluators.
METHODS = {
    "semantics.sat": ("hyperknow.semantics", "Evaluator", ("sat_world", "sat_agent")),
    "neighborhood.sat": ("hyperknow.neighborhood", "GeneralizedEvaluator",
                         ("sat_world", "sat_agent")),
    "kb4.sat": ("hyperknow.kb4", "KB4Evaluator", ("sat",)),
}
# The structure and valuation streams are timed one ``next`` at a time.
STREAM_SPAN = "search.enumerate"
SWEEPS = ("search.check_scheme", "search.find_countermodel")

TIME_METRICS = (
    "search.enumerate", "search.check_scheme", "search.find_countermodel",
    "proofkernel.check", "proofkernel.spotcheck", "core.build_model", "semantics.sat",
    "syntax.desugar", "parser.parse_formula", "parser.parse_model", "neighborhood.sat",
    "neighborhood.export", "frames.convert", "frames.iso", "kb4.sat", "kb4.translate",
    "cli.run",
)


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _class_key(h):
    """Edge-relabelling class of a structure: its sorted edge rows."""
    agents = h.sig.agents
    return tuple(sorted(tuple(h.proj.get((e, a)) or "" for a in agents) for e in h.edges))


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.stack = []           # [name id, start, child time, span index]
        self.depth = defaultdict(int)
        self.patches = []
        self.streams = {}         # bounds key -> (structures, classes) of a whole stream
        self.reset_pass()

    # --- spans -------------------------------------------------------------------

    def reset_pass(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def enter(self, name):
        idx = len(self.span_start)
        t = time.perf_counter()
        self.span_name.append(self._id(name))
        self.span_start.append(t)
        self.span_end.append(t)
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.stack.append([name, t, 0.0, idx])

    def exit(self):
        t = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        self.span_end[idx] = t
        self.self_time[name] += (t - start) - child
        self.counts[name + ".spans"] += 1
        if self.stack:
            self.stack[-1][2] += t - start

    def inside(self, names):
        return any(entry[0] in names for entry in self.stack)

    # --- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                tracer.depth[name] -= 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def _wrap_stream(self, fn, on_item, on_done):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs), args, kwargs)

        def timed(gen, args, kwargs):
            n = 0
            classes = set()
            while True:
                tracer.enter(STREAM_SPAN)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.exit()
                    on_done(args, kwargs, n, classes)
                    return
                except BaseException:
                    tracer.exit()
                    raise
                tracer.exit()
                n += 1
                on_item(item, classes)
                yield item
        return wrapper

    def _patch_everywhere(self, home, attr, wrapper):
        original = getattr(sys.modules[home], attr)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "hyperknow" or mod_name.startswith("hyperknow.")) and \
                    getattr(mod, attr, None) is original:
                self.patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self):
        for span, (home, attrs) in FUNCTIONS.items():
            for attr in attrs:
                on_result = self._on_sweep if span in SWEEPS else None
                fn = getattr(sys.modules[home], attr)
                self._patch_everywhere(home, attr, self._wrap(fn, span, on_result))
        for span, (home, cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[home], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, span))
                self.patches.append((cls, meth, original))
        enum = sys.modules["hyperknow.search"].enumerate_hypergraphs
        self._patch_everywhere("hyperknow.search", "enumerate_hypergraphs",
                               self._wrap_stream(enum, self._on_structure, self._on_stream_done))
        # Only the spotcheck's model stream is counted (proofkernel.spotcheck_models).
        pk = sys.modules["hyperknow.proofkernel"]
        original = pk.iter_valuations
        pk.iter_valuations = self._wrap_stream(original, self._on_model, lambda *a: None)
        self.patches.append((pk, "iter_valuations", original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # --- counts ------------------------------------------------------------------

    def _on_model(self, item, classes):
        self.counts["proofkernel.spotcheck_models"] += 1

    def _on_structure(self, h, classes):
        classes.add(_class_key(h))

    @staticmethod
    def _bounds_key(n_agents, b):
        return (n_agents, b.views, b.edges)

    def _on_stream_done(self, args, kwargs, n, classes):
        b = args[0]
        sig = args[1] if len(args) > 1 else kwargs.get("sig")
        key = self._bounds_key(len(sig.agents) if sig is not None else b.agents, b)
        self.streams[key] = (n, len(classes))
        # A stream run inside a sweep fills the structure cache; the sweep
        # itself is credited with it in _on_sweep.
        if not self.inside(SWEEPS):
            self.counts["search.structures"] += n
            self.counts["search.structure_classes"] += len(classes)

    def _on_sweep(self, args, kwargs, result):
        b = args[1] if len(args) > 1 else kwargs["b"]
        n, classes = self.streams.get(self._bounds_key(b.agents, b), (0, 0))
        self.counts["search.structures"] += n
        self.counts["search.structure_classes"] += classes
        self.counts["search.assignments"] += getattr(result, "models_checked", 0)

    # --- results -----------------------------------------------------------------

    def pass_metrics(self):
        """The layer metrics of the pass traced since ``reset_pass``."""
        out = {}
        for name in TIME_METRICS:
            out[f"{name}_s"] = self.self_time.get(name, 0.0)
        c = self.counts
        sweep_s = self.self_time.get("search.check_scheme", 0.0) + \
            self.self_time.get("search.find_countermodel", 0.0)
        sat_s = self.self_time.get("semantics.sat", 0.0)
        out.update({
            "search.structures": c["search.structures"],
            "search.useful_structure_ratio":
                c["search.structure_classes"] / c["search.structures"] if c["search.structures"] else 0.0,
            "search.assignments": c["search.assignments"],
            "search.assignments_per_s": c["search.assignments"] / sweep_s if sweep_s else 0.0,
            "proofkernel.spotcheck_models": c["proofkernel.spotcheck_models"],
            "core.build_model_calls": c["core.build_model.spans"],
            "semantics.sat_calls": c["semantics.sat.spans"],
            "semantics.points_per_s": c["semantics.sat.spans"] / sat_s if sat_s else 0.0,
        })
        return out

    def traced_total(self):
        return sum(self.self_time.get(name, 0.0) for name in TIME_METRICS)

    def write_spans(self, path):
        """The spans of the last traced pass: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# index,name,start_s,end_s,parent_index\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]}\n")
