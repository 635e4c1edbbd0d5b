"""In-memory spans and work counts around the public functions of tighthom.

The library has no hooks of its own, so a traced pass swaps each function
listed in ``TARGETS`` for a timing wrapper in every ``tighthom`` module
namespace that binds it (``coloring`` binds its own ``tight_components``,
``extremal`` its own ``is_hom_free``), and restores the originals afterwards.
``Hypergraph.has_edge`` runs millions of times per pass, so it is counted,
not spanned.

A span is (name, start, end, parent span index, op id). Self time is a span's
duration minus the durations of its direct children; a layer's self time is
the sum over its spans. Work counts are read from the wrapped functions'
return values. While ``enabled`` is false (the benchmark's own answer
checks), the wrappers pass calls through unrecorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _components(counts, out):
    counts["tightconn.oriented_states"] += sum(c.size for c in out)


def _witness(counts, out):
    if out is not None:
        counts["tightconn.witness_stretch_sum"] += out.stretch


def _coloring(counts, out):
    if out is not None:
        counts["coloring.edges_colored"] += len(out.assignment)


def _search(counts, out):
    counts["extremal.explored"] += out.explored
    counts["extremal.witnesses"] += len(out.witnesses)


def _fopt(counts, out):
    counts["census.fopt_evaluations"] += out[2]["evaluations"]


# (home module, function, span name, count extractor)
TARGETS = (
    ("tightconn", "tight_components", "tightconn.tight_components", _components),
    ("tightconn", "is_hom_free", "tightconn.is_hom_free", None),
    ("tightconn", "find_hom_cycle_witness", "tightconn.find_hom_cycle_witness", _witness),
    ("coloring", "build_accordant_coloring", "coloring.build_accordant_coloring", _coloring),
    ("coloring", "verify_accordant", "coloring.verify_accordant", None),
    ("coloring", "triple_coloring_from_accordant", "coloring.triple_roundtrip", None),
    ("coloring", "accordant_from_triple_coloring", "coloring.triple_roundtrip", None),
    ("permgroup", "enumerate_subgroup_classes", "permgroup.enumerate_subgroup_classes", None),
    ("permgroup", "maximal_avoiding_classes", "permgroup.maximal_avoiding_classes", None),
    ("permgroup", "color_set", "permgroup.color_set", None),
    ("extremal", "brute_force_ex_hom", "extremal.brute_force_ex_hom", _search),
    ("census", "count_triangle_types", "census.count_triangle_types", None),
    ("census", "check_color_inequalities", "census.check_color_inequalities", None),
    ("census", "maximize_f_on_R", "census.maximize_f_on_R", _fopt),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("cli", "extremal", "census", "coloring", "tightconn", "permgroup")


class Tracer:
    """Collects spans and counts while installed; installs and restores wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list = []
        self._has_edge_calls = [0]

    def _wrap(self, span_name, fn, extract):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, tracer.op)
            if extract is not None:
                extract(counts, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("tighthom") and m]
        for home, func, span_name, extract in TARGETS:
            original = getattr(sys.modules[f"tighthom.{home}"], func)
            wrapper = self._wrap(span_name, original, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        hypergraph = sys.modules["tighthom.hypergraph"].Hypergraph
        original_has_edge = hypergraph.has_edge
        calls = self._has_edge_calls
        tracer = self

        def has_edge(self, vertices):
            if tracer.enabled:
                calls[0] += 1
            return original_has_edge(self, vertices)

        hypergraph.has_edge = has_edge
        self._undo.append((hypergraph, "has_edge", original_has_edge))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Inclusive seconds per span name, self seconds per layer, counts."""
        spans = self.spans
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for name, start, end, parent, _ in spans:
            # a span nested in one of the same name is already inside its time
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                inclusive[name] += end - start
        layer_self: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            layer_self[name.split(".")[0]] += (end - start) - child_time[idx]
        out: dict[str, float] = {}
        for _, _, span_name, _ in TARGETS:
            if span_name != "cli.main":
                out[f"{span_name}.s"] = inclusive[span_name]
        out["tightconn.tight_components.calls"] = sum(s[0] == "tightconn.tight_components" for s in spans)
        out["hypergraph.has_edge.calls"] = self._has_edge_calls[0]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for key in (
            "tightconn.oriented_states",
            "tightconn.witness_stretch_sum",
            "coloring.edges_colored",
            "extremal.explored",
            "extremal.witnesses",
            "census.fopt_evaluations",
        ):
            out[key] = self.counts[key]
        return out

    def write(self, path: str) -> None:
        """One JSON list per span: name, start, end (s from the first span), parent, op."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, op]) + "\n")
