"""Spans around the public functions of each qpacking layer, wrapped from outside.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records a span (name, start, end, parent, op id) and, for some layers, a
count.  Modules import functions by name (``verify`` does
``from .staircase import lattice_window``), so the wrapper is put in place of
the original in every ``qpacking`` module that holds it.  ``uninstall`` puts
the originals back.

Worker processes forked by ``--jobs 2`` inherit the wrappers, but there the
wrappers call straight through: only the parent's spans are recorded, so a
pooled call shows as one span of the parent whose self time includes the wait
for its workers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli.main",
    "staircase.lattice_window",
    "verify.packing_window_verify",
    "verify.value_floor",
    "verify.brute_force_search",
    "classify.classify",
    "classify.sector_arithmetic",
    "poly.packing_polynomial",
    "poly.to_alpha_form",
    "atlas.build_atlas",
    "atlas.atlas_to_json",
    "atlas.atlas_to_csv",
    "render.render_figure",
)

SEARCH = "verify.brute_force_search"


def _count_points(tracer, parent, bind, result) -> None:
    tracer.counts["staircase.lattice_window.points"] += len(result)


def _count_verdict(tracer, parent, bind, result) -> None:
    if result.ok:
        tracer.counts["verify.packing_window_verify.ok"] += 1
    else:
        tracer.counts[f"verify.packing_window_verify.fail.{result.failure.kind}"] += 1
    if parent is not None and tracer.spans[parent][0] == SEARCH:
        tracer.counts["search.exact_checks"] += 1


def _count_search(tracer, parent, bind, result) -> None:
    # Exact checks of pooled searches run in workers and are not seen, so the
    # search counters cover the searches that scan in this process only.
    call = bind()
    call.apply_defaults()
    args = call.arguments
    if args["jobs"] != 1:
        return
    s, b, mode = args["s"], args["bounds"], args["mode"]
    size = (b.d[1] - b.d[0] + 1) * (b.e[1] - b.e[0] + 1) * (b.f[1] - b.f[0] + 1)
    if mode == "restricted":
        abc = 1 if (s.m - 1) ** 2 % s.n == 0 else 0
    else:
        abc = (b.a[1] - b.a[0] + 1) * (b.b[1] - b.b[0] + 1) * (b.c[1] - b.c[0] + 1)
    tracer.counts["search.candidates"] += abc * size
    tracer.counts["search.accepted"] += len(result)


def _count_bytes(name):
    def count(tracer, parent, bind, result) -> None:
        tracer.counts[f"{name}.bytes"] += len(result.encode("utf-8"))
    return count


COUNTERS = {
    "staircase.lattice_window": _count_points,
    "verify.packing_window_verify": _count_verdict,
    SEARCH: _count_search,
    "atlas.atlas_to_json": _count_bytes("atlas.atlas_to_json"),
    "atlas.atlas_to_csv": _count_bytes("atlas.atlas_to_csv"),
    "render.render_figure": _count_bytes("render.render_figure"),
}


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def install(self) -> None:
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            original = getattr(importlib.import_module(f"qpacking.{module_name}"), func_name)
            wrapper = self._wrap(layer, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (name == "qpacking" or name.startswith("qpacking.")) and vars(module).get(func_name) is original:
                    setattr(module, func_name, wrapper)
                    self._patches.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches = []

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [layer, perf_counter(), None, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, parent, lambda: signature.bind(*args, **kwargs), result)
            return result

        return wrapper


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls and self time per layer; self time is a span minus its child spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for (layer, start, end, _, _), inner in zip(spans, child_time):
        entry = stats.setdefault(layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
    return stats


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer figure of one traced pass, by metric name."""
    metrics: dict[str, float] = {}
    stats = layer_stats(tracer.spans)
    for layer in LAYERS:
        entry = stats.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    metrics.update(tracer.counts)
    for name in ("staircase.lattice_window.points", "verify.packing_window_verify.ok",
                 "search.candidates", "search.exact_checks", "search.accepted",
                 "atlas.atlas_to_json.bytes", "atlas.atlas_to_csv.bytes", "render.render_figure.bytes"):
        metrics.setdefault(name, 0)
    checks, candidates = metrics["search.exact_checks"], metrics["search.candidates"]
    metrics["search.survivor_ratio"] = checks / candidates if candidates else 0.0
    metrics["search.accept_ratio"] = metrics["search.accepted"] / checks if checks else 0.0
    return metrics


def write_spans(spans: list[list], path: str, origin: float) -> None:
    """Spans as CSV, times in seconds from ``origin``; parent is a row index."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,name,start_s,end_s,parent,op\n")
        for index, (layer, start, end, parent, op) in enumerate(spans):
            parent_text = "" if parent is None else parent
            handle.write(f"{index},{layer},{start - origin:.9f},{end - origin:.9f},{parent_text},{op}\n")
