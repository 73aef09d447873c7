"""Per-layer spans and counters, recorded from outside the library.

`install` replaces each layer's public functions with a wrapper at every
lgcarpet module attribute that holds them, which is where callers look them
up (for example `lgcarpet.approx.enumerate_stopping` and
`lgcarpet.cli.gap_sequence_of_carpet`).  Nothing under src/ changes.

A traced wrapper records a span [name, start, end, parent, pass id, counts];
an untraced one only adds to the counters, so input sizes are known for every
run.  Spans stay in memory until the pass ends.  `layer_metrics` turns the
spans of one pass into per-layer self times: a span's duration minus that of
its direct children, summed per metric.  The code under test runs on one
thread, so child spans never overlap and self times add up to the pass time.
"""

from __future__ import annotations

import functools
import sys
import time


def _rects(args, kwargs):
    return args[0] if args else kwargs["rects"]


# layer -> function -> (time metric, counter function of (args, kwargs, result))
LAYERS = {
    "cli": {"main": ("cli.self_s", None)},
    "carpet": {
        "enumerate_stopping": ("carpet.enum_s", lambda a, k, r: {"carpet.cylinders": len(r)}),
        "enumerate_depth": ("carpet.enum_s", lambda a, k, r: {"carpet.cylinders": len(r)}),
    },
    "approx": {
        "count_grid_cells": ("approx.grid_count_s",
                             lambda a, k, r: {"approx.grid_rects": len(_rects(a, k))}),
        "approx_set": ("approx.other_s", None),
        "box_count": ("approx.other_s", None),
    },
    "dimension": {"solve_bdim": ("dimension.solve_s", None)},
    "gaps": {
        "gap_sequence_mst": ("gaps.mst_s", lambda a, k, r: {
            "gaps.mst_rects": len(_rects(a, k)), "gaps.mst_edges": r.total_multiplicity}),
        "component_labels": ("gaps.labels_s",
                             lambda a, k, r: {"gaps.labels_rects": len(_rects(a, k))}),
        "n_delta_components": ("gaps.labels_s", None),
        "gap_sequence_bruteforce": ("gaps.oracle_s", None),
        "gap_sequence_of_carpet": ("gaps.other_s",
                                   lambda a, k, r: {"gaps.kept_edges": r.total_multiplicity}),
        "scaling_fit": ("gaps.other_s", None),
    },
    "disconnect": {
        "certify_totally_disconnected": ("disconnect.sweep_s",
                                         lambda a, k, r: {"disconnect.sweep_depth": r.depth}),
        "build_epsilon_chain": ("disconnect.chain_s", None),
        "check_uniform_disconnectedness": ("disconnect.ud_self_s", None),
    },
    "structure": {
        "fiber_approx": ("structure.fiber_s",
                         lambda a, k, r: {"structure.fiber_intervals": len(r.intervals)}),
        "check_hd_bound": ("structure.hd_check_s", None),
        "find_gap_interval": ("structure.gap_interval_s", None),
        "idelta_classes": ("structure.classes_s", None),
        "y_codings": ("structure.codings_s", None),
    },
}

# The span the benchmark opens around each operation; its self time is the
# benchmark's own glue (argument tuples, the in-process stdout capture).
OP_SPAN = "bench.op"
OP_METRIC = "bench.op_self_s"

# Counters that keep the largest value seen instead of a sum.
MAX_COUNTERS = {"disconnect.sweep_depth"}

SPAN_METRIC = {f"{layer}.{fn}": metric
               for layer, fns in LAYERS.items() for fn, (metric, _) in fns.items()}
SPAN_METRIC[OP_SPAN] = OP_METRIC
TIME_METRICS = sorted(set(SPAN_METRIC.values()))
COUNT_METRICS = ["approx.grid_rects", "carpet.cylinders", "disconnect.sweep_depth",
                 "gaps.labels_rects", "gaps.mst_edges", "gaps.mst_rects",
                 "structure.fiber_intervals"]


class Recorder:
    """Spans (when `traced`) and counters of one pass."""

    def __init__(self, traced: bool, pass_id: int):
        self.traced = traced
        self.pass_id = pass_id
        self.on = True  # off while the benchmark checks outputs
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _count(self, counts: dict) -> None:
        for key, value in counts.items():
            if key in MAX_COUNTERS:
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name: str, fn, counter, args=(), kwargs=None):
        kwargs = kwargs or {}
        if not self.on:
            return fn(*args, **kwargs)
        if not self.traced:
            result = fn(*args, **kwargs)
            if counter:
                self._count(counter(args, kwargs, result))
            return result
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter:
            span[5] = counter(args, kwargs, result)
            self._count(span[5])
        return result

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)
        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every layer function at each lgcarpet module attribute bound to it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "lgcarpet" or n.startswith("lgcarpet."))]
    for layer, fns in LAYERS.items():
        home = sys.modules[f"lgcarpet.{layer}"]
        for fn_name, (_, counter) in fns.items():
            original = getattr(home, fn_name)
            wrapped = recorder.wrap(f"{layer}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time per metric and the kept-gap ratio from one pass's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in TIME_METRICS}
    for k, (name, start, end, _, _, _) in enumerate(spans):
        out[SPAN_METRIC[name]] += (end - start) - child_time[k]
    # Kept gaps over the MST edges computed for them (carpet gap sequences only).
    kept = edges = 0
    for k, (name, _, _, parent, _, counts) in enumerate(spans):
        if name == "gaps.gap_sequence_mst" and counts and parent is not None \
                and spans[parent][0] == "gaps.gap_sequence_of_carpet" and spans[parent][5]:
            edges += counts["gaps.mst_edges"]
            kept += spans[parent][5]["gaps.kept_edges"]
    out["gaps.kept_frac"] = kept / edges if edges else 0.0
    return out
