"""Spans around fano2's public functions, and per-layer totals from them.

A worker process installs a :class:`Recorder` after importing ``fano2.cli``.
The recorder replaces each function named in :data:`WRAPPED` in every fano2
module that binds it, so a call is caught in the module that makes it and
the package itself stays unchanged.  Each call records one span
``[name, start, end, parent, run]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``run`` the id of the request that caused
it.  Spans and counters stay in memory until the worker is asked to quit.

The parent process turns spans into self times with :func:`layer_totals`:
a span's self time is its duration minus the durations of its direct
children, so the self times of one request add up to its ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Public functions timed as layers, as ``module.name`` under ``fano2``.
WRAPPED = (
    "cli.main",
    "basket.enumerate_baskets",
    "basket.parse_basket",
    "riemann_roch.hilbert_series",
    "series.expand",
    "series.series_times_weights",
    "series.numerator_wrt_weights",
    "graded_rings.corrected_inference",
    "graded_rings.polarization_gaps",
    "graded_rings.classify_shape",
    "classify.enumerate_candidates",
    "classify.write_json",
    "tables.load_table_entries",
    "tables.verify_table_entry",
)

MODULES = ("basket", "series", "riemann_roch", "graded_rings", "classify",
           "tables", "cli")


class TraceError(RuntimeError):
    """The trace cannot measure what it promises (a name is gone or idle)."""


def _series_length(series) -> int:
    return len(getattr(series, "coeffs", series))


#: Counters read off return values: span name -> result -> {counter: n}.
RESULT_COUNTS = {
    "riemann_roch.hilbert_series": lambda s: {
        "riemann_roch.series_coeffs": _series_length(s),
    },
    "graded_rings.corrected_inference": lambda m: {
        "graded_rings.complete_models": int(m.numerator_complete),
        "graded_rings.seeded_models": int(bool(m.seeded)),
        "graded_rings.unknown_shapes": int(m.shape == "unknown"),
    },
    "classify.enumerate_candidates": lambda cands: {
        "classify.candidates": len(cands),
        "classify.k3_obstructed": sum(1 for c in cands if c.k3_obstructed),
    },
    "basket.enumerate_baskets": lambda baskets: {
        "basket.baskets": len(baskets),
    },
    "tables.verify_table_entry": lambda report: {
        "tables.rows_ok": int(report.ok),
    },
}


class Recorder:
    """Records spans and counters for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.run_id = -1
        self._stack: list[int] = []

    def add(self, counter: str, n: int) -> None:
        self.counts[self.run_id][counter] += n

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                for counter, n in on_result(result).items():
                    self.add(counter, n)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED wherever a fano2 module binds it."""
        modules = [importlib.import_module(f"fano2.{m}") for m in MODULES]
        modules.append(importlib.import_module("fano2"))
        for name in WRAPPED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"fano2.{module}"),
                               attr, None)
            if not callable(original):
                raise TraceError(f"fano2.{name} is missing; update WRAPPED")
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }


def layer_totals(spans, counts, runs) -> dict[str, float]:
    """Sum self times, calls and counters over the requests in ``runs``.

    Returns ``<name>.self_s`` and ``<name>.calls`` for every name in
    WRAPPED (zero when not called), the counters, and
    ``riemann_roch.hilbert_series.total_s``, the inclusive time of the
    hilbert_series spans (it does not call itself).
    """
    runs = set(runs)
    out: dict[str, float] = defaultdict(float)
    for name in WRAPPED:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    children = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent, run) in enumerate(spans):
        if run not in runs:
            continue
        out[f"{name}.self_s"] += end - start - children[i]
        out[f"{name}.calls"] += 1
        if name == "riemann_roch.hilbert_series":
            out["riemann_roch.hilbert_series.total_s"] += end - start
    for run, per_run in counts.items():
        if int(run) in runs:
            for counter, n in per_run.items():
                out[counter] += n
    return dict(out)


def require_calls(totals: dict[str, float], expected, workload: str) -> None:
    """Fail loudly when a layer the workload must use was never called."""
    idle = [name for name in expected if not totals.get(f"{name}.calls")]
    if idle:
        raise TraceError(
            f"workload {workload!r} made no call to {', '.join(idle)}")
