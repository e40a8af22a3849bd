"""Outside-in tracing of glmavg's layer entry points.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
replaces each public entry point in the namespace its callers look it up
in (for example ``glmavg.averaging.solve_simplex_qp``, which is what
``LinearAveragingPredictor.predict`` calls) with a wrapper that records
a span, and ``uninstall`` puts the originals back.  Spans are kept in
memory and summarised when the run ends.

A span's parent is the innermost open span on its own thread.  Spans
opened on a worker thread with nothing open there (the study harness's
thread pool) take the innermost open span of the thread that installed
the tracer, so replications nest under the ``run_study*`` call that
scheduled them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Tolerance of the KKT certificate: a weight vector w for Q is certified
# when max_k w_k (g_k - min g) <= KKT_TOL * max(1, max_k |g_k|), g = 2 Q w.
KKT_TOL = 1e-12

# (module or "module:Class", attribute, layer).  Each entry is the name a
# caller inside glmavg (or the benchmark) resolves at call time.
ENTRY_POINTS = (
    ("glmavg.averaging", "logistic_mle", "glm_fit"),
    ("glmavg.mse_weights", "logistic_mle", "glm_fit"),
    ("glmavg.mse_weights", "logistic_pseudo_fit", "glm_fit"),
    ("glmavg.sim_harness", "logistic_mle", "glm_fit"),
    ("glmavg.sim_harness", "ols_fit", "glm_fit"),
    ("glmavg.mse_weights:LinearQFactory", "__init__", "mse_weights.factory"),
    ("glmavg.mse_weights:LinearQFactory", "q_form", "mse_weights.qform"),
    ("glmavg.averaging", "build_q_logistic", "mse_weights.qform"),
    ("glmavg.averaging", "solve_simplex_qp", "mse_weights.solve"),
    ("glmavg.averaging:LinearAveragingPredictor", "predict", "averaging"),
    ("glmavg.mse_weights:LinearQFactory", "per_model_values", "averaging"),
    ("glmavg.sim_harness", "fit_and_average_logistic", "averaging"),
    ("glmavg.cli", "prediction_band", "averaging"),
    ("glmavg.sim_harness", "run_study1", "sim_harness"),
    ("glmavg.sim_harness", "run_study2", "sim_harness"),
)

LAYERS = (
    "glm_fit",
    "mse_weights.factory",
    "mse_weights.qform",
    "mse_weights.solve",
    "averaging",
    "sim_harness",
    "cli",
)


def is_certified(Q: np.ndarray, w: np.ndarray) -> bool:
    """KKT certificate of simplex weights; the residual is the one the ``weights`` CLI prints."""
    grad = 2.0 * (Q @ w)
    residual = float(np.max(w * (grad - np.min(grad))))
    return residual <= KKT_TOL * max(1.0, float(np.max(np.abs(grad))))


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_attrs(result) -> dict:
    return {"newton_iters": int(getattr(result, "iterations", 0))}


def _solve_attrs(result, q) -> dict:
    from glmavg.mse_weights import SOLVER_MAX_ITER, QuadraticForm

    matrix = q.matrix if isinstance(q, QuadraticForm) else np.asarray(q, dtype=float)
    return {
        "iterations": int(result.iterations),
        "capped": int(result.iterations == SOLVER_MAX_ITER),
        "uncertified": int(not is_certified(matrix, result.weights)),
    }


def _qform_attrs(result) -> dict:
    rows, models = result.gram_factor.shape
    return {"gram_bytes": 8 * rows * models}


class Tracer:
    """Records spans around glmavg entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.context = None  # caller-set key copied into solver spans, e.g. (split, row)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
        span = Span(next(self._ids), name, layer, parent.sid if parent else None, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; per-entry attributes are read off its result."""
        span = self.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if layer == "glm_fit":
            span.attrs.update(_fit_attrs(result))
        elif name == "solve_simplex_qp":
            span.attrs.update(_solve_attrs(result, args[0]))
            span.attrs["key"] = self.context
        elif name in ("q_form", "build_q_logistic"):
            span.attrs.update(_qform_attrs(result))
        return result

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, layer, original, *args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        for where, attr, layer in ENTRY_POINTS:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            name = class_name if attr == "__init__" else attr
            setattr(owner, attr, self._wrap(name, layer, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_json(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "layer": s.layer, "parent": s.parent,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]


def spans_from_json(records: list[dict], id_offset: int = 0) -> list[Span]:
    """Rebuild spans written by another process, shifting ids so they stay unique."""
    shift = (lambda i: None if i is None else i + id_offset)
    return [
        Span(shift(r["id"]), r["name"], r["layer"], shift(r["parent"]), r["start"], r["end"], r["attrs"])
        for r in records
    ]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover (overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end) for s in spans
    }


def tail_percentile(samples, min_beyond: int = 10):
    """Highest of p50/p90/p95/p99/p99.9/p99.99 with at least ``min_beyond`` samples ranked above it.

    Returns (percentile, value, sample count), or None when even the
    median has fewer than ``min_beyond`` samples beyond it.  Values are
    nearest-rank order statistics.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in (50.0, 90.0, 95.0, 99.0, 99.9, 99.99):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            best = (p, ordered[rank - 1], n)
    return best


def median(values, default: float = 0.0) -> float:
    return float(np.median(values)) if len(values) else default


def layer_metrics(spans: list[Span], wall_s: float, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (wall_s is the traced timed phase)."""
    own = self_times(spans)
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)

    def share(layer):
        return sum(own[s.sid] for s in by_layer[layer]) / wall_s

    def ms(spans_, name=None):
        return [1e3 * s.duration for s in spans_ if name is None or s.name == name]

    fits = by_layer["glm_fit"]
    solves = by_layer["mse_weights.solve"]
    qforms = by_layer["mse_weights.qform"]
    harness = by_layer["sim_harness"]
    harness_ids = {s.sid for s in harness}
    replication_s = sum(s.duration for s in spans if s.parent in harness_ids)
    harness_wall = sum(s.duration for s in harness)
    cli_main = [s for s in by_layer["cli"] if s.name == "cli.main"]
    return {
        "glm_fit.mle_calls_per_op": sum(s.name == "logistic_mle" for s in fits) / ops,
        "glm_fit.pseudo_calls_per_op": sum(s.name == "logistic_pseudo_fit" for s in fits) / ops,
        "glm_fit.newton_iters_per_op": sum(s.attrs.get("newton_iters", 0) for s in fits) / ops,
        "glm_fit.call_ms_p50": median(ms(fits)),
        "glm_fit.self_share": share("glm_fit"),
        "mse_weights.factory.ms_p50": median(ms(by_layer["mse_weights.factory"])),
        "mse_weights.factory.self_share": share("mse_weights.factory"),
        "mse_weights.qform.ms_p50": median(ms(qforms)),
        "mse_weights.qform.self_share": share("mse_weights.qform"),
        "mse_weights.qform.gram_bytes": float(max((s.attrs["gram_bytes"] for s in qforms), default=0)),
        "mse_weights.solve.ms_p50": median(ms(solves)),
        "mse_weights.solve.ms_max": max(ms(solves), default=0.0),
        "mse_weights.solve.self_share": share("mse_weights.solve"),
        "mse_weights.solve.iterations_sum": float(sum(s.attrs["iterations"] for s in solves)),
        "mse_weights.solve.capped": float(sum(s.attrs["capped"] for s in solves)),
        "mse_weights.solve.uncertified": float(sum(s.attrs["uncertified"] for s in solves)),
        "averaging.per_model.ms_p50": median(ms(by_layer["averaging"], "per_model_values")),
        "averaging.self_share": share("averaging"),
        "sim_harness.self_share": share("sim_harness"),
        "sim_harness.concurrency": replication_s / harness_wall if harness_wall else 0.0,
        "cli.self_ms": median([1e3 * own[s.sid] for s in cli_main]),
    }


def flagged_solve_keys(spans: list[Span]) -> list:
    """Context keys of solves that hit the iteration cap or fail the KKT certificate."""
    return sorted({
        tuple(s.attrs["key"])
        for s in spans
        if s.name == "solve_simplex_qp"
        and s.attrs["key"] is not None
        and (s.attrs["capped"] or s.attrs["uncertified"])
    })
