"""The traced pass: per-layer time and counts, timed from outside.

Two sources feed one interval list:

* **Wrapped calls.**  The public functions of the setup, colouring and
  verify layers are replaced at every ``repro`` module that imported them
  (for the traced pass only) by a wrapper that records its start and end.
* **Existing spans.**  ``solve``, ``stage.seed_search``, ``seed.select``,
  ``lowdeg.phase`` and ``engine.round`` are read from a
  :func:`repro.obs.trace.trace_capture` buffer, kept in memory and turned
  into intervals when the pass ends.

Intervals nest by time containment, so a layer's *self time* is its
duration minus the intervals directly inside it.  The wrappers also run
independent checks (``square_graph`` against A + A^2, ``bfs_depth``
against a BFS from each component's lowest-id node); the time those
checks take is recorded as an interval of no layer, so it is subtracted
from whatever layer encloses it and reported nowhere.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import oracle

__all__ = ["LAYER_TIMES", "LayerTracer", "self_times"]

#: Layer metric name (without ``_s``) -> (defining module, function).
_WRAPPED = {
    "setup.square_graph": ("repro.graphs.power", "square_graph"),
    "setup.ball_sizes": ("repro.graphs.power", "ball_sizes"),
    "setup.line_graph": ("repro.graphs.linegraph", "line_graph"),
    "setup.bfs_depth": ("repro.congest.model", "bfs_depth"),
    "coloring.distance2": ("repro.graphs.coloring", "distance2_coloring"),
    "coloring.linial": ("repro.graphs.coloring", "linial_coloring"),
    "verify.check:mis": ("repro.verify", "verify_mis_nodes"),
    "verify.check:matching": ("repro.verify", "verify_matching_pairs"),
}

#: Existing program span name -> layer.
_SPAN_LAYERS = {
    "solve": "api.solve",
    "stage.seed_search": "seed.search",
    "seed.select": "seed.search",
    "lowdeg.phase": "lowdeg.phase",
    "engine.round": "engine.round",
}

#: Every layer whose self time is reported, as ``<layer>_s``.
LAYER_TIMES = (
    "setup.square_graph",
    "setup.line_graph",
    "setup.ball_sizes",
    "setup.bfs_depth",
    "coloring.distance2",
    "coloring.linial",
    "seed.search",
    "lowdeg.phase",
    "engine.round",
    "verify.check",
)

#: Interval label of benchmark-side checking time (no layer).
_CHECK = "bench.check"


def self_times(intervals: list[tuple[float, float, str]]) -> dict[str, float]:
    """Sum of self time per label over properly nested intervals.

    An interval's self time is its length minus the parts of it covered by
    the intervals directly inside it.  Ties in start time put the longer
    interval first, so an enclosing span is always the parent.
    """
    out: dict[str, float] = defaultdict(float)
    stack: list[list] = []  # [start, end, label, covered]

    def close(item) -> None:
        out[item[2]] += max(0.0, (item[1] - item[0]) - item[3])

    for start, end, label in sorted(intervals, key=lambda iv: (iv[0], -iv[1])):
        while stack and stack[-1][1] <= start:
            close(stack.pop())
        if stack:
            parent = stack[-1]
            parent[3] += min(end, parent[1]) - start
        stack.append([start, end, label, 0.0])
    while stack:
        close(stack.pop())
    return dict(out)


class LayerTracer:
    """Wraps the layer functions and collects one traced pass."""

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.failures: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------- #

    def _wrapper(self, layer: str, fn):
        name = layer.split(":")[0]
        post = getattr(self, "_after_" + fn.__name__, None)

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.intervals.append((t0, t1, name))
            if post is not None:
                post(args, result)
                self.intervals.append((t1, time.perf_counter(), _CHECK))
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Patch every loaded ``repro`` module that holds a wrapped function."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "repro" or k.startswith("repro.")]
        for layer, (mod_name, fn_name) in _WRAPPED.items():
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapped = self._wrapper(layer, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    # -- post-call checks and counts (timed as bench.check) --------------- #

    def _after_square_graph(self, args, sq) -> None:
        g = args[0]
        err = oracle.check_square(g.n, g.edges_u, g.edges_v, sq.edges_u, sq.edges_v)
        if err:
            self.failures.append(f"square_graph(n={g.n}): {err}")

    def _after_bfs_depth(self, args, depth) -> None:
        g = args[0]
        want = oracle.bfs_depth_from_lowest_ids(g.n, g.edges_u, g.edges_v)
        if int(depth) != want:
            self.failures.append(f"bfs_depth(n={g.n}) = {depth}, BFS gives {want}")

    def _after_distance2_coloring(self, args, res) -> None:
        g = args[0]
        self.counts["coloring.calls"] += 1
        if res.num_colors >= g.n:
            self.counts["coloring.identity_results"] += 1

    def _after_linial_coloring(self, args, res) -> None:
        self.counts["coloring.iterations"] += res.iterations

    # -- one traced pass ---------------------------------------------------- #

    @contextmanager
    def traced(self):
        """Install wrappers and capture program spans for the ``with`` body."""
        from repro.obs import METRICS
        from repro.obs.trace import trace_capture

        before = METRICS.counters_snapshot()
        self.install()
        try:
            with trace_capture() as buf:
                yield
        finally:
            self.uninstall()
        delta = METRICS.delta(before, METRICS.counters_snapshot())
        self.counts["seed.early_exits"] += delta.get("seed_scan.early_exits", 0)
        for rec in buf.spans:
            layer = _SPAN_LAYERS.get(rec["name"])
            if layer is None:
                continue
            start = buf.t_origin + rec["ts"]
            self.intervals.append((start, start + rec["dur"], layer))
            attrs = rec["attrs"]
            if rec["name"] == "solve":
                self.counts["api.solve_total_s"] += rec["dur"]
            elif rec["name"] == "seed.select":
                self.counts["seed.selects"] += 1
                self.counts["seed.trials"] += attrs.get("trials", 0)
            elif rec["name"] == "lowdeg.phase":
                self.counts["lowdeg.phases"] += 1
            elif rec["name"] == "engine.round":
                self.counts["engine.rounds"] += 1
                self.counts["engine.words_sent"] += attrs.get("words_sent", 0)

    def check_time(self) -> float:
        """Benchmark-side checking time inside the traced pass."""
        return sum(e - s for s, e, label in self.intervals if label == _CHECK)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every solve-path per-layer metric as ``name -> (value, unit)``."""
        st = self_times(self.intervals)
        out = {f"{layer}_s": (st.get(layer, 0.0), "s") for layer in LAYER_TIMES}
        # Every check runs inside some solve span; report solves net of them.
        out["api.solve_s"] = (self.counts["api.solve_total_s"] - self.check_time(), "s")
        out["api.unattributed_s"] = (st.get("api.solve", 0.0), "s")
        for name, unit in (
            ("coloring.calls", "count"),
            ("coloring.iterations", "count"),
            ("coloring.identity_results", "count"),
            ("seed.selects", "count"),
            ("seed.trials", "count"),
            ("seed.early_exits", "count"),
            ("lowdeg.phases", "count"),
            ("engine.rounds", "count"),
            ("engine.words_sent", "words"),
        ):
            out[name] = (float(self.counts[name]), unit)
        return out
