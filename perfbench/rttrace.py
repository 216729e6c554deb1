"""Span tracer for the rtcast benchmark.

The tracer wraps every public function and public method of the package's
layer modules from outside the program, so the package itself carries no
tracing code. A wrapper is bound wherever the original is reachable by name:
as the module attribute, in every ``rtcast`` module that imported it with
``from .x import name``, and at class level for methods (so
``Ensemble.predict_row`` is traced whoever holds the model). The ``cli``
layer is traced by the benchmark's own span around each ``cli.main`` call.

Each call is a span. Spans nest on a stack; a span's self time is its
duration minus the durations of the spans it directly caused. Self times and
call counts are aggregated per function and per (caller, callee) edge, so
memory stays bounded however many calls a run makes. A few observers keep
references to arguments or results (never copies) from which the derived
counts are computed after the run, by the benchmark's own code.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

#: Package modules, one layer each. ``cli`` is traced by the benchmark.
LAYERS = ("dataio", "timebase", "features", "gbm", "forecast", "explain", "pffra", "stats", "cli")
WRAPPED_LAYERS = LAYERS[:-1]

#: Function (``layer.qualname``) -> the self-time metric it counts towards.
#: Functions not listed count only towards their layer's total.
BUCKETS = {
    "dataio.ingest_csv": "dataio.ingest_s",
    "dataio.synthesize": "dataio.synthesize_s",
    "dataio.write_csv": "dataio.write_s",
    "features.engineered_table": "features.engineered_s",
    "features.add_time_features": "features.engineered_s",
    "features.add_holiday": "features.engineered_s",
    "features.add_occupancy": "features.engineered_s",
    "features.moving_average": "features.engineered_s",
    "features.build_design_matrix": "features.design_s",
    "features.add_mvart": "features.design_s",
    "features.feature_order": "features.design_s",
    "gbm.train": "gbm.train_s",
    "gbm.grow_tree": "gbm.grow_tree_s",
    "gbm.Ensemble.predict_row": "gbm.predict_row_s",
    "gbm.Ensemble.predict_batch": "gbm.predict_batch_s",
    "gbm.load": "gbm.load_s",
    "gbm.from_dict": "gbm.load_s",
    "forecast.rolling_forecast": "forecast.rolling_s",
    "explain.shap_exact": "explain.shap_s",
    "explain.pdp": "explain.pdp_s",
    "explain.permutation_importance": "explain.permutation_s",
    "explain.fit_surrogate_ridge": "explain.surrogate_s",
    "explain.fit_surrogate_tree": "explain.surrogate_s",
    "explain.surrogate_tree_importance": "explain.surrogate_s",
    "explain.LinearSurrogate.predict": "explain.surrogate_s",
    "explain.lime_explain": "explain.lime_s",
    "pffra.dft": "pffra.dft_s",
    "pffra.dft_complex": "pffra.dft_s",
    "stats.adf_test": "stats.adf_s",
    "stats.metrics": "stats.metrics_s",
}

#: CLI commands the pipeline workload runs, by span label.
CLI_COMMANDS = ("train", "evaluate", "explain_shap", "explain_pffra", "diagnose_adf")


def _observe_grow_tree(tr, args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[0]
    depth = kwargs["max_depth"] if "max_depth" in kwargs else args[3]
    tr.grown.append((rows, depth, result))


def _observe_predict_row(tr, args, kwargs, result):
    tr.tree_visits += len(args[0].trees)


def _observe_predict_batch(tr, args, kwargs, result):
    n = len(result)
    tr.batch_rows += n
    tr.tree_visits += n * len(args[0].trees)


def _observe_ingest(tr, args, kwargs, result):
    tr.rows_ingested += len(result)


def _observe_engineered(tr, args, kwargs, result):
    tr.engineered_inputs.append(kwargs["table"] if "table" in kwargs else args[0])


def _observe_rolling(tr, args, kwargs, result):
    tr.steps += len(result)
    tr.anchors += len(result.anchors)


def _observe_shap(tr, args, kwargs, result):
    tr.shap_coalitions += 1 << len(result.contributions)


def _observe_dft(tr, args, kwargs, result):
    tr.dft_lengths.append(len(result))


OBSERVERS = {
    "gbm.grow_tree": _observe_grow_tree,
    "gbm.Ensemble.predict_row": _observe_predict_row,
    "gbm.Ensemble.predict_batch": _observe_predict_batch,
    "dataio.ingest_csv": _observe_ingest,
    "features.engineered_table": _observe_engineered,
    "forecast.rolling_forecast": _observe_rolling,
    "explain.shap_exact": _observe_shap,
    "pffra.dft_complex": _observe_dft,
}


class Tracer:
    """Aggregating span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self._stack = []  # frames: [name, child_seconds]
        self.self_s = {}
        self.calls = {}
        self.edges = {}  # (caller or None, callee) -> [calls, total_s, self_s]
        self.grown = []
        self.engineered_inputs = []
        self.dft_lengths = []
        self.tree_visits = 0
        self.batch_rows = 0
        self.rows_ingested = 0
        self.steps = 0
        self.anchors = 0
        self.shap_coalitions = 0

    def _enter(self, name):
        self._stack.append([name, 0.0])

    def _exit(self, duration):
        name, child = self._stack.pop()
        own = duration - child
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        caller = self._stack[-1][0] if self._stack else None
        edge = self.edges.setdefault((caller, name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += duration
        edge[2] += own
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(time.perf_counter() - start)

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(time.perf_counter() - start)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer modules; returns a callable that undoes it."""
        undo = []
        wrappers = {}
        for layer in WRAPPED_LAYERS:
            mod = importlib.import_module(f"rtcast.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for m_name, member in list(vars(obj).items()):
                        if m_name.startswith("_"):
                            continue
                        if inspect.isfunction(member):
                            new = self.wrap(f"{layer}.{attr}.{m_name}", member)
                        elif isinstance(member, classmethod):
                            new = classmethod(self.wrap(f"{layer}.{attr}.{m_name}", member.__func__))
                        else:
                            continue
                        setattr(obj, m_name, new)
                        undo.append((obj, m_name, member))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rtcast" or mod_name.startswith("rtcast.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    undo.append((mod, attr, obj))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: self times by bucket and layer, plus counts."""
        out = {}
        for layer in WRAPPED_LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for bucket in set(BUCKETS.values()):
            out[bucket] = 0.0
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_s"] = 0.0
        for name, secs in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer == "cli":
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + secs
                continue
            out[f"{layer}.self_s"] += secs
            if name in BUCKETS:
                out[BUCKETS[name]] += secs
        out["timebase.s"] = out.pop("timebase.self_s")
        out["pffra.pffra_s"] = out["pffra.self_s"] - out["pffra.dft_s"]

        calls = self.calls.get
        out["timebase.parse_instant_calls"] = calls("timebase.parse_instant", 0)
        out["timebase.format_instant_calls"] = calls("timebase.format_instant", 0)
        out["dataio.rows_ingested"] = self.rows_ingested
        n_eng = calls("features.engineered_table", 0)
        out["features.engineered_calls"] = n_eng
        distinct = len({_table_digest(t) for t in self.engineered_inputs})
        out["features.engineered_reuse"] = distinct / n_eng if n_eng else 0.0
        out.update(tree_counts(self.grown))
        out["gbm.predict_row_calls"] = calls("gbm.Ensemble.predict_row", 0)
        out["gbm.predict_batch_calls"] = calls("gbm.Ensemble.predict_batch", 0)
        out["gbm.predict_batch_rows"] = self.batch_rows
        out["gbm.tree_visits"] = self.tree_visits
        out["forecast.rolling_calls"] = calls("forecast.rolling_forecast", 0)
        out["forecast.steps"] = self.steps
        out["forecast.anchors"] = self.anchors
        out["explain.shap_coalitions"] = self.shap_coalitions
        out["pffra.dft_calls"] = len(self.dft_lengths)
        out["pffra.dft_points"] = sum(self.dft_lengths)
        out["pffra.dft_padded_points"] = sum(padded_points(n) for n in self.dft_lengths)
        out["stats.metrics_calls"] = calls("stats.metrics", 0)
        return out


def padded_points(n):
    """Points transformed by the package's DFT of length ``n``.

    A power of two is one radix-2 FFT of ``n`` points; any other length is
    Bluestein's chirp-z: three FFTs of the next power of two >= 2n - 1.
    """
    if n & (n - 1) == 0:
        return n
    return 3 * (1 << (2 * n - 1).bit_length())


def _table_digest(table):
    h = hashlib.sha256(np.ascontiguousarray(table.timestamps).tobytes())
    h.update(np.ascontiguousarray(table.target).tobytes())
    for name in sorted(table.columns):
        h.update(name.encode())
        h.update(np.ascontiguousarray(table.columns[name]).tobytes())
    return h.hexdigest()


def tree_counts(grown):
    """Build counts of the grown trees, by routing their rows through them.

    A node is searched when it sits above ``max_depth`` (the grower ran the
    split search there, whether or not it found a split); searching it scans
    every feature of every row that reaches it.
    """
    nodes = searched = branches = scanned = 0
    for rows, max_depth, root in grown:
        rows = np.asarray(rows, dtype=np.float64)
        width = rows.shape[1]
        stack = [(root, np.arange(len(rows)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            nodes += 1
            if depth < max_depth:
                searched += 1
                scanned += len(idx) * width
            if not node.is_leaf:
                branches += 1
                left = rows[idx, node.feature_index] < node.threshold
                stack.append((node.left, idx[left], depth + 1))
                stack.append((node.right, idx[~left], depth + 1))
    return {
        "gbm.trees": len(grown),
        "gbm.nodes": nodes,
        "gbm.split_rows_scanned": scanned,
        "gbm.split_yield": branches / searched if searched else 0.0,
    }
