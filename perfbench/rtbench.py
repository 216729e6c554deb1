"""The rtcast benchmark's workloads; run in a fresh child process by run.py.

Each workload has a set-up, a pass (the timed work) and checks on the pass's
outputs. A run sets up at least ``SETUP_REPEATS`` times, and until
``SETUP_SECONDS`` of set-up time have passed (a short set-up is noisier, so
it is repeated more), and reports the median set-up time. It then repeats
the pass until ``--seconds`` of timed work have been done (at least
``min_passes`` passes) and reports medians over passes. Checks run after
each pass, outside the timed region.

With ``--trace 1`` the run instead sets up once, makes one untraced pass and
one traced pass, and reports the per-layer metrics of the traced set-up and
pass (see rttrace.py) plus the tracing overhead.

Workloads (inputs depend only on ``--seed``):

pipeline-365d
    The command-line pipeline at the paper's scale: 365 synthetic days as a
    CSV, then ``train``, ``evaluate``, ``explain shap --select``,
    ``explain pffra --protocol rolling`` and ``diagnose adf`` in-process.
forecast-120d
    The deployed re-anchored regime: 14 rolling forecasts (36,276 scored
    steps, one ``predict_row`` each) over 120 days with a pre-trained model.
explain-120d
    Large-batch reads of the same model: exact Shapley values, PDP,
    permutation importance, surrogates, LIME and static pffra.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from rtcast import cli, dataio, explain, features, forecast, gbm, pffra

import rttrace

SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
GROUPS = frozenset({"IOTS-MVA", "MVART", "Holiday"})
SWEEP_INTERVALS = (600, 3600, 28800, 86400)
#: Tolerance of the numeric output checks (relative for sums of squares).
TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Op:
    """Outcome of one operation of a pass."""

    name: str
    seconds: float
    ok: bool = True
    error: str | None = None
    value: object = None


def timed(name, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises counts as failed
        return Op(name, time.perf_counter() - start, ok=False, error=repr(exc))
    return Op(name, time.perf_counter() - start, value=value)


def fail(op, why):
    if op.ok:
        op.ok, op.error = False, why


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def load_reference(workload, seed):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def split_60_20_20(table):
    n = len(table)
    i1, i2 = int(n * 0.6), int(n * 0.8)
    return table.row_slice(0, i1), table.row_slice(i1, i2), table.row_slice(i2, n)


# -- pipeline-365d ----------------------------------------------------------


class Pipeline:
    """CLI commands on a synthetic CSV, in the order a user runs them."""

    name = "pipeline-365d"
    min_passes = 1
    commands = (
        ("train", ["train"]),
        ("evaluate", ["evaluate"]),
        ("explain_shap", ["explain", "shap", "--select", "accurate,deviated"]),
        ("explain_pffra", ["explain", "pffra", "--feature", "MVART", "--protocol", "rolling"]),
        ("diagnose_adf", ["diagnose", "adf"]),
    )

    def __init__(self, workdir, seed, days=365, extra_config=""):
        self.workdir, self.seed, self.days = workdir, seed, days
        self.extra_config = extra_config
        self.csv_path = os.path.join(workdir, "synthetic.csv")
        self.config_path = os.path.join(workdir, "pipeline.cfg")

    def setup(self):
        table = dataio.synthesize(dataio.SynthConfig(seed=self.seed, n_days=self.days))
        dataio.write_csv(table, self.csv_path)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(f"data.source = csv\ndata.csv = {self.csv_path}\n{self.extra_config}")

    def run_pass(self, k, tracer):
        out_dir = os.path.join(self.workdir, f"out{k}")
        ops = []
        for label, argv in self.commands:
            full = ["--config", self.config_path, "--seed", str(self.seed),
                    "--out", out_dir, "--quiet", *argv]
            with tracer.span(f"cli.{label}"):
                op = timed(label, cli.main, full)
            if op.ok and op.value != 0:
                fail(op, f"exit code {op.value}")
            ops.append(op)
        return ops, {"out_dir": out_dir}

    def check(self, k, ops, state, first):
        out_dir = state["out_dir"]
        by_name = {op.name: op for op in ops}
        for op in ops:
            if op.ok:
                why = check_manifest(out_dir, op.name)
                if why:
                    fail(op, why)
        evaluate = by_name["evaluate"]
        result = {"artifacts": 0, "bytes": 0}
        if evaluate.ok:
            with open(os.path.join(out_dir, "metrics_test.json"), encoding="utf-8") as fh:
                mae = json.load(fh)["mae"]
            recomputed = csv_mae(os.path.join(out_dir, "forecast_test.csv"))
            if not close(mae, recomputed):
                fail(evaluate, f"metrics_test.json mae {mae} != forecast_test.csv mae {recomputed}")
            ref = load_reference(self.name, self.seed) if self.days == 365 else None
            if ref is not None and not close(mae, ref):
                fail(evaluate, f"test_mae {mae!r} != reference {ref!r}")
            result["test_mae"] = mae
        shap = by_name["explain_shap"]
        if shap.ok:
            for case in ("accurate", "deviated"):
                with open(os.path.join(out_dir, f"shap_{case}.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                total = doc["base_value"] + math.fsum(doc["contributions"].values())
                if not close(total, doc["prediction"]):
                    fail(shap, f"Shapley efficiency fails for {case}")
        for name in sorted(os.listdir(out_dir)):
            result["artifacts"] += 1
            result["bytes"] += os.path.getsize(os.path.join(out_dir, name))
        shutil.rmtree(out_dir)
        return result

    def report(self, passes, checks):
        med = {label: statistics.median(p[label] for p in passes) for label, _ in self.commands}
        out = {f"cmd.{label}_s": (med[label], "s") for label, _ in self.commands}
        maes = [c["test_mae"] for c in checks if "test_mae" in c]
        if maes:
            out["test_mae"] = (maes[0], "degC")
        return out


def check_manifest(out_dir, command):
    """Every artifact a command's manifest lists exists with its SHA-256."""
    path = os.path.join(out_dir, f"manifest_{command}.json")
    if not os.path.exists(path):
        return f"no manifest_{command}.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc["artifacts"]:
        return f"manifest_{command}.json lists no artifacts"
    for art in doc["artifacts"]:
        with open(os.path.join(out_dir, art["path"]), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != art["sha256"]:
            return f"{art['path']}: SHA-256 does not match manifest_{command}.json"
    return None


def csv_mae(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return math.fsum(abs(float(r["y_pred"]) - float(r["y_true"])) for r in rows) / len(rows)


# -- forecast-120d / explain-120d --------------------------------------------


class Trained:
    """Shared set-up: synthesize, split 60/20/20 and train the default model."""

    min_passes = 2

    def __init__(self, workdir, seed, days=120, params=None):
        self.workdir, self.seed, self.days = workdir, seed, days
        self.params = params or gbm.Hyperparams()
        self.cfg = features.EngineeringConfig()

    def setup(self):
        table = dataio.synthesize(dataio.SynthConfig(seed=self.seed, n_days=self.days))
        self.parts = dict(zip(("train", "val", "test"), split_60_20_20(table)))
        self.x_train = features.build_design_matrix(self.parts["train"], self.cfg, GROUPS)
        self.model = gbm.train(self.x_train, self.params)
        self.means = {n: float(self.x_train.column(n).mean()) for n in self.x_train.feature_names}


class Forecast(Trained):
    """Rolling re-anchored forecasts: evaluate, horizon sweeps, rolling pffra."""

    name = "forecast-120d"

    def run_pass(self, k, tracer):
        m, cfg, parts = self.model, self.cfg, self.parts
        ops = []
        for split in ("train", "val", "test"):
            ops.append(timed(f"rolling_{split}", forecast.rolling_forecast, m, parts[split], cfg))
        for split in ("val", "test"):
            ops.append(timed(f"sweep_{split}", forecast.horizon_sweep, m, parts[split], cfg,
                             SWEEP_INTERVALS))
        others = [n for n in m.feature_names if n != "MVART"]
        for label, overrides in (
            ("pffra_base", None),
            ("pffra_permuted", {"MVART": self.means["MVART"]}),
            ("pffra_only", {n: self.means[n] for n in others}),
        ):
            ops.append(timed(label, forecast.rolling_forecast, m, parts["val"], cfg,
                             input_overrides=overrides))
        return ops, None

    def check(self, k, ops, state, first):
        result = {}
        for op in ops:
            if not op.ok:
                continue
            if op.name.startswith("sweep_"):
                if not all(math.isfinite(r["mae"]) and math.isfinite(r["mse"]) for r in op.value):
                    fail(op, "non-finite horizon-sweep metric")
            elif not np.isfinite(op.value.y_pred).all():
                fail(op, "non-finite prediction")
        by_name = {op.name: op for op in ops}
        if first:
            self.first = {op.name: op.value for op in ops if op.ok}
            result["steps"] = self._check_sweeps(by_name)
        else:
            for op in ops:
                if op.ok and not same_output(op.value, self.first.get(op.name)):
                    fail(op, "output differs from the first pass")
        test = by_name["rolling_test"]
        if test.ok:
            mae = test.value.report().mae
            ref = load_reference(self.name, self.seed) if self.days == 120 else None
            if ref is not None and not close(mae, ref):
                fail(test, f"test_mae {mae!r} != reference {ref!r}")
            result["test_mae"] = mae
        return result

    def _check_sweeps(self, by_name):
        """Count the pass's scored steps and check the 600 s validation sweep.

        The sweep reports metrics only. Its step counts come from re-running
        each interval with a tree-less copy of the model, which scores the
        same instants at a fraction of the cost. The 600 s run on the
        validation split (one step from a true anchor) is re-run with the
        real model: it must reproduce the sweep's metrics exactly and equal
        ``predict_batch`` on the validation design matrix.
        """
        steps = sum(len(op.value) for name, op in by_name.items()
                    if not name.startswith("sweep_") and op.ok)
        counter = replace(self.model, trees=())
        for split in ("val", "test"):
            op = by_name[f"sweep_{split}"]
            if not op.ok:
                continue
            for row in op.value:
                s = row["interval_seconds"]
                steps += len(forecast.rolling_forecast(counter, self.parts[split], self.cfg,
                                                       access_interval_seconds=s,
                                                       horizon_seconds=s))
            if split != "val":
                continue
            run = forecast.rolling_forecast(self.model, self.parts["val"], self.cfg,
                                            access_interval_seconds=600, horizon_seconds=600)
            x_val = features.build_design_matrix(self.parts["val"], self.cfg, GROUPS)
            row = next(r for r in op.value if r["interval_seconds"] == 600)
            if {"interval_seconds": 600, **run.report().as_dict()} != row:
                fail(op, "600 s sweep metrics differ from a repeated run")
            elif not np.array_equal(run.timestamps, x_val.row_timestamps):
                fail(op, "600 s run rows differ from the design-matrix rows")
            elif np.max(np.abs(run.y_pred - self.model.predict_batch(x_val.rows))) > TOL:
                fail(op, "600 s run differs from predict_batch")
        return steps

    def report(self, passes, checks):
        out = {}
        steps = next((c["steps"] for c in checks if "steps" in c), None)
        if steps:
            walls = [sum(p.values()) for p in passes]
            out["forecast_steps_per_s"] = (steps / statistics.median(walls), "1/s")
        maes = [c["test_mae"] for c in checks if "test_mae" in c]
        if maes:
            out["test_mae"] = (maes[0], "degC")
        return out


def same_output(a, b):
    if b is None:
        return False
    if isinstance(a, list):
        return a == b
    return np.array_equal(a.y_pred, b.y_pred)


class Explain(Trained):
    """Batch reads of the trained model by every explainer."""

    name = "explain-120d"

    def __init__(self, workdir, seed, days=120, params=None, shap_rows=100, lime_rows=10):
        super().__init__(workdir, seed, days, params)
        self.shap_rows, self.lime_rows = shap_rows, lime_rows

    def setup(self):
        super().setup()
        self.x_val = features.build_design_matrix(self.parts["val"], self.cfg, GROUPS)
        self.x_test = features.build_design_matrix(self.parts["test"], self.cfg, GROUPS)
        self.rows = np.linspace(0, len(self.x_test) - 1, self.shap_rows).round().astype(int)
        self.background = np.array([self.means[n] for n in self.model.feature_names])

    def run_pass(self, k, tracer):
        m, xtr = self.model, self.x_train
        ops = [timed(f"shap_{i}", explain.shap_exact, m, self.x_test.rows[i], self.background)
               for i in self.rows]
        for name in m.feature_names:
            ops.append(timed(f"pdp_{name}", explain.pdp, m, xtr, name))
        ops.append(timed("permutation", explain.permutation_importance, m, xtr, xtr.target,
                         metric="mae", strategy="mean_substitute", means=self.means))
        ops.append(timed("surrogate_ridge", explain.fit_surrogate_ridge, m, xtr, 1.0))
        ops.append(timed("surrogate_tree", explain.fit_surrogate_tree, m, xtr, 6))
        for i in self.rows[: self.lime_rows]:
            ops.append(timed(f"lime_{i}", explain.lime_explain, m, self.x_test.rows[i], xtr,
                             seed=self.seed))
        for name in m.feature_names:
            ops.append(timed(f"pffra_{name}", pffra.pffra, m, self.x_val, self.x_val.target,
                             name, means=self.means))
        return ops, None

    def check(self, k, ops, state, first):
        series = {"original": self.model.predict_batch(self.x_val.rows),
                  "truth": self.x_val.target} if first else None
        preds = dict(zip(self.rows.tolist(), self.model.predict_batch(self.x_test.rows[self.rows])))
        for op in ops:
            if not op.ok:
                continue
            v = op.value
            if op.name.startswith("shap_"):
                i = int(op.name[5:])
                total = v.base_value + math.fsum(v.contributions.values())
                if not (close(total, v.prediction) and close(v.prediction, preds[i])):
                    fail(op, "Shapley efficiency fails")
            elif op.name.startswith("pdp_"):
                if not np.isfinite(v.mean_response).all():
                    fail(op, "non-finite partial dependence")
            elif op.name == "permutation" or op.name.startswith("lime_"):
                vals = v.values() if isinstance(v, dict) else v.contributions.values()
                if not all(math.isfinite(x) for x in vals):
                    fail(op, "non-finite attribution")
            elif op.name.startswith("surrogate_"):
                fidelity = v.fidelity_r2 if op.name == "surrogate_ridge" else v[1]
                if not math.isfinite(fidelity):
                    fail(op, "non-finite surrogate fidelity")
            elif op.name.startswith("pffra_") and first:
                why = self._parseval(v, series)
                if why:
                    fail(op, why)
        return {}

    def _parseval(self, report, series):
        """Band energies of each variant sum to the series' mean square."""
        others = [n for n in self.x_val.feature_names if n != report.feature]
        series = dict(series)
        for variant, drop in (("feature_permuted", [report.feature]), ("feature_only", others)):
            x = pffra.mean_substitute(self.x_val, drop, self.means)
            series[variant] = self.model.predict_batch(x.rows)
        for variant, values in series.items():
            total = math.fsum(report.band_energies[b][variant] for b in pffra.DEFAULT_BANDS)
            mean_square = math.fsum(np.square(values).tolist()) / len(values)
            if not close(total, mean_square):
                return f"Parseval fails for {report.feature}/{variant}: {total} vs {mean_square}"
        return None

    def report(self, passes, checks):
        shap = [[v for name, v in p.items() if name.startswith("shap_")] for p in passes]
        p50 = statistics.median(1000.0 * float(np.percentile(s, 50)) for s in shap)
        p90 = statistics.median(1000.0 * float(np.percentile(s, 90)) for s in shap)
        rest = statistics.median(
            sum(v for name, v in p.items() if not name.startswith("shap_")) for p in passes
        )
        return {"shap_ms.p50": (p50, "ms"), "shap_ms.p90": (p90, "ms"),
                "global_explain_s": (rest, "s")}


WORKLOADS = {w.name: w for w in (Pipeline, Forecast, Explain)}


# -- running -----------------------------------------------------------------


def measure(workload, seconds, trace):
    """Run one workload; returns the result document for run.py."""
    tracer = rttrace.Tracer()
    if trace:
        return _measure_traced(workload, tracer)
    setups = []
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_SECONDS and len(setups) < 5 * SETUP_REPEATS
    ):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    passes, walls, checks, ops_all = [], [], [], []
    while len(walls) < workload.min_passes or sum(walls) < seconds:
        k = len(walls)
        start = time.perf_counter()
        ops, state = workload.run_pass(k, tracer)
        walls.append(time.perf_counter() - start)
        checks.append(workload.check(k, ops, state, first=k == 0))
        passes.append({op.name: op.seconds for op in ops})
        ops_all.extend(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
    }
    metrics.update(workload.report(passes, checks))
    return _document(ops_all, metrics, passes=len(walls), setups=setups, walls=walls)


def _traced(tracer, fn, *args):
    """Call ``fn`` with the tracer installed and recording; returns (result, seconds)."""
    uninstall = tracer.install()
    tracer.active = True
    start = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - start
    finally:
        tracer.active = False
        uninstall()


def _measure_traced(workload, tracer):
    _, setup_wall = _traced(tracer, workload.setup)
    start = time.perf_counter()
    ops0, state0 = workload.run_pass(0, tracer)
    untraced = time.perf_counter() - start
    workload.check(0, ops0, state0, first=True)
    (ops1, state1), traced = _traced(tracer, workload.run_pass, 1, tracer)
    check1 = workload.check(1, ops1, state1, first=False)

    metrics = {name: (value, _unit(name)) for name, value in tracer.metrics().items()}
    metrics["cli.artifacts"] = (check1.get("artifacts", 0), "count")
    metrics["cli.bytes_written"] = (check1.get("bytes", 0), "B")
    metrics["trace.wall_s"] = (setup_wall + traced, "s")
    metrics["trace.self_sum_s"] = (sum(tracer.self_s.values()), "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    doc = _document(ops0 + ops1, metrics, passes=2, setups=[setup_wall], walls=[untraced, traced])
    doc["edges"] = [
        {"caller": caller, "callee": callee, "calls": c, "total_s": t, "self_s": s}
        for (caller, callee), (c, t, s) in sorted(tracer.edges.items(), key=lambda kv: -kv[1][1])
    ]
    return doc


def _unit(name):
    if name.endswith("_s") or name == "timebase.s":
        return "s"
    if name.endswith(("_yield", "_reuse", "_frac")):
        return "ratio"
    return "count"


def _document(ops, metrics, **info):
    failed = [op for op in ops if not op.ok]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "errors": [f"{op.name}: {op.error}" for op in failed[:20]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "numpy": np.__version__,
        **info,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    doc = measure(workload, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
