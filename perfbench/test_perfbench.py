"""Tests of the benchmark's own tracer and derived counts, on tiny runs."""
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [p for p in (HERE, os.path.join(os.path.dirname(HERE), "src")) if p not in sys.path]

import rtbench  # noqa: E402
import rttrace  # noqa: E402
from rtcast import cli, explain, features, forecast, gbm, stats  # noqa: E402

TINY = gbm.Hyperparams(max_depth=4, n_trees=20)
#: A small model on which ``explain shap --select`` finds its case pair.
TINY_CONFIG = "model.n_trees = 40\nmodel.max_depth = 5\n"

#: Layers each workload must exercise (the layer -> end-to-end map of README.md).
MAPPED_LAYERS = {
    "pipeline-365d": rttrace.LAYERS,
    "forecast-120d": ("dataio", "features", "gbm", "forecast"),
    "explain-120d": ("dataio", "gbm", "explain", "pffra", "stats"),
}

DERIVED = ("gbm.split_rows_scanned", "gbm.split_yield", "gbm.tree_visits",
           "pffra.dft_padded_points", "features.engineered_reuse")


def tiny(name, workdir):
    if name == "pipeline-365d":
        return rtbench.Pipeline(str(workdir), 4, days=45, extra_config=TINY_CONFIG)
    if name == "forecast-120d":
        return rtbench.Forecast(str(workdir), 4, days=30, params=TINY)
    return rtbench.Explain(str(workdir), 4, days=30, params=TINY, shap_rows=5, lime_rows=2)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced tiny runs of every workload."""
    docs = {}
    for name in MAPPED_LAYERS:
        docs[name] = [rtbench.measure(tiny(name, tmp_path_factory.mktemp(name)), 0, True)
                      for _ in range(2)]
    return docs


def value(doc, name):
    return doc["metrics"][name]["value"]


def test_tracer_rebinds_names_imported_elsewhere():
    originals = {
        "grow_tree": gbm.grow_tree,
        "build_design_matrix": features.build_design_matrix,
        "engineered_table": features.engineered_table,
        "metrics": stats.metrics,
        "predict_row": gbm.Ensemble.predict_row,
        "predict_batch": gbm.Ensemble.predict_batch,
    }
    uninstall = rttrace.Tracer().install()
    try:
        assert explain.grow_tree is gbm.grow_tree is not originals["grow_tree"]
        assert forecast.build_design_matrix is cli.build_design_matrix is features.build_design_matrix
        assert features.build_design_matrix.__wrapped__ is originals["build_design_matrix"]
        assert forecast.engineered_table is features.engineered_table is not originals["engineered_table"]
        for mod in (gbm, forecast, explain):
            assert mod.metrics is stats.metrics is not originals["metrics"]
        assert gbm.Ensemble.predict_row is not originals["predict_row"]
        assert gbm.Ensemble.predict_batch is not originals["predict_batch"]
    finally:
        uninstall()
    assert explain.grow_tree is gbm.grow_tree is originals["grow_tree"]
    assert forecast.build_design_matrix is cli.build_design_matrix is originals["build_design_matrix"]
    assert gbm.metrics is originals["metrics"]
    assert gbm.Ensemble.predict_row is originals["predict_row"]


def test_every_predict_row_is_a_forecast_step(traced):
    for name in ("pipeline-365d", "forecast-120d"):
        for doc in traced[name]:
            assert doc["failed"] == 0, doc["errors"]
            assert value(doc, "gbm.predict_row_calls") == value(doc, "forecast.steps") > 0


def test_every_mapped_layer_records_a_span(traced):
    for name, layers in MAPPED_LAYERS.items():
        doc = traced[name][0]
        callees = {e["callee"].split(".", 1)[0] for e in doc["edges"]}
        assert set(layers) <= callees, (name, sorted(set(layers) - callees))


def test_derived_counts_repeat_exactly(traced):
    for name, (first, second) in traced.items():
        for metric in DERIVED:
            assert value(first, metric) == value(second, metric), (name, metric)
        counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
        assert {k: value(first, k) for k in counts} == {k: value(second, k) for k in counts}


def test_self_times_cover_the_traced_wall(traced):
    for name, docs in traced.items():
        for doc in docs:
            wall, covered = value(doc, "trace.wall_s"), value(doc, "trace.self_sum_s")
            assert 0.9 * wall <= covered <= wall, (name, wall, covered)


def test_padded_points():
    assert rttrace.padded_points(8) == 8
    assert rttrace.padded_points(5) == 3 * 16
    assert rttrace.padded_points(3456) == 3 * 8192


def test_tree_counts_by_routing():
    rows = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = gbm.TreeNode(feature_index=0, threshold=1.5,
                        left=gbm.TreeNode(weight=-1.0), right=gbm.TreeNode(weight=1.0))
    counts = rttrace.tree_counts([(rows, 2, tree)])
    assert counts == {"gbm.trees": 1, "gbm.nodes": 3, "gbm.split_rows_scanned": 8,
                      "gbm.split_yield": 1 / 3}
    counts = rttrace.tree_counts([(rows, 1, tree)])
    assert counts["gbm.split_rows_scanned"] == 4 and counts["gbm.split_yield"] == 1.0
