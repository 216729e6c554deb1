"""Acceptance suite: ten gate checks, one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The pipeline checks share a 120-day seed-42 synthetic dataset and
fixed hyperparameters (depth 6, 100 trees, learning rate 0.3).
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from rtcast import dataio, explain, features, forecast, gbm, pffra, stats
from rtcast.features import EngineeringConfig

from conftest import make_matrix
from test_gbm import assert_trees_equal, oracle_tree
from test_pffra import naive_dft

FULL = frozenset({"IOTS-MVA", "MVART", "Holiday"})
PARAMS = gbm.Hyperparams(max_depth=6, n_trees=100)


@pytest.fixture(scope="module")
def pipeline():
    table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=120))
    n = len(table)
    train_t = table.row_slice(0, int(n * 0.6))
    val_t = table.row_slice(int(n * 0.6), int(n * 0.8))
    cfg = EngineeringConfig()
    x_train = features.build_design_matrix(train_t, cfg, FULL)
    x_val = features.build_design_matrix(val_t, cfg, FULL)
    model = gbm.train(x_train, PARAMS)
    return {
        "train_t": train_t, "val_t": val_t, "cfg": cfg,
        "x_train": x_train, "x_val": x_val, "model": model,
    }


def announce(n, detail):
    print(f"criterion {n}: PASS — {detail}")


def test_criterion_01_split_search_matches_enumeration():
    """Trained trees equal an exhaustive split-enumeration reference."""
    rng = np.random.default_rng(2024)
    for fixture in range(10):
        n = int(rng.integers(8, 31))
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        gamma = float(rng.choice([0.0, 0.25]))
        rows = rng.integers(0, 5, size=(n, d)) * 0.5
        y = rng.integers(-8, 9, size=n) * 0.25
        X = make_matrix(rows, [f"f{i}" for i in range(d)], target=y)
        model = gbm.train(X, gbm.Hyperparams(
            max_depth=depth, n_trees=1, learning_rate=1.0,
            lambda_=lam, gamma=gamma,
        ))
        base = y.mean()
        want = oracle_tree(rows, np.full(n, base) - y, np.ones(n),
                           depth, lam, gamma)
        assert_trees_equal(model.trees[0], want, path=f"fixture{fixture}")
    announce(1, "10/10 randomized fixtures identical to the reference")


def test_criterion_02_boosting_mse_never_increases(pipeline):
    X = pipeline["x_train"]
    model = gbm.train(X, gbm.Hyperparams(max_depth=5, n_trees=200))
    mses = [
        float(np.mean((X.target - p) ** 2))
        for p in gbm.staged_predictions(model, X.rows)
    ]
    for r, (a, b) in enumerate(zip(mses, mses[1:]), start=1):
        assert b <= a + 1e-9, f"round {r}: MSE rose from {a} to {b}"
    announce(2, f"200 rounds, MSE {mses[0]:.3f} -> {mses[-1]:.4f}, monotone")


def test_criterion_03_shapley_axioms(pipeline):
    model, x_val = pipeline["model"], pipeline["x_val"]
    bg = pipeline["x_train"].rows.mean(axis=0)
    rng = np.random.default_rng(7)
    idx = rng.choice(len(x_val), size=100, replace=False)
    worst = 0.0
    for i in idx:
        att = explain.shap_exact(model, x_val.rows[i], bg)
        gap = abs(att.base_value + sum(att.contributions.values()) - att.prediction)
        worst = max(worst, gap)
    assert worst < 1e-6

    # dummy: a constant column can never be split on, so it must get 0 exactly
    rows = np.column_stack([pipeline["x_train"].rows[:400, :3], np.full(400, 7.0)])
    Xd = make_matrix(rows, ["a", "b", "c", "dead"],
                     target=pipeline["x_train"].target[:400])
    dummy_model = gbm.train(Xd, gbm.Hyperparams(max_depth=3, n_trees=10))
    att = explain.shap_exact(dummy_model, Xd.rows[5], Xd.rows.mean(axis=0))
    assert att.contributions["dead"] == 0.0

    # symmetry: interchangeable features earn identical credit
    f = lambda r: r[:, 0] + r[:, 1] + 0.3 * r[:, 2]
    att = explain.shap_exact(f, np.array([2.0, 2.0, 1.0]),
                             np.array([0.5, 0.5, 0.2]), ["p", "q", "r"])
    assert att.contributions["p"] == pytest.approx(att.contributions["q"], abs=1e-9)
    announce(3, f"efficiency gap <= {worst:.2e} over 100 instances; "
                "dummy exact zero; symmetry within 1e-9")


def test_criterion_04_dft_against_naive_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 17, 100, 1024):
        x = rng.normal(size=n) + 2.0
        got = pffra.dft_complex(x)
        want = naive_dft(x)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-9, f"N={n}: relative error {rel}"
        spec = pffra.dft(x, 600)
        total = spec.dc ** 2 + spec.bin_powers().sum()
        assert total == pytest.approx(np.mean(x ** 2), rel=1e-9)
        assert spec.dc == pytest.approx(x.mean(), rel=1e-9)
    announce(4, "N in {2, 17, 100, 1024}: transform, Parseval, and DC verified")


def test_criterion_05_frequency_response_of_the_lag_feature(pipeline):
    model, x_val = pipeline["model"], pipeline["x_val"]
    rep = pffra.pffra(model, x_val, x_val.target, "MVART")
    low = rep.band_energies["low"]
    ratio = low["feature_only"] / low["original"]
    assert ratio >= 0.6, f"low-band energy ratio {ratio:.3f} < 0.6"

    dc_orig = rep.spectra["original"].dc
    gap_without_lag = abs(rep.spectra["feature_permuted"].dc - dc_orig)
    gap_lag_alone = abs(rep.spectra["feature_only"].dc - dc_orig)
    assert gap_without_lag < gap_lag_alone
    announce(5, f"low-band ratio {ratio:.2f}; DC gaps "
                f"{gap_without_lag:.3f} < {gap_lag_alone:.3f}")


def test_criterion_06_feature_ablation_direction(pipeline):
    train_t, val_t, cfg = pipeline["train_t"], pipeline["val_t"], pipeline["cfg"]
    full_mae = forecast.rolling_forecast(
        pipeline["model"], val_t, cfg).report().mae
    x_iots = features.build_design_matrix(train_t, cfg, frozenset({"IOTS"}))
    iots_model = gbm.train(x_iots, PARAMS)
    iots_mae = forecast.rolling_forecast(iots_model, val_t, cfg).report().mae
    reduction = 1.0 - full_mae / iots_mae
    assert reduction >= 0.20, f"MAE reduction {reduction:.1%} < 20%"
    announce(6, f"rolling MAE {iots_mae:.3f} -> {full_mae:.3f} "
                f"({reduction:.0%} reduction)")


def test_criterion_07_sweep_shapes(pipeline):
    train_t, val_t, cfg = pipeline["train_t"], pipeline["val_t"], pipeline["cfg"]
    window = forecast.window_sweep(train_t, val_t, [0, 3600, 86400], cfg, PARAMS)
    by_width = {r["width_seconds"]: r["mae"] for r in window}
    assert by_width[3600] < by_width[0]
    assert by_width[3600] < by_width[86400]

    horizon = forecast.horizon_sweep(
        pipeline["model"], val_t, cfg, [600, 3600, 28800, 86400])
    maes = [r["mae"] for r in horizon]
    for a, b in zip(maes, maes[1:]):
        assert b >= a * 0.95, f"horizon MAE fell: {a} -> {b}"
    announce(7, f"window MAE {by_width[0]:.2f}/{by_width[3600]:.2f}/"
                f"{by_width[86400]:.2f}; horizon {['%.2f' % m for m in maes]}")


def test_criterion_08_stationarity_suite():
    rng = np.random.default_rng(0)
    walk = np.cumsum(rng.normal(size=2000))
    level = stats.adf_test(walk)
    assert not level.reject_at[0.05]
    diff = stats.adf_test(np.diff(walk))
    assert diff.reject_at[0.01]
    p = stats.pacf(walk, 10)
    assert p[1] > 0.95
    assert np.abs(p[2:]).max() < 0.1
    announce(8, f"walk stat {level.statistic:.2f} kept; diff stat "
                f"{diff.statistic:.2f} rejected; pacf1 {p[1]:.3f}")


def test_criterion_09_surrogate_fidelity():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(300, 5)) * np.array([1, 2, 0.5, 1, 3])
    X = make_matrix(rows, list("abcde"))
    beta = np.array([1.5, -2.0, 4.0, 0.0, 0.25])
    linear = lambda r: r @ beta + 7.0
    fit = explain.fit_surrogate_ridge(linear, X, lambda_=0.0)
    for j, name in enumerate("abcde"):
        if beta[j] != 0.0:
            assert fit.coefficients[name] == pytest.approx(beta[j], rel=1e-8)
        else:
            assert fit.coefficients[name] == pytest.approx(0.0, abs=1e-8)
    assert fit.intercept == pytest.approx(7.0, rel=1e-8)

    stump = lambda r: np.where(r[:, 2] < 0.1, -3.0, 2.0)
    _, fidelity = explain.fit_surrogate_tree(stump, X, max_depth=1)
    assert abs(fidelity - 1.0) <= 1e-12
    announce(9, "ridge recovered the linear model; stump fidelity R^2 = 1")


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "data.source = synth\n"
        "synth.days = 40\n"
        "model.max_depth = 5\n"
        "model.n_trees = 50\n"
    )
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        for cmd in ("synth", "train", "evaluate"):
            proc = subprocess.run(
                [sys.executable, "-m", "rtcast.cli", "--config", str(cfg),
                 "--out", str(out), "--quiet", cmd],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outs.append(out)
    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    diffs = [n for n in names
             if (first / n).read_bytes() != (second / n).read_bytes()]
    assert not diffs, f"artifacts differ: {diffs}"
    manifests = [n for n in names if n.startswith("manifest_")]
    assert len(manifests) == 3
    announce(10, f"{len(names)} artifacts byte-identical across two runs")
