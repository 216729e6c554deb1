"""Boosted-tree training against an exhaustive split-enumeration reference."""
import gc
import hashlib
import json
import math
import os
import pickle
import sys
import threading
import tracemalloc
import warnings
from collections import defaultdict
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtcast import dataio, explain, features, gbm
from rtcast.errors import ConfigError, DataError, NumericError
from rtcast.gbm import Ensemble, Hyperparams, HyperparamGrid, TreeNode

from conftest import FULL_GROUPS, make_matrix


# ---------------------------------------------------------------------------
# reference implementation: enumerate every (feature, midpoint) split
# ---------------------------------------------------------------------------

def oracle_split(rows, grad, hess, lam, gamma):
    """Best split by brute force, or None. Ties: first feature, then first
    threshold, scanning thresholds in ascending order."""
    g_sum, h_sum = grad.sum(), hess.sum()
    parent = g_sum * g_sum / (h_sum + lam)
    best = None
    for j in range(rows.shape[1]):
        distinct = np.unique(rows[:, j])
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2.0
            mask = rows[:, j] < thr
            gl, hl = grad[mask].sum(), hess[mask].sum()
            gr, hr = g_sum - gl, h_sum - hl
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - gamma
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    if best is None or best[0] <= 0.0:
        return None
    return best


def oracle_tree(rows, grad, hess, max_depth, lam, gamma):
    if max_depth > 0:
        found = oracle_split(rows, grad, hess, lam, gamma)
        if found is not None:
            gain, j, thr = found
            mask = rows[:, j] < thr
            return TreeNode(
                feature_index=j,
                threshold=thr,
                left=oracle_tree(rows[mask], grad[mask], hess[mask],
                                 max_depth - 1, lam, gamma),
                right=oracle_tree(rows[~mask], grad[~mask], hess[~mask],
                                  max_depth - 1, lam, gamma),
                gain=gain,
            )
    return TreeNode(weight=-grad.sum() / (hess.sum() + lam))


def assert_trees_equal(got, want, path="root"):
    assert got.is_leaf == want.is_leaf, f"{path}: node kind differs"
    if got.is_leaf:
        assert got.weight == pytest.approx(want.weight, abs=1e-10), path
        return
    assert got.feature_index == want.feature_index, f"{path}: feature differs"
    assert got.threshold == want.threshold, f"{path}: threshold differs"
    assert got.gain == pytest.approx(want.gain, abs=1e-9), f"{path}: gain differs"
    assert_trees_equal(got.left, want.left, path + ".L")
    assert_trees_equal(got.right, want.right, path + ".R")


def dyadic_fixture(seed, n_max=40, d_max=4):
    """Random dataset on a dyadic grid so both routes sum without rounding."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    rows = rng.integers(0, 6, size=(n, d)) * 0.5
    y = rng.integers(-8, 9, size=n) * 0.25
    return rows, y.astype(np.float64)


class TestGrowTreeOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_enumeration(self, seed):
        rows, y = dyadic_fixture(seed)
        rng = np.random.default_rng(100 + seed)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        gamma = float(rng.choice([0.0, 0.25]))
        depth = int(rng.integers(1, 4))
        grad = -y  # squared loss from a zero prediction
        got = gbm.grow_tree(rows, grad, depth, lam, gamma)
        want = oracle_tree(rows, grad, np.ones_like(y), depth, lam, gamma)
        assert_trees_equal(got, want)

    def test_hand_computed_stump(self):
        rows = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        node = gbm.grow_tree(rows, -y, 1, 0.0, 0.0)
        assert node.threshold == 2.5
        assert node.gain == pytest.approx(0.5 * (0.0 + 4.0 / 2.0 - 4.0 / 4.0))
        assert node.left.weight == pytest.approx(0.0)
        assert node.right.weight == pytest.approx(1.0)

    def test_feature_tie_prefers_lower_index(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        rows = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        node = gbm.grow_tree(rows, -y, 1, 1.0, 0.0)
        assert node.feature_index == 0

    def test_feature_tie_at_different_cuts_prefers_lower_index(self):
        """Both features reach the best gain, feature 0 at its third sorted
        row and feature 1 at its second: the lower feature wins, though its
        cut comes later."""
        i = np.arange(5.0)
        rows = np.column_stack([i, 4.0 - i])
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        node = gbm.grow_tree(rows, -y, 1, 1.0, 0.0)
        assert (node.feature_index, node.threshold) == (0, 2.5)

    def test_threshold_tie_prefers_lower_value(self):
        rows = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 1.0])
        node = gbm.grow_tree(rows, -y, 1, 0.0, 0.0)
        assert node.threshold == 1.5

    def test_pure_node_stays_leaf(self):
        rows = np.array([[0.0], [1.0], [2.0]])
        grad = np.zeros(3)
        node = gbm.grow_tree(rows, grad, 3, 1.0, 0.0)
        assert node.is_leaf and node.weight == 0.0

    def test_gamma_suppresses_marginal_split(self):
        rows = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        node = gbm.grow_tree(rows, -y, 1, 0.0, 10.0)
        assert node.is_leaf

    def test_lambda_shrinks_leaf_weight(self):
        rows = np.array([[0.0], [0.0]])
        y = np.array([4.0, 4.0])
        node = gbm.grow_tree(rows, -y, 1, 2.0, 0.0)
        assert node.weight == pytest.approx(8.0 / (2.0 + 2.0))

    def test_depth_zero_is_a_leaf(self):
        rows, y = dyadic_fixture(3)
        node = gbm.grow_tree(rows, -y, 0, 1.0, 0.0)
        assert node.is_leaf


# ---------------------------------------------------------------------------
# reference implementation: the per-node stable argsort grower that the
# column-block grower replaced; both must give the same trees bit for bit.
# It sums float hessians, and is fed ones: the grower counts them instead.
# ---------------------------------------------------------------------------

def argsort_split(rows, g, h, idx, lambda_, gamma):
    g_sum = float(g[idx].sum())
    h_sum = float(h[idx].sum())
    parent = g_sum * g_sum / (h_sum + lambda_)
    best = None
    for f in range(rows.shape[1]):
        x = rows[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(g[idx][order])[:-1]
        hl = np.cumsum(h[idx][order])[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        gains = 0.5 * (gl * gl / (hl + lambda_) + gr * gr / (hr + lambda_) - parent) - gamma
        gains[xs[:-1] == xs[1:]] = -np.inf
        j = int(np.argmax(gains))
        if best is None or gains[j] > best[0]:
            best = (float(gains[j]), f, float((xs[j] + xs[j + 1]) / 2.0))
    if best is None or best[0] <= 0.0:
        return None
    return best


def argsort_tree(rows, grad, hess, idx, depth, max_depth, lambda_, gamma):
    split = argsort_split(rows, grad, hess, idx, lambda_, gamma) if depth < max_depth else None
    if split is None:
        return TreeNode(weight=-float(grad[idx].sum()) / (float(hess[idx].sum()) + lambda_))
    gain, f, thr = split
    left = rows[idx, f] < thr
    return TreeNode(
        feature_index=f,
        threshold=thr,
        left=argsort_tree(rows, grad, hess, idx[left], depth + 1, max_depth, lambda_, gamma),
        right=argsort_tree(rows, grad, hess, idx[~left], depth + 1, max_depth, lambda_, gamma),
        gain=gain,
    )


def assert_trees_identical(got, want, path="root"):
    assert got.is_leaf == want.is_leaf, f"{path}: node kind differs"
    if got.is_leaf:
        assert got.weight == want.weight, path
        return
    assert got.feature_index == want.feature_index, f"{path}: feature differs"
    assert got.threshold == want.threshold, f"{path}: threshold differs"
    assert got.gain == want.gain, f"{path}: gain differs"
    assert_trees_identical(got.left, want.left, path + ".L")
    assert_trees_identical(got.right, want.right, path + ".R")


def tied_fixture(seed):
    """Float columns with heavy ties (low-cardinality codes, coarsely rounded
    and continuous values, in random order) and gradients for them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    cols = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.integers(3)
        if kind == 0:
            cols.append(rng.integers(0, int(rng.integers(1, 25)), n) * 0.7)
        elif kind == 1:
            cols.append(np.round(rng.normal(size=n), 1))
        else:
            cols.append(rng.normal(scale=10.0, size=n))
    grad = rng.normal(size=n)
    return np.column_stack(cols), grad


#: SHA-256 of the 30-day design matrix (rows then target bytes) and of the
#: ``model.json`` text trained on it: with the default hyperparameters, as the
#: per-node argsort grower wrote it, and with 20 trees of depth 15, whose nodes
#: are mostly small, as the column-block grower with per-feature gain
#: evaluations wrote it.
INPUTS_SHA256 = "543ccbc9cf38f5956bdee08a4660457b8463080e6742fef44a83256ca8e105ac"
MODEL_SHA256 = "d9ac72e51e251e7c05aa3c27b5ae8033fd4564b2f508105b74ffcda4a67b4203"
DEEP_MODEL_SHA256 = "5d855c5fdabd25b71a5e5da2b9e18cf650c60de69501b027f6c7e28890dd4ce0"


class TestColumnBlockGrower:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("lam, gamma", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5)])
    def test_equals_per_node_argsort_grower(self, seed, lam, gamma):
        rows, grad = tied_fixture(seed)
        depth = 1 + seed % 7
        got = gbm.grow_tree(rows, grad, depth, lam, gamma)
        want = argsort_tree(rows, grad, np.ones(len(rows)), np.arange(len(rows)), 0, depth,
                            lam, gamma)
        assert_trees_identical(got, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_fitted_output_is_the_walk_of_the_grown_tree(self, seed):
        """The grower's own leaf assignment, on rows with ties and with
        duplicate rows, is what walking the returned tree gives."""
        rows, grad = tied_fixture(seed)
        dup = np.arange(len(rows)) % 3 == 0
        rows, grad = (np.concatenate([a, a[dup]]) for a in (rows, grad))
        out = np.full(len(rows), np.nan)
        tree = gbm.grow_tree(rows, grad, 1 + seed % 7, 1.0, 0.0, out=out)
        assert np.array_equal(out, [leaf_weight(tree, x) for x in rows])

    def test_leaves_no_reference_cycle(self):
        rows, grad = tied_fixture(3)
        gc.collect()
        gc.disable()
        try:
            gbm.grow_tree(rows, grad, 6, 1.0, 0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("lam, gamma", [(0.0, 0.0), (1.0, 0.5)])
    def test_column_constant_after_first_split(self, lam, gamma):
        """Column 0 decides the first split and column 1 copies it, so both
        are constant in every node below the root; the continuous column 2
        and the coarse column 3 keep splitting."""
        rng = np.random.default_rng(5)
        n = 300
        on = rng.integers(0, 2, n).astype(np.float64)
        cont = rng.normal(size=n)
        coarse = np.round(rng.normal(size=n), 1)
        rows = np.column_stack([on, on * 3.0, cont, coarse])
        grad = -(20.0 * on + np.sin(3.0 * cont) + coarse) + rng.normal(scale=0.1, size=n)
        got = gbm.grow_tree(rows, grad, 5, lam, gamma)
        want = argsort_tree(rows, grad, np.ones(n), np.arange(n), 0, 5, lam, gamma)
        assert got.feature_index == 0
        assert_trees_identical(got, want)

    @pytest.mark.parametrize("params, digest", [
        (Hyperparams(), MODEL_SHA256),
        (Hyperparams(max_depth=15, n_trees=20, gamma=0.05), DEEP_MODEL_SHA256),
    ], ids=["default", "depth15"])
    def test_thirty_day_model_bytes_are_pinned(self, params, digest):
        """``model.json`` of a 30-day train, pinned to the digest an earlier
        grower wrote (see the constants). The pin holds for these exact inputs:
        the synthesizer uses ``np.cos``, whose last bit may differ between
        numpy builds, so other inputs skip rather than compare."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=30))
        X = features.build_design_matrix(
            table.row_slice(0, 2592), features.EngineeringConfig(), FULL_GROUPS
        )
        inputs = hashlib.sha256(X.rows.tobytes() + X.target.tobytes()).hexdigest()
        if inputs != INPUTS_SHA256:
            pytest.skip("synthetic inputs differ from the pinned ones on this numpy build")
        model = gbm.train(X, params)
        assert hashlib.sha256(gbm.dumps(model).encode()).hexdigest() == digest


class TestTrain:
    @pytest.mark.parametrize("depth", range(1, 8))
    @pytest.mark.parametrize("lam, gamma", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5)])
    def test_equals_rounds_grown_from_scratch(self, depth, lam, gamma):
        """``train`` sorts the column block once and reuses it in every
        round; growing each round from its own rows gives the same bytes."""
        rows, y = tied_fixture(depth + 10)
        X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y)
        params = Hyperparams(max_depth=depth, n_trees=4, gamma=gamma, lambda_=lam)
        pred = np.full(len(y), float(y.mean()))
        trees = []
        for _ in range(params.n_trees):
            fitted = np.empty(len(y))
            trees.append(gbm.grow_tree(rows, pred - y, depth, lam, gamma, out=fitted))
            pred += params.learning_rate * fitted
        want = Ensemble(base_score=float(y.mean()), learning_rate=params.learning_rate,
                        trees=tuple(trees), feature_names=X.feature_names,
                        lambda_=lam, gamma=gamma)
        assert gbm.dumps(gbm.train(X, params)) == gbm.dumps(want)

    def test_callers_pass_the_depth_by_keyword(self, monkeypatch, train_matrix):
        """perfbench's tracer reads a grown tree's depth as ``max_depth`` or
        as the fourth positional argument, which is ``lambda_``: ``train`` and
        the tree surrogate pass it by keyword."""
        seen, grow = [], gbm.grow_tree

        def spy(*args, **kwargs):
            seen.append((len(args), kwargs.get("max_depth")))
            return grow(*args, **kwargs)

        monkeypatch.setattr(gbm, "grow_tree", spy)
        monkeypatch.setattr(explain, "grow_tree", spy)
        gbm.train(train_matrix, Hyperparams(max_depth=3, n_trees=2))
        explain.fit_surrogate_tree(lambda rows: rows[:, 0], train_matrix, max_depth=4)
        assert seen == [(2, 3), (2, 3), (2, 4)]

    def test_base_score_is_target_mean(self):
        X = make_matrix([[0.0], [1.0], [2.0]], ["A"], target=[1.0, 2.0, 6.0])
        model = gbm.train(X, Hyperparams(max_depth=1, n_trees=1))
        assert model.base_score == pytest.approx(3.0)

    def test_single_round_equals_grown_tree(self):
        rows, y = dyadic_fixture(7)
        names = [f"f{i}" for i in range(rows.shape[1])]
        X = make_matrix(rows, names, target=y)
        params = Hyperparams(max_depth=2, n_trees=1, learning_rate=1.0,
                             lambda_=1.0, gamma=0.0)
        model = gbm.train(X, params)
        base = y.mean()
        want = oracle_tree(rows, np.full_like(y, base) - y, np.ones_like(y),
                           2, 1.0, 0.0)
        assert len(model.trees) == 1
        assert_trees_equal(model.trees[0], want)

    def test_learning_rate_scales_first_tree_exactly(self):
        rows, y = dyadic_fixture(8)
        X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y)
        full = gbm.train(X, Hyperparams(max_depth=2, n_trees=1, learning_rate=1.0))
        half = gbm.train(X, Hyperparams(max_depth=2, n_trees=1, learning_rate=0.5))
        d_full = full.predict_batch(rows) - full.base_score
        d_half = half.predict_batch(rows) - half.base_score
        assert np.allclose(d_full, 2.0 * d_half, atol=1e-12)

    def test_training_drives_mse_down(self, train_matrix):
        model = gbm.train(train_matrix, Hyperparams(max_depth=4, n_trees=30))
        preds = list(gbm.staged_predictions(model, train_matrix.rows))
        assert len(preds) == 31
        mses = [float(np.mean((train_matrix.target - p) ** 2)) for p in preds]
        assert mses[-1] < 0.5 * mses[0]

    def test_staged_matches_truncated_predict(self, small_model, val_matrix):
        rows = val_matrix.rows[:50]
        staged = list(gbm.staged_predictions(small_model, rows))
        short = Ensemble(
            base_score=small_model.base_score,
            learning_rate=small_model.learning_rate,
            trees=small_model.trees[:10],
            feature_names=small_model.feature_names,
            lambda_=small_model.lambda_,
            gamma=small_model.gamma,
        )
        assert np.allclose(staged[10], short.predict_batch(rows), atol=1e-12)

    def test_predict_row_agrees_with_batch(self, small_model, val_matrix):
        rows = val_matrix.rows[:20]
        batch = small_model.predict_batch(rows)
        single = [small_model.predict_row(r) for r in rows]
        assert np.array_equal(batch, single)

    def test_row_width_is_checked(self, small_model):
        with pytest.raises(ConfigError):
            small_model.predict_row(np.zeros(3))

    def test_rejects_non_finite_targets(self):
        X = make_matrix([[0.0], [1.0]], ["A"], target=[1.0, np.nan])
        with pytest.raises(NumericError):
            gbm.train(X, Hyperparams(n_trees=1))

    def test_grow_tree_raises_when_gradient_sums_overflow(self):
        """Finite gradients whose squared sums leave the float range: a direct
        call raises, where it would grow a tree from inf and NaN gains."""
        rng = np.random.default_rng(0)
        u, v = rng.uniform(size=(2000, 2)), rng.uniform(size=2000)
        with pytest.raises(FloatingPointError):
            gbm.grow_tree(u, np.full(2000, 1e200) + v, max_depth=3, lambda_=1.0, gamma=0.0)

    def test_hyperparams_validation(self):
        with pytest.raises(ConfigError):
            Hyperparams(max_depth=-1)
        with pytest.raises(ConfigError):
            Hyperparams(n_trees=-1)
        with pytest.raises(ConfigError):
            Hyperparams(learning_rate=0.0)
        with pytest.raises(ConfigError):
            Hyperparams(lambda_=-0.5)


class TestGridSearch:
    def _matrices(self):
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(120, 3))
        y = rows[:, 0] * 2 + np.sin(rows[:, 1]) + rng.normal(scale=0.1, size=120)
        X = make_matrix(rows[:80], ["a", "b", "c"], target=y[:80])
        V = make_matrix(rows[80:], ["a", "b", "c"], target=y[80:], start=80 * 600)
        return X, V

    def test_best_is_argmin_of_table(self):
        X, V = self._matrices()
        grid = HyperparamGrid(max_depth=(2, 3), n_trees=(5, 20),
                              gamma=(0.0,), lambda_=(1.0,), learning_rate=(0.3,))
        best, _, table = gbm.grid_search(X, V, grid)
        assert len(table) == 4
        scored = [
            (rep.mae, p.n_trees, p.max_depth, p) for p, rep in table
        ]
        want = min(scored)[3]
        assert best == want

    def test_shared_prefix_equals_isolated_training(self):
        X, V = self._matrices()
        grid = HyperparamGrid(max_depth=(3,), n_trees=(5, 20),
                              gamma=(0.0,), lambda_=(1.0,), learning_rate=(0.3,))
        _, _, table = gbm.grid_search(X, V, grid)
        small = next(rep for p, rep in table if p.n_trees == 5)
        solo = gbm.train(X, Hyperparams(max_depth=3, n_trees=5))
        rep = None
        from rtcast import stats
        rep = stats.metrics(V.target, solo.predict_batch(V.rows))
        assert small.mae == pytest.approx(rep.mae, abs=1e-12)

    def test_model_is_the_winner_trained_alone(self):
        """The returned model is a prefix of its group's longer run, and the
        same bytes as training the winning parameters on their own."""
        X, V = self._matrices()
        grid = HyperparamGrid(max_depth=(3, 6), n_trees=(2, 5, 10, 60), gamma=(0.0,),
                              lambda_=(0.0,), learning_rate=(1.0,))
        best, model, _ = gbm.grid_search(X, V, grid)
        assert best.n_trees < 60
        assert gbm.dumps(model) == gbm.dumps(gbm.train(X, best))

    def test_combo_errors_name_the_combination(self):
        X, V = self._matrices()
        bad = make_matrix(np.full((3, 3), np.nan), ["a", "b", "c"])
        grid = HyperparamGrid(max_depth=(2,), n_trees=(5,), gamma=(0.0,),
                              lambda_=(1.0,), learning_rate=(0.3,))
        with pytest.raises(NumericError) as err:
            gbm.grid_search(bad, V, grid)
        assert "grid combination" in str(err.value)


def train_both_ways(X, params) -> tuple:
    """``model.json`` of ``train`` growing alone, then with a worker from the
    first row on, and the number of trees the worker shared."""
    shared = []
    grow = gbm._Worker.grow

    def counting(self, *args):
        shared.append(None)
        return grow(self, *args)

    with mock.patch.object(gbm, "PARALLEL_ROWS", 10**12):
        alone = gbm.dumps(gbm.train(X, params))
    with mock.patch.object(gbm, "PARALLEL_ROWS", 0), mock.patch.object(gbm, "_cpus", lambda: 2), \
            mock.patch.object(gbm._Worker, "grow", counting):
        both = gbm.dumps(gbm.train(X, params))
    return alone, both, len(shared)


def assert_no_child_process():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: Tied fixtures whose targets, scaled by 1e153, overflow in the split search
#: of a subtree that the worker grows, below a root that searches in range.
WORKER_OVERFLOW_SEEDS = (22, 61, 68, 74)


class TestTwoProcesses:
    """``train`` sharing each tree with a forked worker writes the bytes that
    growing alone writes, raises its errors and leaves no process behind."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 39), depth=st.sampled_from([1, 2, 3, 6, 15]),
           lam=st.sampled_from([0.0, 1.0]), gamma=st.sampled_from([0.0, 0.5]),
           n_trees=st.sampled_from([0, 1, 3]))
    @example(seed=3, depth=6, lam=0.0, gamma=0.5, n_trees=3)
    def test_model_bytes_equal_growing_alone(self, seed, depth, lam, gamma, n_trees):
        rows, y = tied_fixture(seed)
        X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y)
        params = Hyperparams(max_depth=depth, n_trees=n_trees, gamma=gamma, lambda_=lam)
        alone, both, shared = train_both_ways(X, params)
        assert both == alone
        assert shared == (n_trees if depth > 1 else 0)
        assert_no_child_process()

    @pytest.mark.parametrize("params, digest", [
        (Hyperparams(), MODEL_SHA256),
        (Hyperparams(max_depth=15, n_trees=20, gamma=0.05), DEEP_MODEL_SHA256),
    ], ids=["default", "depth15"])
    def test_thirty_day_model_bytes_are_the_pinned_ones(self, params, digest):
        """The pinned 30-day models of ``test_thirty_day_model_bytes_are_pinned``,
        whose 2,592 rows grow alone by default, with the worker."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=30))
        X = features.build_design_matrix(
            table.row_slice(0, 2592), features.EngineeringConfig(), FULL_GROUPS
        )
        if hashlib.sha256(X.rows.tobytes() + X.target.tobytes()).hexdigest() != INPUTS_SHA256:
            pytest.skip("synthetic inputs differ from the pinned ones on this numpy build")
        alone, both, shared = train_both_ways(X, params)
        assert shared == params.n_trees
        assert hashlib.sha256(both.encode()).hexdigest() == digest

    def test_overflow_in_a_worker_subtree_raises_the_serial_error(self, monkeypatch):
        raised = []
        load = pickle.load

        def reading(file):
            reply = load(file)
            if isinstance(reply, Exception):
                raised.append(reply)
            return reply

        monkeypatch.setattr(pickle, "load", reading)
        for seed in WORKER_OVERFLOW_SEEDS:
            raised.clear()
            rows, y = tied_fixture(seed)
            X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y * 1e153)
            params = Hyperparams(max_depth=4, n_trees=2)
            messages = []
            for limit in (10**12, 0):
                with mock.patch.object(gbm, "PARALLEL_ROWS", limit), \
                        mock.patch.object(gbm, "_cpus", lambda: 2), \
                        pytest.raises(NumericError) as exc:
                    gbm.train(X, params)
                messages.append(str(exc.value))
                assert_no_child_process()
            assert messages[1] == messages[0], seed
            assert messages[0].startswith("training arithmetic left the float range: ")
            # The worker met the overflow, and sent it back.
            assert [type(e) for e in raised] == [FloatingPointError], seed

    def test_a_lost_worker_leaves_the_trees_unchanged(self, monkeypatch):
        """A worker that exits at once: each tree is grown again alone."""
        rows, y = tied_fixture(7)
        X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y)
        monkeypatch.setattr(gbm, "_serve", lambda *args: None)
        alone, both, shared = train_both_ways(X, Hyperparams(max_depth=5, n_trees=4))
        assert (both, shared) == (alone, 4)
        assert_no_child_process()

    def test_a_fork_beside_threads_leaves_no_warning(self, monkeypatch):
        """Python 3.12+ warns at each fork of a process with threads, as
        numpy's are, and ``gbm`` ignores exactly that warning. CPython drops
        the warning when a filter turns it into an error, so pyproject's
        filters cannot catch it: every warning is recorded here instead.
        Before 3.12 a stand-in fork gives the same warning."""
        if sys.version_info < (3, 12):
            fork = os.fork

            def warning_fork():
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.", DeprecationWarning,
                              stacklevel=2)
                return fork()

            monkeypatch.setattr(os, "fork", warning_fork)
        rows, y = tied_fixture(5)
        X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                alone, both, shared = train_both_ways(X, Hyperparams(max_depth=4, n_trees=2))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [str(w.message) for w in got] == []
        assert (both, shared) == (alone, 2)
        assert_no_child_process()

    @pytest.mark.parametrize("platform", ["no-fork", "one-cpu", "one-cpu-no-affinity",
                                          "one-cpu-quota"])
    def test_no_process_without_fork_or_a_second_cpu(self, monkeypatch, tmp_path, platform):
        forks = []
        if platform == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            fork = os.fork
            monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
            if platform == "one-cpu":
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            elif platform == "one-cpu-no-affinity":
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:  # two CPUs in the mask, one and a half of quota
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
                (tmp_path / "cpu.max").write_text("150000 100000\n")
                monkeypatch.setattr(gbm, "_CPU_MAX", str(tmp_path / "cpu.max"))
        rows, y = tied_fixture(9)
        X = make_matrix(rows, [f"f{i}" for i in range(rows.shape[1])], target=y)
        params = Hyperparams(max_depth=6, n_trees=3)
        with mock.patch.object(gbm, "PARALLEL_ROWS", 10**12):
            alone = gbm.dumps(gbm.train(X, params))
        with mock.patch.object(gbm, "PARALLEL_ROWS", 0):
            assert gbm.dumps(gbm.train(X, params)) == alone
        assert forks == []
        assert_no_child_process()

    @pytest.mark.parametrize("cpu_max, cpus", [
        (None, 4), ("max 100000\n", 4), ("200000 100000\n", 2), ("50000 100000\n", 0),
        ("1000000 100000\n", 4), ("", 4),
    ], ids=["no-cgroup-file", "no-quota", "two-cpus-of-quota", "half-a-cpu", "quota-past-mask",
            "unreadable"])
    def test_cpus_is_the_affinity_mask_capped_by_the_cgroup_quota(self, monkeypatch, tmp_path,
                                                                  cpu_max, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(gbm, "_CPU_MAX", str(path))
        assert gbm._cpus() == cpus


class TestImportanceAndSerialization:
    def test_gain_importance_on_single_split(self):
        rows = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]])
        X = make_matrix(rows, ["x", "const"], target=[0.0, 0.0, 1.0, 1.0])
        model = gbm.train(X, Hyperparams(max_depth=1, n_trees=1, learning_rate=1.0))
        imp = gbm.feature_importance_gain(model.trees, model.feature_names)
        assert imp["x"] == pytest.approx(1.0)
        assert imp["const"] == 0.0

    def test_gain_importance_sums_to_one(self, small_model):
        imp = gbm.feature_importance_gain(small_model.trees, small_model.feature_names)
        assert sum(imp.values()) == pytest.approx(1.0)
        assert set(imp) == set(small_model.feature_names)

    def test_save_load_round_trip(self, small_model, val_matrix, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(gbm.dumps(small_model), encoding="utf-8")
        back = gbm.load(str(path))
        assert back.feature_names == small_model.feature_names
        assert np.array_equal(
            back.predict_batch(val_matrix.rows),
            small_model.predict_batch(val_matrix.rows),
        )

    def test_predict_batch_names_non_finite_feature_and_row(self, small_model, val_matrix):
        rows = val_matrix.rows[:10].copy()
        rows[6, 2] = np.inf
        rows[7, 1] = np.nan
        name = small_model.feature_names[2]
        with pytest.raises(DataError, match=f"column {name!r} at row 6"):
            small_model.predict_batch(rows)

    def test_deep_document_is_a_data_error(self, tmp_path):
        """A 3,000-level chain is deeper than ``json`` can decode with the
        default recursion limit; the loader must say so, not raise."""
        depth = 3000
        branch = '{"feature_index": 0, "threshold": 0.5, "left": {"weight": 0.0}, "right": '
        text = (
            '{"kind": "boosted-trees", "base_score": 0.0, "learning_rate": 0.3, '
            '"lambda": 1.0, "gamma": 0.0, "feature_names": ["x"], "trees": ['
            + branch * depth + '{"weight": 1.0}' + "}" * depth + "]}"
        )
        p = tmp_path / "deep.json"
        p.write_text(text)
        with pytest.raises(DataError, match="malformed model document"):
            gbm.load(str(p))

    def test_deep_tree_dict_loads_without_recursion(self):
        leaf = {"weight": 1.0}
        tree = leaf
        for _ in range(3000):
            tree = {"feature_index": 0, "threshold": 0.5, "left": {"weight": 0.0},
                    "right": tree}
        model = gbm.from_dict({
            "kind": "boosted-trees", "base_score": 0.0, "learning_rate": 1.0,
            "lambda": 1.0, "gamma": 0.0, "feature_names": ["x"], "trees": [tree],
        })
        assert model.predict_batch(np.array([[0.0], [1.0]])).tolist() == [0.0, 1.0]

    def test_shared_child_dict_loads_as_two_subtrees(self):
        child = {"feature_index": 0, "threshold": 0.25, "left": {"weight": -1.0},
                 "right": {"weight": 1.0}}
        tree = {"feature_index": 0, "threshold": 0.5, "left": child, "right": child}
        model = gbm.from_dict({
            "kind": "boosted-trees", "base_score": 0.0, "learning_rate": 1.0,
            "lambda": 1.0, "gamma": 0.0, "feature_names": ["x"], "trees": [tree],
        })
        assert model.predict_batch(np.array([[0.0], [0.3], [0.9]])).tolist() == [-1.0, 1.0, 1.0]

    def test_load_rejects_malformed_file(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(DataError):
            gbm.load(str(p))
        p2 = tmp_path / "wrong.json"
        p2.write_text(json.dumps({"surprise": 1}))
        with pytest.raises(DataError):
            gbm.load(str(p2))

    def test_load_rejects_bytes_json_cannot_read(self, tmp_path):
        p = tmp_path / "binary.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataError, match="not valid JSON"):
            gbm.load(str(p))
        p.write_text('{"base_score": ' + "9" * 5000 + "}")
        with pytest.raises(DataError, match="not valid JSON"):
            gbm.load(str(p))


def one_split_doc(base_score, weight):
    return {
        "kind": "boosted-trees", "base_score": base_score, "learning_rate": 1.0,
        "lambda": 1.0, "gamma": 0.0, "feature_names": ["x"],
        "trees": [{"feature_index": 0, "threshold": 0.5, "gain": 1.0,
                   "left": {"weight": -weight}, "right": {"weight": weight}}],
    }


class TestModelDocumentChecks:
    def test_predictions_that_could_overflow_are_a_data_error(self):
        with pytest.raises(DataError, match="base_score and leaf weights"):
            gbm.from_dict(one_split_doc(1e308, 1e308))
        model = gbm.from_dict(one_split_doc(1e308, 7e307))
        assert np.isfinite(model.predict_batch(np.array([[0.0], [1.0]]))).all()


#: JSON scalars, with the numbers at the edge of the float range drawn often.
JSON_SCALARS = (
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 10 ** 400])
    | st.integers() | st.none() | st.booleans() | st.text(max_size=8)
)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["weight", "left", "right", "feature_index",
                                       "threshold"]) | st.text(max_size=8),
                      inner, max_size=5),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def fuzz_model(train_matrix):
    """A small model as ``model.json`` text, and its training rows."""
    model = gbm.train(train_matrix, Hyperparams(max_depth=3, n_trees=4))
    return json.dumps(gbm.to_dict(model)), train_matrix.rows


def value_slots(doc):
    """Every (container, key) a mutation may replace, by field name: the
    document's fields, its trees, and each value of each tree node."""
    slots = defaultdict(list)
    for key in doc:
        slots[key].append((doc, key))
    slots["trees[i]"] = [(doc["trees"], i) for i in range(len(doc["trees"]))]
    pending = list(doc["trees"])
    while pending:
        node = pending.pop()
        for key in node:
            slots[f"node.{key}"].append((node, key))
        if "weight" not in node:
            pending += [node["left"], node["right"]]
    return slots


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_model_document_loads_or_is_a_data_error(fuzz_model, data):
    """One field or node value replaced by any JSON value: the document loads
    into a model that predicts finite values, or raises DataError."""
    text, rows = fuzz_model
    doc = json.loads(text)
    slots = value_slots(doc)
    field = data.draw(st.sampled_from(sorted(slots)))
    container, key = data.draw(st.sampled_from(slots[field]))
    container[key] = data.draw(JSON_VALUES)
    try:
        model = gbm.from_dict(doc)
    except DataError:
        return
    if len(model.feature_names) == rows.shape[1]:
        assert np.isfinite(model.predict_batch(rows)).all()
    else:  # other feature names: a model of another width, which rows must match
        with pytest.raises(ConfigError, match="model expects width"):
            model.predict_batch(rows)


# ---------------------------------------------------------------------------
# the compiled single-row walk against the TreeNode walk
# ---------------------------------------------------------------------------

WIDTH = 3
# Thresholds and row values share a small grid, so rows often sit exactly on
# a threshold (which routes right).
GRID = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.25])
WEIGHTS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
TREES = st.recursive(
    st.builds(lambda w: TreeNode(weight=w), WEIGHTS),
    lambda inner: st.builds(
        lambda f, thr, left, right: TreeNode(feature_index=f, threshold=thr,
                                             left=left, right=right),
        st.integers(0, WIDTH - 1), GRID, inner, inner),
    max_leaves=16,
)


def ensemble(trees, base_score=0.25, learning_rate=0.3, width=WIDTH):
    return Ensemble(base_score=base_score, learning_rate=learning_rate, trees=tuple(trees),
                    feature_names=tuple(f"f{i}" for i in range(width)), lambda_=1.0, gamma=0.0)


def leaf_weight(tree, x):
    """The plain TreeNode walk of one tree, root to leaf."""
    node = tree
    while not node.is_leaf:
        node = node.left if x[node.feature_index] < node.threshold else node.right
    return node.weight


def node_stages(model, x):
    """Each tree's leaf weight added in tree order: the totals after 0..T trees."""
    totals = [model.base_score]
    for tree in model.trees:
        totals.append(totals[-1] + model.learning_rate * leaf_weight(tree, x))
    return totals


def node_walk(model, x):
    return node_stages(model, x)[-1]


def assert_walks_agree(model, rows):
    for x, want in zip(rows, model.predict_batch(rows)):
        got = model.predict_row(x)
        assert got == want == node_walk(model, x)
        assert type(got) is float


def leaf(w):
    return TreeNode(weight=w)


def branch(f, thr, left, right):
    return TreeNode(feature_index=f, threshold=thr, left=left, right=right)


ROWS = np.array([[x, y, z] for x in (-2.0, 0.5, 1.0) for y in (0.0, 3.25) for z in (-1.0, 7.0)])


class TestCompiledWalk:
    @pytest.mark.parametrize("trees", [
        [],
        [leaf(1.5)],
        [leaf(-0.1), leaf(2.0), leaf(0.0)],
        [branch(0, 0.5, leaf(-1.0), leaf(1.0))],
        [branch(1, 0.0, leaf(-1.0), branch(0, 1.0, branch(2, 7.0, leaf(0.5), leaf(0.25)),
                                            leaf(3.0))),
         leaf(0.125),
         branch(2, -1.0, leaf(9.0), leaf(-9.0))],
    ], ids=["no-trees", "leaf-only", "leaves", "stump", "unbalanced-and-mixed"])
    def test_fixed_shapes(self, trees):
        model = ensemble(trees)
        assert_walks_agree(model, ROWS)
        if not trees:
            assert model.predict_row(ROWS[0]) == model.base_score

    @settings(max_examples=300, deadline=None)
    @given(trees=st.lists(TREES, max_size=8),
           base_score=st.floats(-1e3, 1e3),
           learning_rate=st.floats(1e-3, 1.0),
           rows=st.lists(st.lists(GRID | st.floats(-5.0, 5.0), min_size=WIDTH, max_size=WIDTH),
                         min_size=1, max_size=6))
    def test_random_ensembles(self, trees, base_score, learning_rate, rows):
        """Bit for bit: the compiled walk, ``predict_batch``, every stage of
        ``staged_predictions`` and the TreeNode walk, also on batches that
        end just before, on and just after a chunk edge. Neighbouring batch
        rows differ where the drawn rows do, so a row read from the wrong
        place in its chunk shows."""
        model = ensemble(trees, base_score, learning_rate)
        pool = np.array(rows)
        assert_walks_agree(model, pool)
        want = np.array([node_stages(model, x) for x in pool]).T  # (T + 1, rows)
        c = gbm.ROW_CHUNK
        for n in (0, 1, c - 1, c, c + 1, 2 * c + 3):
            pick = np.arange(n) % len(pool)
            assert np.array_equal(model.predict_batch(pool[pick]), want[-1, pick])
            assert np.array_equal(gbm.staged_predictions(model, pool[pick]), want[:, pick])

    def test_deep_chain_from_dict_walks_without_recursion(self):
        """A chain deeper than the recursion limit: level i sends x < i + 0.5
        to a leaf of weight i, the rest down the chain to a leaf of -1."""
        depth = 3000
        tree = {"weight": -1.0}
        for i in reversed(range(depth)):
            tree = {"feature_index": 0, "threshold": i + 0.5, "left": {"weight": float(i)},
                    "right": tree}
        model = gbm.from_dict({
            "kind": "boosted-trees", "base_score": 0.0, "learning_rate": 1.0,
            "lambda": 1.0, "gamma": 0.0, "feature_names": ["x"], "trees": [tree],
        })
        rows = np.array([[0.0], [900.0], [2999.0], [1e9]])
        assert [model.predict_row(x) for x in rows] == [0.0, 900.0, 2999.0, -1.0]
        assert model.predict_batch(rows).tolist() == [0.0, 900.0, 2999.0, -1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_a_data_error(self, small_model, val_matrix, bad):
        x = val_matrix.rows[0].copy()
        x[4] = bad
        name = small_model.feature_names[4]
        with pytest.raises(DataError, match=f"non-finite value in column {name!r} at row 0"):
            small_model.predict_row(x)


#: The values GRID draws from.
SWEEP_VALUES = [-2.0, -0.5, 0.0, 0.5, 1.0, 3.25]


def random_tree(rng, depth, spine=True, width=WIDTH):
    """A random tree that reaches ``depth`` along one path. Features and
    thresholds come from ``width`` and SWEEP_VALUES, so a tree often branches
    on one feature several times at one threshold."""
    if depth == 0 or not (spine or rng.random() < 0.6):
        return leaf(float(rng.normal()))
    keep = rng.random() < 0.5
    return branch(int(rng.integers(width)), float(rng.choice(SWEEP_VALUES)),
                  random_tree(rng, depth - 1, spine and keep, width),
                  random_tree(rng, depth - 1, spine and not keep, width))


def assert_sweep_is_batch(model, rows, j, grid):
    """Each row of the sweep equals predict_batch with column j set."""
    got = gbm.predict_sweep(model, rows, j, grid)
    assert got.shape == (len(grid), len(rows))
    for g, v in enumerate(grid):
        swept = np.array(rows, dtype=np.float64)
        swept[:, j] = v
        assert np.array_equal(got[g], model.predict_batch(swept)), (j, v)


class TestPredictSweep:
    @pytest.mark.parametrize("depth", [1, 2, 6, 11, 15])
    @pytest.mark.parametrize("n_trees", [0, 1, 40])
    def test_random_ensembles(self, depth, n_trees):
        rng = np.random.default_rng(100 * depth + n_trees)
        model = ensemble([random_tree(rng, depth) for _ in range(n_trees)])
        rows = rng.choice(SWEEP_VALUES + [0.25, 2.0], size=(2 * gbm.ROW_CHUNK + 5, WIDTH))
        for j in range(WIDTH):
            for grid in ([0.5], [-3.0, 0.5, 0.75], SWEEP_VALUES, np.linspace(-2.5, 3.5, 40)):
                assert_sweep_is_batch(model, rows, j, grid)
        # More grid values than ROW_CHUNK: one row a chunk.
        assert_sweep_is_batch(model, rows[:7], 0, np.linspace(-1.0, 1.0, gbm.ROW_CHUNK + 44))

    @settings(max_examples=200, deadline=None)
    @given(trees=st.lists(TREES, max_size=8),
           j=st.integers(0, WIDTH - 1),
           grid=st.lists(GRID | st.floats(-5.0, 5.0), min_size=1, max_size=6),
           rows=st.lists(st.lists(GRID | st.floats(-5.0, 5.0), min_size=WIDTH, max_size=WIDTH),
                         min_size=1, max_size=6))
    def test_hypothesis_ensembles(self, trees, j, grid, rows):
        assert_sweep_is_batch(ensemble(trees), np.array(rows), j, grid)

    def test_repeated_threshold_deeper_than_the_grid(self):
        """Tree 0 branches on feature 0 three times, twice at one threshold, so
        its bucket for 3.25 is 3 while the grid has one value; tree 1 does not
        branch on feature 0, so its bucket is 0. Keys spaced by the grid size
        would give both trees one pair."""
        tree = branch(0, 0.5, leaf(-1.0),
                      branch(0, 0.5, leaf(2.0), branch(0, 1.0, leaf(4.0), leaf(8.0))))
        model = ensemble([tree, branch(1, 0.0, leaf(16.0), leaf(32.0))])
        for grid in ([3.25], [0.5], [0.0, 0.5, 1.0, 3.25], [1.0, 1.0]):
            assert_sweep_is_batch(model, ROWS, 0, grid)

    def test_grid_value_on_a_threshold_routes_right(self):
        model = ensemble([branch(0, 0.5, leaf(-1.0), leaf(1.0))])
        got = gbm.predict_sweep(model, ROWS[:1], 0, [0.0, 0.5])
        assert got[:, 0].tolist() == [0.25 - 0.3, 0.25 + 0.3]

    def test_unused_feature_is_flat(self):
        rng = np.random.default_rng(7)
        model = ensemble([random_tree(rng, 4) for _ in range(10)])
        unused = WIDTH  # one column more than the trees read
        wide = Ensemble(model.base_score, model.learning_rate, model.trees,
                        tuple(f"f{i}" for i in range(WIDTH + 1)), 1.0, 0.0)
        rows = np.column_stack([ROWS, np.zeros(len(ROWS))])
        got = gbm.predict_sweep(wide, rows, unused, [-1.0, 0.0, 9.0])
        assert (got == wide.predict_batch(rows)).all()

    def test_empty_grid_and_no_rows(self, small_model, val_matrix):
        assert gbm.predict_sweep(small_model, val_matrix.rows, 3, []).shape == (0, len(val_matrix))
        assert gbm.predict_sweep(small_model, val_matrix.rows[:0], 3, [1.0, 2.0]).shape == (2, 0)

    def test_feature_index_and_width_are_checked(self, small_model, val_matrix):
        width = len(small_model.feature_names)
        for j in (-1, width):
            with pytest.raises(ConfigError, match="feature index"):
                gbm.predict_sweep(small_model, val_matrix.rows, j, [0.0])
        with pytest.raises(ConfigError, match="model expects width"):
            gbm.predict_sweep(small_model, val_matrix.rows[:, 1:], 0, [0.0])

    @pytest.mark.parametrize("where, grid", [
        ("other-column", [1.0, 2.0]),
        ("other-column", [np.nan, 2.0]),
        ("swept-column", [1.0, 2.0]),
        ("nowhere", [1.0, np.inf, np.nan]),
        ("nowhere", [-np.inf]),
    ])
    def test_non_finite_cells_raise_as_the_batch_does(self, small_model, val_matrix, where, grid):
        """The error of predict_batch on the first grid value that fails; a
        non-finite cell in the swept column is overwritten, so it is none."""
        rows = val_matrix.rows[:40].copy()
        j = 3
        if where != "nowhere":
            rows[17, 5 if where == "other-column" else j] = np.nan
        want = None
        for v in grid:
            swept = rows.copy()
            swept[:, j] = v
            try:
                small_model.predict_batch(swept)
            except DataError as exc:
                want = str(exc)
                break
        if want is None:
            assert_sweep_is_batch(small_model, rows, j, grid)
            return
        with pytest.raises(DataError) as got:
            gbm.predict_sweep(small_model, rows, j, grid)
        assert str(got.value) == want


def coalition_rows(x, b):
    """Row S takes feature f from x when bit f of S is set, else from b."""
    n = len(x)
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return np.where(member.astype(bool), x, b)


def assert_coalitions_are_batch(model, x, b):
    got = gbm.predict_coalitions(model, x, b)
    assert np.array_equal(got, model.predict_batch(coalition_rows(x, b)))


class TestPredictCoalitions:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_ensembles(self, seed):
        """Depth 1-11 with 0-30 trees on 1-12 features, cycling with the
        seed: every (features, depth) pairing occurs, and seeds 0, 31, ...
        have no tree. Thresholds and values share one small
        grid, so trees share thresholds, paths repeat a feature, and the
        instance or the background often sits on a threshold. Every fourth
        case has x == b, every fourth x equal to b in about half the
        features."""
        rng = np.random.default_rng(seed)
        n, depth, n_trees = 1 + seed % 12, 1 + seed % 11, seed % 31
        model = ensemble([random_tree(rng, depth, width=n) for _ in range(n_trees)], width=n)
        values = SWEEP_VALUES + [0.25, 2.0]
        x, b = rng.choice(values, size=n), rng.choice(values, size=n)
        if seed % 4 == 0:
            b = x.copy()
        elif seed % 4 == 1:
            same = rng.random(n) < 0.5
            b[same] = x[same]
        assert_coalitions_are_batch(model, x, b)

    @settings(max_examples=100, deadline=None)
    @given(trees=st.lists(TREES, max_size=8),
           x=st.lists(GRID | st.floats(-5.0, 5.0), min_size=WIDTH, max_size=WIDTH),
           b=st.lists(GRID | st.floats(-5.0, 5.0), min_size=WIDTH, max_size=WIDTH))
    def test_hypothesis_ensembles(self, trees, x, b):
        assert_coalitions_are_batch(ensemble(trees), np.array(x), np.array(b))

    def test_repeated_feature_and_thresholds_on_a_path(self):
        """Tree 0 branches on feature 0 three times, twice at one threshold;
        tree 1 shares its threshold 0.5 and reads feature 1."""
        tree = branch(0, 0.5, leaf(-1.0),
                      branch(0, 0.5, leaf(2.0), branch(0, 1.0, leaf(4.0), leaf(8.0))))
        model = ensemble([tree, branch(1, 0.5, leaf(16.0), leaf(32.0)), leaf(0.125)])
        for x, b in (([1.0, 0.5, 0.0], [0.0, 0.0, 0.0]), ([0.5, 0.0, 7.0], [3.25, 0.5, 7.0]),
                     ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), ([0.75, -2.0, 0.0], [0.5, 0.5, 3.25])):
            assert_coalitions_are_batch(model, np.array(x), np.array(b))

    def test_value_on_a_threshold_routes_right(self):
        model = ensemble([branch(0, 0.5, leaf(-1.0), leaf(1.0))])
        got = gbm.predict_coalitions(model, [0.5, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert got.tolist() == [0.25 - 0.3, 0.25 + 0.3] * 4

    def test_tree_less_model_is_the_base_score(self):
        got = gbm.predict_coalitions(ensemble([]), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert got.tolist() == [0.25] * 8

    def test_trained_model(self, small_model, val_matrix):
        bg = val_matrix.rows.mean(axis=0)
        for i in (0, 17, 40):
            assert_coalitions_are_batch(small_model, val_matrix.rows[i], bg)

    @pytest.mark.parametrize("case", ["instance-nan", "instance-two", "background-inf",
                                      "both", "instance-last"])
    def test_non_finite_raises_as_the_batch_does(self, small_model, val_matrix, case):
        x, b = val_matrix.rows[3].copy(), val_matrix.rows.mean(axis=0)
        if case in ("instance-nan", "instance-two", "both"):
            x[4] = np.nan
        if case == "instance-two":
            x[9] = np.inf
        if case in ("background-inf", "both"):
            b[7] = -np.inf
        if case == "instance-last":
            x[-1] = np.inf
        with pytest.raises(DataError) as want:
            small_model.predict_batch(coalition_rows(x, b))
        with pytest.raises(DataError) as got:
            gbm.predict_coalitions(small_model, x, b)
        assert str(got.value) == str(want.value)

    def test_width_mismatch_raises_as_the_batch_does(self, small_model, val_matrix):
        x, b = val_matrix.rows[3][1:], val_matrix.rows[4][1:]
        with pytest.raises(ConfigError) as want:
            small_model.predict_batch(coalition_rows(x, b))
        with pytest.raises(ConfigError) as got:
            gbm.predict_coalitions(small_model, x, b)
        assert str(got.value) == str(want.value)
        with pytest.raises(ConfigError, match="equal-length"):
            gbm.predict_coalitions(small_model, val_matrix.rows[3], val_matrix.rows[4][1:])

    def test_twenty_features_keep_a_few_coalition_vectors(self):
        """N = 20 with 20 trees: the peak stays within six 2^N float vectors,
        far from one T x 2^N array. Random coalitions equal the batch."""
        n, n_trees = 20, 20
        rng = np.random.default_rng(20)
        model = ensemble([random_tree(rng, 6, width=n) for _ in range(n_trees)], width=n)
        values = SWEEP_VALUES + [0.25, 2.0]
        x, b = rng.choice(values, size=n), rng.choice(values, size=n)
        model._flat  # compile outside the measurement
        tracemalloc.start()
        try:
            got = gbm.predict_coalitions(model, x, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * (1 << n) * 8 < n_trees * (1 << n) * 8
        masks = rng.integers(0, 1 << n, size=2000)
        rows = np.where((masks[:, None] >> np.arange(n)) & 1 == 1, x, b)
        assert np.array_equal(got[masks], model.predict_batch(rows))

    def test_peak_within_the_batch_path_plus_five_vectors(self):
        """N = 18 with 20 trained trees: the walk's peak is at most that of
        building the coalition rows and calling predict_batch, plus five 2^N
        float vectors."""
        n = 18
        rng = np.random.default_rng(18)
        X = make_matrix(rng.normal(size=(400, n)), [f"f{i}" for i in range(n)],
                        target=rng.normal(size=400))
        model = gbm.train(X, Hyperparams(max_depth=6, n_trees=20))
        x, bg = X.rows[0], X.rows.mean(axis=0)
        model._flat  # compile outside the measurement
        peaks, values = [], []
        for read in (lambda: model.predict_batch(coalition_rows(x, bg)),
                     lambda: gbm.predict_coalitions(model, x, bg)):
            tracemalloc.start()
            try:
                values.append(read())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(values[0], values[1])
        assert peaks[1] <= peaks[0] + 5 * (1 << n) * 8


def perfect_tree(rng, depth, width=WIDTH):
    """A full tree of 2^depth leaves, features and thresholds drawn from
    ``width`` and SWEEP_VALUES, each leaf a distinct weight."""
    if depth == 0:
        return leaf(float(rng.normal()))
    return branch(int(rng.integers(width)), float(rng.choice(SWEEP_VALUES)),
                  perfect_tree(rng, depth - 1, width), perfect_tree(rng, depth - 1, width))


def chain(n_leaves, f=0):
    """A right-leaning chain: level i sends x < i - 0.5 to a leaf of weight i."""
    tree = leaf(-1.0)
    for i in reversed(range(n_leaves - 1)):
        tree = branch(f, i - 0.5, leaf(float(i)), tree)
    return tree


def count_leaves(tree):
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        if node.is_leaf:
            n += 1
        else:
            stack += (node.left, node.right)
    return n


def assert_reads_are_the_node_walk(model, rows, grids=(SWEEP_VALUES,)):
    """predict_row, predict_batch, every stage of staged_predictions and
    every sweep of every feature over ``grids``, bit for bit the TreeNode
    walk of the same rows."""
    rows = np.asarray(rows, dtype=np.float64)
    assert_walks_agree(model, rows)
    want = np.array([node_stages(model, x) for x in rows]).T
    assert np.array_equal(gbm.staged_predictions(model, rows), want)
    for j in range(rows.shape[1]):
        for grid in grids:
            swept = np.repeat(rows[None], len(grid), axis=0)
            swept[..., j] = np.asarray(grid)[:, None]
            want = [[node_walk(model, x) for x in block] for block in swept]
            assert np.array_equal(gbm.predict_sweep(model, rows, j, grid), want), (j, grid)


#: Rows on, between and beyond the SWEEP_VALUES thresholds, -0.0 among them.
EDGE_ROWS = np.array([[x, y, z] for x in (-2.0, -0.0, 0.5, 3.25)
                      for y in (-3.0, 0.0, 1.0) for z in (-0.5, 0.25, 9.0)])


class TestMaskAndWalkBoundary:
    """Trees of at most 64 leaves are read through leaf bitmasks, the others
    by the walk; both read every tree exactly as the TreeNode walk does."""

    def test_perfect_depth_six_tree_takes_the_masks(self):
        rng = np.random.default_rng(6)
        trees = [perfect_tree(rng, 6) for _ in range(3)]
        assert {count_leaves(t) for t in trees} == {64}
        model = ensemble(trees)
        assert model._masks is not None
        assert_reads_are_the_node_walk(model, EDGE_ROWS)

    def test_sixty_five_leaves_take_the_walk(self):
        rng = np.random.default_rng(65)
        tree = perfect_tree(rng, 6)
        node = tree
        while not node.left.is_leaf:
            node = node.left
        node.left = branch(2, 0.25, leaf(100.0), leaf(200.0))
        assert count_leaves(tree) == 65
        model = ensemble([perfect_tree(rng, 2), tree])
        assert model._masks is None
        assert_reads_are_the_node_walk(model, EDGE_ROWS)

    @pytest.mark.parametrize("deep, masked", [(64, True), (65, False)])
    def test_shallow_trees_with_one_deep_chain(self, deep, masked):
        """A 64-leaf chain is 63 levels deep, and its last leaf is bit 63."""
        rng = np.random.default_rng(deep)
        trees = [perfect_tree(rng, int(d)) for d in rng.integers(0, 4, size=6)]
        trees.insert(3, chain(deep))
        model = ensemble(trees)
        assert (model._masks is not None) is masked
        rows = np.column_stack([np.arange(-1.0, deep + 1.0), np.zeros(deep + 2),
                                np.full(deep + 2, 0.5)])
        assert_reads_are_the_node_walk(model, rows, grids=(SWEEP_VALUES, [deep - 2.5, 70.0]))

    @pytest.mark.parametrize("trees", [[], [leaf(1.5)], [leaf(-0.1), leaf(2.0), leaf(0.0)]],
                             ids=["no-trees", "one-leaf", "leaves"])
    def test_trees_without_branches(self, trees):
        model = ensemble(trees)
        assert model._masks is not None
        assert_reads_are_the_node_walk(model, EDGE_ROWS)

    def test_equal_thresholds_across_trees_and_on_one_path(self):
        """Trees 0-2 share thresholds 0.5 and 1.0 on feature 0, and tree 0
        branches on feature 0 at 0.5 twice on one path."""
        t0 = branch(0, 0.5, leaf(-1.0),
                    branch(0, 0.5, leaf(2.0), branch(0, 1.0, leaf(4.0), leaf(8.0))))
        t1 = branch(0, 1.0, branch(0, 0.5, leaf(16.0), leaf(32.0)), leaf(64.0))
        t2 = branch(1, 0.5, leaf(-2.0), branch(0, 0.5, leaf(0.5), leaf(0.25)))
        model = ensemble([t0, t1, t2])
        assert model._masks is not None
        assert_reads_are_the_node_walk(model, EDGE_ROWS, grids=(SWEEP_VALUES, [0.5, 0.5, 1.0]))

    def test_signed_zero_thresholds_and_rows_on_thresholds(self):
        """-0.0 and 0.0 are one threshold: a row of either sign routes right at both."""
        model = ensemble([branch(0, -0.0, leaf(1.0), leaf(2.0)),
                          branch(0, 0.0, branch(1, -0.0, leaf(4.0), leaf(8.0)), leaf(16.0)),
                          branch(2, 0.25, leaf(32.0), branch(0, -0.0, leaf(64.0), leaf(128.0)))])
        assert model._masks is not None
        rows = np.array([[-0.0, 0.0, 0.25], [0.0, -0.0, 0.25], [-1e-300, 0.0, 0.24],
                         [1e-300, -1e-300, 0.26]])
        assert_reads_are_the_node_walk(model, rows, grids=([-0.0], [0.0], [-0.0, 0.0, 1e-300]))
        lr = model.learning_rate
        assert model.predict_batch(rows[:1]).tolist() == [((0.25 + lr * 2.0) + lr * 16.0)
                                                           + lr * 128.0]

    @pytest.mark.parametrize("depth", [6, 8])
    def test_long_sweep_over_one_row(self, depth):
        """3,450 grid values, the length of a 120-day validation split, on
        one row: bit for bit predict_batch of the 3,450 swept rows."""
        rng = np.random.default_rng(3450 + depth)
        model = ensemble([random_tree(rng, depth) for _ in range(40)])
        assert (model._masks is not None) is (depth == 6)
        grid = rng.choice(SWEEP_VALUES + list(rng.normal(size=20)), size=3450)
        row = np.array([[0.5, -0.5, 1.0]])
        for j in range(WIDTH):
            swept = np.repeat(row, len(grid), axis=0)
            swept[:, j] = grid
            got = gbm.predict_sweep(model, row, j, grid)
            assert np.array_equal(got[:, 0], model.predict_batch(swept))
            assert np.array_equal(got[::50, 0], [node_walk(model, x) for x in swept[::50]])


#: Every routing of the three stumps of TestSummationOrder's model.
CORNERS = np.array(list(product([0.0, 1.0], repeat=WIDTH)))


class TestSummationOrder:
    """Every read adds the leaf values to the base score one tree at a time,
    in tree order, as ``train`` does. A numpy reduce adds row by row only
    across the fast axis; along it (a one-row block) numpy sums pairwise,
    and these leaf values tell the two orders apart."""

    @staticmethod
    def model(walk):
        """Ten trees around 2^53, where adding 1 rounds; with ``walk`` an
        eleventh, a 65-leaf chain of zeros, sends the model down the walk."""
        big = 2.0 ** 53
        trees = [branch(0, 0.5, leaf(big), leaf(big + 2.0))]
        trees += [branch(1, 0.5, leaf(1.0), leaf(3.0)) for _ in range(7)]
        trees += [branch(2, 0.5, leaf(-big), leaf(-big - 4.0)), leaf(0.5)]
        if walk:
            tree = leaf(0.0)
            for i in range(64):
                tree = branch(0, i + 0.25, leaf(0.0), tree)
            trees.append(tree)
        model = ensemble(trees, base_score=1.0, learning_rate=1.0)
        assert (model._masks is None) is walk
        return model

    @staticmethod
    def left_to_right(model, x):
        """The TreeNode walk's sum, checked to differ from numpy's pairwise
        sum of the same values."""
        lr = model.learning_rate
        values = [model.base_score, *(lr * leaf_weight(t, x) for t in model.trees)]
        total = node_walk(model, x)
        assert total != float(np.add.reduce(np.array(values)))
        return total

    @pytest.mark.parametrize("walk", [False, True], ids=["masks", "walk"])
    def test_every_read_adds_left_to_right(self, walk):
        model = self.model(walk)
        want = [self.left_to_right(model, x) for x in CORNERS]
        for x, total in zip(CORNERS, want):
            assert model.predict_batch(x[None]).tolist() == [total]
        assert model.predict_batch(CORNERS).tolist() == want
        stages = [node_stages(model, x) for x in CORNERS]
        assert gbm.staged_predictions(model, CORNERS).T.tolist() == stages
        assert gbm.staged_predictions(model, CORNERS[:1]).T.tolist() == stages[:1]
        grid = [1.0, 0.0, 0.5, -1.0]
        for j in range(WIDTH):
            # One row over one grid value, then every row over the grid.
            for x, total in zip(CORNERS, want):
                assert gbm.predict_sweep(model, x[None], j, [x[j]]).tolist() == [[total]]
            swept = np.repeat(CORNERS[None], len(grid), axis=0)
            swept[..., j] = np.array(grid)[:, None]
            assert gbm.predict_sweep(model, CORNERS, j, grid).tolist() == [
                [self.left_to_right(model, x) for x in block] for block in swept]

    @settings(max_examples=200, deadline=None)
    @given(trees=st.lists(TREES, max_size=12),
           base_score=st.floats(-1e3, 1e3),
           learning_rate=st.floats(1e-3, 1.0),
           row=st.lists(GRID | st.floats(-5.0, 5.0), min_size=WIDTH, max_size=WIDTH))
    # Seven leaf-only trees: 116.4391 left to right, 116.43910000000002 pairwise.
    @example(trees=[leaf(w) for w in (-911.392, 604.842, -630.41, 391.248, -689.999,
                                      383.24, 917.268)],
             base_score=97.0, learning_rate=0.3, row=[0.0, 0.0, 0.0])
    def test_one_row_adds_left_to_right(self, trees, base_score, learning_rate, row):
        model = ensemble(trees, base_score, learning_rate)
        x = np.array([row])
        want = node_stages(model, x[0])
        assert model.predict_batch(x).tolist() == want[-1:]
        assert gbm.staged_predictions(model, x)[:, 0].tolist() == want
        for j in range(WIDTH):
            assert gbm.predict_sweep(model, x, j, [row[j]]).tolist() == [want[-1:]]


def joint_tables(model):
    """The (features, rows) of each of the model's joint tables."""
    return [(joint.features, len(joint.table)) for joint in model._masks.joints]


class TestJointTables:
    """Features share one table while the product of their bucket counts
    stays within JOINT_ROWS; every read equals the TreeNode walk."""

    def test_sweep_of_a_feature_inside_a_packed_table(self):
        """Every feature branches at SWEEP_VALUES only: 7 buckets each at
        most, so one table of at most 343 rows holds all three."""
        rng = np.random.default_rng(3)
        model = ensemble([perfect_tree(rng, 3) for _ in range(12)])
        (features, rows), = joint_tables(model)
        assert sorted(features) == [0, 1, 2]
        assert rows == math.prod(len(t) + 1 for t in model._masks.joints[0].thresholds) <= 343
        assert_reads_are_the_node_walk(model, EDGE_ROWS,
                                       grids=(SWEEP_VALUES, [0.5], np.linspace(-3.0, 4.0, 29)))

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-the-budget", "just-past"])
    def test_table_at_and_just_past_the_row_budget(self, extra):
        """Two chains of ``side`` and ``side + extra`` leaves: as many
        buckets each, whose product is JOINT_ROWS, or just past it."""
        side = math.isqrt(gbm.JOINT_ROWS)
        assert side * side == gbm.JOINT_ROWS and side + 1 <= 64
        model = ensemble([chain(side, 0), chain(side + extra, 1), leaf(0.5)])
        if extra:
            assert joint_tables(model) == [((0,), side), ((1,), side + 1)]
        else:
            assert joint_tables(model) == [((0, 1), gbm.JOINT_ROWS)]
        rows = np.column_stack([np.arange(-1.0, side + 1.0), np.arange(side + 0.0, -2.0, -1.0),
                                np.zeros(side + 2)])
        assert_reads_are_the_node_walk(model, rows, grids=(np.arange(-1.0, side + 1.5, 0.5),))

    def test_feature_in_no_tree(self):
        """Feature 1 has no branch: no table holds it, and its sweep is flat."""
        model = ensemble([branch(0, 0.5, leaf(1.0), branch(2, 1.0, leaf(2.0), leaf(4.0))),
                          branch(2, -0.5, leaf(8.0), leaf(16.0))])
        assert joint_tables(model) == [((0, 2), 6)]
        assert_reads_are_the_node_walk(model, EDGE_ROWS)
        flat = gbm.predict_sweep(model, EDGE_ROWS, 1, SWEEP_VALUES)
        assert (flat == model.predict_batch(EDGE_ROWS)).all()

    def test_model_without_trees(self):
        model = ensemble([])
        assert joint_tables(model) == []
        assert_reads_are_the_node_walk(model, EDGE_ROWS)


class TestSweepArguments:
    @pytest.mark.parametrize("j", [1.0, True, np.True_, "1", None])
    def test_feature_index_must_be_an_integer(self, small_model, val_matrix, j):
        with pytest.raises(ConfigError, match="feature index must be an integer"):
            gbm.predict_sweep(small_model, val_matrix.rows[:5], j, [0.0])

    @pytest.mark.parametrize("grid", [[[0.0, 1.0]], 0.5, np.zeros((2, 2))],
                             ids=["nested", "scalar", "matrix"])
    def test_grid_must_be_a_vector(self, small_model, val_matrix, grid):
        with pytest.raises(ConfigError, match="grid must be a vector"):
            gbm.predict_sweep(small_model, val_matrix.rows[:5], 1, grid)

    def test_numpy_integer_index(self, small_model, val_matrix):
        rows = val_matrix.rows[:5]
        assert np.array_equal(gbm.predict_sweep(small_model, rows, np.int64(1), [0.0, 1.0]),
                              gbm.predict_sweep(small_model, rows, 1, [0.0, 1.0]))
