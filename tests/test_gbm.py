"""Boosted-tree training against an exhaustive split-enumeration reference."""
import gc
import hashlib
import json
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcast import dataio, features, gbm
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
        hess = np.ones_like(y)
        got = gbm.grow_tree(rows, grad, hess, depth, lam, gamma)
        want = oracle_tree(rows, grad, hess, depth, lam, gamma)
        assert_trees_equal(got, want)

    def test_hand_computed_stump(self):
        rows = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        node = gbm.grow_tree(rows, -y, np.ones(4), 1, 0.0, 0.0)
        assert node.threshold == 2.5
        assert node.gain == pytest.approx(0.5 * (0.0 + 4.0 / 2.0 - 4.0 / 4.0))
        assert node.left.weight == pytest.approx(0.0)
        assert node.right.weight == pytest.approx(1.0)

    def test_feature_tie_prefers_lower_index(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        rows = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        node = gbm.grow_tree(rows, -y, np.ones(4), 1, 1.0, 0.0)
        assert node.feature_index == 0

    def test_threshold_tie_prefers_lower_value(self):
        rows = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 1.0])
        node = gbm.grow_tree(rows, -y, np.ones(3), 1, 0.0, 0.0)
        assert node.threshold == 1.5

    def test_pure_node_stays_leaf(self):
        rows = np.array([[0.0], [1.0], [2.0]])
        grad = np.zeros(3)
        node = gbm.grow_tree(rows, grad, np.ones(3), 3, 1.0, 0.0)
        assert node.is_leaf and node.weight == 0.0

    def test_gamma_suppresses_marginal_split(self):
        rows = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        node = gbm.grow_tree(rows, -y, np.ones(4), 1, 0.0, 10.0)
        assert node.is_leaf

    def test_lambda_shrinks_leaf_weight(self):
        rows = np.array([[0.0], [0.0]])
        y = np.array([4.0, 4.0])
        node = gbm.grow_tree(rows, -y, np.ones(2), 1, 2.0, 0.0)
        assert node.weight == pytest.approx(8.0 / (2.0 + 2.0))

    def test_depth_zero_is_a_leaf(self):
        rows, y = dyadic_fixture(3)
        node = gbm.grow_tree(rows, -y, np.ones_like(y), 0, 1.0, 0.0)
        assert node.is_leaf


# ---------------------------------------------------------------------------
# reference implementation: the per-node stable argsort grower that the
# column-block grower replaced; both must give the same trees bit for bit
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
    """Float columns with heavy ties: low-cardinality codes, coarsely rounded
    and continuous values, in random order and with random hessians."""
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
    hess = rng.uniform(0.1, 3.0, size=n) if seed % 2 else np.ones(n)
    return np.column_stack(cols), grad, hess


#: SHA-256 of the 30-day design matrix (rows then target bytes) and of the
#: ``model.json`` text the per-node argsort grower trained on it.
INPUTS_SHA256 = "543ccbc9cf38f5956bdee08a4660457b8463080e6742fef44a83256ca8e105ac"
MODEL_SHA256 = "d9ac72e51e251e7c05aa3c27b5ae8033fd4564b2f508105b74ffcda4a67b4203"


class TestColumnBlockGrower:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("lam, gamma", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5)])
    def test_equals_per_node_argsort_grower(self, seed, lam, gamma):
        rows, grad, hess = tied_fixture(seed)
        depth = 1 + seed % 7
        got = gbm.grow_tree(rows, grad, hess, depth, lam, gamma)
        want = argsort_tree(rows, grad, hess, np.arange(len(rows)), 0, depth, lam, gamma)
        assert_trees_identical(got, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_fitted_output_is_the_walk_of_the_grown_tree(self, seed):
        """The grower's own leaf assignment, on rows with ties and with
        duplicate rows, is what walking the returned tree gives."""
        rows, grad, hess = tied_fixture(seed)
        dup = np.arange(len(rows)) % 3 == 0
        rows, grad, hess = (np.concatenate([a, a[dup]]) for a in (rows, grad, hess))
        out = np.full(len(rows), np.nan)
        tree = gbm.grow_tree(rows, grad, hess, 1 + seed % 7, 1.0, 0.0, out=out)
        assert np.array_equal(out, [leaf_weight(tree, x) for x in rows])

    def test_leaves_no_reference_cycle(self):
        rows, grad, hess = tied_fixture(3)
        gc.collect()
        gc.disable()
        try:
            gbm.grow_tree(rows, grad, hess, 6, 1.0, 0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_thirty_day_model_bytes_are_pinned(self):
        """``model.json`` of a default 30-day train, pinned to the digest the
        per-node argsort grower wrote. The pin holds for these exact inputs:
        the synthesizer uses ``np.cos``, whose last bit may differ between
        numpy builds, so other inputs skip rather than compare."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=30))
        X = features.build_design_matrix(
            table.row_slice(0, 2592), features.EngineeringConfig(), FULL_GROUPS
        )
        inputs = hashlib.sha256(X.rows.tobytes() + X.target.tobytes()).hexdigest()
        if inputs != INPUTS_SHA256:
            pytest.skip("synthetic inputs differ from the pinned ones on this numpy build")
        model = gbm.train(X, Hyperparams())
        assert hashlib.sha256(gbm.dumps(model).encode()).hexdigest() == MODEL_SHA256


class TestTrain:
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
        best, table = gbm.grid_search(X, V, grid)
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
        _, table = gbm.grid_search(X, V, grid)
        small = next(rep for p, rep in table if p.n_trees == 5)
        solo = gbm.train(X, Hyperparams(max_depth=3, n_trees=5))
        rep = None
        from rtcast import stats
        rep = stats.metrics(V.target, solo.predict_batch(V.rows))
        assert small.mae == pytest.approx(rep.mae, abs=1e-12)

    def test_combo_errors_name_the_combination(self):
        X, V = self._matrices()
        bad = make_matrix(np.full((3, 3), np.nan), ["a", "b", "c"])
        grid = HyperparamGrid(max_depth=(2,), n_trees=(5,), gamma=(0.0,),
                              lambda_=(1.0,), learning_rate=(0.3,))
        with pytest.raises(NumericError) as err:
            gbm.grid_search(bad, V, grid)
        assert "grid combination" in str(err.value)


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


def ensemble(trees, base_score=0.25, learning_rate=0.3):
    return Ensemble(base_score=base_score, learning_rate=learning_rate, trees=tuple(trees),
                    feature_names=tuple(f"f{i}" for i in range(WIDTH)), lambda_=1.0, gamma=0.0)


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
