"""Global and local explanation methods against closed-form references."""
import numpy as np
import pytest

from rtcast import dataio, explain, features, gbm
from rtcast.errors import ConfigError, DataError, NumericError

from conftest import FULL_GROUPS, make_matrix


def gaussian_solve(A, b):
    """Plain Gaussian elimination with partial pivoting (reference solver)."""
    A = [row[:] for row in A.tolist()]
    b = list(b.tolist())
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = (b[r] - s) / A[r][r]
    return np.array(x)


def linear_box(beta, c=0.0):
    beta = np.asarray(beta, dtype=np.float64)
    return lambda rows: rows @ beta + c


@pytest.fixture()
def random_matrix():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(200, 4)) * np.array([1.0, 3.0, 0.5, 2.0])
    return make_matrix(rows, ["a", "b", "c", "d"])


class TestPermutationImportance:
    def test_mean_substitution_matches_closed_form(self, random_matrix):
        beta = np.array([2.0, 0.0, -1.0, 0.5])
        f = linear_box(beta)
        y = f(random_matrix.rows)
        imp = explain.permutation_importance(
            f, random_matrix, y, metric="mae", strategy="mean_substitute"
        )
        mu = random_matrix.rows.mean(axis=0)
        for j, name in enumerate(random_matrix.feature_names):
            want = np.abs(beta[j] * (random_matrix.rows[:, j] - mu[j])).mean()
            assert imp[name] == pytest.approx(want, abs=1e-10)

    def test_ignored_feature_scores_zero_under_shuffle(self, random_matrix):
        f = linear_box([1.0, 0.0, 0.0, 0.0])
        y = f(random_matrix.rows)
        imp = explain.permutation_importance(
            f, random_matrix, y, strategy="shuffle", seed=5
        )
        assert imp["b"] == 0.0 and imp["c"] == 0.0 and imp["d"] == 0.0
        assert imp["a"] > 0.0

    def test_shuffle_is_seeded(self, random_matrix):
        f = linear_box([1.0, 1.0, 1.0, 1.0])
        y = f(random_matrix.rows)
        a = explain.permutation_importance(f, random_matrix, y, strategy="shuffle", seed=3)
        b = explain.permutation_importance(f, random_matrix, y, strategy="shuffle", seed=3)
        assert a == b

    def test_unknown_strategy(self, random_matrix):
        with pytest.raises(ConfigError):
            explain.permutation_importance(
                linear_box([1, 1, 1, 1]), random_matrix,
                np.zeros(200), strategy="typo",
            )


class TestPdp:
    def test_continuous_grid_and_response(self, random_matrix):
        f = linear_box([0.0, 2.0, 0.0, 0.0], c=1.0)
        curve = explain.pdp(f, random_matrix, "b", grid_size=7)
        col = random_matrix.column("b")
        assert len(curve.grid) == 7
        assert curve.grid[0] == col.min() and curve.grid[-1] == col.max()
        # for a linear model the partial dependence is the line itself
        assert np.allclose(curve.mean_response, 2.0 * curve.grid + 1.0, atol=1e-10)

    def test_categorical_levels_are_detected(self):
        rng = np.random.default_rng(3)
        rows = np.column_stack([
            rng.integers(0, 3, size=60).astype(float),
            rng.normal(size=60),
        ])
        X = make_matrix(rows, ["mode", "load"])
        calls = []

        def f(r):
            calls.append(len(r))
            return r[:, 0] ** 2

        curve = explain.pdp(f, X, "mode")
        assert curve.grid.tolist() == [0.0, 1.0, 2.0]
        assert np.allclose(curve.mean_response, [0.0, 1.0, 4.0], atol=1e-12)

    def test_constant_feature(self):
        X = make_matrix([[5.0, 1.0], [5.0, 2.0]], ["k", "x"])
        curve = explain.pdp(linear_box([1.0, 0.0]), X, "k")
        assert curve.constant
        assert curve.grid.tolist() == [5.0]

    @pytest.mark.parametrize("grid_size", [2, 20, 40])
    def test_ensemble_sweep_equals_the_loop(self, small_model, train_matrix, grid_size):
        """An Ensemble is swept; its predict_batch takes the per-value loop."""
        for name in small_model.feature_names:
            got = explain.pdp(small_model, train_matrix, name, grid_size)
            want = explain.pdp(small_model.predict_batch, train_matrix, name, grid_size)
            assert got.grid.tobytes() == want.grid.tobytes()
            assert got.mean_response.tobytes() == want.mean_response.tobytes(), name
            assert got.constant == want.constant

    def test_constant_feature_of_an_ensemble(self, small_model, train_matrix):
        X = make_matrix(train_matrix.rows[:50].copy(), train_matrix.feature_names)
        X.rows[:, 2] = 7.0
        got = explain.pdp(small_model, X, X.feature_names[2])
        want = explain.pdp(small_model.predict_batch, X, X.feature_names[2])
        assert got.constant and want.constant
        assert got.mean_response.tobytes() == want.mean_response.tobytes()

    @pytest.mark.parametrize("case", ["other-column", "grid-overflow"])
    def test_ensemble_errors_equal_the_loop(self, small_model, train_matrix, case):
        rows = train_matrix.rows[:60].copy()
        j = 4
        if case == "other-column":
            rows[33, 6] = np.inf
        else:
            # The column's range overflows: refused by name before any grid.
            rows[:, j] = np.where(np.arange(60) % 2, 1.7e308, -1.7e308)
            rows[0, j] = 0.5
        X = make_matrix(rows, train_matrix.feature_names)
        errors = []
        for model in (small_model, small_model.predict_batch):
            with pytest.raises(DataError) as exc:
                explain.pdp(model, X, X.feature_names[j])
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert repr(X.feature_names[j if case == "grid-overflow" else 6]) in errors[0]

    def test_overflowing_range_is_refused_before_any_prediction(self):
        """A finite column whose max - min overflows is named with its min
        and max; the model is never called."""
        rows = np.column_stack([np.where(np.arange(30) % 2, 1.7e308, -1.7e308), np.ones(30)])
        rows[0, 0] = 0.5
        X = make_matrix(rows, ["wide", "x"])
        calls = []
        with pytest.raises(DataError) as exc:
            explain.pdp(lambda r: calls.append(len(r)) or r[:, 1], X, "wide")
        assert "'wide'" in str(exc.value)
        assert repr(-1.7e308) in str(exc.value) and repr(1.7e308) in str(exc.value)
        assert calls == []


class TestRidgeSurrogate:
    def test_closed_form_matches_gaussian_elimination(self, random_matrix):
        rng = np.random.default_rng(44)
        f = lambda rows: np.tanh(rows[:, 0]) + rows[:, 1] * 0.3
        got = explain.fit_surrogate_ridge(f, random_matrix, lambda_=2.5)

        rows = random_matrix.rows
        z = f(rows)
        mu, sd = rows.mean(axis=0), rows.std(axis=0)
        xs = (rows - mu) / sd
        lhs = xs.T @ xs + 2.5 * np.eye(4)
        rhs = xs.T @ (z - z.mean())
        beta = gaussian_solve(lhs, rhs)
        raw = beta / sd
        for j, name in enumerate(random_matrix.feature_names):
            assert got.coefficients[name] == pytest.approx(raw[j], rel=1e-10)
            assert got.std_coefficients[name] == pytest.approx(beta[j], rel=1e-10)
        assert got.intercept == pytest.approx(z.mean() - raw @ mu, rel=1e-10)

    def test_recovers_exact_linear_model(self, random_matrix):
        f = linear_box([1.5, -2.0, 0.0, 4.0], c=-3.0)
        got = explain.fit_surrogate_ridge(f, random_matrix, lambda_=0.0)
        want = dict(zip("abcd", [1.5, -2.0, 0.0, 4.0]))
        for name, coef in want.items():
            assert got.coefficients[name] == pytest.approx(coef, abs=1e-8)
        assert got.intercept == pytest.approx(-3.0, abs=1e-8)
        assert got.fidelity_r2 == pytest.approx(1.0, abs=1e-12)

    def test_predict_applies_the_fit(self, random_matrix):
        f = linear_box([1.0, 1.0, 1.0, 1.0])
        s = explain.fit_surrogate_ridge(f, random_matrix, lambda_=1.0)
        rows = random_matrix.rows[:5]
        coef = np.array([s.coefficients[n] for n in random_matrix.feature_names])
        assert np.allclose(s.predict(rows), s.intercept + rows @ coef, atol=1e-12)

    def test_constant_column_is_safe(self):
        X = make_matrix([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]], ["x", "k"])
        s = explain.fit_surrogate_ridge(linear_box([2.0, 0.0]), X, lambda_=0.1)
        assert s.coefficients["k"] == pytest.approx(0.0, abs=1e-12)

    def test_column_too_large_to_square_is_a_numeric_error(self, random_matrix):
        """Finite cells whose squares overflow in the standard deviation."""
        rows = random_matrix.rows * np.array([1.0, 1e160, 1.0, 1.0])
        X = make_matrix(rows, random_matrix.feature_names)
        with pytest.raises(NumericError,
                           match="^ridge surrogate arithmetic left the float range: "):
            explain.fit_surrogate_ridge(lambda r: np.zeros(len(r)), X)


class TestTreeSurrogate:
    def test_stump_black_box_reaches_full_fidelity(self):
        rng = np.random.default_rng(6)
        rows = rng.uniform(size=(150, 3))
        X = make_matrix(rows, ["u", "v", "w"])
        f = lambda r: np.where(r[:, 1] < 0.35, 2.0, 5.0)
        root, fidelity = explain.fit_surrogate_tree(f, X, max_depth=1)
        assert fidelity == pytest.approx(1.0, abs=1e-9)
        assert root.feature_index == 1
        imp = gbm.feature_importance_gain((root,), X.feature_names)
        assert imp["v"] == pytest.approx(1.0)

    def test_depth_budget_is_respected(self, random_matrix):
        f = lambda rows: np.sin(rows[:, 0]) * rows[:, 1]
        root, _ = explain.fit_surrogate_tree(f, random_matrix, max_depth=2)

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

        assert depth(root) <= 2


class TestLime:
    def test_linear_model_gets_signed_contributions(self, random_matrix):
        f = linear_box([3.0, 0.0, -3.0, 0.0])
        x0 = random_matrix.rows[7]
        att = explain.lime_explain(f, x0, random_matrix, n_samples=600, seed=1)
        assert att.prediction == pytest.approx(float(f(x0[None, :])[0]))
        assert 0.0 <= att.local_r2 <= 1.0
        assert set(att.contributions) == {"a", "b", "c", "d"}
        assert set(att.labels) == {"a", "b", "c", "d"}
        assert all(isinstance(v, str) for v in att.labels.values())

    def test_seeded_determinism(self, random_matrix):
        f = linear_box([1.0, 2.0, 3.0, 4.0])
        x0 = random_matrix.rows[0]
        a = explain.lime_explain(f, x0, random_matrix, n_samples=200, seed=9)
        b = explain.lime_explain(f, x0, random_matrix, n_samples=200, seed=9)
        assert a.contributions == b.contributions

    def test_sample_budget_floor(self, random_matrix):
        with pytest.raises(ConfigError):
            explain.lime_explain(linear_box([1, 1, 1, 1]),
                                 random_matrix.rows[0], random_matrix, n_samples=10)

    def test_degenerate_reference(self):
        X = make_matrix(np.full((60, 2), 3.0), ["p", "q"])
        with pytest.raises(DataError):
            explain.lime_explain(linear_box([1.0, 1.0]), X.rows[0], X, n_samples=100)


@pytest.fixture(scope="module")
def model_120d():
    """The acceptance suite's model: 120 seed-42 days, depth 6, 100 trees;
    with its validation rows and training means."""
    table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=120))
    n = len(table)
    cfg = features.EngineeringConfig()
    x_train = features.build_design_matrix(table.row_slice(0, int(n * 0.6)), cfg, FULL_GROUPS)
    x_val = features.build_design_matrix(table.row_slice(int(n * 0.6), int(n * 0.8)), cfg,
                                         FULL_GROUPS)
    model = gbm.train(x_train, gbm.Hyperparams(max_depth=6, n_trees=100))
    return model, x_val.rows, x_train.rows.mean(axis=0)


class TestShapExact:
    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(2)
        beta = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        f = linear_box(beta, c=10.0)
        x0 = rng.normal(size=5)
        bg = rng.normal(size=5)
        att = explain.shap_exact(f, x0, bg, list("vwxyz"))
        for j, name in enumerate("vwxyz"):
            assert att.contributions[name] == pytest.approx(
                beta[j] * (x0[j] - bg[j]), abs=1e-10
            )
        assert att.base_value == pytest.approx(float(f(bg[None, :])[0]))
        assert att.prediction == pytest.approx(float(f(x0[None, :])[0]))

    def test_efficiency_on_boosted_model(self, small_model, val_matrix):
        bg = val_matrix.rows.mean(axis=0)
        for i in (0, 11, 29):
            att = explain.shap_exact(small_model, val_matrix.rows[i], bg)
            total = att.base_value + sum(att.contributions.values())
            assert total == pytest.approx(att.prediction, abs=1e-9)

    def test_dummy_feature_gets_exactly_zero(self):
        rows = np.column_stack([
            np.arange(20.0),
            np.full(20, 4.0),
        ])
        X = make_matrix(rows, ["live", "dead"], target=np.arange(20.0))
        model = gbm.train(X, gbm.Hyperparams(max_depth=2, n_trees=4))
        att = explain.shap_exact(model, X.rows[3], X.rows.mean(axis=0))
        assert att.contributions["dead"] == 0.0

    def test_symmetric_features_share_credit(self):
        f = lambda rows: rows[:, 0] + rows[:, 1] + 0.2 * rows[:, 2]
        x0 = np.array([1.4, 1.4, 0.7])
        bg = np.array([0.2, 0.2, 0.1])
        att = explain.shap_exact(f, x0, bg, ["s1", "s2", "other"])
        assert att.contributions["s1"] == pytest.approx(
            att.contributions["s2"], abs=1e-12
        )

    def test_feature_count_cap(self):
        n = 21
        f = lambda rows: rows.sum(axis=1)
        with pytest.raises(ConfigError):
            explain.shap_exact(f, np.zeros(n), np.ones(n))

    def test_shape_mismatch(self):
        f = lambda rows: rows.sum(axis=1)
        with pytest.raises(ConfigError):
            explain.shap_exact(f, np.zeros(3), np.ones(4))

    def test_ensemble_equals_the_callable_path(self, model_120d):
        """Every field, exactly: the coalition walk of an Ensemble and the
        coalition rows through its predict_batch."""
        model, rows, bg = model_120d
        for i in np.linspace(0, len(rows) - 1, 60).round().astype(int):
            got = explain.shap_exact(model, rows[i], bg)
            want = explain.shap_exact(model.predict_batch, rows[i], bg, model.feature_names)
            assert got == want, i
            assert list(got.contributions) == list(want.contributions)
