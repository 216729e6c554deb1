"""Autocorrelation, unit-root testing, histograms, Q-Q data, and metrics."""
import math
import statistics

import numpy as np
import pytest

from rtcast import dataio, stats
from rtcast.errors import ConfigError, DataError, NumericError


def ar1(phi, n, seed, sd=1.0):
    rng = np.random.default_rng(seed)
    e = rng.normal(scale=sd, size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + e[i]
        out[i] = acc
    return out


def naive_acf(x, max_lag):
    x = np.asarray(x, dtype=np.float64)
    d = x - x.mean()
    c0 = float(d @ d) / len(x)
    out = []
    for k in range(max_lag + 1):
        s = 0.0
        for t in range(k, len(x)):
            s += d[t] * d[t - k]
        out.append(s / len(x) / c0)
    return np.array(out)


class TestAcf:
    def test_matches_naive_oracle(self):
        x = ar1(0.8, 120, seed=1)
        assert np.allclose(stats.acf(x, 12), naive_acf(x, 12), atol=1e-12)

    def test_lag_zero_is_one(self):
        assert stats.acf(np.array([1.0, 5.0, 2.0, 8.0]), 2)[0] == pytest.approx(1.0)

    def test_constant_series_is_an_error(self):
        with pytest.raises(DataError):
            stats.acf(np.ones(50), 5)

    def test_series_must_be_longer_than_max_lag(self):
        with pytest.raises(DataError):
            stats.acf(np.arange(10.0), 10)


class TestPacf:
    def test_matches_yule_walker_solve(self):
        x = ar1(0.7, 400, seed=2)
        max_lag = 8
        r = naive_acf(x, max_lag)
        got = stats.pacf(x, max_lag)
        assert got[0] == pytest.approx(1.0)
        for k in range(1, max_lag + 1):
            toeplitz = np.array([[r[abs(i - j)] for j in range(k)] for i in range(k)])
            phi = np.linalg.solve(toeplitz, r[1: k + 1])
            assert got[k] == pytest.approx(phi[-1], abs=1e-10)

    def test_ar1_signature(self):
        x = ar1(0.85, 3000, seed=3)
        p = stats.pacf(x, 6)
        assert p[1] > 0.8
        assert np.all(np.abs(p[2:]) < 0.1)


class TestAdf:
    def test_zero_lag_statistic_matches_lstsq_oracle(self):
        y = ar1(0.5, 300, seed=4)
        res = stats.adf_test(y, max_lags=0)
        assert res.used_lags == 0
        dy = np.diff(y)
        X = np.column_stack([np.ones(len(dy)), y[:-1]])
        beta, (sse,), _, _ = np.linalg.lstsq(X, dy, rcond=None)
        sigma2 = sse / (len(dy) - 2)
        se = np.sqrt(np.linalg.inv(X.T @ X)[1, 1] * sigma2)
        assert res.statistic == pytest.approx(beta[1] / se, abs=1e-8)

    def test_random_walk_is_not_rejected(self):
        rng = np.random.default_rng(0)
        walk = np.cumsum(rng.normal(size=1500))
        res = stats.adf_test(walk)
        assert not res.reject_at[0.05]
        assert res.p_bracket[1] > 0.05

    def test_differenced_walk_is_rejected(self):
        rng = np.random.default_rng(11)
        walk = np.cumsum(rng.normal(size=1500))
        res = stats.adf_test(np.diff(walk))
        assert res.reject_at[0.01]
        assert res.p_bracket == (0.0, 0.01)

    def test_lag_selection_stays_within_bound(self):
        y = ar1(0.6, 400, seed=6)
        res = stats.adf_test(y, max_lags=5)
        assert 0 <= res.used_lags <= res.max_lags == 5
        # The default cap is Schwert's floor(12 * (n/100)**0.25): 16 at n = 400.
        assert stats.adf_test(y).max_lags == 16

    def test_too_short(self):
        with pytest.raises(DataError):
            stats.adf_test(np.arange(20.0))

    def test_rejection_is_consistent_with_bracket(self):
        for seed in range(5):
            y = ar1(0.4, 200, seed=seed)
            res = stats.adf_test(y)
            lo, hi = res.p_bracket
            for level, rejected in res.reject_at.items():
                if hi <= level:
                    assert rejected
                if lo >= level:
                    assert not rejected


class TestAdfTableLookup:
    def test_critical_values_are_the_table_rows(self):
        for n, *row in stats._DF_TABLE:
            assert stats._df_critical(n) == tuple(row)
        for n in (1, 2, 24, 25):
            assert stats._df_critical(n) == stats._DF_TABLE[0][1:]

    def test_interpolation_is_linear_in_one_over_n(self):
        for (n0, *c0), (n1, *c1) in zip(stats._DF_TABLE, stats._DF_TABLE[1:]):
            mid = 2.0 / (1.0 / n0 + 1.0 / n1)
            want = [(a + b) / 2.0 for a, b in zip(c0, c1)]
            assert stats._df_critical(mid) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "on", "above"])
    @pytest.mark.parametrize("j", range(3), ids=["1%", "5%", "10%"])
    def test_statistic_at_a_critical_value(self, monkeypatch, j, step):
        """A statistic exactly on a critical value, or one float step either
        side of it: reject_at and p_bracket say the same."""
        def ols_with_statistic(X, y, lag):
            c = stats._df_critical(len(y))[j]
            stat = np.nextafter(c, step * math.inf) if step else c
            return np.array([0.0, stat]), np.ones(2), 0.0

        monkeypatch.setattr(stats, "_ols", ols_with_statistic)
        res = stats.adf_test(ar1(0.4, 200, seed=0))
        edges = (0.0, *stats._DF_LEVELS, 1.0)
        assert res.p_bracket == (edges[j : j + 2] if step < 0 else edges[j + 1 : j + 3])
        assert res.reject_at[stats._DF_LEVELS[j]] is (step < 0)
        lo, hi = res.p_bracket
        for level, rejected in res.reject_at.items():
            assert rejected is (hi <= level) and (not rejected) is (lo >= level)


class TestHugeFiniteSeries:
    """A finite random walk scaled by 1e160 overflows when squared: each
    check raises one NumericError naming it, with no numpy warning."""

    @pytest.mark.parametrize("check, label", [
        (stats.adf_test, "ADF"),
        (lambda x: stats.acf(x, 12), "ACF"),
        (lambda x: stats.pacf(x, 12), "PACF"),
    ], ids=["adf", "acf", "pacf"])
    def test_is_a_numeric_error_naming_the_check(self, check, label):
        walk = np.cumsum(np.random.default_rng(0).normal(size=400)) * 1e160
        with pytest.raises(NumericError, match=f"^{label} arithmetic left the float range: "):
            check(walk)


def reference_adf(y, max_lags=None):
    """(used_lags, statistic) by the per-lag loop adf_test ran before its lags
    shared one QR: a normal-equation fit for every lag on the shared trimmed
    sample, AIC's first minimum refit on its own sample. A degenerate lag
    raises adf_test's message: a rank-deficient design first, then a fit
    whose residual norm is at most 1e-8 of the differences'."""
    y = np.asarray(y, dtype=np.float64)
    if max_lags is None:
        max_lags = int(math.floor(12.0 * (len(y) / 100.0) ** 0.25))
    best_lag, best_aic = 0, math.inf
    for p in range(max_lags + 1):
        X, dy = stats._adf_design(y, p, trim=max_lags)
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise NumericError(f"ADF fit at lag {p} is degenerate: "
                               "its regressors are collinear")
        _, _, sse = stats._ols(X, dy, p)
        if sse <= 1e-16 * float(dy @ dy):
            raise NumericError(f"ADF fit at lag {p} is degenerate: "
                               "it fits the differenced series exactly")
        n_eff = len(dy)
        aic = n_eff * math.log(sse / n_eff) + 2 * (p + 2)
        if aic < best_aic:
            best_lag, best_aic = p, aic
    X, dy = stats._adf_design(y, best_lag, trim=best_lag)
    beta, se, _ = stats._ols(X, dy, best_lag)
    return best_lag, float(beta[1] / se[1])


def _synthetic_rt(seed, days):
    table = dataio.synthesize(dataio.SynthConfig(seed=seed, n_days=days))
    return table.target[: int(len(table) * 0.6)]  # the CLI's train split


def _adf_edge_length():
    """The shortest series the default lag cap accepts: n == 25 + max_lags."""
    return next(n for n in range(25, 100) if n == 25 + int(12.0 * (n / 100.0) ** 0.25))


class TestAdfAgainstPerLagLoop:
    """The lag AIC picks from one QR, and so the statistic's bits, are those
    of one least-squares fit per lag."""

    @staticmethod
    def assert_same(y, max_lags=None):
        res = stats.adf_test(y, max_lags)
        lag, statistic = reference_adf(y, max_lags)
        assert res.used_lags == lag
        assert res.statistic.hex() == statistic.hex()
        return res

    @pytest.mark.parametrize("days", [30, 120, 365])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_synthetic_room_temperature(self, seed, days):
        y = _synthetic_rt(seed, days)
        self.assert_same(y)
        self.assert_same(np.diff(y))

    @pytest.mark.parametrize("phi", [0.9, 0.99, 0.999, 1.0])
    @pytest.mark.parametrize("n", [200, 2000])
    def test_ar1_near_the_unit_root(self, phi, n):
        for seed in range(3):
            self.assert_same(ar1(phi, n, seed=seed))

    def test_short_series_at_the_length_edge(self):
        n = _adf_edge_length()
        for seed in range(5):
            y = ar1(0.8, n, seed=seed)
            assert self.assert_same(y).max_lags == n - 25
        with pytest.raises(DataError, match="series too short"):
            stats.adf_test(ar1(0.8, n - 1, seed=0))

    @pytest.mark.parametrize("max_lags", [0, 1, 3, 12])
    def test_explicit_small_max_lags(self, max_lags):
        for seed in range(3):
            res = self.assert_same(ar1(0.7, 300, seed=seed) + 0.1 * np.arange(300), max_lags)
            assert res.max_lags == max_lags

    @pytest.mark.parametrize("series, lag, why", [
        (np.full(200, 21.5), 0, "its regressors are collinear"),
        (np.arange(200.0), 0, "it fits the differenced series exactly"),
        (20.0 + 0.1 * np.arange(200), 0, "it fits the differenced series exactly"),
        (np.tile([20.0, 21.0, 22.0], 70), 1, "it fits the differenced series exactly"),
        (np.tile([0.0, 0.0, 1.0, 1.0], 50), 1, "it fits the differenced series exactly"),
        (np.sin(0.3 * np.arange(300)), 1, "it fits the differenced series exactly"),
    ], ids=["constant", "linear", "linear-inexact-step", "repeating-20-21-22",
            "tiled-0011", "sinusoid"])
    def test_degenerate_series_name_the_lag(self, series, lag, why):
        """Some lag fits these exactly (or cannot be fitted): a NumericError
        naming the lag, never a math domain error or a sqrt warning."""
        message = f"ADF fit at lag {lag} is degenerate: {why}"
        with pytest.raises(NumericError) as want:
            reference_adf(series)
        assert str(want.value) == message
        with pytest.raises(NumericError) as got:
            stats.adf_test(series)
        assert str(got.value) == message


class TestHistogram:
    def test_floor_binning(self):
        got = stats.histogram(np.array([22.4, 22.6, 23.4]), 1.0)
        assert got == [(22.0, 2), (23.0, 1)]

    def test_fractional_width(self):
        got = stats.histogram(np.array([0.1, 0.3, 0.74, 0.76]), 0.5)
        assert got == [(0.0, 2), (0.5, 2)]

    def test_empty_series(self):
        assert stats.histogram(np.array([]), 1.0) == []

    def test_counts_cover_everything(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=500)
        got = stats.histogram(x, 0.25)
        assert sum(c for _, c in got) == 500
        edges = [e for e, _ in got]
        assert edges == sorted(edges)

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            stats.histogram(np.ones(3), 0.0)

    @pytest.mark.parametrize("values, width", [
        ([22.5, 1e300], 1.0),  # the bin index passes 2**63
        ([-1e300], 1.0),
        ([2.0**63], 1.0),  # the first index past the int64 range
        ([1e300], 1e-10),  # the quotient itself overflows to inf
    ], ids=["huge", "huge-negative", "first-outside", "infinite-quotient"])
    def test_bin_index_outside_int64_is_a_numeric_error(self, values, width):
        with pytest.raises(NumericError, match="outside the int64 range"):
            stats.histogram(np.array(values), width)

    def test_bin_indices_at_the_int64_edges(self):
        low, high = -(2.0**63), 2.0**63 - 1024.0  # the largest double below 2**63
        assert stats.histogram(np.array([low, high]), 1.0) == [(low, 1), (high, 1)]


class TestNormalQuantiles:
    @pytest.mark.parametrize("n", [3, 40, 3467])
    def test_theoretical_column_is_the_stdlib_quantile(self, n):
        x = np.sort(np.random.default_rng(n).normal(loc=3.0, scale=2.0, size=n))
        dist = statistics.NormalDist(float(x.mean()), float(x.std(ddof=1)))
        want = [dist.inv_cdf((i - 0.5) / n) for i in range(1, n + 1)]
        assert [t for t, _ in stats.qq_normal(x)] == want

    def test_qq_pairs(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=3.0, scale=2.0, size=40)
        pairs = stats.qq_normal(x)
        assert len(pairs) == 40
        samples = [s for _, s in pairs]
        assert samples == sorted(samples)
        dist = statistics.NormalDist(np.mean(x), np.std(x, ddof=1))
        want = dist.inv_cdf((1 - 0.5) / 40)
        assert pairs[0][0] == pytest.approx(want, abs=1e-7)

    def test_qq_rejects_degenerate_input(self):
        with pytest.raises(DataError):
            stats.qq_normal(np.ones(10))
        with pytest.raises(DataError):
            stats.qq_normal(np.array([1.0, 2.0]))


class TestMetrics:
    def test_hand_computed_values(self):
        y = np.array([2.0, 4.0, 5.0])
        p = np.array([1.0, 4.0, 7.0])
        rep = stats.metrics(y, p)
        assert rep.mse == pytest.approx((1 + 0 + 4) / 3)
        assert rep.mae == pytest.approx((1 + 0 + 2) / 3)
        assert rep.mape == pytest.approx((1 / 2 + 0 + 2 / 5) / 3 * 100)
        sst = float(np.sum((y - y.mean()) ** 2))
        assert rep.r2 == pytest.approx(1 - 5.0 / sst)

    def test_mape_undefined_at_zero(self):
        rep = stats.metrics(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
        assert rep.mape is None

    def test_r2_degenerate_cases(self):
        perfect = stats.metrics(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
        assert perfect.r2 == 1.0
        unexplained = stats.metrics(np.array([2.0, 2.0]), np.array([2.0, 3.0]))
        assert unexplained.r2 is None

    def test_as_dict_keys(self):
        d = stats.metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0])).as_dict()
        assert set(d) == {"mse", "mae", "mape", "r2"}

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            stats.metrics(np.ones(3), np.ones(4))
