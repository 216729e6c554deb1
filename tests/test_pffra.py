"""Fourier machinery and the feature frequency-response analysis."""
import numpy as np
import pytest

from rtcast import forecast, gbm, pffra
from rtcast.errors import ConfigError, DataError, NumericError
from rtcast.features import training_means
from rtcast.pffra import DEFAULT_BANDS

from conftest import make_matrix


def naive_dft(x):
    """Direct O(N^2) transform used as the reference."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in k])


class TestDftComplex:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 17, 31, 64, 100, 257, 1024])
    def test_matches_naive_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = pffra.dft_complex(x)
        want = naive_dft(x)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-9 * max(scale, 1.0)

    def test_real_input(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=48)
        got = pffra.dft_complex(x)
        want = naive_dft(x)
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()
        # real series: conjugate symmetry
        assert np.allclose(got[1:], np.conj(got[::-1][:-1]), atol=1e-9)

    def test_too_short(self):
        with pytest.raises(ConfigError):
            pffra.dft_complex(np.array([1.0]))

    def test_non_finite(self):
        with pytest.raises(DataError):
            pffra.dft_complex(np.array([1.0, np.inf, 0.0]))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="longdouble is plain double here")
    @pytest.mark.parametrize("n", [100, 257, 1000])
    def test_matches_long_double_reference(self, n):
        """Within 3e-16 of the largest |F_k| against a direct DFT in long
        double, its phases k*j reduced mod n in integers."""
        x = np.random.default_rng(n).normal(size=n) + 24.0
        k = np.arange(n)
        phase = np.outer(k, k) % n
        theta = phase.astype(np.longdouble) * (-8 * np.arctan(np.longdouble(1)) / n)
        xl = x.astype(np.longdouble)
        want_re, want_im = np.cos(theta) @ xl, np.sin(theta) @ xl
        got = pffra.dft_complex(x)
        err = np.hypot(got.real - want_re, got.imag - want_im).max()
        assert err <= 3e-16 * np.hypot(want_re, want_im).max()

    def test_silent_overflow_is_a_numeric_error(self, monkeypatch):
        """Where the transform overflows without a floating-point flag (numpy
        before 2.0), the non-finite result still ends in NumericError."""
        monkeypatch.setattr(np.fft, "fft", lambda x: np.full(len(x), np.inf + 0j))
        with pytest.raises(NumericError, match="^PF-FRA spectrum arithmetic"):
            pffra.dft_complex(np.arange(8.0))


class TestSpectrum:
    def test_dc_is_the_signed_mean(self):
        x = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
        spec = pffra.dft(x, 600)
        assert spec.dc == pytest.approx(x.mean(), abs=1e-12)

    def test_single_cosine_lands_in_one_bin(self):
        n, step, amp, k0 = 240, 600, 1.7, 8
        t = np.arange(n)
        x = 5.0 + amp * np.cos(2 * np.pi * k0 * t / n)
        spec = pffra.dft(x, step)
        assert spec.frequencies[k0 - 1] == pytest.approx(k0 / (n * step) * 3600)
        assert spec.magnitudes[k0 - 1] == pytest.approx(amp, abs=1e-9)
        others = np.delete(spec.magnitudes, k0 - 1)
        assert np.abs(others).max() < 1e-9
        assert spec.dc == pytest.approx(5.0, abs=1e-12)

    def test_frequency_axis_in_cycles_per_hour(self):
        spec = pffra.dft(np.arange(144.0), 600)
        # 144 ten-minute samples = 24 h; first bin is one cycle per day
        assert spec.frequencies[0] == pytest.approx(1.0 / 24.0)
        assert len(spec.frequencies) == 72
        assert spec.has_nyquist_bin

    def test_parseval_total_power(self):
        rng = np.random.default_rng(4)
        for n in (64, 101, 240):
            x = rng.normal(size=n) * 2.0 + 3.0
            spec = pffra.dft(x, 600)
            total = spec.dc ** 2 + spec.bin_powers().sum()
            assert total == pytest.approx(np.mean(x ** 2), rel=1e-9)

    def test_nyquist_bin_power(self):
        x = 1.3 * (-1.0) ** np.arange(32)
        spec = pffra.dft(x, 600)
        assert spec.magnitudes[-1] == pytest.approx(2 * 1.3, abs=1e-9)
        assert spec.bin_powers()[-1] == pytest.approx(1.3 ** 2, abs=1e-9)


class TestBandEnergy:
    def _cosine_spectrum(self, k0, amp, n=240, step=600, offset=4.0):
        t = np.arange(n)
        return pffra.dft(offset + amp * np.cos(2 * np.pi * k0 * t / n), step)

    def test_cosine_energy_is_half_amplitude_squared(self):
        spec = self._cosine_spectrum(k0=12, amp=2.0)  # 0.3 cycles/hour
        bands = pffra.band_energy(spec, DEFAULT_BANDS)
        assert bands["mid"] == pytest.approx(2.0, abs=1e-9)  # 2^2/2
        assert bands["low"] == pytest.approx(0.0, abs=1e-9)
        assert bands["dc"] == pytest.approx(16.0, abs=1e-9)

    def test_band_edges_are_half_open(self):
        # bin 8 of a 40-hour window sits exactly at 0.2 cycles/hour
        spec = self._cosine_spectrum(k0=8, amp=1.0)
        bands = pffra.band_energy(spec, DEFAULT_BANDS)
        assert bands["low"] == pytest.approx(0.5, abs=1e-9)   # upper edge included
        assert bands["mid"] == pytest.approx(0.0, abs=1e-9)   # lower edge excluded

    def test_all_bands_recover_total_power(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=200) + 1.5
        spec = pffra.dft(x, 600)
        bands = pffra.band_energy(
            spec, {"dc": (0.0, 0.0), "rest": (0.0, spec.frequencies[-1])}
        )
        assert bands["dc"] + bands["rest"] == pytest.approx(np.mean(x ** 2), rel=1e-9)

    def test_band_bounds_must_be_ordered(self):
        spec = self._cosine_spectrum(k0=4, amp=1.0)
        with pytest.raises(ConfigError):
            pffra.band_energy(spec, {"bad": (1.0, 0.5)})


class TestMeanSubstitute:
    def test_replaces_only_named_columns(self):
        X = make_matrix([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], ["a", "b"])
        out = pffra.mean_substitute(X, ["b"], {"a": 0.0, "b": 99.0})
        assert out.column("b").tolist() == [99.0] * 3
        assert out.column("a").tolist() == [1.0, 2.0, 3.0]
        assert X.column("b").tolist() == [10.0, 20.0, 30.0]  # input untouched

    def test_unknown_feature(self):
        X = make_matrix([[1.0]], ["a"])
        with pytest.raises(DataError, match="^unknown feature 'zzz'$"):
            pffra.mean_substitute(X, ["zzz"], {"zzz": 0.0})

    def test_missing_mean(self):
        X = make_matrix([[1.0], [2.0]], ["a"])
        with pytest.raises(ConfigError):
            pffra.mean_substitute(X, ["a"], {})


class TestVariants:
    def test_features_substituted_per_variant(self):
        got = pffra.variants(("c", "a", "b"), "a")
        assert list(got) == ["original", "feature_permuted", "feature_only"]
        assert got == {"original": [], "feature_permuted": ["a"], "feature_only": ["c", "b"]}

    def test_unknown_feature(self):
        with pytest.raises(DataError, match="^unknown feature 'zzz'$"):
            pffra.variants(("a", "b"), "zzz")


class TestPffra:
    def _setup(self):
        n = 288
        t = np.arange(n)
        x0 = np.cos(2 * np.pi * t / 144)          # daily swing
        x1 = 0.5 * np.cos(2 * np.pi * t / 12)     # two-hour ripple
        rows = np.column_stack([x0, x1])
        X = make_matrix(rows, ["slow", "fast"], target=x0 + x1)
        model = lambda r: r[:, 0] + r[:, 1] + 2.0
        return X, model, x0, x1

    def test_variant_series_for_additive_model(self):
        X, model, x0, x1 = self._setup()
        rep = pffra.pffra(model, X, X.target, "slow")
        m0, m1 = x0.mean(), x1.mean()
        want_only = pffra.dft(x0 + m1 + 2.0, 600)
        want_perm = pffra.dft(m0 + x1 + 2.0, 600)
        assert np.allclose(rep.spectra["feature_only"].magnitudes,
                           want_only.magnitudes, atol=1e-9)
        assert np.allclose(rep.spectra["feature_permuted"].magnitudes,
                           want_perm.magnitudes, atol=1e-9)
        assert rep.spectra["original"].dc == pytest.approx(np.mean(x0 + x1) + 2.0)
        assert rep.spectra["truth"].dc == pytest.approx(np.mean(X.target))

    def test_interested_feature_keeps_its_own_band(self):
        X, model, _, _ = self._setup()
        rep = pffra.pffra(model, X, X.target, "slow")
        # the daily cosine (1/24 cycles/hour) survives only in the
        # interested-feature variant; the ripple is gone there
        lo = rep.band_energies["low"]
        mid = rep.band_energies["mid"]
        assert lo["feature_only"] == pytest.approx(0.5, abs=1e-9)
        assert mid["feature_only"] == pytest.approx(0.0, abs=1e-9)
        assert mid["feature_permuted"] == pytest.approx(0.125, abs=1e-9)

    def test_band_energy_table_structure(self, small_model, val_matrix):
        rep = pffra.pffra(small_model, val_matrix, val_matrix.target, "MVART")
        assert set(rep.band_energies) == set(DEFAULT_BANDS)
        for cell in rep.band_energies.values():
            assert set(cell) == {"original", "feature_permuted",
                                 "feature_only", "truth"}

    @pytest.mark.parametrize("depth", [4, 8])
    def test_ensemble_report_is_the_batch_path(self, train_matrix, val_matrix, depth):
        """An Ensemble's feature_only series is one sweep of the feature (on
        leaf bitmasks at depth 4, on the walk at depth 8); every field of
        every report equals the one of mean_substitute + predict_batch, the
        path any other callable takes."""
        model = gbm.train(train_matrix, gbm.Hyperparams(max_depth=depth, n_trees=6))
        assert (model._masks is None) is (depth == 8)
        means = training_means(train_matrix)
        for name in val_matrix.feature_names:
            got = pffra.pffra(model, val_matrix, val_matrix.target, name, means)
            want = pffra.pffra(lambda rows: model.predict_batch(rows), val_matrix,
                               val_matrix.target, name, means)
            assert got.band_energies == want.band_energies
            for field in ("feature_only", "feature_permuted", "original", "truth"):
                a = got.spectra[field]
                b = want.spectra[field]
                assert a.dc == b.dc and a.n == b.n
                assert np.array_equal(a.magnitudes, b.magnitudes)
                assert np.array_equal(a.frequencies, b.frequencies)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_raises_as_the_batch_path_does(self, small_model, train_matrix,
                                                           val_matrix, bad):
        means = training_means(train_matrix)
        means["Hour"] = means["Month"] = bad
        messages = []
        for model in (small_model, lambda rows: small_model.predict_batch(rows)):
            with pytest.raises(DataError) as got:
                pffra.pffra(model, val_matrix, val_matrix.target, "MVART", means)
            messages.append(str(got.value))
        assert messages[0] == messages[1] == "non-finite value in column 'Month' at row 0"

    def test_requires_uniform_spacing(self):
        X, model, _, _ = self._setup()
        ts = X.row_timestamps.copy()
        ts[-1] += 600
        bad = make_matrix(X.rows, X.feature_names, target=X.target)
        object.__setattr__(bad, "row_timestamps", ts)
        with pytest.raises(DataError):
            pffra.pffra(model, bad, bad.target, "slow")

    def test_unknown_feature(self, small_model, val_matrix):
        with pytest.raises(DataError, match="^unknown feature 'Nope'$"):
            pffra.pffra(small_model, val_matrix, val_matrix.target, "Nope")

    @pytest.mark.parametrize("v", [1e304, 1e307])
    def test_spectrum_overflow_is_a_numeric_error(self, v):
        """Finite series whose transform (1e307) or squared DC term (1e304)
        overflows."""
        x = np.full(3456, v) + np.arange(3456)
        series = dict.fromkeys(("original", "feature_permuted", "feature_only", "truth"), x)
        with pytest.raises(NumericError, match="^PF-FRA spectrum arithmetic left the float range"):
            pffra.report_from_series("f", series, 600)


class TestRollingPffra:
    @pytest.mark.parametrize("feature, access, horizon", [
        ("MVART", 86400, 28800),
        ("Hour", 86400, 28800),
        ("OutTempMVA", 43200, 21600),
    ])
    def test_equals_the_rolling_assembly(self, small_model, train_matrix, synth_splits,
                                         engineering, feature, access, horizon):
        """Every field equals that of three rolling forecasts, the substituted
        features held at their means, read by ``report_from_series``."""
        table = synth_splits[1]
        means = training_means(train_matrix)
        runs = {
            variant: forecast.rolling_forecast(
                small_model, table, engineering, access, horizon,
                input_overrides={n: means[n] for n in names} or None,
            )
            for variant, names in pffra.variants(small_model.feature_names, feature).items()
        }
        series = {variant: run.y_pred for variant, run in runs.items()}
        series["truth"] = runs["original"].y_true
        want = pffra.report_from_series(feature, series, table.interval_seconds)

        got = pffra.rolling_pffra(small_model, table, engineering, feature, means,
                                  access, horizon)
        assert got.feature == want.feature
        assert got.band_energies == want.band_energies
        for field in ("feature_only", "feature_permuted", "original", "truth"):
            a = got.spectra[field]
            b = want.spectra[field]
            assert (a.dc, a.n, a.sample_interval_seconds) == \
                (b.dc, b.n, b.sample_interval_seconds)
            assert np.array_equal(a.magnitudes, b.magnitudes)
            assert np.array_equal(a.frequencies, b.frequencies)

    def test_missing_mean_is_the_config_error_of_mean_substitute(
            self, small_model, train_matrix, synth_splits, engineering, monkeypatch):
        """Refused before any forecast runs, with mean_substitute's message."""
        means = training_means(train_matrix)
        del means["Hour"]
        calls = []
        monkeypatch.setattr(pffra, "rolling_forecast", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError) as got:
            pffra.rolling_pffra(small_model, synth_splits[1], engineering, "MVART", means)
        with pytest.raises(ConfigError) as want:
            pffra.mean_substitute(train_matrix, ["Hour"], means)
        assert str(got.value) == str(want.value) == "no training mean supplied for feature 'Hour'"
        assert calls == []

    def test_unknown_feature(self, small_model, synth_splits, engineering, train_matrix):
        with pytest.raises(DataError, match="^unknown feature 'Nope'$"):
            pffra.rolling_pffra(small_model, synth_splits[1], engineering, "Nope",
                                training_means(train_matrix))
