"""Permutation-feature frequency response analysis.

Which frequency bands of the prediction signal does each feature drive? The
analysis predicts twice — once with the interested feature mean-substituted
(everything else intact), once with everything BUT the interested feature
mean-substituted — and compares the spectra of the two prediction series
against the original predictions and the true series.
The static protocol (:func:`pffra`) predicts the rows of a design matrix;
the rolling protocol (:func:`rolling_pffra`) runs the deployed re-anchored
forecast once per variant.

The discrete Fourier transform is ``numpy.fft.fft``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import TimeTable
from .errors import ConfigError, DataError, NumericError, float_range
from .features import EngineeringConfig, FeatureMatrix, training_means
from .forecast import rolling_forecast
from .gbm import Ensemble, predict_sweep

_ARITHMETIC = "PF-FRA spectrum arithmetic"

#: Default analysis bands in cycles/hour. A band (lo, hi) covers bins with
#: lo < f <= hi; the DC term belongs to a band only when lo < 0 or the band
#: is the degenerate (0, 0).
DEFAULT_BANDS = {
    "dc": (0.0, 0.0),
    "low": (0.0, 0.2),
    "mid": (0.2, 1.0),
    "high": (1.0, 3.0),
}


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum of a uniformly sampled series.

    ``magnitudes[k-1]`` is ``2*|F_k|/N`` for bin k = 1..N//2 (so a pure
    in-bin cosine of amplitude A shows magnitude A); ``dc`` is the signed
    series mean, ``Re(F_0)/N``. Frequencies are in cycles per hour.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    dc: float
    n: int
    sample_interval_seconds: int

    @property
    def has_nyquist_bin(self) -> bool:
        return self.n % 2 == 0

    def bin_powers(self) -> np.ndarray:
        """Mean power per positive-frequency bin (DC excluded).

        An interior bin of one-sided amplitude ``a`` carries power ``a^2/2``;
        the Nyquist bin of an even-length series (scaled 2/N like the rest)
        carries ``a^2/4``.
        """
        p = self.magnitudes**2 / 2.0
        if self.has_nyquist_bin and len(p):
            p[-1] = self.magnitudes[-1] ** 2 / 4.0
        return p


@dataclass(frozen=True)
class PffraReport:
    """Spectra of the four prediction/truth variants plus band energies.

    ``spectra`` maps each variant (``original``, ``feature_permuted``,
    ``feature_only``, ``truth``) to its :class:`Spectrum`.
    """

    feature: str
    spectra: dict
    band_energies: dict


def dft_complex(series) -> np.ndarray:
    """Full complex DFT F_k = sum_n x_n e^(-2*pi*i*k*n/N) for k = 0..N-1.

    Raises NumericError when the transform of the finite series overflows.
    """
    x = np.asarray(series, dtype=np.complex128)
    if x.ndim != 1 or len(x) < 2:
        raise ConfigError("DFT needs a one-dimensional series of length >= 2")
    if not (np.isfinite(x.real).all() and np.isfinite(x.imag).all()):
        raise DataError("series contains non-finite values")
    f = np.fft.fft(x)
    # Before numpy 2.0 the transform is not a ufunc, so float_range's errstate
    # may not see it overflow; a finite series must have a finite transform.
    if not np.isfinite(f).all():
        raise NumericError(f"{_ARITHMETIC} left the float range: the DFT overflowed")
    return f


def dft(series, sample_interval_seconds: int) -> Spectrum:
    """One-sided amplitude spectrum of a real series.

    Parameters
    ----------
    series : array-like of float, length >= 2
    sample_interval_seconds : int
        Sampling period; frequencies come out in cycles per hour.
    """
    if sample_interval_seconds <= 0:
        raise ConfigError("sample interval must be positive")
    f = dft_complex(series)
    n = len(f)
    k = np.arange(1, n // 2 + 1)
    freqs = k / (n * sample_interval_seconds) * 3600.0
    mags = 2.0 * np.abs(f[k]) / n
    return Spectrum(
        frequencies=freqs,
        magnitudes=mags,
        dc=float(f[0].real) / n,
        n=n,
        sample_interval_seconds=int(sample_interval_seconds),
    )


def mean_substitute(X: FeatureMatrix, features_to_permute, means: dict) -> FeatureMatrix:
    """Replace the listed columns by their scalar training means.

    ``means`` maps feature name -> training mean and must cover every listed
    feature. Unlisted columns are untouched; applying the substitution twice
    equals applying it once.
    """
    rows = X.rows.copy()
    for name in features_to_permute:
        j = X.index(name)  # raises DataError on unknown names
        rows[:, j] = _training_mean(means, name)
    return FeatureMatrix(X.feature_names, rows, X.target, X.row_timestamps)


def _training_mean(means: dict, name: str) -> float:
    if name not in means:
        raise ConfigError(f"no training mean supplied for feature {name!r}")
    return float(means[name])


def variants(feature_names, feature: str) -> dict:
    """The features each prediction variant mean-substitutes, in model order;
    both protocols predict these."""
    if feature not in feature_names:
        raise DataError(f"unknown feature {feature!r}")
    others = [n for n in feature_names if n != feature]
    return {"original": [], "feature_permuted": [feature], "feature_only": others}


def band_energy(spectrum: Spectrum, bands: dict) -> dict:
    """Mean signal power per named frequency band, in squared signal units.

    A band ``(lo, hi)`` collects bins with ``lo < f <= hi``. The DC term
    contributes ``dc**2`` and belongs to a band only when ``lo < 0`` or the
    band is the degenerate ``(0, 0)``. Summing the default bands plus DC
    reproduces the series' mean square (Parseval).
    """
    powers = spectrum.bin_powers()
    out = {}
    for name, (lo, hi) in bands.items():
        lo, hi = float(lo), float(hi)
        if lo > hi:
            raise ConfigError(f"band {name!r} has lo {lo} > hi {hi}")
        inside = (spectrum.frequencies > lo) & (spectrum.frequencies <= hi)
        total = float(powers[inside].sum())
        if lo < 0.0 or (lo == 0.0 and hi == 0.0):
            # numpy's square sets the overflow flag that float_range raises;
            # a Python float's raises OverflowError instead.
            total += float(np.float64(spectrum.dc) ** 2)
        out[name] = total
    return out


def _uniform_step_seconds(timestamps: np.ndarray) -> int:
    d = np.diff(np.asarray(timestamps, dtype=np.int64))
    if len(d) == 0 or not np.all(d == d[0]):
        raise DataError("spectral analysis needs uniformly spaced rows")
    return int(d[0])


def pffra(
    model,
    X: FeatureMatrix,
    y_true,
    feature: str,
    means: dict | None = None,
) -> PffraReport:
    """Frequency response analysis of one feature's contribution.

    Computes the prediction series of the :func:`variants` of ``feature``
    (the original matrix, ``feature`` mean-substituted, every OTHER feature
    mean-substituted); takes spectra of all three plus the true series; and
    integrates the DEFAULT_BANDS energies for each variant. For an
    :class:`~rtcast.gbm.Ensemble`, ``feature_only``'s rows differ only in
    ``feature``, so its series is one ``gbm.predict_sweep`` of the feature
    over its own column, bit for bit ``predict_batch`` of those rows.

    Parameters
    ----------
    model : Ensemble or callable rows -> predictions
    X : FeatureMatrix
        Uniformly spaced rows (oracle-featured design matrix).
    y_true : array-like
        True target aligned to X (the reference spectrum).
    feature : str
        The interested feature; must be one of X's columns.
    means : dict, optional
        Training means per feature; defaults to the column means of X.
    """
    predict = model.predict_batch if hasattr(model, "predict_batch") else model
    substituted = variants(X.feature_names, feature)
    if means is None:
        means = training_means(X)
    step = _uniform_step_seconds(X.row_timestamps)

    series = {}
    for variant, names in substituted.items():
        rows = mean_substitute(X, names, means).rows
        if variant == "feature_only" and isinstance(model, Ensemble):
            j = X.index(feature)
            series[variant] = predict_sweep(model, rows[:1], j, X.rows[:, j])[:, 0]
        else:
            series[variant] = np.asarray(predict(rows), dtype=np.float64)
    series["truth"] = np.asarray(y_true, dtype=np.float64)
    if series["truth"].shape != series["original"].shape:
        raise DataError("y_true length does not match the design matrix")

    return report_from_series(feature, series, step)


def rolling_pffra(
    model: Ensemble,
    table: TimeTable,
    config: EngineeringConfig,
    feature: str,
    means: dict,
    access_interval_seconds: int = 86400,
    horizon_seconds: int = 28800,
) -> PffraReport:
    """Frequency response analysis of one feature in the rolling regime.

    The deployed-forecast counterpart of :func:`pffra`: each of the
    :func:`variants` of ``feature`` is one
    :func:`~rtcast.forecast.rolling_forecast` of ``model`` over ``table``
    (``config``, ``access_interval_seconds`` and ``horizon_seconds`` as
    there), its substituted features held at their training ``means``
    (``features.training_means``) as ``input_overrides`` while MVART still
    recurs on the model's own predictions. The true series is the scored
    truth of the ``original`` run. Every substituted feature's mean is looked
    up before any forecast runs.
    """
    overrides = {
        variant: {n: _training_mean(means, n) for n in names}
        for variant, names in variants(model.feature_names, feature).items()
    }
    runs = {
        variant: rolling_forecast(
            model, table, config, access_interval_seconds, horizon_seconds,
            input_overrides=fixed,
        )
        for variant, fixed in overrides.items()
    }
    series = {variant: run.y_pred for variant, run in runs.items()}
    series["truth"] = runs["original"].y_true
    return report_from_series(feature, series, table.interval_seconds)


@float_range(_ARITHMETIC)
def report_from_series(feature: str, series: dict, step: int) -> PffraReport:
    """Spectra and DEFAULT_BANDS energies of the four series of one analysis.

    ``series`` maps ``original``, ``feature_permuted``, ``feature_only`` and
    ``truth`` to equal-length series sampled every ``step`` seconds. Both the
    static protocol (:func:`pffra`) and the rolling-forecast protocol
    (:func:`rolling_pffra`) build their report here. ``band_energies`` maps
    band -> variant -> energy.
    """
    spectra = {k: dft(v, step) for k, v in series.items()}
    energies = {k: band_energy(spec, DEFAULT_BANDS) for k, spec in spectra.items()}
    return PffraReport(
        feature=feature,
        spectra=spectra,
        band_energies={b: {k: energies[k][b] for k in spectra} for b in DEFAULT_BANDS},
    )
