"""Permutation-feature frequency response analysis.

Which frequency bands of the prediction signal does each feature drive? The
analysis predicts over a design matrix twice — once with the interested
feature mean-substituted (everything else intact), once with everything BUT
the interested feature mean-substituted — and compares the spectra of the two
prediction series against the original predictions and the true series.

The discrete Fourier transform is implemented here directly (iterative
radix-2 when the length is a power of two, Bluestein's chirp-z otherwise); no
FFT library routine is used anywhere in the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SelectionError
from .features import FeatureMatrix, training_means

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

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        m = np.asarray(self.magnitudes, dtype=np.float64)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "magnitudes", m)
        if f.shape != m.shape or f.ndim != 1:
            raise DataError("frequencies and magnitudes must be equal-length vectors")
        if len(f) and not np.all(np.diff(f) > 0):
            raise DataError("frequencies must be strictly increasing")
        if np.any(m < 0):
            raise DataError("magnitudes must be nonnegative")

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
    """Spectra of the four prediction/truth variants plus band energies."""

    feature: str
    spectrum_feature_only: Spectrum
    spectrum_feature_permuted: Spectrum
    spectrum_original: Spectrum
    spectrum_truth: Spectrum
    band_energies: dict


def _fft_pow2(x: np.ndarray) -> np.ndarray:
    """Iterative decimation-in-time radix-2 FFT; len(x) must be 2**m."""
    n = len(x)
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    a = x[rev].astype(np.complex128)
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(-2j * np.pi * np.arange(half) / size)
        blocks = a.reshape(-1, size)
        top = blocks[:, :half].copy()
        bottom = blocks[:, half:] * tw
        blocks[:, :half] = top + bottom
        blocks[:, half:] = top - bottom
        size *= 2
    return a


def _fft_bluestein(x: np.ndarray) -> np.ndarray:
    """Chirp-z DFT for arbitrary length via one power-of-two convolution."""
    n = len(x)
    # e^(-i*pi*k^2/n) has period 2n in k^2, so reduce the exponent exactly
    # in integers before touching floats.
    k = np.arange(n, dtype=np.int64)
    exp_red = (k * k) % (2 * n)
    chirp = np.exp(-1j * np.pi * exp_red / n)

    m = 1 << (2 * n - 1).bit_length()
    a = np.zeros(m, dtype=np.complex128)
    a[:n] = x * chirp
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1 :] = np.conj(chirp[1:][::-1])

    fa = _fft_pow2(a)
    fb = _fft_pow2(b)
    conv = np.conj(_fft_pow2(np.conj(fa * fb))) / m
    return chirp * conv[:n]


def dft_complex(series) -> np.ndarray:
    """Full complex DFT F_k = sum_n x_n e^(-2*pi*i*k*n/N) for k = 0..N-1."""
    x = np.asarray(series, dtype=np.complex128)
    if x.ndim != 1 or len(x) < 2:
        raise ConfigError("DFT needs a one-dimensional series of length >= 2")
    if not (np.isfinite(x.real).all() and np.isfinite(x.imag).all()):
        raise DataError("series contains non-finite values")
    n = len(x)
    if (n & (n - 1)) == 0:
        return _fft_pow2(x)
    return _fft_bluestein(x)


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
    todo = list(features_to_permute)
    rows = X.rows.copy()
    for name in todo:
        j = X.index(name)  # raises SelectionError on unknown names
        if name not in means:
            raise ConfigError(f"no training mean supplied for feature {name!r}")
        rows[:, j] = float(means[name])
    return FeatureMatrix(X.feature_names, rows, X.target, X.row_timestamps)


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
            total += spectrum.dc**2
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

    Computes prediction series for (a) the design matrix with ``feature``
    mean-substituted, (b) the matrix with every OTHER feature
    mean-substituted, and (c) the original matrix; takes spectra of all three
    plus the true series; and integrates the DEFAULT_BANDS energies for each
    variant.

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
    if feature not in X.feature_names:
        raise SelectionError(f"unknown feature {feature!r}")
    if means is None:
        means = training_means(X)
    step = _uniform_step_seconds(X.row_timestamps)

    others = [n for n in X.feature_names if n != feature]
    series = {
        "original": np.asarray(predict(X.rows), dtype=np.float64),
        "feature_permuted": np.asarray(
            predict(mean_substitute(X, [feature], means).rows), dtype=np.float64
        ),
        "feature_only": np.asarray(
            predict(mean_substitute(X, others, means).rows), dtype=np.float64
        ),
        "truth": np.asarray(y_true, dtype=np.float64),
    }
    if series["truth"].shape != series["original"].shape:
        raise DataError("y_true length does not match the design matrix")

    return report_from_series(feature, series, step)


def report_from_series(feature: str, series: dict, step: int) -> PffraReport:
    """Spectra and DEFAULT_BANDS energies of the four series of one analysis.

    ``series`` maps ``original``, ``feature_permuted``, ``feature_only`` and
    ``truth`` to equal-length series sampled every ``step`` seconds. Both the
    static protocol (:func:`pffra`) and the rolling-forecast protocol build
    their report here. ``band_energies`` maps band -> variant -> energy.
    """
    spectra = {k: dft(v, step) for k, v in series.items()}
    energies = {k: band_energy(spec, DEFAULT_BANDS) for k, spec in spectra.items()}
    return PffraReport(
        feature=feature,
        spectrum_feature_only=spectra["feature_only"],
        spectrum_feature_permuted=spectra["feature_permuted"],
        spectrum_original=spectra["original"],
        spectrum_truth=spectra["truth"],
        band_energies={b: {k: energies[k][b] for k in spectra} for b in DEFAULT_BANDS},
    )
