"""Diagnostic statistics: ACF/PACF, ADF unit-root test, histograms, Q-Q, metrics.

Everything here is numpy and the standard library: the ADF test embeds a
Dickey-Fuller critical-value table (constant, no trend) and reports a p-value
*bracket* rather than an exact p-value, and the Q-Q quantiles come from
``statistics.NormalDist``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DataError, NumericError, float_range

# Dickey-Fuller critical values, regression with constant and no trend.
# Rows: sample size -> (1%, 5%, 10%). Interpolation between rows is linear
# in 1/n, clamped outside them; the last row is the asymptotic limit.
_DF_TABLE = (
    (25, -3.75, -3.00, -2.63),
    (50, -3.58, -2.93, -2.60),
    (100, -3.51, -2.89, -2.58),
    (250, -3.46, -2.88, -2.57),
    (500, -3.44, -2.87, -2.57),
    (math.inf, -3.43, -2.86, -2.57),
)

_DF_LEVELS = (0.01, 0.05, 0.10)
# The p-value brackets the levels cut (0, 1) into.
_P_EDGES = (0.0, *_DF_LEVELS, 1.0)


@dataclass(frozen=True)
class AdfResult:
    """Outcome of the augmented Dickey-Fuller test (constant, no trend)."""

    statistic: float
    used_lags: int
    reject_at: dict
    p_bracket: tuple
    max_lags: int  # the largest lag AIC could choose; used_lags == max_lags hit the cap


@dataclass(frozen=True)
class MetricReport:
    """Regression quality metrics; undefined entries are None."""

    mse: float
    mae: float
    mape: float | None
    r2: float | None

    def as_dict(self) -> dict:
        return asdict(self)


def _demeaned(series) -> np.ndarray:
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("series must be one-dimensional with at least 2 values")
    if not np.isfinite(x).all():
        raise DataError("series contains non-finite values")
    return x - x.mean()


@float_range("ACF arithmetic")
def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation for lags 0..max_lag.

    Uses the standard biased estimator: lag-k autocovariance divided by the
    lag-0 autocovariance, so ``acf[0] == 1``.
    """
    return _acf(series, max_lag)


def _acf(series, max_lag: int) -> np.ndarray:
    if max_lag < 0:
        raise ConfigError(f"max_lag must be >= 0, got {max_lag}")
    d = _demeaned(series)
    if len(d) <= max_lag:
        raise DataError(f"series length {len(d)} must exceed max_lag {max_lag}")
    c0 = float(d @ d)
    if c0 == 0.0:
        raise DataError("zero-variance series has no autocorrelation")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(d[k:] @ d[:-k]) / c0
    return out


@float_range("PACF arithmetic")
def pacf(series, max_lag: int) -> np.ndarray:
    """Partial autocorrelation for lags 0..max_lag via Durbin-Levinson."""
    r = _acf(series, max_lag)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if max_lag == 0:
        return out
    phi = np.zeros((max_lag + 1, max_lag + 1))
    phi[1, 1] = r[1]
    out[1] = r[1]
    for k in range(2, max_lag + 1):
        prev = phi[k - 1, 1:k]
        num = r[k] - float(prev @ r[k - 1 : 0 : -1])
        den = 1.0 - float(prev @ r[1:k])
        if den == 0.0:
            raise NumericError(f"Durbin-Levinson breakdown at lag {k}")
        phi[k, k] = num / den
        phi[k, 1:k] = prev - phi[k, k] * prev[::-1]
        out[k] = phi[k, k]
    return out


def _ols(X: np.ndarray, y: np.ndarray, lag: int):
    """Least squares with coefficient standard errors, for the ADF fit with
    ``lag`` lags; ``X`` has more rows than columns. A singular design raises
    NumericError naming the lag."""
    xtx = X.T @ X
    try:
        beta = np.linalg.solve(xtx, X.T @ y)
        cov_scale = np.diag(np.linalg.inv(xtx))
    except np.linalg.LinAlgError:
        raise NumericError(_degenerate(lag, _COLLINEAR)) from None
    if not np.all(np.isfinite(cov_scale) & (cov_scale > 0.0)):
        raise NumericError(_degenerate(lag, _COLLINEAR))
    resid = y - X @ beta
    sse = float(resid @ resid)
    sigma2 = sse / (X.shape[0] - X.shape[1])
    return beta, np.sqrt(cov_scale * sigma2), sse


#: A column of the ADF regression ``[X | dy]`` whose part outside the span
#: of the columns before it is at most this fraction of its norm is taken
#: to lie in that span: a regressor makes the design singular, ``dy`` is
#: fitted exactly. Either leaves the statistic without meaning.
_DEGENERATE_RTOL = 1e-8
_COLLINEAR = "its regressors are collinear"
_EXACT_FIT = "it fits the differenced series exactly"


def _degenerate(lag: int, why: str) -> str:
    return f"ADF fit at lag {lag} is degenerate: {why}"


def _adf_design(y: np.ndarray, lags: int, trim: int):
    """Design matrix for the ADF regression with `lags` difference terms,
    using observations from index `trim` onward of the differenced series."""
    dy = np.diff(y)
    rows = len(dy) - trim
    cols = [np.ones(rows), y[trim : trim + rows]]
    for i in range(1, lags + 1):
        cols.append(dy[trim - i : trim - i + rows])
    X = np.column_stack(cols)
    return X, dy[trim:]


#: Rows of the ADF design factorised at a time.
_QR_BLOCK_ROWS = 4096


def _adf_r_factor(y: np.ndarray, lags: int) -> np.ndarray:
    """R of the QR factorisation of ``[X | dy]``, the ADF regression with
    ``lags`` lags on the sample trimmed by ``lags``.

    The rows go in blocks: the R so far is stacked on the next block and
    factorised again, which gives the same R up to row signs, so only one
    block of the design is ever in memory.
    """
    rows = len(y) - 1 - lags
    r = np.empty((0, lags + 3))
    for start in range(0, rows, _QR_BLOCK_ROWS):
        stop = min(start + _QR_BLOCK_ROWS, rows)
        X, dy = _adf_design(y[start : stop + lags + 1], lags, trim=lags)
        r = np.linalg.qr(np.vstack([r, np.column_stack([X, dy])]), mode="r")
    return r


def _df_critical(n_obs: int) -> tuple:
    """Interpolated (1%, 5%, 10%) critical values for an effective sample."""
    rows = np.array(_DF_TABLE[::-1])  # by increasing 1/n, as np.interp needs
    return tuple(float(np.interp(1.0 / n_obs, 1.0 / rows[:, 0], col)) for col in rows[:, 1:].T)


@float_range("ADF arithmetic")
def adf_test(series, max_lags: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test (constant, no trend).

    Fits ``dy_t = alpha + beta*y_{t-1} + sum_i gamma_i*dy_{t-i} + e`` by least
    squares; the statistic is ``beta_hat / se(beta_hat)``. The lag order is
    chosen by minimizing AIC over 0..max_lags (all candidates compared on the
    same trimmed sample, their residual sums of squares all read from one QR
    factorisation of the longest design), then the chosen order is refit on
    its maximal sample. Rejection is decided against the embedded
    critical-value table, and ``p_bracket`` gives the interval the p-value
    falls in.

    Parameters
    ----------
    series : array-like of float
    max_lags : int, optional
        Defaults to the Schwert rule ``floor(12 * (n/100)**0.25)``.

    Raises
    ------
    DataError
        The series is not finite, or shorter than
        ``max(25 + max_lags, 2 * max_lags + 4)``.
    NumericError
        Some lag's regression is degenerate: its regressors are collinear,
        or it fits the differenced series exactly. The message names the
        smallest such lag. Or the arithmetic overflows (values of ~1e154 or
        more).
    """
    y = np.asarray(series, dtype=np.float64)
    if not np.isfinite(y).all():
        raise DataError("series contains non-finite values")
    n = len(y)
    if max_lags is None:
        max_lags = int(math.floor(12.0 * (n / 100.0) ** 0.25))
    if max_lags < 0:
        raise ConfigError(f"max_lags must be >= 0, got {max_lags}")
    # The longest regression needs more observations than coefficients.
    need = max(25 + max_lags, 2 * max_lags + 4)
    if n < need:
        raise DataError(f"series too short for ADF: {n} < {need}")

    # Every lag's residual sum of squares on the shared trimmed sample, from
    # one R: the fit with p lags uses the first p + 2 columns, so its SSE is
    # the sum of squares of R's last column from row p + 2 down.
    r = _adf_r_factor(y, max_lags)
    sse = np.cumsum(r[::-1, -1] ** 2)[::-1][2:]
    norms = np.sqrt(np.einsum("ij,ij->j", r, r))
    loose = np.abs(np.diag(r)) <= _DEGENERATE_RTOL * norms
    collinear = np.logical_or.accumulate(loose[1:-1])  # lag p: columns 1..p+1
    exact = sse <= (_DEGENERATE_RTOL * norms[-1]) ** 2
    bad = np.flatnonzero(collinear | exact)
    if bad.size:
        lag = int(bad[0])
        raise NumericError(_degenerate(lag, _COLLINEAR if collinear[lag] else _EXACT_FIT))
    n_eff = n - 1 - max_lags
    aic = n_eff * np.log(sse / n_eff) + 2 * (np.arange(max_lags + 1) + 2)
    best_lag = int(np.argmin(aic))  # the first of equal minima

    X, dy = _adf_design(y, best_lag, trim=best_lag)
    beta, se, _ = _ols(X, dy, best_lag)
    stat = float(beta[1] / se[1])

    crit = _df_critical(len(dy))
    reject = {level: stat < c for level, c in zip(_DF_LEVELS, crit)}
    k = int(np.searchsorted(crit, stat, side="right"))  # critical values at or below stat
    return AdfResult(stat, best_lag, reject, _P_EDGES[k : k + 2], max_lags)


def histogram(series, bin_width: float) -> list:
    """Fixed-width histogram with bins anchored at multiples of the width.

    A value v falls in the bin ``[m*w, (m+1)*w)`` with ``m = floor(v/w)``; the
    returned pairs are ``(m*w, count)`` sorted by bin, and counts sum to the
    series length. A bin index ``m`` outside the int64 range raises
    NumericError.
    """
    if bin_width <= 0:
        raise ConfigError(f"bin_width must be > 0, got {bin_width}")
    x = np.asarray(series, dtype=np.float64)
    if len(x) == 0:
        return []
    if not np.isfinite(x).all():
        raise DataError("series contains non-finite values")
    with np.errstate(over="ignore"):  # an infinite quotient fails the range check
        idx = np.floor(x / bin_width)
    outside = ~((idx >= -(2.0**63)) & (idx < 2.0**63))
    if outside.any():
        raise NumericError(f"histogram bin of value {float(x[outside][0])!r} at width "
                           f"{bin_width!r} is outside the int64 range")
    bins, counts = np.unique(idx.astype(np.int64), return_counts=True)
    return [(float(m * bin_width), int(c)) for m, c in zip(bins, counts)]


def qq_normal(residuals) -> list:
    """Normal Q-Q pairs: (theoretical quantile, sorted sample value).

    The theoretical quantile for rank i (1-based) is
    ``mean + sd * Phi^-1((i - 0.5) / n)`` using the sample mean and standard
    deviation, so a perfectly normal sample lies on the 45-degree line.
    ``Phi^-1`` is ``statistics.NormalDist.inv_cdf`` (Wichura's AS241, exact to
    double precision).
    """
    x = np.sort(np.asarray(residuals, dtype=np.float64))
    n = len(x)
    if n < 3:
        raise DataError(f"need at least 3 residuals, got {n}")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DataError("zero-variance residuals have no Q-Q representation")
    dist = NormalDist(mean, sd)
    return [(dist.inv_cdf((i - 0.5) / n), float(x[i - 1])) for i in range(1, n + 1)]


def metrics(y_true, y_pred) -> MetricReport:
    """MSE, MAE, MAPE (percent), and R-squared.

    MAPE is None when any true value is exactly zero; R-squared is None when
    the true series is constant and imperfectly predicted (1.0 if predicted
    exactly).
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1 or len(yt) == 0:
        raise DataError("y_true and y_pred must be equal-length non-empty vectors")
    with float_range("error metrics"):  # finite values too large to square
        err = yp - yt
        mse = float(np.mean(err**2))
        mae = float(np.mean(np.abs(err)))
        mape = None
        if np.all(yt != 0.0):
            mape = float(np.mean(np.abs(err / yt))) * 100.0
        sst = float(np.sum((yt - yt.mean()) ** 2))
        sse = float(np.sum(err**2))
    if sst > 0.0:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse == 0.0 else None
    return MetricReport(mse=mse, mae=mae, mape=mape, r2=r2)
