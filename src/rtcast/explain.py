"""Model interpretability: importances, PDP, surrogates, LIME, exact Shapley.

Every function accepts either a trained :class:`~rtcast.gbm.Ensemble` or any
callable mapping a 2-D row matrix to a 1-D prediction vector, so explainers
can be exercised against hand-built black boxes in tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, float_range
from .features import FeatureMatrix, training_means
from .gbm import Ensemble, grow_tree, predict_coalitions, predict_sweep
from .pffra import mean_substitute
from .stats import metrics


@dataclass(frozen=True)
class LinearSurrogate:
    """Ridge approximation of a black-box model."""

    intercept: float
    coefficients: dict
    lambda_: float
    standardization: dict
    std_coefficients: dict
    fidelity_r2: float

    def predict(self, rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.float64)
        beta = np.array([self.coefficients[n] for n in self.coefficients])
        return self.intercept + x @ beta


@dataclass(frozen=True)
class Attribution:
    """Per-feature signed contributions for one prediction.

    Shapley attributions satisfy efficiency (base + sum = prediction); LIME
    attributions instead carry the local fit quality in ``local_r2`` and
    human-readable bin ``labels``.
    """

    base_value: float
    contributions: dict
    prediction: float
    local_r2: float | None = None
    labels: dict | None = None


@dataclass(frozen=True)
class PdpCurve:
    feature: str
    grid: np.ndarray
    mean_response: np.ndarray
    constant: bool = False


def _predictor(model):
    return model.predict_batch if hasattr(model, "predict_batch") else model


def permutation_importance(
    model,
    X: FeatureMatrix,
    y,
    metric: str = "mae",
    strategy: str = "mean_substitute",
    seed: int = 0,
    means: dict | None = None,
) -> dict:
    """Per-feature error increase when the feature's information is destroyed.

    ``mean_substitute`` replaces the column with its training mean through
    ``pffra.mean_substitute`` (deterministic; a feature missing from ``means``
    raises ConfigError, as in ``pffra.pffra``); ``shuffle`` permutes the
    column with a seeded generator.
    Importance = metric(degraded) - metric(baseline), so 0 means the feature
    is unused and larger is more important.
    """
    metric = metric.lower()
    if metric not in ("mae", "mse"):
        raise ConfigError(f"metric must be mae or mse, got {metric!r}")
    if strategy not in ("mean_substitute", "shuffle"):
        raise ConfigError(f"unknown strategy {strategy!r}")
    predict = _predictor(model)
    y = np.asarray(y, dtype=np.float64)

    def score(rows):
        rep = metrics(y, predict(rows))
        return rep.mae if metric == "mae" else rep.mse

    baseline = score(X.rows)
    if strategy == "mean_substitute" and means is None:
        means = training_means(X)
    rng = np.random.default_rng(seed)
    out = {}
    for j, name in enumerate(X.feature_names):
        if strategy == "mean_substitute":
            rows = mean_substitute(X, [name], means).rows
        else:
            rows = X.rows.copy()
            rows[:, j] = rng.permutation(rows[:, j])
        out[name] = score(rows) - baseline
    return out


def pdp(model, X: FeatureMatrix, feature: str) -> PdpCurve:
    """Partial dependence: mean prediction as one feature sweeps its range.

    Continuous features get 20 equispaced points from observed min to max
    (fewer where the range holds fewer distinct floats);
    integer-valued features with at most 24 levels (hour of day) are treated
    as categorical and evaluated at each observed level. A constant feature
    yields a single-point curve flagged ``constant=True``.

    An :class:`~rtcast.gbm.Ensemble` is read by one ``gbm.predict_sweep``
    call, which reads each tree once per row and distinct bucket of the
    feature's thresholds. Its curve is bit for bit the one of setting the
    column to each grid value in turn and calling ``predict_batch``, the path
    any other callable takes.
    """
    j = X.index(feature)
    col = X.rows[:, j]
    levels = np.unique(col)
    constant = len(levels) == 1
    if constant or (len(levels) <= 24 and np.all(levels == np.round(levels))):
        grid = levels
    else:
        lo, hi = float(col.min()), float(col.max())
        # Python floats: an overflowing width is inf, with no numpy warning.
        if math.isfinite(lo) and math.isfinite(hi) and not math.isfinite(hi - lo):
            raise DataError(f"feature {feature!r} spans {lo!r} to {hi!r}, a range wider "
                            "than the float range: no grid can be built")
        # A range of a few ULPs holds fewer than 20 distinct floats.
        grid = np.unique(np.linspace(lo, hi, 20))

    if isinstance(model, Ensemble):
        swept = predict_sweep(model, X.rows, j, grid)
    else:
        swept = _swept(_predictor(model), X.rows, j, grid)
    # Each mean reads one contiguous prediction vector, as np.mean of a
    # predict_batch result does.
    response = np.array([float(np.mean(pred)) for pred in swept])
    return PdpCurve(feature, grid, response, constant=constant)


def _swept(predict, rows, j, grid):
    """The predictions with column ``j`` set to each grid value in turn."""
    rows = rows.copy()
    for v in grid:
        rows[:, j] = v
        yield predict(rows)


@float_range("ridge surrogate arithmetic")
def fit_surrogate_ridge(model, X: FeatureMatrix, lambda_: float = 1.0) -> LinearSurrogate:
    """Global linear surrogate: ridge regression onto the model's predictions.

    Features are standardized to zero mean and unit variance; the intercept
    is not penalized (it equals the mean prediction in standardized space).
    Coefficients are reported both in standardized units and de-standardized
    to raw feature units. Finite features too large to square raise
    NumericError.
    """
    if lambda_ < 0:
        raise ConfigError(f"lambda must be >= 0, got {lambda_}")
    predict = _predictor(model)
    z = np.asarray(predict(X.rows), dtype=np.float64)

    mu = X.rows.mean(axis=0)
    sd = X.rows.std(axis=0)
    sd_safe = np.where(sd == 0.0, 1.0, sd)
    xs = (X.rows - mu) / sd_safe
    z_mean = float(z.mean())

    d = xs.shape[1]
    lhs = xs.T @ xs + lambda_ * np.eye(d)
    rhs = xs.T @ (z - z_mean)
    try:
        beta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "singular surrogate system; standardized features are collinear "
            "(use lambda > 0)"
        ) from exc

    raw_coef = beta / sd_safe
    intercept = z_mean - float(raw_coef @ mu)
    fitted = intercept + X.rows @ raw_coef
    rep = metrics(z, fitted)
    names = X.feature_names
    return LinearSurrogate(
        intercept=intercept,
        coefficients={n: float(c) for n, c in zip(names, raw_coef)},
        lambda_=float(lambda_),
        standardization={n: (float(m), float(s)) for n, m, s in zip(names, mu, sd)},
        std_coefficients={n: float(b) for n, b in zip(names, beta)},
        fidelity_r2=rep.r2 if rep.r2 is not None else 1.0,
    )


@float_range("tree surrogate arithmetic")
def fit_surrogate_tree(model, X: FeatureMatrix, max_depth: int = 6):
    """Global tree surrogate: one CART-style regression tree on predictions.

    Returns ``(root, fidelity_r2)`` where fidelity is the surrogate's
    R-squared against the black box's own predictions on X. Reuses the
    boosting tree grower (its hessians are all 1), no shrinkage and no
    regularization, which makes the split criterion plain variance reduction.
    """
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    predict = _predictor(model)
    z = np.asarray(predict(X.rows), dtype=np.float64)
    fitted = np.empty(len(z))
    root = grow_tree(X.rows, -z, max_depth=max_depth, lambda_=0.0, gamma=0.0, out=fitted)
    rep = metrics(z, fitted)
    return root, (rep.r2 if rep.r2 is not None else 1.0)


def _bin_edges(col: np.ndarray) -> np.ndarray:
    """Quartile bin edges, deduplicated (possibly empty for constants)."""
    return np.unique(np.quantile(col, (0.25, 0.5, 0.75)))


def _bin_of(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.searchsorted(edges, values, side="right")


def _bin_label(name: str, edges: np.ndarray, b: int, value: float) -> str:
    if len(edges) == 0:
        return f"{name} = {value:g}"
    if b == 0:
        return f"{name} <= {edges[0]:g}"
    if b == len(edges):
        return f"{name} > {edges[-1]:g}"
    return f"{edges[b - 1]:g} < {name} <= {edges[b]:g}"


def lime_explain(
    model,
    instance,
    X_ref: FeatureMatrix,
    n_samples: int = 1000,
    seed: int = 0,
) -> Attribution:
    """Local explanation by a weighted ridge fit around one instance.

    Continuous features are discretized into quartile bins computed from
    ``X_ref``. Perturbed samples are drawn by resampling observed values per
    feature; each sample is weighted by ``exp(-d^2 / width^2)`` where d is
    the fraction of features whose bin differs from the instance's and the
    width is ``0.75 * sqrt(number of features)``. A ridge
    model on binary "same bin as the instance" indicators yields the
    contributions, and its weighted R-squared on the perturbations is
    reported as ``local_r2``.
    """
    if n_samples < 50:
        raise ConfigError(f"n_samples must be >= 50, got {n_samples}")
    predict = _predictor(model)
    x0 = np.asarray(instance, dtype=np.float64)
    d = len(X_ref.feature_names)
    if x0.shape != (d,):
        raise ConfigError(f"instance has shape {x0.shape}, expected ({d},)")
    kernel_width = 0.75 * math.sqrt(d)

    rng = np.random.default_rng(seed)
    edges = [_bin_edges(X_ref.rows[:, j]) for j in range(d)]
    inst_bins = np.array([_bin_of(x0[j : j + 1], edges[j])[0] for j in range(d)])

    picks = rng.integers(0, len(X_ref), size=(n_samples, d))
    samples = X_ref.rows[picks, np.arange(d)]
    samples[0] = x0

    indicator = np.empty((n_samples, d))
    for j in range(d):
        indicator[:, j] = (_bin_of(samples[:, j], edges[j]) == inst_bins[j]).astype(float)
    if np.all(indicator == indicator[0]):
        raise DataError("degenerate perturbations: every sample falls in the instance's bins")

    preds = np.asarray(predict(samples), dtype=np.float64)
    dist = 1.0 - indicator.mean(axis=1)
    weights = np.exp(-(dist**2) / kernel_width**2)

    w_sum = float(weights.sum())
    zb = indicator - (weights @ indicator) / w_sum
    yb = preds - float(weights @ preds) / w_sum
    wz = zb * weights[:, None]
    lhs = zb.T @ wz + 1.0 * np.eye(d)
    rhs = wz.T @ yb
    try:
        beta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular local system in the LIME fit") from exc

    fitted = zb @ beta
    sse = float(weights @ (yb - fitted) ** 2)
    sst = float(weights @ yb**2)
    local_r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    intercept = float(weights @ preds) / w_sum - float(beta @ ((weights @ indicator) / w_sum))

    names = X_ref.feature_names
    return Attribution(
        base_value=intercept,
        contributions={n: float(b) for n, b in zip(names, beta)},
        prediction=float(predict(x0[None, :])[0]),
        local_r2=local_r2,
        labels={
            n: _bin_label(n, edges[j], int(inst_bins[j]), float(x0[j]))
            for j, n in enumerate(names)
        },
    )


def shap_exact(model, instance, background, feature_names=None) -> Attribution:
    """Exact Shapley attributions by full subset enumeration.

    The value of a coalition S is the model's prediction on the instance with
    every feature outside S replaced by its background mean. Contributions
    use the exact Shapley weights |S|! (N-|S|-1)! / N!, so efficiency
    (base_value + sum of contributions = prediction) holds by construction.

    An :class:`~rtcast.gbm.Ensemble` is read by ``gbm.predict_coalitions``,
    which walks each tree once per coalition it can tell apart, the subsets
    of the features whose branches the instance and the background take on
    different sides. Its values, and so every field of the result, are bit
    for bit those of calling ``predict_batch`` on the 2^N coalition rows,
    the path any other callable takes.

    Parameters
    ----------
    model : Ensemble or callable
    instance, background : array-like, length N <= 20
    feature_names : sequence, optional
        Defaults to the model's feature names, else f0..fN-1.
    """
    x0 = np.asarray(instance, dtype=np.float64)
    bg = np.asarray(background, dtype=np.float64)
    if x0.shape != bg.shape or x0.ndim != 1:
        raise ConfigError("instance and background must be equal-length vectors")
    n = len(x0)
    if n > 20:
        raise ConfigError(
            f"{n} features means 2^{n} coalitions; exact enumeration is capped "
            "at 20 (a sampling approximation is out of scope here)"
        )
    if feature_names is None:
        feature_names = getattr(model, "feature_names", None) or tuple(
            f"f{i}" for i in range(n)
        )
    if len(feature_names) != n:
        raise ConfigError("feature_names length does not match the instance")

    n_masks = 1 << n
    masks = np.arange(n_masks, dtype=np.uint32)
    if isinstance(model, Ensemble):
        v = predict_coalitions(model, x0, bg)
    else:
        member = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
        v = np.asarray(_predictor(model)(np.where(member, x0, bg)), dtype=np.float64)

    # Coalition sizes, bit by bit: masks 2^i .. 2^(i+1) - 1 are 0 .. 2^i - 1
    # with bit i set.
    sizes = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        sizes = np.concatenate((sizes, sizes + 1))
    fact = [math.factorial(i) for i in range(n + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)] + [0.0]
    )

    contributions = {}
    for i, name in enumerate(feature_names):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        w = weight_by_size[sizes[without]]
        terms = w * (v[without | bit] - v[without])
        contributions[name] = math.fsum(terms.tolist())

    return Attribution(
        base_value=float(v[0]),
        contributions=contributions,
        prediction=float(v[n_masks - 1]),
    )
