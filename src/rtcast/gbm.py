"""Gradient-boosted regression trees, from scratch.

Squared-error loss with second-order split scoring: gradients ``g = yhat - y``
and constant hessians ``h = 1``, leaf weight ``-sum(g)/(sum(h)+lambda)``, and
split gain

    1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma

maximized by exact greedy search over every feature and every midpoint of
consecutive distinct sorted values. A sample routes left when
``feature < threshold``. Everything is deterministic: ties break toward the
lowest feature index, then the lowest threshold.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigError, DataError, NumericError, ToolkitError
from .features import FeatureMatrix
from .stats import metrics


@dataclass
class TreeNode:
    """Branch (feature_index/threshold/left/right) or leaf (weight)."""

    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float | None = None
    gain: float = 0.0

    def __post_init__(self):
        if self.weight is None:
            if self.left is None or self.right is None or self.threshold is None:
                raise ConfigError("branch nodes need threshold and both children")
            if not np.isfinite(self.threshold):
                raise ConfigError("non-finite threshold")
        elif not np.isfinite(self.weight):
            raise ConfigError("non-finite leaf weight")

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None


@dataclass(frozen=True)
class Hyperparams:
    max_depth: int = 6
    n_trees: int = 100
    gamma: float = 0.0
    lambda_: float = 1.0
    learning_rate: float = 0.3

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.n_trees < 0:
            raise ConfigError(f"n_trees must be >= 0, got {self.n_trees}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.gamma < 0 or self.lambda_ < 0:
            raise ConfigError("gamma and lambda must be >= 0")


@dataclass(frozen=True)
class HyperparamGrid:
    """Value ranges swept by grid_search (cartesian product)."""

    max_depth: tuple = (5, 8, 11, 15)
    n_trees: tuple = (20, 100, 300, 500)
    gamma: tuple = (0.05, 0.5, 1.0, 2.0)
    lambda_: tuple = (1.0,)
    learning_rate: tuple = (0.3,)

    def combos(self) -> list:
        seen, out = set(), []
        for d, t, g, lam, lr in product(
            self.max_depth, self.n_trees, self.gamma, self.lambda_, self.learning_rate
        ):
            p = Hyperparams(d, t, g, lam, lr)
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out


@dataclass(frozen=True)
class Ensemble:
    """Additive boosted model: base_score + learning_rate * sum of trees."""

    base_score: float
    learning_rate: float
    trees: tuple
    feature_names: tuple
    lambda_: float
    gamma: float

    def predict_row(self, row) -> float:
        x = np.asarray(row, dtype=np.float64)
        if x.shape != (len(self.feature_names),):
            raise ConfigError(
                f"row has {x.shape} values, model expects {len(self.feature_names)}"
            )
        total = 0.0
        for tree in self.trees:
            node = tree
            while not node.is_leaf:
                node = node.left if x[node.feature_index] < node.threshold else node.right
            total += node.weight
        return self.base_score + self.learning_rate * total

    def predict_batch(self, rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise ConfigError(
                f"rows have shape {x.shape}, model expects width {len(self.feature_names)}"
            )
        out = np.full(len(x), self.base_score)
        for tree in self.trees:
            out += self.learning_rate * _tree_outputs(tree, x)
        return out


def _tree_outputs(root: TreeNode, rows: np.ndarray) -> np.ndarray:
    out = np.empty(len(rows))
    stack = [(root, np.arange(len(rows)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.weight
        else:
            left = rows[idx, node.feature_index] < node.threshold
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[~left]))
    return out


def _best_split(rows, g, h, idx, lambda_, gamma):
    """Exact greedy search over all (feature, midpoint-threshold) candidates.

    Returns (gain, feature, threshold) of the best strictly-positive-gain
    split, or None. Ties keep the lowest feature index, then (via argmax over
    ascending thresholds) the lowest threshold.
    """
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


def grow_tree(rows, grad, hess, max_depth: int, lambda_: float, gamma: float) -> TreeNode:
    """Grow one regression tree on explicit gradient/hessian vectors.

    Shared by boosting rounds and by the tree surrogate (which passes
    ``grad = -targets, hess = 1, lambda_ = 0`` to get a CART-style
    variance-reduction tree).
    """
    rows = np.asarray(rows, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)

    def build(idx, depth):
        split = _best_split(rows, grad, hess, idx, lambda_, gamma) if depth < max_depth else None
        if split is None:
            w = -float(grad[idx].sum()) / (float(hess[idx].sum()) + lambda_)
            return TreeNode(weight=w)
        gain, f, thr = split
        left = rows[idx, f] < thr
        return TreeNode(
            feature_index=f,
            threshold=thr,
            left=build(idx[left], depth + 1),
            right=build(idx[~left], depth + 1),
            gain=gain,
        )

    return build(np.arange(len(rows)), 0)


def train(X: FeatureMatrix, params: Hyperparams) -> Ensemble:
    """Fit a boosted ensemble to a design matrix.

    Parameters
    ----------
    X : FeatureMatrix
        Training rows and target.
    params : Hyperparams

    Returns
    -------
    Ensemble
        ``base_score`` is the target mean; each round fits one tree to the
        squared-loss gradients of the current prediction.
    """
    if len(X) < 2:
        raise DataError(f"training needs at least 2 rows, got {len(X)}")
    if not (np.isfinite(X.rows).all() and np.isfinite(X.target).all()):
        raise NumericError("training data contains non-finite values")

    y = X.target
    base = float(y.mean())
    pred = np.full(len(y), base)
    hess = np.ones(len(y))
    trees = []
    for _ in range(params.n_trees):
        tree = grow_tree(X.rows, pred - y, hess, params.max_depth, params.lambda_, params.gamma)
        pred += params.learning_rate * _tree_outputs(tree, X.rows)
        trees.append(tree)
    return Ensemble(
        base_score=base,
        learning_rate=params.learning_rate,
        trees=tuple(trees),
        feature_names=X.feature_names,
        lambda_=params.lambda_,
        gamma=params.gamma,
    )


def staged_predictions(model: Ensemble, rows):
    """Yield predictions after 0, 1, ..., len(trees) trees (T+1 arrays)."""
    x = np.asarray(rows, dtype=np.float64)
    out = np.full(len(x), model.base_score)
    yield out.copy()
    for tree in model.trees:
        out += model.learning_rate * _tree_outputs(tree, x)
        yield out.copy()


def grid_search(X_train: FeatureMatrix, X_val: FeatureMatrix, grid: HyperparamGrid):
    """Exhaustive hyperparameter search scored by validation MAE.

    Returns ``(best, table)`` where ``table`` is a list of
    ``(Hyperparams, MetricReport)`` in grid order (duplicates removed) and
    ``best`` minimizes validation MAE with ties broken by fewer trees, then
    smaller depth, then first-encountered.

    Combinations differing only in tree count share one training run: boosting
    is sequential, so the first k trees of a longer run are identical to a
    k-tree run.
    """
    combos = grid.combos()
    if not combos:
        raise ConfigError("empty hyperparameter grid")

    groups = {}
    for pos, p in enumerate(combos):
        key = replace(p, n_trees=0)
        groups.setdefault(key, []).append((pos, p))

    table: list = [None] * len(combos)
    for key, members in groups.items():
        wanted = {p.n_trees for _, p in members}
        run = replace(key, n_trees=max(wanted))
        try:
            model = train(X_train, run)
        except ToolkitError as exc:
            raise type(exc)(f"grid combination {run}: {exc}") from exc
        for count, pred in enumerate(staged_predictions(model, X_val.rows)):
            if count in wanted:
                report = metrics(X_val.target, pred)
                for pos, p in members:
                    if p.n_trees == count:
                        table[pos] = (p, report)

    best_pos = 0
    best_key = None
    for pos, (p, report) in enumerate(table):
        key = (report.mae, p.n_trees, p.max_depth)
        if best_key is None or key < best_key:
            best_key, best_pos = key, pos
    return table[best_pos][0], table


def feature_importance_gain(trees, feature_names) -> dict:
    """Per-feature sum of realized split gains, normalized to sum to 1.

    ``trees`` is a sequence of root nodes: an ensemble's ``trees``, or a
    one-tuple holding a surrogate tree. Trees without any split give an
    all-zero map.
    """
    totals = dict.fromkeys(feature_names, 0.0)
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                totals[feature_names[node.feature_index]] += node.gain
                stack.append(node.left)
                stack.append(node.right)
    total = sum(totals.values())
    if total > 0.0:
        totals = {k: v / total for k, v in totals.items()}
    return totals


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "gain": node.gain,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict, width: int) -> TreeNode:
    if "weight" in d:
        return TreeNode(weight=float(d["weight"]))
    f = int(d["feature_index"])
    if not 0 <= f < width:
        raise DataError(f"malformed model document: feature_index {f} outside 0..{width - 1}")
    return TreeNode(
        feature_index=f,
        threshold=float(d["threshold"]),
        gain=float(d.get("gain", 0.0)),
        left=_node_from_dict(d["left"], width),
        right=_node_from_dict(d["right"], width),
    )


def to_dict(model: Ensemble) -> dict:
    return {
        "kind": "boosted-trees",
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "lambda": model.lambda_,
        "gamma": model.gamma,
        "feature_names": list(model.feature_names),
        "trees": [_node_to_dict(t) for t in model.trees],
    }


def from_dict(doc: dict) -> Ensemble:
    try:
        if doc["kind"] != "boosted-trees":
            raise DataError(
                f"malformed model document: kind {doc['kind']!r} is not boosted-trees"
            )
        names = tuple(doc["feature_names"])
        return Ensemble(
            base_score=float(doc["base_score"]),
            learning_rate=float(doc["learning_rate"]),
            trees=tuple(_node_from_dict(t, len(names)) for t in doc["trees"]),
            feature_names=names,
            lambda_=float(doc["lambda"]),
            gamma=float(doc["gamma"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc


def dumps(model: Ensemble) -> str:
    """The ``model.json`` text: sorted keys, one-space indent, final newline."""
    return json.dumps(to_dict(model), sort_keys=True, indent=1) + "\n"


def save(model: Ensemble, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))


def load(path) -> Ensemble:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    return from_dict(doc)
