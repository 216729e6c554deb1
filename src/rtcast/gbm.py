"""Gradient-boosted regression trees, from scratch.

Squared-error loss with second-order split scoring: gradients ``g = yhat - y``
and constant hessians ``h = 1``, leaf weight ``-sum(g)/(sum(h)+lambda)``, and
split gain

    1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma

maximized by exact greedy search over every feature and every midpoint of
consecutive distinct sorted values. A sample routes left when
``feature < threshold``. Everything is deterministic: ties break toward the
lowest feature index, then the lowest threshold.

Split search runs on a pre-sorted column block (exact greedy of XGBoost,
Chen & Guestrin 2016, sections 3.1 and 4.1). Each tree sorts every column
once, stably, into a ``(features + 1) x rows`` index array whose last row is
the row indices in ascending order. A node is a slice of that block; a split
partitions every row of the slice (only the ascending row when the children
are leaves) stably in place, left rows first, so the children are adjacent
slices and no node sorts again. A stable partition of
a stable sort orders each node exactly as a stable sort of the node's own
ascending rows would, so the gradient sums, gains and trees are the same bit
for bit as sorting per node.

A single row is read from a compiled form of the ensemble, built on first use:
flat arrays of feature, threshold, left child, right child and value over the
nodes of all trees. A leaf is its own left and right child with threshold
``+inf``, so after ``max_depth`` steps of ``node = left if x[feature] <
threshold else right``, taken for every tree at once, each tree sits on its
leaf. The leaf values are added to the base score one tree at a time, in tree
order, as ``predict_batch`` adds them, so both give the same float. Batches
keep the per-tree walk of ``_tree_outputs``, which splits the row indices at
each node: on batches of thousands of rows it was measured faster than the
flat walk, whose cost grows with rows x trees at every level.
"""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, NumericError, ToolkitError
from .features import FeatureMatrix, check_finite
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

    @cached_property
    def _flat(self) -> "_FlatEnsemble":
        return _compile(self)

    def predict_row(self, row) -> float:
        x = np.asarray(row, dtype=np.float64)
        if x.shape != (len(self.feature_names),):
            raise ConfigError(
                f"row has {x.shape} values, model expects {len(self.feature_names)}"
            )
        if not np.isfinite(x).all():
            check_finite(x[None], self.feature_names)
        flat = self._flat
        node = flat.roots
        for _ in range(flat.depth):
            node = np.where(x[flat.feature[node]] < flat.threshold[node],
                            flat.left[node], flat.right[node])
        # Node 0 holds the base score; cumsum adds the trees to it in order.
        return float(np.cumsum(flat.value[node])[-1])

    def predict_batch(self, rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise ConfigError(
                f"rows have shape {x.shape}, model expects width {len(self.feature_names)}"
            )
        check_finite(x, self.feature_names)
        out = np.full(len(x), self.base_score)
        for tree in self.trees:
            out += self.learning_rate * _tree_outputs(tree, x)
        return out


class _FlatEnsemble(NamedTuple):
    """An ensemble's nodes in flat arrays (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # what a leaf adds to the prediction; 0 on a branch
    roots: np.ndarray
    depth: int


def _compile(model: Ensemble) -> _FlatEnsemble:
    """Number the nodes breadth first, without recursion, so any depth
    compiles. Node 0 is a leaf holding ``base_score``; nodes 1..T are the
    tree roots, and a tree leaf holds ``learning_rate * weight``."""
    nodes = [None, *model.trees]
    level = [0] * len(nodes)
    feature, threshold, left, right = [0], [math.inf], [0], [0]
    value = [model.base_score]
    i = 1
    while i < len(nodes):
        node = nodes[i]
        if node.is_leaf:
            feature.append(0)
            threshold.append(math.inf)
            left.append(i)
            right.append(i)
            value.append(model.learning_rate * node.weight)
        else:
            feature.append(node.feature_index)
            threshold.append(node.threshold)
            left.append(len(nodes))
            right.append(len(nodes) + 1)
            value.append(0.0)
            nodes += (node.left, node.right)
            level += (level[i] + 1,) * 2
        i += 1
    return _FlatEnsemble(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value),
        roots=np.arange(len(model.trees) + 1),
        depth=max(level),
    )


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


def _best_split(cols, g, h, node, lambda_, gamma):
    """Exact greedy search over all (feature, midpoint-threshold) candidates.

    ``node`` is the node's slice of the column block: row ``f`` holds the
    node's row indices sorted by feature ``f``, the last row holds them in
    ascending order. Gains are evaluated only where consecutive sorted
    values differ. Returns (gain, feature,
    threshold) of the best strictly-positive-gain split, or None. Ties keep
    the lowest feature index, then (via argmax over ascending thresholds)
    the lowest threshold.
    """
    idx = node[-1]
    g_sum = float(g[idx].sum())
    h_sum = float(h[idx].sum())
    parent = g_sum * g_sum / (h_sum + lambda_)
    best = None
    for f, col in enumerate(cols):
        order = node[f]
        xs = col[order]
        cut = np.flatnonzero(xs[:-1] != xs[1:])
        if len(cut) == 0:
            continue
        gl = np.cumsum(g[order])[cut]
        hl = np.cumsum(h[order])[cut]
        gr = g_sum - gl
        hr = h_sum - hl
        gains = 0.5 * (gl * gl / (hl + lambda_) + gr * gr / (hr + lambda_) - parent) - gamma
        k = int(np.argmax(gains))
        if best is None or gains[k] > best[0]:
            j = cut[k]
            best = (float(gains[k]), f, float((xs[j] + xs[j + 1]) / 2.0))
    if best is None or best[0] <= 0.0:
        return None
    return best


def _grow(cols, grad, hess, block, lo, hi, depth, max_depth, lambda_, gamma, goes_left):
    """Grow the subtree of the block slice ``[lo, hi)``, partitioning it in place."""
    node = block[:, lo:hi]
    idx = node[-1]
    split = _best_split(cols, grad, hess, node, lambda_, gamma) if depth < max_depth else None
    if split is None:
        w = -float(grad[idx].sum()) / (float(hess[idx].sum()) + lambda_)
        return TreeNode(weight=w)
    gain, f, thr = split
    left = cols[f][idx] < thr
    n_left = int(np.count_nonzero(left))
    goes_left[idx] = left
    # Boolean indexing keeps order, so each row is partitioned stably. Leaf
    # children read only the ascending row; others need every sorted row.
    for order in node if depth + 1 < max_depth else node[-1:]:
        mask = goes_left[order]
        lefts = order[mask]
        order[n_left:] = order[~mask]
        order[:n_left] = lefts
    del left, mask, lefts  # free this level's temporaries before recursing
    return TreeNode(
        feature_index=f,
        threshold=thr,
        left=_grow(cols, grad, hess, block, lo, lo + n_left, depth + 1,
                   max_depth, lambda_, gamma, goes_left),
        right=_grow(cols, grad, hess, block, lo + n_left, hi, depth + 1,
                    max_depth, lambda_, gamma, goes_left),
        gain=gain,
    )


def grow_tree(rows, grad, hess, max_depth: int, lambda_: float, gamma: float) -> TreeNode:
    """Grow one regression tree on explicit gradient/hessian vectors.

    Shared by boosting rounds and by the tree surrogate (which passes
    ``grad = -targets, hess = 1, lambda_ = 0`` to get a CART-style
    variance-reduction tree).
    """
    cols = np.ascontiguousarray(np.asarray(rows, dtype=np.float64).T)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    d, n = cols.shape
    block = np.empty((d + 1, n), dtype=np.intp)
    for f, col in enumerate(cols):
        block[f] = np.argsort(col, kind="stable")
    block[d] = np.arange(n)
    goes_left = np.zeros(n, dtype=bool)
    return _grow(cols, grad, hess, block, 0, n, 0, max_depth, lambda_, gamma, goes_left)


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
    trees = []
    # Finite inputs can still overflow (squared gradients of huge targets);
    # that must stop training, not leave NaN gains and leaf weights.
    try:
        with np.errstate(over="raise", invalid="raise"):
            base = float(y.mean())
            pred = np.full(len(y), base)
            hess = np.ones(len(y))
            for _ in range(params.n_trees):
                tree = grow_tree(X.rows, pred - y, hess, params.max_depth,
                                 params.lambda_, params.gamma)
                pred += params.learning_rate * _tree_outputs(tree, X.rows)
                trees.append(tree)
    except FloatingPointError as exc:
        raise NumericError(f"training arithmetic left the float range: {exc}") from exc
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


def _malformed(message: str) -> DataError:
    return DataError(f"malformed model document: {message}")


def _finite(field: str, value) -> float:
    """A model-document number: a finite JSON number, not a bool or a string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise _malformed(f"{field} must be a finite number, got {reprlib.repr(value)}")


def _node_from_dict(doc: dict, width: int) -> tuple:
    """Build a tree from its nested dict without recursion, so any depth
    loads. Returns the tree and its largest absolute leaf weight."""
    pending, preorder = [doc], []
    while pending:
        d = pending.pop()
        if not isinstance(d, dict):
            raise _malformed(f"a tree node must be an object, got {reprlib.repr(d)}")
        preorder.append(d)
        if "weight" not in d:
            pending.append(d["left"])
            pending.append(d["right"])
    # In reversed preorder every child is built before its parent: the right
    # subtree's root sits on top of the stack, the left one's below it.
    stack, peak = [], 0.0
    for d in reversed(preorder):
        if "weight" in d:
            weight = _finite("weight", d["weight"])
            peak = max(peak, abs(weight))
            stack.append(TreeNode(weight=weight))
            continue
        f = d["feature_index"]
        if isinstance(f, bool) or not isinstance(f, int):
            raise _malformed(f"feature_index must be an integer, got {reprlib.repr(f)}")
        if not 0 <= f < width:
            raise _malformed(f"feature_index {f} outside 0..{width - 1}")
        right = stack.pop()
        left = stack.pop()
        stack.append(TreeNode(
            feature_index=f,
            threshold=_finite("threshold", d["threshold"]),
            gain=_finite("gain", d.get("gain", 0.0)),
            left=left,
            right=right,
        ))
    return stack.pop(), peak


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
    """The model a ``to_dict`` document describes. Every field is checked, and
    a malformed one raises DataError naming it: numbers are finite JSON
    numbers, and no prediction can leave the float range."""
    try:
        if doc["kind"] != "boosted-trees":
            raise _malformed(f"kind {reprlib.repr(doc['kind'])} is not boosted-trees")
        names = doc["feature_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise _malformed("feature_names must be a list of distinct strings")
        if not isinstance(doc["trees"], list):
            raise _malformed(f"trees must be a list, got {reprlib.repr(doc['trees'])}")
        base_score = _finite("base_score", doc["base_score"])
        learning_rate = _finite("learning_rate", doc["learning_rate"])
        if not 0.0 < learning_rate <= 1.0:
            raise _malformed(f"learning_rate must be in (0, 1], got {learning_rate}")
        lambda_ = _finite("lambda", doc["lambda"])
        gamma = _finite("gamma", doc["gamma"])
        for field, value in (("lambda", lambda_), ("gamma", gamma)):
            if value < 0:
                raise _malformed(f"{field} must be >= 0, got {value}")
        # A prediction adds learning_rate * weight per tree to base_score, so
        # its magnitude is at most this bound, summed in the same order (float
        # rounding is monotonic): a finite bound means finite predictions.
        trees, bound = [], abs(base_score)
        for doc_tree in doc["trees"]:
            tree, peak = _node_from_dict(doc_tree, len(names))
            trees.append(tree)
            bound += learning_rate * peak
        if not math.isfinite(bound):
            raise _malformed("base_score and leaf weights can add up past the float range")
        return Ensemble(
            base_score=base_score,
            learning_rate=learning_rate,
            trees=tuple(trees),
            feature_names=tuple(names),
            lambda_=lambda_,
            gamma=gamma,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(str(exc)) from exc


def dumps(model: Ensemble) -> str:
    """The ``model.json`` text: sorted keys, one-space indent, final newline."""
    return json.dumps(to_dict(model), sort_keys=True, indent=1) + "\n"


def load(path) -> Ensemble:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    return from_dict(doc)
