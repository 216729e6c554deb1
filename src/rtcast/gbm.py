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
Chen & Guestrin 2016, sections 3.1 and 4.1). ``train`` sorts every column
once per run, stably, into a ``(features + 1) x rows`` index array whose last
row is the row indices in ascending order, and copies that block into one
working buffer before each tree: the rows never change between rounds. A
node is a slice of the block; a split partitions the slice stably in place,
left rows first, so the children are adjacent slices and no node sorts
again. A stable partition of a stable sort orders each node exactly as a
stable sort of the node's own ascending rows would, so the gradient sums,
gains and trees are the same bit for bit as sorting per node.

Hessians are counted: a node's hessian sum is its row count and the left
sums at the cuts are ``cut + 1``. One shortcut skips work without changing a
bit: a feature whose values are all equal in a node has no cut there, nor in
any descendant, so a node passes its children only the features that still
have a cut: only their block rows (and the ascending row; only that row when
the children are leaves) are searched and partitioned below it.
Each leaf writes its weight into the rows of its slice, which is the tree's
output on its training rows.

Every prediction reads one compiled form of the ensemble, built on first
use: flat arrays over the nodes of all trees, numbered breadth first, node 0
a leaf holding the base score and nodes 1..T the tree roots. Node ``i`` owns
slots ``2i`` and ``2i + 1``; both hold its feature, threshold and value
(``learning_rate * weight`` on a leaf, 0 on a branch), and ``child`` holds
the first slot of its left child at ``2i`` and of its right child at
``2i + 1``. A row at slot ``s`` steps to ``child[s + (x[feature[s]] >=
threshold[s])]``: left when ``x < threshold``. A leaf is its own child, so
after ``depth`` steps for all trees at once each tree is on its leaf.
``_leaves`` is that one walk: it steps one row, or a chunk of rows as their
row-major values, each root reading its row at an offset, and returns the
leaf values. ``np.cumsum`` along the trees then adds them to the base score
one tree at a time in tree order, the float additions of ``train``: a row
gives the same float in any batch, and every stage of
``staged_predictions`` is exact. ``predict_batch`` walks ``ROW_CHUNK`` rows
at a time, so its arrays stay ``ROW_CHUNK x (T + 1)``.

``predict_sweep`` reads the same walk with other roots. Swept over a grid, a
feature ``j`` reaches a tree only at its branches on ``j``, so a tree's leaf
for a row depends on the grid value ``v`` only through its bucket: the
number of the tree's ``j`` thresholds ``<= v``. Each distinct (tree, bucket)
pair becomes one root, walked on the row copy of its first grid value,
which it reads through its offset; each grid value gathers its pairs'
leaves in tree order, and the same ``cumsum`` gives the same floats as
``predict_batch`` on the swept rows.

``predict_coalitions`` is the third reader of the walk. The coalition rows of
an instance against a background differ only in which of the two values each
feature takes, and a tree tells them apart only at its branches where the two
fall on different sides of the threshold. Each tree is walked once per key,
a subset of the features of those branches, on the key's coalition row; each
coalition then adds its keys' leaves to the base score one tree at a time, the
additions of the ``cumsum``.
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

from .errors import ConfigError, DataError, NumericError, ToolkitError, float_range
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
        """The nodes numbered breadth first, without recursion, so any depth
        compiles."""
        nodes = [None, *self.trees]
        level = [0] * len(nodes)
        tree = [-1, *range(len(self.trees))]
        feature, threshold, child, value = [0], [math.inf], [0, 0], [self.base_score]
        i = 1
        while i < len(nodes):
            node = nodes[i]
            if node.is_leaf:
                feature.append(0)
                threshold.append(math.inf)
                child += (2 * i, 2 * i)
                value.append(self.learning_rate * node.weight)
            else:
                feature.append(node.feature_index)
                threshold.append(node.threshold)
                child += (2 * len(nodes), 2 * len(nodes) + 2)
                value.append(0.0)
                nodes += (node.left, node.right)
                level += (level[i] + 1,) * 2
                tree += (tree[i],) * 2
            i += 1
        return _FlatEnsemble(
            feature=np.repeat(np.array(feature, dtype=np.intp), 2),
            threshold=np.repeat(threshold, 2),
            child=np.array(child, dtype=np.intp),
            value=np.repeat(value, 2),
            roots=np.arange(0, 2 * len(self.trees) + 2, 2),
            # At least one step: it spreads the roots to one row of slots per row.
            depth=max(1, max(level)),
            tree=np.array(tree, dtype=np.intp),
        )

    def predict_row(self, row) -> float:
        x = np.asarray(row, dtype=np.float64)
        if x.shape != (len(self.feature_names),):
            raise ConfigError(
                f"row has {x.shape} values, model expects {len(self.feature_names)}"
            )
        if not np.isfinite(x).all():
            check_finite(x[None], self.feature_names)
        return float(np.cumsum(_leaves(self._flat, x))[-1])

    def predict_batch(self, rows) -> np.ndarray:
        return _read(self, rows, stages=False)


#: Rows per chunk. Of 64..4096 on 1-10k rows, 256 and 512 were the fastest and
#: tied within noise; 256 holds half the memory.
ROW_CHUNK = 256


class _FlatEnsemble(NamedTuple):
    """An ensemble's nodes in flat arrays, by slot (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray  # what a leaf adds to the prediction; 0 on a branch
    roots: np.ndarray
    depth: int
    tree: np.ndarray  # the tree of each node, by node; -1 for the base score


def _leaves(flat: _FlatEnsemble, x: np.ndarray, offset=None) -> np.ndarray:
    """Walk from every root for one row, or for a chunk of rows (``x`` its
    row-major values, ``offset`` the start of the row each root reads).
    Returns the values of the leaves reached, ``[..., k]`` for root ``k``."""
    slot = flat.roots
    for _ in range(flat.depth):
        at = flat.feature[slot]  # one row skips the add, a quarter of its walk time
        at = at if offset is None else at + offset
        slot = flat.child[slot + (x[at] >= flat.threshold[slot])]
    return flat.value[slot]


def _matrix(model: Ensemble, rows) -> np.ndarray:
    x = np.asarray(rows, dtype=np.float64)
    _check_width(model, x.shape)
    return x


def _check_width(model: Ensemble, shape: tuple) -> None:
    width = len(model.feature_names)
    if len(shape) != 2 or shape[1] != width:
        raise ConfigError(f"rows have shape {shape}, model expects width {width}")


def _read(model: Ensemble, rows, stages: bool) -> np.ndarray:
    """Predictions for a row matrix, summed ``ROW_CHUNK`` rows at a time: the
    final ones, or with ``stages`` a ``(T + 1, rows)`` array, after 0..T trees."""
    x = _matrix(model, rows)
    width = x.shape[1]
    check_finite(x, model.feature_names)
    flat = model._flat
    out = np.empty((len(flat.roots), len(x)) if stages else len(x))
    keep = slice(None) if stages else -1
    offset = np.arange(min(ROW_CHUNK, len(x)))[:, None] * width
    for lo in range(0, len(x), ROW_CHUNK):
        hi = min(lo + ROW_CHUNK, len(x))
        leaves = _leaves(flat, x[lo:hi].ravel(), offset[:hi - lo])
        out[..., lo:hi] = np.cumsum(leaves, axis=-1).T[keep]
    return out


def predict_sweep(model: Ensemble, rows, j: int, grid) -> np.ndarray:
    """Predictions as feature ``j`` sweeps ``grid``: row ``g`` of the
    ``(G, rows)`` result is, bit for bit, ``model.predict_batch(rows)`` with
    column ``j`` set to ``grid[g]``, and a non-finite cell raises the error
    that call raises on the first grid value it fails for.

    A tree reads the swept value only at its branches on ``j``, and two grid
    values with the same bucket, the count of those branch thresholds
    ``<= v``, take the same side at each of them. So each distinct
    (tree, bucket) pair, a root of the walk, is walked once, on the row copy
    of its first grid value, and each grid value gathers its pairs' leaves
    in tree order for the sums of ``predict_batch``.
    """
    x = _matrix(model, rows)
    width = x.shape[1]
    if not 0 <= j < width:
        raise ConfigError(f"feature index {j} outside 0..{width - 1}")
    grid = np.asarray(grid, dtype=np.float64)
    n_grid = len(grid)
    if n_grid == 0:
        return np.empty((0, len(x)))
    others = np.isfinite(x)
    others[:, j] = True
    bad = np.flatnonzero(~np.isfinite(grid))
    if not others.all() or len(bad):
        swept = x.copy()
        swept[:, j] = grid[0 if not others.all() else bad[0]]
        check_finite(swept, model.feature_names)
    del others
    flat = model._flat
    n_trees = len(flat.roots) - 1
    # By node. Leaves hold feature 0 and an infinite threshold; branches never do.
    feature, threshold = flat.feature[::2], flat.threshold[::2]
    on_j = (feature == j) & np.isfinite(threshold)
    bucket = np.zeros((n_trees, n_grid), dtype=np.intp)
    np.add.at(bucket, flat.tree[on_j], threshold[on_j][:, None] <= grid)
    # A tree may branch on j several times at one threshold, so a bucket can
    # reach the tree's count of j branches, not only the grid size.
    keys = np.arange(n_trees)[:, None] * (np.count_nonzero(on_j) + 1) + bucket
    _, first, pair = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    pair_tree, pair_grid = np.divmod(first, n_grid)
    pairs = flat._replace(roots=np.concatenate(([0], flat.roots[1 + pair_tree])))
    # Column 0 is the base score; then each grid value's pair for every tree.
    gather = np.zeros((n_grid, n_trees + 1), dtype=np.intp)
    gather[:, 1:] = 1 + pair.reshape(n_trees, n_grid).T
    # No chunk temporary exceeds ROW_CHUNK x (T + 1) values: the (rows, G, T + 1)
    # gather is the largest, as there are at most T x G pairs.
    step = max(1, ROW_CHUNK // n_grid)
    copies = np.empty((step, n_grid, width))
    offset = (np.arange(step)[:, None] * n_grid + np.concatenate(([0], pair_grid))) * width
    out = np.empty((n_grid, len(x)))
    for lo in range(0, len(x), step):
        hi = min(lo + step, len(x))
        chunk = copies[:hi - lo]
        chunk[...] = x[lo:hi, None]
        chunk[..., j] = grid
        sums = _leaves(pairs, chunk.ravel(), offset[:hi - lo])[:, gather]
        out[:, lo:hi] = np.cumsum(sums, axis=-1, out=sums)[..., -1].T
    return out


def predict_coalitions(model: Ensemble, instance, background) -> np.ndarray:
    """The value of every coalition of ``instance`` against ``background``:
    ``v[S]``, for ``S = 0 .. 2^N - 1``, is bit for bit
    ``model.predict_batch(rows)[S]`` where row ``S`` takes feature ``f`` from
    ``instance`` when bit ``f`` of ``S`` is set and from ``background``
    otherwise, and bad input raises the error that call raises.

    A branch tells coalitions apart only when the instance and the background
    fall on different sides of its threshold, so tree ``t`` reads ``S`` only
    through ``D_t``, the features of such branches: its leaf for ``S`` is its
    leaf for the key ``S & D_t``. Each (tree, key) pair, a root of the walk,
    is walked once on the coalition row of its key, in chunks whose arrays
    stay within the ``ROW_CHUNK x (T + 1)`` values of a ``predict_batch``
    chunk. Tree by tree, its leaves then fill one ``2^N`` lookup by key, and
    every coalition adds its leaf to the base score in tree order, the sums
    of ``predict_batch``.
    """
    x = np.asarray(instance, dtype=np.float64)
    b = np.asarray(background, dtype=np.float64)
    if x.ndim != 1 or x.shape != b.shape:
        raise ConfigError("instance and background must be equal-length vectors")
    n = len(x)
    _check_width(model, (1 << n, n))
    # Row 0 is the background; the instance's first non-finite feature f is
    # first read in row 2^f, the coalition {f}.
    check_finite(b[None], model.feature_names)
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        f = int(bad[0])
        raise DataError(f"non-finite value in column {model.feature_names[f]!r} at row {1 << f}")
    flat = model._flat
    n_trees = len(flat.roots) - 1
    # By node. A leaf's threshold is infinite, above both x and b.
    feature, threshold = flat.feature[::2], flat.threshold[::2]
    apart = (x[feature] >= threshold) != (b[feature] >= threshold)
    in_key = np.zeros((n_trees, n), dtype=bool)
    in_key[flat.tree[apart], feature[apart]] = True
    bits = 1 << np.arange(n)
    # Tree t owns pairs start[t] .. end[t] - 1, one per subset of D_t. Pair
    # k of the tree holds feature f of D_t when bit rank[t, f] of k is set,
    # rank[t, f] being the number of D_t's features below f.
    rank = np.cumsum(in_key, axis=1) - in_key
    count = 1 << in_key.sum(axis=1)
    end = np.cumsum(count)
    start = end - count
    tree_key, start_at, end_at = (in_key @ bits).tolist(), start.tolist(), end.tolist()
    n_pairs = end_at[-1] if n_trees else 0
    # No chunk temporary exceeds ROW_CHUNK x (T + 1) values: the (pairs, N)
    # member and row arrays are the largest.
    step = max(1, ROW_CHUNK * (n_trees + 1) // max(1, n))
    masks = np.arange(1 << n)
    values = np.full(1 << n, model.base_score)
    lookup, leaf = np.empty(1 << n), np.empty(1 << n)
    key = np.empty_like(masks)
    for lo in range(0, n_pairs, step):
        hi = min(lo + step, n_pairs)
        pair = np.arange(lo, hi)
        tree = np.searchsorted(end, pair, side="right")
        member = in_key[tree] & (((pair - start[tree])[:, None] >> rank[tree]) & 1).astype(bool)
        walk = flat._replace(roots=flat.roots[1 + tree])
        leaves = _leaves(walk, np.where(member, x, b).ravel(), np.arange(hi - lo) * n)
        keys = member @ bits
        # A tree is added once its last pair is walked.
        for t in range(int(tree[0]), int(tree[-1]) + 1):
            first, last = max(start_at[t], lo) - lo, min(end_at[t], hi) - lo
            lookup[keys[first:last]] = leaves[first:last]
            if end_at[t] <= hi:
                # Keys are in range; "clip" reads them unbuffered into ``leaf``.
                np.bitwise_and(masks, tree_key[t], out=key)
                values += lookup.take(key, out=leaf, mode="clip")
    return values


def _best_split(cols, g, node, live, lambda_, gamma):
    """Exact greedy search over all (feature, midpoint-threshold) candidates.

    ``node`` is the node's slice of the column block: row ``f`` holds the
    node's row indices sorted by feature ``f``, the last row holds them in
    ascending order. Only the features in ``live`` (ascending) are searched,
    and every hessian is 1. Gains are evaluated only where consecutive
    sorted values differ. Returns ``(split, cuttable)``: the
    (gain, feature, threshold) of the best strictly-positive-gain split, or
    None, and the features of ``live`` that have a cut here. Ties keep the
    lowest feature index, then (via argmax over ascending thresholds) the
    lowest threshold.
    """
    idx = node[-1]
    g_sum = float(g[idx].sum())
    h_sum = float(len(idx))
    parent = g_sum * g_sum / (h_sum + lambda_)
    best = None
    cuttable = []
    for f in live:
        order = node[f]
        xs = cols[f][order]
        cut = np.flatnonzero(xs[:-1] != xs[1:])
        if len(cut) == 0:
            continue
        cuttable.append(f)
        gl = np.cumsum(g[order])[cut]
        hl = cut + 1.0
        gr = g_sum - gl
        hr = h_sum - hl
        gains = 0.5 * (gl * gl / (hl + lambda_) + gr * gr / (hr + lambda_) - parent) - gamma
        k = int(np.argmax(gains))
        if best is None or gains[k] > best[0]:
            j = cut[k]
            best = (float(gains[k]), f, float((xs[j] + xs[j + 1]) / 2.0))
    if best is None or best[0] <= 0.0:
        return None, cuttable
    return best, cuttable


def _partition(order, left, n_left):
    """Partition ``order`` in place, rows where ``left`` first. Boolean
    indexing keeps order, so the partition is stable."""
    lefts = order[left]
    order[n_left:] = order[~left]
    order[:n_left] = lefts


def _grow(cols, grad, block, lo, hi, live, depth, max_depth, lambda_, gamma,
          goes_left, out):
    """Grow the subtree of the block slice ``[lo, hi)``, partitioning it in
    place; ``live`` lists the features that may still have a cut there."""
    node = block[:, lo:hi]
    idx = node[-1]
    split = None
    if depth < max_depth:
        split, live = _best_split(cols, grad, node, live, lambda_, gamma)
    if split is None:
        w = -float(grad[idx].sum()) / (float(len(idx)) + lambda_)
        out[idx] = w
        return TreeNode(weight=w)
    gain, f, thr = split
    left = cols[f][idx] < thr
    n_left = int(np.count_nonzero(left))
    # Leaf children read only the ascending row; others also read the rows of
    # the features that still have a cut.
    if depth + 1 < max_depth:
        goes_left[idx] = left
        for k in live:
            _partition(node[k], goes_left[node[k]], n_left)
    _partition(idx, left, n_left)
    del left  # free this level's temporaries before recursing
    return TreeNode(
        feature_index=f,
        threshold=thr,
        left=_grow(cols, grad, block, lo, lo + n_left, live, depth + 1, max_depth,
                   lambda_, gamma, goes_left, out),
        right=_grow(cols, grad, block, lo + n_left, hi, live, depth + 1, max_depth,
                    lambda_, gamma, goes_left, out),
        gain=gain,
    )


def _sort_block(rows) -> tuple:
    """The rows' contiguous columns and their sorted column block."""
    cols = np.ascontiguousarray(np.asarray(rows, dtype=np.float64).T)
    d, n = cols.shape
    block = np.empty((d + 1, n), dtype=np.intp)
    for f, col in enumerate(cols):
        block[f] = np.argsort(col, kind="stable")
    block[d] = np.arange(n)
    return cols, block


def grow_tree(rows, grad, max_depth: int, lambda_: float, gamma: float,
              out=None, presorted=None) -> TreeNode:
    """Grow one squared-loss regression tree (every hessian 1) on a gradient.

    Shared by boosting rounds and by the tree surrogate (which passes
    ``grad = -targets, lambda_ = 0`` to get a CART-style variance-reduction
    tree). A given ``out`` receives the tree's output on ``rows``, each row's
    leaf weight, with no walk of the tree. ``train`` passes ``presorted``, the
    triple ``(cols, start, work)`` of ``_sort_block(rows)`` and a working
    block of the same shape, which this tree copies ``start`` into and
    partitions.
    """
    if presorted is None:
        cols, block = _sort_block(rows)
    else:
        cols, start, block = presorted
        block[...] = start
    grad = np.asarray(grad, dtype=np.float64)
    n = block.shape[1]
    return _grow(cols, grad, block, 0, n, range(len(cols)), 0, max_depth, lambda_, gamma,
                 np.zeros(n, dtype=bool), np.empty(n) if out is None else out)


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
    with float_range("training arithmetic"):
        base = float(y.mean())
        pred = np.full(len(y), base)
        fitted = np.empty(len(y))
        cols, start = _sort_block(X.rows)
        presorted = (cols, start, np.empty_like(start))
        for _ in range(params.n_trees):
            # Keywords: perfbench's tracer reads max_depth by name or 4th position.
            tree = grow_tree(X.rows, pred - y, max_depth=params.max_depth,
                             lambda_=params.lambda_, gamma=params.gamma,
                             out=fitted, presorted=presorted)
            pred += params.learning_rate * fitted
            trees.append(tree)
    return Ensemble(
        base_score=base,
        learning_rate=params.learning_rate,
        trees=tuple(trees),
        feature_names=X.feature_names,
        lambda_=params.lambda_,
        gamma=params.gamma,
    )


def staged_predictions(model: Ensemble, rows) -> np.ndarray:
    """Predictions after 0, 1, ..., len(trees) trees: row ``k`` of a
    ``(T + 1, rows)`` array holds those after ``k`` trees."""
    return _read(model, rows, stages=True)


def grid_search(X_train: FeatureMatrix, X_val: FeatureMatrix, grid: HyperparamGrid):
    """Exhaustive hyperparameter search scored by validation MAE.

    Returns ``(best, model, table)`` where ``table`` is a list of
    ``(Hyperparams, MetricReport)`` in grid order (duplicates removed),
    ``best`` minimizes validation MAE with ties broken by fewer trees, then
    smaller depth, then first-encountered, and ``model`` is ``best`` trained
    on ``X_train``.

    Combinations differing only in tree count share one training run: boosting
    is sequential, so the first k trees of a longer run are identical to a
    k-tree run, and the winner's model is the first ``best.n_trees`` trees of
    its run. Only the current winner's run is kept.
    """
    combos = grid.combos()
    if not combos:
        raise ConfigError("empty hyperparameter grid")

    groups = {}
    for pos, p in enumerate(combos):
        key = replace(p, n_trees=0)
        groups.setdefault(key, []).append((pos, p))

    table: list = [None] * len(combos)
    best = None  # (rank, params, model)
    for key, members in groups.items():
        run = replace(key, n_trees=max(p.n_trees for _, p in members))
        try:
            model = train(X_train, run)
        except ToolkitError as exc:
            raise type(exc)(f"grid combination {run}: {exc}") from exc
        # Keep only the scored stages; the full (T + 1) x rows array goes now.
        scored = staged_predictions(model, X_val.rows)[[p.n_trees for _, p in members]]
        for (pos, p), pred in zip(members, scored):
            report = metrics(X_val.target, pred)
            table[pos] = (p, report)
            rank = (report.mae, p.n_trees, p.max_depth, pos)
            if best is None or rank < best[0]:
                best = (rank, p, replace(model, trees=model.trees[:p.n_trees]))
    _, params, model = best
    return params, model, table


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
