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
sums at the cuts are ``cut + 1``. Each live feature scans its block row for
its cuts and its gradient prefix sums up to its last cut; the node then
scores every feature's cuts in one gain evaluation over their feature-major
concatenation, the formula's operations in the same order, and the first
maximum of one ``argmax`` is the tie rule above. One shortcut skips work
without changing a bit: a feature whose values are all equal in a node has
no cut there, nor in any descendant, so a node passes its children only the
features that still have a cut: only their block rows (and the ascending
row; only that row when the children are leaves) are searched and
partitioned below it.
Each leaf writes its weight into the rows of its slice, which is the tree's
output on its training rows.

``train`` shares each tree with one forked worker process when the set has
at least ``PARALLEL_ROWS`` rows, ``max_depth > 1``, ``os.fork`` exists and
the process may run on two CPUs or more (its affinity mask, capped by a
cgroup v2 CPU quota). The working block, the gradient and
the fitted values live in anonymous shared memory (``mmap``); the sorted
block and the columns are only read, and the fork shares them too. A job is
a subtree to grow, ``(lo, hi, live, depth)``, and ``_weight`` estimates its
work; the worker adds the weight of each job it finishes to a shared
counter. The parent holds the whole tree as one job. Before each of its
jobs, it compares the work it holds with the work the worker has left (sent
and not yet finished). While it holds more, it grows the root of its
heaviest job and sends the lighter child to the worker, if the worker then
still has less; when it holds no more, it grows the job whole. Then it reads
the worker's subtrees back in one reply, as model document nodes. A subtree
touches only its block slice ``[lo, hi)`` and its own rows of the fitted
values, and each process has its own ``goes_left``, so every node is the
same code on the same data in either process: the trees are the same bit
for bit as growing alone, whichever process grows which node. An exception in the
worker, such as a ``FloatingPointError``, is pickled back and raised in the
parent. On that error, or when the worker is lost, the parent grows the tree
again alone, so the error raised is the one that growing alone meets first.
The worker leaves by ``os._exit`` on the stop message, or at the end of its
pipe if the parent dies; ``train`` stops it and waits for it in a
``finally``. The tree surrogate, small sets, depth-1 trees, one CPU and a
platform without ``fork`` grow alone.

Every prediction reads one compiled form of the ensemble, built on first
use: flat arrays over the nodes of all trees, numbered breadth first, node 0
a leaf holding the base score and nodes 1..T the tree roots. Node ``i`` has
one entry in each: its feature, threshold and value (``learning_rate *
weight`` on a leaf, 0 on a branch), and ``first``, the number of its left
child; its right child is ``first + 1``. A row at node ``i`` steps to
``first[i] + (x[feature[i]] >= threshold[i])``: left when
``x < threshold``. A leaf is its own ``first`` and has an infinite
threshold, so it never steps right, and after ``depth`` steps for all trees
at once each tree is on its leaf.
``_leaves`` is that one walk: it steps one row, or a chunk of rows as their
row-major values, each root reading its row at an offset, and returns the
leaf values.

When every tree has at most 64 leaves (every tree of depth 6 or less),
``predict_batch``, ``staged_predictions`` and ``predict_sweep`` read leaf
bitmasks instead of walking (QuickScorer, Lucchese et al., SIGIR 2015).
Each tree's leaves are numbered left to right, one bit each of a uint64. A
branch that sends a row right clears the bits of its left subtree's leaves,
and the leaf the walk reaches is the lowest bit that no branch clears. A
feature with ``K`` distinct thresholds has ``K + 1`` buckets and a
``(K + 1, T)`` prefix AND: row ``b`` holds, for each tree, the bits left by
the tree's branches at the ``b`` lowest thresholds, so row 0 is all ones
and a value's row is its bucket, ``searchsorted(thresholds, x, "right")``.
Features are packed, fewest buckets first, into joint tables, built on
first use, while the product of their bucket counts stays within
``JOINT_ROWS``; a joint table's row ``sum_f stride_f * b_f`` is the AND of
its features' rows ``b_f``. A read computes each row's code in each table
once per call, over all rows; each chunk of rows is then one gather and one
AND per table, and each tree's exit leaf one lookup. A feature read as code
0 in its table is left out, which gives a sweep the mask "without ``j``"
from the same table. ``predict_row`` (one row walks as fast),
``predict_coalitions`` and every model with a larger tree keep the walk.

Either way a chunk's leaf values form a tree-major ``(T + 1, rows)`` block,
the base score first, and one ``np.add.reduce`` over the tree axis adds
them to the base score one tree at a time in tree order, the float
additions of ``train``. numpy adds row by row only when the reduced axis is
not the fast axis: a one-column block leaves it no other axis, and numpy
would sum it pairwise, so such a block takes ``np.cumsum``, which adds in
order in any layout. A row gives the same float in any batch and on either
path, and every stage of ``staged_predictions``, the block's ``cumsum``, is
exact. ``predict_batch`` reads ``ROW_CHUNK`` rows at a time, so its arrays
stay ``ROW_CHUNK x (T + 1)``.

``predict_sweep`` reads a feature ``j`` swept over a grid. A tree reads
``j`` only at its branches on ``j``, so its leaf for a row depends on the
grid value ``v`` only through its bucket: the number of the tree's ``j``
thresholds ``<= v``. Each row reads each distinct (tree, bucket) pair once:
its mask without ``j`` ANDed with the pair's row of the ``j`` table, or, on
the walk, the pair's root walked on the row copy of the pair's first grid
value. A ``(T, G)`` pair map names each tree's pair at each grid value; one
gather through it builds a tree-major block of grid values and rows behind
the base score, which the same guarded reduce adds up.

``predict_coalitions`` reads the walk as well. The coalition rows of
an instance against a background differ only in which of the two values each
feature takes, and a tree tells them apart only at its branches where the two
fall on different sides of the threshold. Each tree is walked once per key,
a subset of the features of those branches, on the key's coalition row; each
coalition then adds its keys' leaves to the base score one tree at a time, the
additions of the ``cumsum``.
"""
from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import pickle
import reprlib
import signal
import warnings
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
    def _masks(self) -> "_Masks | None":
        """The leaf-bitmask tables, or None when a tree has more than 64 leaves."""
        return _compile_masks(self._flat, len(self.trees))

    @cached_property
    def _flat(self) -> "_FlatEnsemble":
        """The nodes numbered breadth first, without recursion, so any depth
        compiles."""
        nodes = [None, *self.trees]
        level = [0] * len(nodes)
        tree = [-1, *range(len(self.trees))]
        feature, threshold, first, value = [0], [math.inf], [0], [self.base_score]
        i = 1
        while i < len(nodes):
            node = nodes[i]
            if node.is_leaf:
                feature.append(0)
                threshold.append(math.inf)
                first.append(i)
                value.append(self.learning_rate * node.weight)
            else:
                feature.append(node.feature_index)
                threshold.append(node.threshold)
                first.append(len(nodes))
                value.append(0.0)
                nodes += (node.left, node.right)
                level += (level[i] + 1,) * 2
                tree += (tree[i],) * 2
            i += 1
        return _FlatEnsemble(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold),
            first=np.array(first, dtype=np.intp),
            value=np.array(value),
            roots=np.arange(len(self.trees) + 1),
            # At least one step: it spreads the roots to one row of nodes per row.
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
    """An ensemble's nodes in flat arrays, one entry each (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    first: np.ndarray  # the left child; the right child is first + 1
    value: np.ndarray  # what a leaf adds to the prediction; 0 on a branch
    roots: np.ndarray
    depth: int
    tree: np.ndarray  # the tree of each node; -1 for the base score


def _leaves(flat: _FlatEnsemble, x: np.ndarray, offset=None) -> np.ndarray:
    """Walk from every root for one row, or for a chunk of rows (``x`` its
    row-major values, ``offset`` the start of the row each root reads).
    Returns the values of the leaves reached, ``[..., k]`` for root ``k``."""
    node = flat.roots
    for _ in range(flat.depth):
        at = flat.feature[node]  # one row skips the add, a quarter of its walk time
        at = at if offset is None else at + offset
        node = flat.first[node] + (x[at] >= flat.threshold[node])
    return flat.value[node]


#: A mask with every leaf set. The mask arithmetic stays in uint64 arrays and
#: constants, so no promotion rule (numpy 1.x or NEP 50) changes its type.
_ALL = ~np.uint64(0)
_ONE = np.uint64(1)


class _Masks(NamedTuple):
    """Leaf-bitmask tables of an ensemble whose trees have at most 64 leaves
    (see the module docstring)."""

    joints: tuple  # the joint tables, a _Joint each
    leaf: np.ndarray  # leaf values: tree t's leaf k, counted from the left, at 64 t + k
    offset: np.ndarray  # 64 t - 1023 for tree t: see _exits


class _Joint(NamedTuple):
    """One table over a group of features: its row ``sum_f stride_f * b_f`` is
    the AND of each feature's table row ``b_f``."""

    features: tuple
    thresholds: tuple  # each feature's distinct thresholds, ascending
    strides: tuple  # each feature's code step: the bucket counts before it, multiplied
    table: np.ndarray  # (product of the bucket counts, T) uint64


#: Rows of a joint table at most: features are packed into one table while the
#: product of their bucket counts stays within it. A table of 1,024 rows holds
#: 800 KB at 100 trees. On the seed-1 120-day model it packs ten features into
#: five tables, as 4,096 does; one table fewer would take 16,896 rows.
JOINT_ROWS = 1024


def _compile_masks(flat: _FlatEnsemble, n_trees: int) -> "_Masks | None":
    """The tables of ``flat``'s trees, or None when one has more than 64 leaves."""
    is_leaf = np.isinf(flat.threshold)
    is_leaf[0] = False  # node 0 holds the base score
    if np.bincount(flat.tree[is_leaf], minlength=n_trees).max(initial=0) > 64:
        return None
    branch = ~np.isinf(flat.threshold)
    left = flat.first[branch]
    # Leaves under each node, then the number of the leftmost one within its
    # tree; each pass settles one more level.
    count = is_leaf.astype(np.intp)
    for _ in range(flat.depth):
        count[branch] = count[left] + count[left + 1]
    lo = np.zeros_like(count)
    for _ in range(flat.depth):
        lo[left] = lo[branch]
        lo[left + 1] = lo[branch] + count[left]
    # A branch the row sends right clears its left subtree's leaves: at most
    # 63 bits, below bit 64.
    width = count[left].astype(np.uint64)
    clear = ~(((_ONE << width) - _ONE) << lo[branch].astype(np.uint64))
    tree, feature, threshold = flat.tree[branch], flat.feature[branch], flat.threshold[branch]
    tables = {}
    for f in np.unique(feature).tolist():
        on = feature == f
        thresholds, rank = np.unique(threshold[on], return_inverse=True)
        table = np.full((len(thresholds) + 1, n_trees), _ALL, dtype=np.uint64)
        np.bitwise_and.at(table, (rank + 1, tree[on]), clear[on])
        # Row k: the bits left by the branches at the k lowest thresholds.
        tables[f] = (thresholds, np.bitwise_and.accumulate(table, axis=0))
    # Fewest buckets first, each feature joins the last group while the
    # group's table stays within JOINT_ROWS rows.
    groups, rows = [], 0
    for f in sorted(tables, key=lambda f: len(tables[f][1])):
        buckets = len(tables[f][1])
        if groups and rows * buckets <= JOINT_ROWS:
            groups[-1].append(f)
            rows *= buckets
        else:
            groups.append([f])
            rows = buckets
    joints = tuple(_joint(group, tables) for group in groups)
    leaf = np.zeros(64 * n_trees)
    leaf[64 * flat.tree[is_leaf] + lo[is_leaf]] = flat.value[is_leaf]
    return _Masks(joints, leaf, 64 * np.arange(n_trees) - 1023)


def _joint(group: list, tables: dict) -> _Joint:
    """The joint table of the features ``group``, built from and replacing
    their own ``tables``."""
    thresholds, table = tables.pop(group[0])
    joint = _Joint((group[0],), (thresholds,), (1,), table)
    for f in group[1:]:
        thresholds, own = tables.pop(f)
        # The new feature's bucket is the slow index: row b * stride + code.
        table = (own[:, None] & joint.table).reshape(-1, own.shape[1])
        joint = _Joint((*joint.features, f), (*joint.thresholds, thresholds),
                       (*joint.strides, len(joint.table)), table)
    return joint


def _codes(masks: _Masks, x: np.ndarray, skip: int = -1) -> np.ndarray:
    """``(joints, rows)``: each joint table's row for each row of ``x``, with
    feature ``skip`` read as bucket 0, whose table row is all ones."""
    codes = np.zeros((len(masks.joints), len(x)), dtype=np.intp)
    for code, joint in zip(codes, masks.joints):
        for f, thresholds, stride in zip(joint.features, joint.thresholds, joint.strides):
            if f != skip:
                bucket = np.searchsorted(thresholds, x[:, f], side="right")
                bucket *= stride
                code += bucket
    return codes


def _row_masks(masks: _Masks, codes: np.ndarray) -> np.ndarray:
    """``(rows, T)``: each tree's leaves left by the rows of these ``codes``."""
    if not masks.joints:
        return np.full((codes.shape[1], len(masks.offset)), _ALL, dtype=np.uint64)
    out = masks.joints[0].table.take(codes[0], axis=0)
    for joint, code in zip(masks.joints[1:], codes[1:]):
        out &= joint.table.take(code, axis=0)
    return out


def _exits(masks: _Masks, m: np.ndarray, offset: np.ndarray, out=None) -> np.ndarray:
    """The values of the exit leaves, the lowest set bits of the masks ``m``;
    ``offset`` broadcasts each mask's ``masks.offset`` entry over ``m``."""
    low = np.negative(m)  # ~(m - 1): m's lowest set bit, and every bit above it flipped
    low &= m
    # A power of two 2^k converts to a float exactly; its exponent field is 1023 + k.
    exponent = low.astype(np.float64).view(np.int64)
    exponent >>= 52
    exponent += offset
    # In range, so "clip" writes straight into ``out``.
    return masks.leaf.take(exponent, out=out, mode="clip")


def _tree_values(model: Ensemble, x: np.ndarray, codes) -> np.ndarray:
    """``(T + 1, rows)``, tree-major: the base score, then each tree's leaf
    value, for each row of the matrix ``x``, read through the masks at the
    rows' ``codes`` or, when ``codes`` is None, by the walk."""
    flat = model._flat
    if codes is None:
        walk = flat._replace(roots=flat.roots[:, None])
        return _leaves(walk, x.ravel(), np.arange(len(x)) * x.shape[1])
    masks = model._masks
    out = np.empty((len(flat.roots), len(x)))
    out[0] = model.base_score
    _exits(masks, _row_masks(masks, codes).T, masks.offset[:, None], out=out[1:])
    return out


def _total(block: np.ndarray) -> np.ndarray:
    """The column sums of a C-contiguous ``(T + 1, n)`` block, added row by
    row in tree order: the float additions of the ``cumsum``."""
    if block.shape[1] == 1:
        # numpy sums pairwise along the fast axis, and one column leaves no other.
        return np.cumsum(block, axis=0)[-1]
    return np.add.reduce(block, axis=0)


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
    check_finite(x, model.feature_names)
    out = np.empty((len(model.trees) + 1, len(x)) if stages else len(x))
    codes = None if model._masks is None else _codes(model._masks, x)
    for lo in range(0, len(x), ROW_CHUNK):
        chunk = slice(lo, lo + ROW_CHUNK)
        block = _tree_values(model, x[chunk], None if codes is None else codes[:, chunk])
        if stages:
            np.cumsum(block, axis=0, out=out[:, chunk])
        else:
            out[chunk] = _total(block)
    return out


def predict_sweep(model: Ensemble, rows, j: int, grid) -> np.ndarray:
    """Predictions as feature ``j`` sweeps ``grid``: row ``g`` of the
    ``(G, rows)`` result is, bit for bit, ``model.predict_batch(rows)`` with
    column ``j`` set to ``grid[g]``, and a non-finite cell raises the error
    that call raises on the first grid value it fails for. ``j`` must be an
    integer and ``grid`` a vector.

    A tree reads the swept value only at its branches on ``j``, and two grid
    values with the same bucket, the count of those branch thresholds
    ``<= v``, take the same side at each of them. So each row reads each
    distinct (tree, bucket) pair once (see ``_sweep_pairs``): through the
    tree's mask of the row without ``j``, ANDed with the pair's row of the
    ``j`` table, or, on the walk, from the pair's root on the row copy of its
    first grid value. A block of grid values then gathers each tree's pair
    values through the pair map, behind the base score, and adds them up
    tree by tree, the float additions of the ``cumsum`` of ``predict_batch``.
    """
    x = _matrix(model, rows)
    width = x.shape[1]
    if isinstance(j, (bool, np.bool_)) or not isinstance(j, (int, np.integer)):
        raise ConfigError(f"feature index must be an integer, got {reprlib.repr(j)}")
    if not 0 <= j < width:
        raise ConfigError(f"feature index {j} outside 0..{width - 1}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ConfigError(f"grid must be a vector of values, got shape {grid.shape}")
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
    flat, masks = model._flat, model._masks
    n_trees = len(model.trees)
    order, pair_tree, start, pair_map = _sweep_pairs(flat, j, grid)
    first = order[start]
    if masks is not None:
        codes = _codes(masks, x, skip=j)
        # Each pair's row of the j table: the leaves its bucket leaves; the
        # joint table holds it where the other features take bucket 0.
        own = np.full(len(pair_tree), _ALL, dtype=np.uint64)
        for joint in masks.joints:
            if j in joint.features:
                k = joint.features.index(j)
                bucket = np.searchsorted(joint.thresholds[k], grid[first], side="right")
                own = joint.table[bucket * joint.strides[k], pair_tree]
        offset = masks.offset[pair_tree][:, None]
    else:
        walk = flat._replace(roots=flat.roots[1 + pair_tree])
    # Rows per chunk and grid values per block: the chunk's pair values
    # (P x rows), its blocks (T + 1 x G x rows) and, on the walk, its row
    # copies (rows x G x width) stay within 2 x ROW_CHUNK x (T + 1) values.
    budget = 2 * ROW_CHUNK * (n_trees + 1)
    step = max(1, budget // max(len(pair_tree), n_grid * max(width, n_trees + 1)))
    span = budget // ((n_trees + 1) * step)
    out = np.empty((n_grid, len(x)))
    for lo in range(0, len(x), step):
        chunk = x[lo:lo + step]
        if masks is not None:
            m = _row_masks(masks, codes[:, lo:lo + step]).T[pair_tree]
            m &= own[:, None]
            values = _exits(masks, m, offset)
        else:
            copies = np.repeat(chunk[:, None], n_grid, axis=1)
            copies[..., j] = grid
            at = (np.arange(len(chunk))[:, None] * n_grid + first) * width
            values = np.ascontiguousarray(_leaves(walk, copies.ravel(), at).T)
        for g in range(0, n_grid, span):
            pairs = pair_map[:, g:g + span]
            block = np.empty((n_trees + 1, pairs.shape[1], len(chunk)))
            block[0] = model.base_score
            values.take(pairs, axis=0, out=block[1:], mode="clip")
            total = _total(block.reshape(n_trees + 1, -1))
            out[order[g:g + span], lo:lo + step] = total.reshape(-1, len(chunk))
    return out


def _sweep_pairs(flat: _FlatEnsemble, j: int, grid: np.ndarray) -> tuple:
    """The distinct (tree, bucket) pairs of a sweep of feature ``j`` over
    ``grid``, tree by tree: ``(order, tree, start, pair_map)``, where
    ``grid[order]`` is the grid sorted stably, pair ``p`` is tree
    ``tree[p]``'s from sorted value ``start[p]`` on, and ``pair_map[t, s]``
    is tree ``t``'s pair at sorted value ``s``.

    One ``searchsorted`` of the branch thresholds on ``j`` in the sorted
    grid finds where each branch starts sending grid values right; a tree's
    bucket changes only there.
    """
    n_trees, n_grid = len(flat.roots) - 1, len(grid)
    order = np.argsort(grid, kind="stable")
    # Leaves hold feature 0 and an infinite threshold; branches never do.
    on_j = (flat.feature == j) & np.isfinite(flat.threshold)
    cut = np.searchsorted(grid[order], flat.threshold[on_j])
    inside = cut < n_grid
    starts = np.zeros((n_trees, n_grid), dtype=bool)
    starts[:, 0] = True
    starts[flat.tree[on_j][inside], cut[inside]] = True
    at = np.flatnonzero(starts)
    tree, start = np.divmod(at, n_grid)
    # Pair p holds tree[p]'s sorted values up to the next pair's start. The
    # map's type is the smallest unsigned one that numbers every pair.
    length = np.diff(at, append=n_trees * n_grid)
    pairs = np.arange(len(at), dtype=np.min_scalar_type(len(at)))
    pair_map = np.repeat(pairs, length).reshape(n_trees, n_grid)
    return order, tree, start, pair_map


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
    # A leaf's threshold is infinite, above both x and b.
    apart = (x[flat.feature] >= flat.threshold) != (b[flat.feature] >= flat.threshold)
    in_key = np.zeros((n_trees, n), dtype=bool)
    in_key[flat.tree[apart], flat.feature[apart]] = True
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
    and every hessian is 1. The node's gains are evaluated together, only at
    the cuts, where consecutive sorted values differ (with ``lambda_ = 0``,
    ``hr + lambda_`` is 0 at the last row). Returns ``(split, cuttable)``:
    the (gain, feature, threshold) of the best strictly-positive-gain split,
    or None, and the features of ``live`` that have a cut here. Ties keep
    the lowest feature index, then the lowest threshold: the first maximum
    of the gains in feature-major order. The winner's two values are read
    back from the block.
    """
    idx = node[-1]
    g_sum = float(g[idx].sum())
    h_sum = float(len(idx))
    parent = g_sum * g_sum / (h_sum + lambda_)
    cuttable, cuts, lefts = [], [], []
    for f in live:
        order = node[f]
        xs = cols[f][order]
        cut = (xs[:-1] != xs[1:]).nonzero()[0]
        if len(cut):
            cuttable.append(f)
            cuts.append(cut)
            lefts.append(g[order[:cut[-1] + 1]].cumsum()[cut])
    if not cuts:
        return None, cuttable
    cut = np.concatenate(cuts)
    gl = np.concatenate(lefts)
    # The gain 0.5 * (gl^2/(hl+lambda) + gr^2/(hr+lambda) - parent) - gamma,
    # in this order, in place and with the per-feature arrays freed: as one
    # expression its temporaries held ~1.7x the grower's peak memory.
    sizes = [len(c) for c in cuts]
    del cuts, lefts
    gr = g_sum - gl
    hl = cut + 1.0
    hr = h_sum - hl
    gl *= gl
    hl += lambda_
    gl /= hl
    gr *= gr
    hr += lambda_
    gr /= hr
    gl += gr
    gl -= parent
    gl *= 0.5
    gl -= gamma
    k = int(gl.argmax())
    gain = float(gl[k])
    if gain <= 0.0:
        return None, cuttable
    j = int(cut[k])
    for f, size in zip(cuttable, sizes):
        if k < size:
            break
        k -= size
    lo, hi = cols[f][node[f][j:j + 2]]
    return (gain, f, float((lo + hi) / 2.0)), cuttable


def _partition(order, left, n_left):
    """Partition ``order`` in place, rows where ``left`` first. Boolean
    indexing keeps order, so the partition is stable."""
    lefts = order[left]
    order[n_left:] = order[~left]
    order[:n_left] = lefts


def _grow(cols, grad, block, lo, hi, live, depth, max_depth, lambda_, gamma,
          goes_left, out, jobs=None, stop=None):
    """Grow the subtree of the block slice ``[lo, hi)``, partitioning it in
    place; ``live`` lists the features that may still have a cut there. With
    a ``jobs`` list, a node at depth ``stop`` is not grown: its arguments
    ``(lo, hi, live, depth)`` are appended to ``jobs``, and the tree holds the
    job's number in its place."""
    if depth == stop:
        jobs.append((lo, hi, live, depth))
        return len(jobs) - 1
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
                   lambda_, gamma, goes_left, out, jobs, stop),
        right=_grow(cols, grad, block, lo + n_left, hi, live, depth + 1, max_depth,
                    lambda_, gamma, goes_left, out, jobs, stop),
        gain=gain,
    )


#: Training sets of at least this many rows share each tree with a second
#: process (see the module docstring). On 365 synthetic days (2 cores, depth
#: 6), the second process paid for its fork and its messages from ~3,000 rows
#: on: 4,000 rows took 6.2 ms a tree alone and 5.5 ms shared, 2,000 rows 4.4
#: and 4.7 ms.
PARALLEL_ROWS = 4096


#: The cgroup v2 file with this process's CPU quota and period, where one is set.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpus() -> int:
    """The CPUs this process may run on: those of its affinity mask, or of
    the machine, capped by its cgroup's CPU quota in whole CPUs, rounded down."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        n = os.cpu_count() or 1
    try:
        with open(_CPU_MAX, encoding="ascii") as f:
            quota, period = f.read().split()
        n = min(n, int(quota) // int(period))
    except (OSError, ValueError):  # no such file, or no quota ("max")
        pass
    return n


def _two_processes(n_rows: int, params: Hyperparams) -> bool:
    """Whether ``train`` forks a worker to share its trees. Below a depth-1
    tree's root are only leaves, no subtree worth a message: on 31,524 rows
    (365 days, 2 cores, 6 runs a side) a depth-1 tree took 4.2 ms alone and
    4.8 ms shared, a depth-2 tree 8.5 and 8.6 ms (each side faster in 3 of
    6 runs), a depth-3 tree 13.0 and 11.5 ms."""
    return (n_rows >= PARALLEL_ROWS and params.max_depth > 1 and params.n_trees > 0
            and hasattr(os, "fork") and _cpus() >= 2)


def _shared(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory, which a forked child and
    its parent both read and write."""
    count = math.prod(np.atleast_1d(shape).tolist())
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


#: The fixed work of a node, in the units of ``_weight``: the per-call cost
#: of the split search and partition, fitted with the per-row cost to the
#: times of the 1,246 subtrees of 20 depth-6 trees (365 days, 2 cores).
_NODE_WORK = 1850


def _weight(job: tuple, max_depth: int) -> int:
    """A job's expected work: its rows, times its live features plus one (the
    ascending row), times the levels left below it; plus ``_NODE_WORK`` for
    each node it can hold."""
    lo, hi, live, depth = job
    levels = max_depth - depth
    nodes = min((1 << (levels + 1)) - 1, 2 * (hi - lo) - 1)
    return (hi - lo) * (len(live) + 1) * levels + _NODE_WORK * nodes


def _assemble(k: int, parts: dict, split: set) -> TreeNode:
    """The subtree of job ``k``: its grown part, in which a job that was
    split holds the job numbers of its two children."""
    node = parts[k]
    if k in split:
        node.left = _assemble(node.left, parts, split)
        node.right = _assemble(node.right, parts, split)
    return node


def _serve(request_fd: int, reply_fd: int, cols, block, grad, out, done) -> None:
    """The worker's loop: grow the jobs of each request on the shared arrays,
    adding each job's weight to ``done[0]`` as it finishes, and, when a
    request asks for it, reply with the subtrees grown since the last reply
    (``_node_to_dict`` documents), or with the exception that stopped them;
    until a stop message (None) or the end of the pipe."""
    # A Ctrl-C stops the parent, which still reads this worker's reply.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    goes_left = np.zeros(block.shape[1], dtype=bool)
    grown, error = [], None
    with open(request_fd, "rb") as requests, open(reply_fd, "wb") as replies:
        while (request := pickle.load(requests)) is not None:
            (max_depth, lambda_, gamma), jobs, reply = request
            try:
                with np.errstate(over="raise", invalid="raise"):
                    for job in jobs if error is None else ():
                        grown.append(_node_to_dict(_grow(cols, grad, block, *job, max_depth,
                                                         lambda_, gamma, goes_left, out)))
                        done[0] += _weight(job, max_depth)
            except Exception as exc:  # the parent raises it
                error = exc
            if reply:
                pickle.dump(grown if error is None else error, replies)
                replies.flush()
                grown, error = [], None


#: What a broken pipe to the worker raises: the parent then grows the tree alone.
_LOST = (EOFError, OSError, pickle.UnpicklingError)


class _Worker:
    """A forked process that grows the subtrees it is sent, on the working
    block, gradient and ``out`` arrays that it shares with ``train``."""

    def __init__(self, pid: int, requests, replies, done):
        self.pid, self._requests, self._replies = pid, requests, replies
        # The weight of the jobs sent, and of those the worker has finished.
        self._sent, self._done = 0, done

    @classmethod
    def fork(cls, cols, block, grad, out) -> "_Worker | None":
        """Fork the worker on these arrays; None if the fork fails."""
        done = _shared(1, np.int64)
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork in a process with threads
                # may deadlock the child, and importing numpy starts OpenBLAS
                # threads. This child calls no BLAS routine, so it takes none
                # of their locks, and it leaves by os._exit, running no
                # interpreter shutdown. Only this warning is ignored.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            return None
        if pid == 0:
            try:
                os.close(request_w)
                os.close(reply_r)
                _serve(request_r, reply_w, cols, block, grad, out, done)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        return cls(pid, open(request_w, "wb"), open(reply_r, "rb"), done)

    def _send(self, message) -> None:
        pickle.dump(message, self._requests)
        self._requests.flush()

    def grow(self, cols, grad, block, max_depth, lambda_, gamma, out) -> TreeNode:
        """One tree, shared with the worker (see the module docstring)."""
        n = block.shape[1]
        goes_left = np.zeros(n, dtype=bool)
        params = (max_depth, lambda_, gamma)
        jobs = [(0, n, range(len(cols)), 0)]
        weight = [_weight(jobs[0], max_depth)]
        mine, parts, split, sent = [0], {}, set(), []
        held = weight[0]  # the weight of the jobs held here
        try:
            while mine:
                k = mine.pop(0)
                left = self._sent - int(self._done[0])  # the worker's work left
                if held <= left:
                    parts[k] = _grow(cols, grad, block, *jobs[k], max_depth, lambda_, gamma,
                                     goes_left, out)
                    held -= weight[k]
                    continue
                parts[k] = _grow(cols, grad, block, *jobs[k], max_depth, lambda_, gamma,
                                 goes_left, out, jobs, jobs[k][3] + 1)
                held -= weight[k]
                kids = list(range(len(weight), len(jobs)))
                if not kids:  # a leaf
                    continue
                split.add(k)
                weight += [_weight(jobs[j], max_depth) for j in kids]
                held += weight[kids[0]] + weight[kids[1]]
                light = min(kids, key=weight.__getitem__)
                if left + weight[light] < held:
                    self._send((params, [jobs[light]], False))
                    sent.append(light)
                    kids.remove(light)
                    held -= weight[light]
                    self._sent += weight[light]
                mine = sorted(mine + kids, key=weight.__getitem__, reverse=True)
        finally:
            # Always read the reply, so the worker is idle when this returns.
            if sent:
                self._send((params, [], True))
                reply = pickle.load(self._replies)
        if sent:
            if isinstance(reply, Exception):
                raise reply
            parts.update((k, _node_from_dict(doc, len(cols))[0]) for k, doc in zip(sent, reply))
        return _assemble(0, parts, split)

    def close(self) -> None:
        """Stop the worker and wait for it to exit."""
        try:
            self._send(None)
        except OSError:  # the worker has exited already
            pass
        finally:
            with contextlib.suppress(OSError):
                self._requests.close()
            # A worker still writing a reply sees its pipe break, and exits.
            self._replies.close()
            os.waitpid(self.pid, 0)


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
              out=None, presorted=None, worker=None) -> TreeNode:
    """Grow one squared-loss regression tree (every hessian 1) on a gradient.

    Shared by boosting rounds and by the tree surrogate (which passes
    ``grad = -targets, lambda_ = 0`` to get a CART-style variance-reduction
    tree). A given ``out`` receives the tree's output on ``rows``, each row's
    leaf weight, with no walk of the tree. ``train`` passes ``presorted``, the
    triple ``(cols, start, work)`` of ``_sort_block(rows)`` and a working
    block of the same shape, which this tree copies ``start`` into and
    partitions, and may pass a ``_Worker`` forked on ``work``, ``grad`` and
    ``out``, which grows part of the tree. Sums and gains that leave the
    float range raise FloatingPointError.
    """
    if presorted is None:
        cols, block = _sort_block(rows)
    else:
        cols, start, block = presorted
        block[...] = start
    grad = np.asarray(grad, dtype=np.float64)
    n = block.shape[1]
    out = np.empty(n) if out is None else out
    with np.errstate(over="raise", invalid="raise"):
        if worker is not None:
            try:
                return worker.grow(cols, grad, block, max_depth, lambda_, gamma, out)
            except (FloatingPointError, *_LOST):
                # Which error comes first depends on the order of the work,
                # and a lost worker may leave its slices half partitioned:
                # the tree is grown again alone, which raises the error
                # that a serial run raises.
                block[...] = start
        return _grow(cols, grad, block, 0, n, range(len(cols)), 0, max_depth, lambda_,
                     gamma, np.zeros(n, dtype=bool), out)


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
    n = len(y)
    trees = []
    # Finite inputs can still overflow (squared gradients of huge targets);
    # that must stop training, not leave NaN gains and leaf weights.
    with float_range("training arithmetic"):
        base = float(y.mean())
        pred = np.full(n, base)
        cols, start = _sort_block(X.rows)
        two = _two_processes(n, params)
        new = _shared if two else np.empty
        work, grad, fitted = new(start.shape, np.intp), new(n), new(n)
        worker = _Worker.fork(cols, work, grad, fitted) if two else None
        try:
            for _ in range(params.n_trees):
                np.subtract(pred, y, out=grad)
                # Keywords: perfbench's tracer reads max_depth by name or 4th position.
                tree = grow_tree(X.rows, grad, max_depth=params.max_depth,
                                 lambda_=params.lambda_, gamma=params.gamma,
                                 out=fitted, presorted=(cols, start, work), worker=worker)
                pred += params.learning_rate * fitted
                trees.append(tree)
        finally:
            if worker is not None:
                worker.close()
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
