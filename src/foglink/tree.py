"""CART regression trees grown by greedy squared-error splitting.

Split candidates are midpoints between consecutive distinct sorted feature
values.  The best split minimises the summed within-child squared error;
ties break toward the lowest feature index, then the lowest threshold, so
fits are reproducible.  A node stops splitting when it holds at most
``min_leaf_size`` rows, its targets have zero variance, the depth cap is
reached, or no candidate feature admits a split.  Leaves predict the
(weight-) mean target of their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tables import LabeledTable


@dataclass
class Leaf:
    value: float


@dataclass
class Split:
    feature: int
    threshold: float
    left: Union["Split", Leaf, None] = None
    right: Union["Split", Leaf, None] = None


TreeNode = Union[Split, Leaf]


@dataclass
class RegressionTree:
    root: TreeNode
    min_leaf_size: int
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def predict_row(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        node = self.root
        while isinstance(node, Split):
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (m, {self.n_features}) feature matrix, got {X.shape}")
        out = np.empty(X.shape[0])
        stack: list[tuple[TreeNode, np.ndarray]] = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if isinstance(node, Leaf):
                out[idx] = node.value
            else:
                goes_left = X[idx, node.feature] <= node.threshold
                stack.append((node.left, idx[goes_left]))
                stack.append((node.right, idx[~goes_left]))
        return out


def _weighted_sse_split(xs: np.ndarray, ys: np.ndarray, ws: np.ndarray):
    """Best threshold for one pre-sorted feature; returns (sse, threshold)."""
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0] + 1
    if boundaries.size == 0:
        return None
    wy = ws * ys
    wy2 = wy * ys
    # prefix sums for the left child, true suffix sums for the right one;
    # deriving the right side as total-minus-prefix leaks rounding noise into
    # splits whose exact error is zero, scrambling the documented tie-break
    cw, cwy, cwy2 = np.cumsum(ws), np.cumsum(wy), np.cumsum(wy2)
    sw = np.cumsum(ws[::-1])[::-1]
    swy = np.cumsum(wy[::-1])[::-1]
    swy2 = np.cumsum(wy2[::-1])[::-1]
    lw, lwy, lwy2 = cw[boundaries - 1], cwy[boundaries - 1], cwy2[boundaries - 1]
    rw, rwy, rwy2 = sw[boundaries], swy[boundaries], swy2[boundaries]
    sse = (np.maximum(lwy2 - lwy * lwy / lw, 0.0)
           + np.maximum(rwy2 - rwy * rwy / rw, 0.0))
    j = int(np.argmin(sse))  # first minimum -> lowest threshold
    pos = boundaries[j]
    return float(sse[j]), 0.5 * (xs[pos - 1] + xs[pos])


def _split_sse(y: np.ndarray, w: np.ndarray, mask: np.ndarray) -> float:
    total = 0.0
    for rows in (mask, ~mask):
        ys, ws = y[rows], w[rows]
        mean = np.dot(ws, ys) / ws.sum()
        dev = ys - mean
        total += float(np.dot(ws, dev * dev))
    return total


def _best_split(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                feature_indices: np.ndarray):
    # Each feature's best threshold comes from the prefix/suffix scan; the
    # cross-feature comparison re-evaluates that candidate over its actual
    # partition so two features producing the same partition compare exactly
    # equal and the lowest-feature-index tie-break holds.
    best = None
    for f in feature_indices:
        order = np.argsort(X[:, f], kind="stable")
        found = _weighted_sse_split(X[order, f], y[order], w[order])
        if found is None:
            continue
        _, threshold = found
        sse = _split_sse(y, w, X[:, f] <= threshold)
        if best is None or sse < best[0]:
            best = (sse, int(f), threshold)
    return best


def _grow(X: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf_size: int,
          max_depth: Optional[int], allowed: np.ndarray, mtry: Optional[int],
          rng: Optional[np.random.Generator]) -> TreeNode:
    root_holder = Split(feature=-1, threshold=0.0)
    # (parent, attach-side, row index array, depth); explicit stack so deep
    # trees cannot hit the interpreter recursion limit
    stack = [(root_holder, "left", np.arange(X.shape[0]), 0)]
    while stack:
        parent, side, rows, depth = stack.pop()
        ys = y[rows]
        stop = (
            rows.size <= min_leaf_size
            or np.all(ys == ys[0])
            or (max_depth is not None and depth >= max_depth)
        )
        node: TreeNode
        if not stop:
            if mtry is not None and mtry < allowed.size:
                chosen = np.sort(rng.choice(allowed, size=mtry, replace=False))
            else:
                chosen = allowed
            found = _best_split(X[rows], ys, w[rows], chosen)
            if found is None:
                stop = True
            else:
                _, feature, threshold = found
                node = Split(feature=feature, threshold=threshold)
                goes_left = X[rows, feature] <= threshold
                stack.append((node, "left", rows[goes_left], depth + 1))
                stack.append((node, "right", rows[~goes_left], depth + 1))
        if stop:
            ws = w[rows]
            node = Leaf(value=float(np.dot(ws, ys) / ws.sum()))
        setattr(parent, side, node)
    return root_holder.left


def fit_regression_tree(data: LabeledTable, min_leaf_size: int,
                        feature_subset: Optional[Sequence[int]] = None, *,
                        max_depth: Optional[int] = None,
                        sample_weight: Optional[np.ndarray] = None,
                        _mtry: Optional[int] = None,
                        _rng: Optional[np.random.Generator] = None) -> RegressionTree:
    """Grow a tree on the whole table (or on ``feature_subset`` columns only).

    ``sample_weight`` makes split errors and leaf values weighted, which the
    boosting reweighters rely on; ``_mtry``/``_rng`` draw a fresh random
    feature subset per split for forest members.
    """
    if data.n_rows < 1:
        raise ValueError("cannot fit a tree on an empty table")
    if min_leaf_size < 1:
        raise ValueError(f"min_leaf_size must be positive, got {min_leaf_size}")
    if feature_subset is None:
        allowed = np.arange(data.n_features)
    else:
        allowed = np.unique(np.asarray(feature_subset, dtype=int))
        if allowed.size == 0 or allowed.min() < 0 or allowed.max() >= data.n_features:
            raise ValueError(f"feature_subset out of range for k={data.n_features}")
    if sample_weight is None:
        w = np.ones(data.n_rows)
    else:
        w = np.asarray(sample_weight, dtype=float)
        if w.shape != (data.n_rows,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("sample_weight must be nonnegative with positive sum")
    root = _grow(data.features, data.targets, w, min_leaf_size, max_depth,
                 allowed, _mtry, _rng)
    return RegressionTree(root=root, min_leaf_size=min_leaf_size,
                          n_features=data.n_features, feature_names=data.feature_names)
