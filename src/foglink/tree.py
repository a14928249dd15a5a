"""CART regression trees grown by greedy squared-error splitting.

Split candidates are midpoints between consecutive distinct sorted feature
values; where the midpoint rounds onto the upper value (adjacent doubles,
subnormals, or an overflowing sum) the lower value is the threshold, which
gives the same partition.  The best split minimises the summed within-child
squared error; ties break toward the lowest feature index, then the lowest
threshold, so fits are reproducible.  A node stops splitting when it holds at
most ``min_leaf_size`` rows, its targets have zero variance, the depth cap is
reached, or no candidate feature admits a split.  Leaves predict the
(weight-) mean target of their rows.

Each fit sorts every column once; a node carries its rows in sorted order for
every feature, and a split partitions those lists with one boolean gather,
which keeps them sorted.  A node scores all candidate features at once from
prefix and suffix sums.  Those scores carry rounding noise, so the
cross-feature comparison recomputes each feature's error directly over its
partition, but only for features whose scanned error lies within a proven
rounding bound of the smallest; the others cannot win.  The fitted tree is
the one a per-node sort and a recomputation for every feature would give,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tables import LabeledTable

_EPS = float(np.finfo(float).eps)

# feature, threshold, left, right and value of a node that is a leaf so far
_LEAF = (-1, 0.0, -1, -1, 0.0)


@dataclass
class RegressionTree:
    """A fitted tree as parallel node lists (the layout of scikit-learn's
    ``tree_``); node 0 is the root.

    Node ``i`` sends a row ``x`` with ``x[feature[i]] <= threshold[i]`` to
    ``left[i]`` and any other row to ``right[i]``.  ``feature[i] == -1`` marks
    a leaf, which predicts ``value[i]``; the other lists hold unused slots
    there (and ``value`` does at splits).  Every child index is greater than
    its parent's, so a walk from the root always ends at a leaf.  The lists
    are plain Python lists: indexing them yields Python scalars, which keeps
    the per-row walk of ``predict_row`` fast.
    """

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]
    min_leaf_size: int
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def predict_row(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        x = x.tolist()  # compare Python floats, not numpy scalars
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        node, f = 0, feature[0]
        while f >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
            f = feature[node]
        return self.value[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (m, {self.n_features}) feature matrix, got {X.shape}")
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            feature = self.feature[node]
            if feature < 0:
                out[idx] = self.value[node]
            else:
                goes_left = X[idx, feature] <= self.threshold[node]
                stack.append((self.left[node], idx[goes_left]))
                stack.append((self.right[node], idx[~goes_left]))
        return out


def _split_leaf(nodes: tuple[list, ...], node: int, feature: int, threshold: float) -> int:
    """Turn leaf ``node`` of the node lists into a split over two new leaves;
    return the left leaf's index, which the right one follows."""
    child = len(nodes[0])
    for column, blank in zip(nodes, _LEAF):
        column += (blank, blank)
    feature_of, threshold_of, left_of, right_of, _ = nodes
    feature_of[node], threshold_of[node] = feature, float(threshold)
    left_of[node], right_of[node] = child, child + 1
    return child


def _split_sse(y: np.ndarray, w: np.ndarray, mask: np.ndarray) -> float:
    total = 0.0
    for rows in (mask, ~mask):
        ys, ws = y[rows], w[rows]
        mean = np.dot(ws, ys) / ws.sum()
        dev = ys - mean
        total += float(np.dot(ws, dev * dev))
    return total


# Near-tie rule.  For one feature, the scan SSE s (prefix/suffix sums at the
# chosen boundary) and the rescored SSE r (_split_sse over the same partition)
# are two roundings of one exact value t.  Take a node of n >= 2 rows,
# S = sum(w*y^2) over it, u = eps/2, and the model fl(a op b) = (a op b)(1+d),
# |d| <= u, with no overflow or underflow.  For a child of m rows, with
# a = sum(w), b = sum(w*y), c = sum(w*y^2): the scan's b and c carry relative
# error at most (m+1)u and, since (sum w|y|)^2 <= a*c, b^2/a is off by at
# most (3m+1)u*c, so c - b^2/a is off by at most (4m+3)u*c; the children's c
# sum to S, giving |s - t| <= (4n+12)u*S.  The rescore's mean is off by some
# e, and sum(w*(y-mean-e)^2) = t_child + a*e^2 with a*e^2 second order, giving
# |r - t| <= (n+6)u*S.  So |s - r| <= E = (5n+18)u*S <= 7n*eps*S.  A feature
# whose scan SSE exceeds another's by more than 2E has the larger rescored SSE
# too, so it cannot win; only features within 16n*eps*S of the smallest scan
# SSE need rescoring, and the first strict minimum of their rescored SSEs is
# the first strict minimum over all features.  An underflowing product or
# quotient is off by at most 2^-1074 absolute; summed over n terms, scaled by
# Y = max|y| and divided by a child weight of at least w0 (the smallest
# positive weight), these stay below 16n^2(1 + Y + W + 1/w0)2^-1074 (W the
# total weight), which is added to the allowance.  Overflow voids the model:
# a fit with (W+1)(Y+1) >= 2^500 gets an infinite allowance, so every feature
# is rescored.


def _underflow_allowance(y: np.ndarray, w: np.ndarray) -> float:
    """Absolute part of the near-tie allowance, taken over the whole fit so it
    holds for every node; infinite where squares may overflow."""
    total, top = float(w.sum()), float(np.abs(y).max())
    if not (total + 1.0) * (top + 1.0) < 2.0 ** 500:
        return np.inf
    smallest = float(w[w > 0].min())
    return 16.0 * y.size * y.size * (1.0 + top + total + 1.0 / smallest) * 2.0 ** -1074


def _best_split(columns: np.ndarray, y: np.ndarray, moments: np.ndarray, allowance: float,
                rows: np.ndarray, sorted_rows: np.ndarray, features: np.ndarray):
    """(feature, threshold, goes_left over ``rows``) of the best split, or None.

    ``columns`` is the feature matrix transposed and ``moments`` stacks w,
    w*y and w*y^2 per row.  ``sorted_rows[i]`` holds the node's rows in stable
    ascending order of ``columns[features[i]]``; ``rows`` holds them in
    ascending index order.
    """
    m, c = rows.size, features.size
    xs = columns[features[:, None], sorted_rows]
    # prefix sums of the moments in each feature's order for the left child,
    # and true suffix sums (accumulated from the far end) for the right one.
    # Deriving the right side as total-minus-prefix leaks rounding noise into
    # splits whose exact error is zero, scrambling the documented tie-break.
    both_ends = np.concatenate((sorted_rows, sorted_rows[:, ::-1]))
    weight, wy, wy2 = np.add.accumulate(moments.take(both_ends, axis=1), axis=2)
    # zero-weight rows give 0/0 at positions that are not boundaries too;
    # NaN at a boundary is handled below like any other score
    with np.errstate(divide="ignore", invalid="ignore"):
        child = np.maximum(wy2 - wy * wy / weight, 0.0)
    # position j splits after the j-th sorted row
    sse = child[:c, :-1] + child[c:, -2::-1]
    # only value changes qualify, and argmin keeps the first (lowest-threshold)
    # minimum, NaN included
    boundary = xs[:, 1:] > xs[:, :-1]
    at = np.arange(c)
    pos = np.where(boundary, sse, np.inf).argmin(axis=1)
    ok = boundary[at, pos]
    if not ok.all():  # no boundary, or every boundary scored +inf
        pos = np.where(ok, pos, boundary.argmax(axis=1))
        ok = boundary[at, pos]
        if not ok.any():
            return None
        at, pos = at[ok], pos[ok]
    lo, hi = xs[at, pos], xs[at, pos + 1]
    thresholds = 0.5 * (lo + hi)
    # a midpoint that rounds onto hi would send hi's rows left too; lo splits
    # exactly where the scan did
    thresholds = np.where(thresholds < hi, thresholds, lo)
    picks = range(at.size)
    if at.size > 1:
        scan = sse[at, pos]
        near = scan - scan.min() <= 16.0 * m * _EPS * float(wy2[0, -1]) + allowance
        # a NaN scan SSE voids the bound
        if near.any():
            picks = np.flatnonzero(near)
    if len(picks) == 1:
        feature = int(features[at[picks[0]]])
        return feature, thresholds[picks[0]], columns[feature, rows] <= thresholds[picks[0]]
    # the cross-feature comparison re-evaluates each candidate over its actual
    # partition, so two features producing the same partition compare exactly
    # equal and the lowest-feature-index tie-break holds
    node_y, node_w = y[rows], moments[0, rows]
    best = None
    for i in picks:
        feature = int(features[at[i]])
        goes_left = columns[feature, rows] <= thresholds[i]
        sse_i = _split_sse(node_y, node_w, goes_left)
        if best is None or sse_i < best[0]:
            best = (sse_i, feature, thresholds[i], goes_left)
    return best[1:]


def _grow(X: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf_size: int,
          max_depth: Optional[int], allowed: np.ndarray, mtry: Optional[int],
          rng: Optional[np.random.Generator]) -> tuple[list, ...]:
    """The fitted tree's five node lists (see ``RegressionTree``)."""
    # Sort each allowed column once.  A stable sort of the whole column,
    # restricted to a node's rows, orders them exactly as a stable sort of the
    # node alone would, because node rows stay in ascending index order.
    order = np.ascontiguousarray(np.argsort(X[:, allowed], axis=0, kind="stable").T)
    allowance = _underflow_allowance(y, w)
    columns = np.ascontiguousarray(X.T)
    moments = np.stack((w, w * y, w * y * y))
    nodes = tuple([blank] for blank in _LEAF)
    value = nodes[-1]
    # (node, row indices ascending, per-feature sorted rows, depth); explicit
    # stack so deep trees cannot hit the recursion limit
    stack = [(0, np.arange(X.shape[0]), order, 0)]
    while stack:
        node, rows, sorted_rows, depth = stack.pop()
        ys = y[rows]
        stop = (
            rows.size <= min_leaf_size
            or (ys == ys[0]).all()
            or (max_depth is not None and depth >= max_depth)
        )
        if not stop:
            if mtry is not None and mtry < allowed.size:
                chosen = np.sort(rng.choice(allowed, size=mtry, replace=False))
                chosen_rows = sorted_rows[np.searchsorted(allowed, chosen)]
            else:
                chosen, chosen_rows = allowed, sorted_rows
            found = _best_split(columns, y, moments, allowance, rows, chosen_rows, chosen)
            if found is None:
                stop = True
            else:
                feature, threshold, goes_left = found
                child = _split_leaf(nodes, node, feature, threshold)
                # a boolean gather keeps every feature's list in order
                in_left = columns[feature].take(sorted_rows) <= threshold
                k = sorted_rows.shape[0]
                stack.append((child, rows[goes_left],
                              sorted_rows[in_left].reshape(k, -1), depth + 1))
                stack.append((child + 1, rows[~goes_left],
                              sorted_rows[~in_left].reshape(k, -1), depth + 1))
        if stop:
            ws = w[rows]
            value[node] = float(np.dot(ws, ys) / ws.sum())
    return nodes


def fit_regression_tree(data: LabeledTable, min_leaf_size: int, *,
                        max_depth: Optional[int] = None,
                        sample_weight: Optional[np.ndarray] = None,
                        _mtry: Optional[int] = None,
                        _rng: Optional[np.random.Generator] = None) -> RegressionTree:
    """Grow a tree on the whole table.

    ``sample_weight`` makes split errors and leaf values weighted, which the
    boosting reweighters rely on; ``_mtry``/``_rng`` draw a fresh random
    feature subset per split for forest members.
    """
    if data.n_rows < 1:
        raise ValueError("cannot fit a tree on an empty table")
    if min_leaf_size < 1:
        raise ValueError(f"min_leaf_size must be positive, got {min_leaf_size}")
    if sample_weight is None:
        w = np.ones(data.n_rows)
    else:
        w = np.asarray(sample_weight, dtype=float)
        if w.shape != (data.n_rows,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("sample_weight must be nonnegative with positive sum")
    nodes = _grow(data.features, data.targets, w, min_leaf_size, max_depth,
                  np.arange(data.n_features), _mtry, _rng)
    return RegressionTree(*nodes, min_leaf_size=min_leaf_size,
                          n_features=data.n_features, feature_names=data.feature_names)
