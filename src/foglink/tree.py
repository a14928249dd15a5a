"""CART regression trees grown by greedy squared-error splitting.

Split candidates are midpoints between consecutive distinct sorted feature
values; where the midpoint rounds onto the upper value (adjacent doubles,
subnormals, or an overflowing sum) the lower value is the threshold, which
gives the same partition.  The best split minimises the summed within-child
squared error among the splits that leave positive weight on both sides;
ties break toward the lowest feature index, then the lowest threshold, so
fits are reproducible.  A node stops splitting when it holds at most
``min_leaf_size`` rows, its targets have zero variance, the depth cap is
reached, or no candidate feature admits a split.  Leaves predict the
(weight-) mean target of their rows.

Each fit sorts every column once; a node carries its rows in sorted order for
every feature, and a split partitions those lists with gathers that keep them
sorted.  A search scans every candidate feature of a batch of nodes at once
from prefix sums: the left child's sums are the prefix sums at a boundary,
the right child's the node's totals minus them.  Those scores carry rounding
noise that depends on the order of the sums, so a node keeps every (feature,
threshold) candidate whose scanned score lies within a proven rounding bound
of its best, and where that is more than one, recomputes their errors
directly over their partitions; the others cannot win.  The split is thus the
first, by feature and then threshold, of least recomputed error among the
splits that leave positive weight on both sides, whatever the order of the
sums: the rule ``tests/reference_tree.py`` applies by brute force.

Every fit grows one depth at a time: all open nodes of a depth are searched
in one batch, and the nodes are numbered as they are made, so a depth's
nodes follow the previous depth's and a split's children sit side by side.  A
forest member searches ``mtry`` features per node, drawn from a key the node
carries: a child's key hashes its parent's key and side, and a node draws
the features of the smallest hashes of its key and the feature index (a
counter-based draw, after Salmon et al., SC 2011), so the draws follow each
node's path from the root, not the growth order.

A batch pads nodes of similar size into blocks, past each node's last row,
with a pad row of zero moments, which adds nothing to a sum, and a feature
value of -inf, which opens no boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .tables import LabeledTable

_EPS = float(np.finfo(float).eps)

# feature, threshold, left, right and value of a node that is a leaf so far
_LEAF = (-1, 0.0, -1, -1, 0.0)

# a batch pads nodes into a block of larger nodes while that adds at most
# this many (feature, row) cells to the block.  gbr and tree fits took the
# same time from 256 to 4096 cells, and up to 16% longer at 0
_PAD_CELLS = 1024


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
    the per-row walk of ``leaf_value`` fast.
    """

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def predict_row(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        return self.leaf_value(x.tolist())  # compare Python floats, not numpy scalars

    def leaf_value(self, x: list) -> float:
        """The value of the leaf row ``x`` reaches; ``x`` is a list of
        ``n_features`` Python floats, unchecked."""
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


# Near-tie rule.  A candidate's scanned gain g (from the prefix sums at its
# boundary) and its rescored SSE r (_split_sse over the same partition) are
# roundings of S - t and t, t its exact SSE.  Take a node of n >= 2 rows,
# S = sum(w*y^2) over it, A and w0 the fit's total and smallest positive
# weight, rho = A/w0, u = eps/2, and the model fl(a op b) = (a op b)(1+d),
# |d| <= u, with no overflow or underflow.  For a child with a = sum(w),
# b = sum(w*y) and c = sum(w*y^2), b^2/a <= c by Cauchy-Schwarz.  The left
# child of m rows reads prefix sums: a carries relative error at most (m-1)u
# and b absolute error at most (m+1)u*sum(w|y|), with (sum w|y|)^2 <= a*c, so
# b^2/a is off by at most (3m+3)u*c <= 3n*u*S.  The right child reads totals
# minus prefix sums: a is off by at most (2n+1)u*A, which is (2n+1)u*rho
# relative as the child holds a row of positive weight, and b by at most
# (2n+2)u*sum(w|y|) over the node, with (sum w|y|)^2 <= A*S; so b^2/a is off
# by at most ((2n+1)rho + (4n+4)sqrt(rho) + 2)u*S.  Adding the two, |g - (S -
# t)| <= (5n+5)(1+rho)u*S.  The rescore's mean is off by some e, and
# sum(w*(y-mean-e)^2) = t_child + a*e^2 with a*e^2 second order, giving
# |r - t| <= (n+6)u*S.  So a candidate of least rescored SSE has a gain
# within 2E <= 10n(1+rho)eps*S of the node's greatest, to first order, and
# the higher orders add less than n(1+rho)eps*S while n*u*rho <= 2^-6.  Only
# candidates within 16n(1+rho)eps*S of the greatest gain need rescoring, and
# the first strict minimum of their rescored SSEs is the first over all
# candidates.  An underflowing product or quotient is off by at most 2^-1074
# absolute; summed over a total and a prefix, scaled by Y = max|y| and
# divided by a child weight of at least w0, these stay below 16n^2(1 + Y + A
# + 1/w0)2^-1074, which is added to the allowance.  A fit of N rows with
# (A+1)(Y+1) >= 2^500, where squares may overflow, or with N*eps*rho > 2^-5
# gets an infinite allowance, so every candidate is rescored.


def _allowance(y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """The near-tie allowance of a fit, per row and unit of the node's
    sum(w*y^2), and its absolute part: taken over the whole fit so they hold
    for every node, and both infinite where the bound is void."""
    total, top = float(w.sum()), float(np.abs(y).max())
    smallest = float(w[w > 0].min())
    if not ((total + 1.0) * (top + 1.0) < 2.0 ** 500
            and y.size * _EPS * total / smallest <= 2.0 ** -5):
        return np.inf, np.inf
    return (16.0 * _EPS * (1.0 + total / smallest),
            16.0 * y.size * y.size * (1.0 + top + total + 1.0 / smallest) * 2.0 ** -1074)


class _Fit(NamedTuple):
    """What every node search of one fit reads."""

    columns: np.ndarray  # the feature matrix transposed, then a pad column of -inf
    y: np.ndarray
    w: np.ndarray
    # w, w*y and w*y^2 per row, then a pad column of zeros
    moments: np.ndarray
    # the near-tie allowance per row and unit of sum(w*y^2), and its
    # absolute part (see _allowance)
    tie: float
    allowance: float


def _scan(fit: _Fit, sorted_rows: np.ndarray, starts: list[int], sizes: list[int],
          features: np.ndarray) -> list:
    """The near candidates of each node of a batch.

    Node ``i`` holds the ``sizes[i]`` rows (at least two) from column
    ``starts[i]`` of ``sorted_rows``: ``sorted_rows[f]`` holds them in stable
    ascending order of ``fit.columns[f]``.  Row ``i`` of ``features`` (nodes x c)
    holds node ``i``'s candidate features in ascending order.
    Returns, per node, the ``(feature, lo, hi)`` of every split whose scanned
    gain lies within the near-tie allowance of the node's greatest, in order
    of feature and then threshold: the split falls between sorted values
    ``lo < hi`` of ``feature`` and leaves positive weight on both sides.
    """
    c, pad, stride = features.shape[1], fit.y.size, sorted_rows.shape[1]
    # nodes of like size share a block, each padded to the block's largest
    blocks, width, padding = [], 0, 0
    for node in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        padding += (width - sizes[node]) * c
        if blocks and padding <= _PAD_CELLS:
            blocks[-1].append(node)
        else:
            blocks.append([node])
            width, padding = sizes[node], 0
    found = [None] * len(sizes)
    for block in blocks:
        b, m = len(block), np.array([sizes[node] for node in block])
        width, lanes = m[0], b * c
        # a lane is one (node, feature) pair, node-major; idx holds each
        # lane's rows in its feature's order, pads past each node's rows
        lane_feature = features[block]
        ahead = np.arange(width)
        spans = np.minimum(np.array([starts[node] for node in block])[:, None] + ahead,
                           stride - 1)
        idx = np.where((ahead < m[:, None])[:, None],
                       sorted_rows.take(lane_feature[..., None] * stride + spans[:, None]),
                       pad).reshape(lanes, width)
        xs = fit.columns[lane_feature.reshape(lanes, 1), idx]
        # position j splits after the j-th sorted row: the left child's sums
        # are the prefix sums there, the right child's the lane's last
        # prefix sums, its node's totals, minus them.  A split's squared
        # error is the node's sum(w*y^2) minus its gain, b^2/a summed over
        # the children with a = sum(w) and b = sum(w*y)
        gathered = fit.moments.take(idx, axis=1)
        sums = np.add.accumulate(gathered[:2], axis=-1)
        left = sums[..., :-1]
        right = sums[..., -1:] - left
        # zero-weight children and pads give 0/0, at no candidate; in a fit
        # of finite allowance every candidate's gain is finite.  (A whole
        # fit under errstate runs every ufunc call slower.)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = left[1] * left[1] / left[0] + right[1] * right[1] / right[0]
        # a candidate opens a boundary (a pad never does) and leaves positive
        # weight on both sides: a positive prefix weight (sums of
        # nonnegative weights are exact in sign) and a positive-weight row
        # past it
        last = width - 1 - (gathered[0, :, ::-1] > 0).argmax(axis=1)
        near = (xs[:, 1:] > xs[:, :-1]) & (left[0] > 0) & (ahead[:-1] < last[:, None])
        if fit.tie < np.inf:
            gain = np.where(near, gain, -np.inf)
            most = gain.max(axis=1).reshape(b, c).max(axis=1)
            bound = m * fit.tie * gathered[2, ::c].sum(axis=1) + fit.allowance
            near &= gain >= (most - bound).repeat(c)[:, None]
        lane, pos = np.divmod(np.flatnonzero(near), width - 1)
        candidates = list(zip(lane_feature.ravel()[lane].tolist(), xs[lane, pos].tolist(),
                              xs[lane, pos + 1].tolist()))
        ends = np.bincount(lane // c, minlength=b).cumsum().tolist()
        for node, start, end in zip(block, [0] + ends, ends):
            found[node] = candidates[start:end]
    return found


def _pick(fit: _Fit, node_rows: list, near: list) -> list:
    """(feature, threshold) of each node's split: of its near candidates
    (``_scan``'s result for the nodes), the first whose squared error,
    rescored over its partition of the node's rows, is least.  The feature is
    -1 where a node has none; ``node_rows`` holds each node's rows in
    ascending index order.
    """
    found = []
    for rows, candidates in zip(node_rows, near):
        if len(candidates) > 1:
            node_y, node_w = fit.y[rows], fit.w[rows]
            # min keeps the first of equal scores, and two features that
            # make the same partition score exactly equal
            candidates = [min(candidates, key=lambda split: _split_sse(
                node_y, node_w, fit.columns[split[0], rows] <= split[1]))]
        feature, lo, hi = candidates[0] if candidates else (-1, 0.0, 0.0)
        # the midpoint, or lo where it rounds onto hi: the partition scored
        mid = 0.5 * (lo + hi)
        found.append((feature, mid if mid < hi else lo))
    return found


def _open(y: np.ndarray, rows: np.ndarray, sizes: list[int], min_leaf_size: int) -> list[bool]:
    """Which of the nodes lying end to end in ``rows``, ``sizes`` rows each,
    may split: those of more than ``min_leaf_size`` rows whose targets are
    not all equal (to the first)."""
    sizes = np.array(sizes)
    starts = sizes.cumsum() - sizes
    grows = sizes > min_leaf_size
    if grows.any():
        ys = y[rows]
        differs = np.concatenate(([0], (ys != ys[np.repeat(starts, sizes)]).cumsum()))
        grows &= differs[starts + sizes] > differs[starts]
    return grows.tolist()


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser of every entry of a uint64 array; array
    arithmetic wraps mod 2^64 silently, where numpy scalars would warn."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _child_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the left and the right children of nodes keyed ``keys``:
    mix(2 key) and mix(2 key + 1), mod 2^64."""
    twice = keys << np.uint64(1)
    return _mix(twice), _mix(twice | np.uint64(1))


def _draw(keys: np.ndarray, n_features: int, mtry: int) -> np.ndarray:
    """Per node keyed ``keys``, its ``mtry`` candidate features in ascending
    order: those with the smallest mix(key ^ mix(feature + 1))."""
    hashes = _mix(keys[:, None] ^ _mix(np.arange(1, n_features + 1, dtype=np.uint64)))
    return np.sort(hashes.argsort(axis=1, kind="stable")[:, :mtry], axis=1)


def _grow(X: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf_size: int,
          max_depth: Optional[int], mtry: Optional[int],
          rng: Optional[np.random.Generator]) -> tuple[list, ...]:
    """The fitted tree's five node lists (see ``RegressionTree``), grown one
    depth at a time and numbered as they are made: the open nodes of a depth
    are searched in one batch, and each split appends its two children.
    With ``mtry`` below the feature count, each node searches the ``mtry``
    features its own key draws, the root's key coming from ``rng``."""
    # Sort each column once.  A stable sort of the whole column, restricted
    # to a node's rows, orders them exactly as a stable sort of the node
    # alone would, because node rows stay in ascending index order.
    sorted_rows = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    # one pad column past the last row: -inf opens no boundary, and zero
    # moments add nothing to a sum
    moments = np.stack((w, w * y, w * y * y))
    fit = _Fit(np.concatenate((X.T, np.full((X.shape[1], 1), -np.inf)), axis=1), y, w,
               np.concatenate((moments, np.zeros((3, 1))), axis=1), *_allowance(y, w))
    k, stride = X.shape[1], fit.columns.shape[1]
    keys = (rng.integers(2 ** 64, size=1, dtype=np.uint64)
            if mtry is not None and mtry < k else None)
    nodes = tuple([blank] for blank in _LEAF)
    value = nodes[-1]
    # the nodes of one depth, their rows end to end as _scan takes them
    level, sizes, rows, depth = [0], [y.size], np.arange(y.size), 0
    cap = np.inf if max_depth is None else max_depth
    on_left = np.zeros(y.size, dtype=bool)
    while level:
        counts = np.array(sizes)
        starts = counts.cumsum() - counts
        node_rows = [rows[a:a + size] for a, size in zip(starts.tolist(), sizes)]
        best = [(-1, 0.0)] * len(level)  # (feature, threshold) of each node's split
        if depth < cap:
            search = np.flatnonzero(_open(y, rows, sizes, min_leaf_size))
            features = (np.broadcast_to(np.arange(k), (search.size, k)) if keys is None
                        else _draw(keys[search], k, mtry))
            scanned = _scan(fit, sorted_rows, starts[search].tolist(), counts[search].tolist(),
                            features)
            for i, split in zip(search.tolist(),
                                _pick(fit, [node_rows[i] for i in search], scanned)):
                best[i] = split
        lefts = []
        for node, (f, t), members in zip(level, best, node_rows):
            if f < 0:
                ys, ws = y[members], w[members]
                value[node] = float(np.dot(ws, ys) / ws.sum())
            else:
                lefts.append(_split_leaf(nodes, node, f, t))
        if not lefts:
            break
        feature, threshold = (np.array(column) for column in zip(*best))
        splitting = feature >= 0
        kept = splitting.repeat(counts)  # per row of the depth
        goes_left = fit.columns.take(feature.repeat(counts) * stride + rows) \
            <= threshold.repeat(counts)
        n_left = np.add.reduceat(goes_left, starts, dtype=np.intp)
        # the next depth holds the left children, then the right ones
        on_left[rows] = goes_left
        rows = np.concatenate((rows[goes_left & kept], rows[kept > goes_left]))
        level = lefts + [left + 1 for left in lefts]
        sizes = n_left[splitting].tolist() + (counts - n_left)[splitting].tolist()
        depth += 1
        if depth >= cap:
            continue  # the next depth searches no node: it reads no sorted lists or keys
        # gathers in order keep every feature's list sorted
        in_left = on_left.take(sorted_rows)
        flat = sorted_rows.ravel()
        sorted_rows = np.concatenate([flat.take(np.flatnonzero(side)).reshape(k, -1)
                                      for side in (in_left & kept, in_left < kept)], axis=1)
        if keys is not None:
            keys = np.concatenate(_child_keys(keys[splitting]))
    return nodes


def fit_regression_tree(data: LabeledTable, min_leaf_size: int, *,
                        max_depth: Optional[int] = None,
                        sample_weight: Optional[np.ndarray] = None,
                        _mtry: Optional[int] = None,
                        _rng: Optional[np.random.Generator] = None) -> RegressionTree:
    """Grow a tree on the whole table.

    ``sample_weight`` makes split errors and leaf values weighted, which the
    boosting reweighters rely on; with ``_mtry`` below the feature count,
    each node searches ``_mtry`` features drawn from a key that ``_rng``
    gives the root (forest members).
    """
    if data.n_rows < 1:
        raise ValueError("cannot fit a tree on an empty table")
    if min_leaf_size < 1:
        raise ValueError(f"min_leaf_size must be positive, got {min_leaf_size}")
    if sample_weight is None:
        w = np.ones(data.n_rows)
    else:
        w = np.asarray(sample_weight, dtype=float)
        if w.shape != (data.n_rows,) or not np.isfinite(w).all() or np.any(w < 0) \
                or w.sum() <= 0:
            raise ValueError("sample_weight must be finite and nonnegative with positive sum")
    nodes = _grow(data.features, data.targets, w, min_leaf_size, max_depth, _mtry, _rng)
    return RegressionTree(*nodes, n_features=data.n_features, feature_names=data.feature_names)
