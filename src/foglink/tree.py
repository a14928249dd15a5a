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
every feature, and a split partitions those lists with gathers that keep them
sorted.  A search scans every candidate feature of a batch of nodes at once
from prefix and suffix sums.  Those scores carry rounding noise, so the
cross-feature comparison recomputes each feature's error directly over its
partition, but only for features whose scanned error lies within a proven
rounding bound of the smallest; the others cannot win.  The fitted tree is the
one a per-node sort and a recomputation for every feature would give, bit for
bit.

Every fit grows one depth at a time: all open nodes of a depth are searched
in one batch, and the nodes are numbered as they are made, so a depth's
nodes follow the previous depth's and a split's children sit side by side.  A
forest member searches ``mtry`` features per node, drawn from a key the node
carries: a child's key hashes its parent's key and side, and a node draws
the features of the smallest hashes of its key and the feature index (a
counter-based draw, after Salmon et al., SC 2011), so the draws follow each
node's path from the root, not the growth order.

A batch pads nodes of similar size into blocks, past each node's last row,
with a pad row of zero moments (and a feature value of -inf, which opens no
boundary).  Prefix sums run along each node's own sorted rows and then over
its pads; suffix sums run over its pads first, which sum to exactly zero,
and then along its rows from the far end.  Every sum a node's split scores
read therefore adds the same numbers in the same order as a search of that
node alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .tables import LabeledTable

# 16 eps: the near-tie allowance per row and unit of sum(w*y^2), see below
_TIE = 16.0 * float(np.finfo(float).eps)

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


class _Fit(NamedTuple):
    """What every node search of one fit reads."""

    columns: np.ndarray  # the feature matrix transposed, then a pad column of -inf
    y: np.ndarray
    w: np.ndarray
    # w, w*y and w*y^2 per row, then a pad column of zeros
    moments: np.ndarray
    allowance: float  # see _underflow_allowance


def _scan(fit: _Fit, sorted_rows: np.ndarray, starts: list[int], sizes: list[int],
          features: np.ndarray) -> list:
    """Scan a batch of nodes for each candidate feature's best split.

    Node ``i`` holds the ``sizes[i]`` rows (at least two) from column
    ``starts[i]`` of ``sorted_rows``: ``sorted_rows[f]`` holds them in stable
    ascending order of ``fit.columns[f]``.  Row ``i`` of ``features`` (nodes x c)
    holds node ``i``'s candidate features.
    Returns, per node, four lists over its candidates: the scanned squared
    error of each feature's best split, the sorted values ``lo`` and ``hi``
    it falls between (a split needs ``lo < hi``, which a constant feature
    has none of), and the sum of w*y^2 over the node in that feature's
    order.
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
        b, m = len(block), [sizes[node] for node in block]
        width, lanes = m[0], c * b
        # a lane is one (feature, node) pair, feature-major; idx holds each
        # lane's rows in its feature's order, pads past each node's rows
        lane_feature = features[block].T.reshape(lanes, 1)
        ahead = np.arange(width)
        spans = np.minimum(np.array([starts[node] for node in block])[:, None] + ahead,
                           stride - 1)
        idx = np.where(ahead < np.array(m)[:, None],
                       sorted_rows.take(lane_feature.reshape(c, b, 1) * stride + spans),
                       pad).reshape(lanes, width)
        xs = fit.columns[lane_feature, idx]
        # prefix sums of the moments in each feature's order for the left
        # child, and true suffix sums (accumulated from the far end) for the
        # right one.  Deriving the right side as total-minus-prefix leaks
        # rounding noise into splits whose exact error is zero, scrambling
        # the documented tie-break.  Reversed, a node's pads come first and
        # sum to zero, so every sum adds the node's own rows in its own order.
        gathered = fit.moments.take(idx, axis=1)
        weight, wy, wy2 = np.add.accumulate(
            np.concatenate((gathered, gathered[..., ::-1]), axis=1), axis=-1)
        # zero-weight rows and pads give 0/0 at positions that are not
        # boundaries too; NaN at a boundary is handled below like any other
        # score.  (A whole fit under errstate runs every ufunc call slower.)
        with np.errstate(divide="ignore", invalid="ignore"):
            child = np.maximum(wy2 - wy * wy / weight, 0.0)
        # position j splits after the j-th sorted row
        sse = child[:lanes, :-1] + child[lanes:, -2::-1]
        # only value changes qualify (a pad never opens one), and argmin keeps
        # the first (lowest-threshold) minimum, NaN included
        boundary = xs[:, 1:] > xs[:, :-1]
        lane = np.arange(lanes)
        pos = np.where(boundary, sse, np.inf).argmin(axis=1)
        ok = boundary[lane, pos]
        if not ok.all():  # no boundary, or every boundary scored +inf
            pos = np.where(ok, pos, boundary.argmax(axis=1))
        per_node = np.concatenate((sse[lane, pos], xs[lane, pos], xs[lane, pos + 1],
                                   wy2[:lanes, -1])).reshape(4, c, b).transpose(2, 0, 1)
        for node, scanned in zip(block, per_node.tolist()):
            found[node] = scanned
    return found


def _pick(fit: _Fit, node_rows: list, features: np.ndarray, scanned: list) -> list:
    """(feature, threshold) of each node's best split; the feature is -1
    where a node has none.

    ``scanned`` is ``_scan``'s result for the nodes over ``features``;
    ``node_rows`` holds each node's rows in ascending index order.
    """
    found = []
    for rows, candidates, (sse, lo, hi, total) in zip(node_rows, features, scanned):
        picks = [f for f in range(len(lo)) if lo[f] < hi[f]]
        if len(picks) > 1:
            near = [sse[f] for f in picks]
            # a NaN scan SSE voids the bound: every candidate is rescored
            if not any(map(isnan, near)):
                least, bound = min(near), rows.size * _TIE * total[0] + fit.allowance
                picks = [f for f, s in zip(picks, near) if s - least <= bound] or picks
            if len(picks) > 1:
                picks = [_rescore(fit, rows, candidates, picks, lo, hi)]
        found.append((int(candidates[picks[0]]), _midpoint(lo[picks[0]], hi[picks[0]]))
                     if picks else (-1, 0.0))
    return found


def _midpoint(lo: float, hi: float) -> float:
    """The threshold between sorted values ``lo < hi``: their midpoint, or
    ``lo`` where the midpoint rounds onto ``hi``, which would send ``hi``'s
    rows left too; ``lo`` splits exactly where the scan did."""
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


def _rescore(fit: _Fit, rows: np.ndarray, candidates: np.ndarray, picks: list, lo: list,
             hi: list) -> int:
    """The candidate of ``picks`` (positions in ``candidates``) whose split,
    rescored over its actual partition of ``rows``, first has the least
    squared error.

    Two features producing the same partition compare exactly equal, so the
    lowest-feature-index tie-break holds.
    """
    node_y, node_w = fit.y[rows], fit.w[rows]
    # min keeps the first of equal scores, and a NaN score only when first
    return min(picks, key=lambda f: _split_sse(
        node_y, node_w, fit.columns[candidates[f], rows] <= _midpoint(lo[f], hi[f])))


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
               np.concatenate((moments, np.zeros((3, 1))), axis=1),
               _underflow_allowance(y, w))
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
            for i, split in zip(search.tolist(), _pick(fit, [node_rows[i] for i in search],
                                                        features, scanned)):
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
