"""Brute-force CART split search, kept as the reference for ``foglink.tree``.

Every node tries each candidate feature at each boundary between consecutive
distinct sorted values, skips a split that leaves zero weight on one side,
and computes each split's squared error directly over its partition; the
first strict minimum, by feature and then threshold, is the split.  This is
the rule ``foglink.tree`` applies, with none of its prefix sums.
``reference_grow`` has the signature of ``foglink.tree._grow`` and builds the
same node lists, so a test can substitute it there and fit through the same
input checks.
"""

from typing import Optional

import numpy as np

from foglink.tree import _LEAF, _child_keys, _draw, _split_leaf


def _split_sse(y, w, mask):
    total = 0.0
    for rows in (mask, ~mask):
        ys, ws = y[rows], w[rows]
        mean = np.dot(ws, ys) / ws.sum()
        dev = ys - mean
        total += float(np.dot(ws, dev * dev))
    return total


def _best_split(X, y, w, feature_indices):
    best = None
    for f in feature_indices:
        xs = X[np.argsort(X[:, f], kind="stable"), f].tolist()
        for lo, hi in zip(xs[:-1], xs[1:]):
            if not lo < hi:
                continue
            goes_left = X[:, f] <= lo
            if not (w[goes_left].sum() > 0 and w[~goes_left].sum() > 0):
                continue
            sse = _split_sse(y, w, goes_left)
            if best is None or sse < best[0]:
                midpoint = 0.5 * (lo + hi)
                best = (sse, int(f), midpoint if midpoint < hi else lo)
    return best


def reference_grow(X, y, w, min_leaf_size: int, max_depth: Optional[int],
                   mtry: Optional[int], rng: Optional[np.random.Generator]):
    n_features = X.shape[1]
    key = None
    if mtry is not None and mtry < n_features:
        key = rng.integers(2 ** 64, size=1, dtype=np.uint64)
    nodes = tuple([blank] for blank in _LEAF)
    # one depth at a time: the left children of a depth's splits, then the
    # right ones, each list in the order of their parents
    level, depth = [(0, np.arange(X.shape[0]), key)], 0
    while level:
        lefts, rights = [], []
        for node, rows, key in level:
            ys = y[rows]
            stop = (
                rows.size <= min_leaf_size
                or np.all(ys == ys[0])
                or (max_depth is not None and depth >= max_depth)
            )
            if not stop:
                if key is not None:
                    chosen = _draw(key, n_features, mtry)[0]
                else:
                    chosen = np.arange(n_features)
                found = _best_split(X[rows], ys, w[rows], chosen)
                if found is None:
                    stop = True
                else:
                    _, feature, threshold = found
                    child = _split_leaf(nodes, node, feature, threshold)
                    goes_left = X[rows, feature] <= threshold
                    left_key, right_key = (None, None) if key is None else _child_keys(key)
                    lefts.append((child, rows[goes_left], left_key))
                    rights.append((child + 1, rows[~goes_left], right_key))
            if stop:
                ws = w[rows]
                nodes[-1][node] = float(np.dot(ws, ys) / ws.sum())
        level, depth = lefts + rights, depth + 1
    return nodes
