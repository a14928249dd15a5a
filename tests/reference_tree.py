"""Per-feature CART split search, kept as the reference for ``foglink.tree``.

This is the search ``foglink.tree`` used before it presorted each column once
per fit and scored all features in one batch: every node argsorts each
candidate feature, scans it for its best threshold, and rescores every
feature's candidate over its actual partition.  ``reference_grow`` has the
signature of ``foglink.tree._grow`` and builds the same node lists, so a test
can substitute it there and fit through the same input checks.
"""

from typing import Optional

import numpy as np

from foglink.tree import _LEAF, _child_keys, _draw, _split_leaf


def _weighted_sse_split(xs, ys, ws):
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0] + 1
    if boundaries.size == 0:
        return None
    wy = ws * ys
    wy2 = wy * ys
    cw, cwy, cwy2 = np.cumsum(ws), np.cumsum(wy), np.cumsum(wy2)
    sw = np.cumsum(ws[::-1])[::-1]
    swy = np.cumsum(wy[::-1])[::-1]
    swy2 = np.cumsum(wy2[::-1])[::-1]
    lw, lwy, lwy2 = cw[boundaries - 1], cwy[boundaries - 1], cwy2[boundaries - 1]
    rw, rwy, rwy2 = sw[boundaries], swy[boundaries], swy2[boundaries]
    sse = (np.maximum(lwy2 - lwy * lwy / lw, 0.0)
           + np.maximum(rwy2 - rwy * rwy / rw, 0.0))
    j = int(np.argmin(sse))
    lo, hi = xs[boundaries[j] - 1], xs[boundaries[j]]
    midpoint = 0.5 * (lo + hi)
    return float(sse[j]), midpoint if midpoint < hi else lo


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
        order = np.argsort(X[:, f], kind="stable")
        found = _weighted_sse_split(X[order, f], y[order], w[order])
        if found is None:
            continue
        _, threshold = found
        sse = _split_sse(y, w, X[:, f] <= threshold)
        if best is None or sse < best[0]:
            best = (sse, int(f), threshold)
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
