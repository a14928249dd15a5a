"""Per-feature CART split search, kept as the reference for ``foglink.tree``.

This is the search ``foglink.tree`` used before it presorted each column once
per fit and scored all features in one batch: every node argsorts each
candidate feature, scans it for its best threshold, and rescores every
feature's candidate over its actual partition.  ``reference_grow`` has the
signature of ``foglink.tree._grow``, so a test can substitute it there and
fit through the same input checks.
"""

from typing import Optional

import numpy as np

from foglink.tree import Leaf, Split


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
    pos = boundaries[j]
    return float(sse[j]), 0.5 * (xs[pos - 1] + xs[pos])


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
                   allowed: np.ndarray, mtry: Optional[int],
                   rng: Optional[np.random.Generator]):
    root_holder = Split(feature=-1, threshold=0.0)
    stack = [(root_holder, "left", np.arange(X.shape[0]), 0)]
    while stack:
        parent, side, rows, depth = stack.pop()
        ys = y[rows]
        stop = (
            rows.size <= min_leaf_size
            or np.all(ys == ys[0])
            or (max_depth is not None and depth >= max_depth)
        )
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
