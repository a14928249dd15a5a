"""Random forest regression: bagged CART trees with per-split feature draws.

Each member tree trains on an m-row with-replacement resample and searches
``mtry`` features per node, drawn from the key its path from the root gives
the node (see ``foglink.tree``).  Per-tree random streams spawned from the
model seed draw the resample, then the root key, so refitting with the same
seed is bit-identical regardless of fitting order.  Rows left out of a
tree's bootstrap provide the out-of-bag error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tables import LabeledTable
from .tree import RegressionTree, fit_regression_tree


def default_mtry_regression(n_features: int) -> int:
    return max(1, math.ceil(n_features / 3))


@dataclass
class RandomForestModel:
    trees: list[RegressionTree]
    oob_error: Optional[float]
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a random forest needs at least one tree")

    def predict(self, X: np.ndarray) -> np.ndarray:
        member = np.stack([tree.predict(X) for tree in self.trees])
        return member.mean(axis=0)


def fit_random_forest(data: LabeledTable, n_trees: int, mtry: int,
                      min_leaf_size: int, seed: int) -> RandomForestModel:
    """Fit ``n_trees`` bagged trees."""
    if n_trees < 1:
        raise ValueError(f"n_trees must be positive, got {n_trees}")
    if not 1 <= mtry <= data.n_features:
        raise ValueError(f"mtry must lie in [1, {data.n_features}], got {mtry}")

    m = data.n_rows
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees: list[RegressionTree] = []
    oob_sum = np.zeros(m)
    oob_count = np.zeros(m, dtype=int)
    for stream in streams:
        rng = np.random.default_rng(stream)
        picked = rng.integers(0, m, size=m)
        tree = fit_regression_tree(data.subset(picked), min_leaf_size,
                                   _mtry=mtry, _rng=rng)
        trees.append(tree)
        out_rows = np.setdiff1d(np.arange(m), picked, assume_unique=False)
        if out_rows.size:
            oob_sum[out_rows] += tree.predict(data.features[out_rows])
            oob_count[out_rows] += 1

    covered = oob_count > 0
    if covered.any():
        residual = data.targets[covered] - oob_sum[covered] / oob_count[covered]
        oob_error = float(np.mean(residual ** 2))
    else:
        oob_error = None
    return RandomForestModel(trees=trees, oob_error=oob_error,
                             n_features=data.n_features, feature_names=data.feature_names)
