"""Gradient boosting for squared loss.

The model starts from the target mean (the squared-loss argmin), then each
stage fits a regression tree to the current residuals -- the negative
gradient of half-squared loss -- and adds it scaled by the learning rate.
With squared loss the terminal-node values are plain node-mean residuals,
so the stage trees are ordinary CART fits on the residual vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tables import LabeledTable
from .tree import RegressionTree, fit_regression_tree


@dataclass
class GradientBoostModel:
    init_value: float
    trees: list[RegressionTree]
    learning_rate: float
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], self.init_value)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out

    def staged_predict(self, X: np.ndarray) -> list[np.ndarray]:
        """Predictions after 0, 1, ..., n stages (stage 0 is the mean)."""
        X = np.asarray(X, dtype=float)
        current = np.full(X.shape[0], self.init_value)
        stages = [current.copy()]
        for tree in self.trees:
            current = current + self.learning_rate * tree.predict(X)
            stages.append(current.copy())
        return stages


def fit_gradient_boost(data: LabeledTable, n_trees: int, learning_rate: float,
                       min_leaf_size: int, *,
                       max_depth: Optional[int] = None) -> GradientBoostModel:
    """Fit ``n_trees`` residual-fitting stages; ``n_trees=0`` leaves just the
    mean predictor."""
    if not 0.0 < learning_rate < 1.0:
        raise ValueError(f"learning_rate must lie strictly in (0, 1), got {learning_rate}")
    if n_trees < 0:
        raise ValueError(f"n_trees must be nonnegative, got {n_trees}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if data.n_rows < 1:
        raise ValueError("cannot fit on an empty table")

    init_value = float(np.mean(data.targets))
    prediction = np.full(data.n_rows, init_value)
    trees: list[RegressionTree] = []
    for _ in range(n_trees):
        residuals = data.targets - prediction
        stage = fit_regression_tree(
            LabeledTable(data.features, residuals, data.feature_names),
            min_leaf_size, max_depth=max_depth)
        trees.append(stage)
        prediction = prediction + learning_rate * stage.predict(data.features)
    return GradientBoostModel(init_value=init_value, trees=trees,
                              learning_rate=learning_rate, n_features=data.n_features,
                              feature_names=data.feature_names)
