"""Feature/target tables shared by the physics pipeline and the learners,
and the seeded row splits cut from them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LabeledTable:
    """m x k feature matrix with an m-vector of regression targets.

    Arrays are stored as float64 and treated as immutable after
    construction.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[1] < 1:
            raise ValueError("need at least one feature column")
        if targets.ndim != 1 or targets.shape[0] != features.shape[0]:
            raise ValueError(
                f"targets shape {targets.shape} does not match {features.shape[0]} rows")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(targets)):
            raise ValueError("features and targets must be finite")
        names = tuple(self.feature_names)
        if len(names) != features.shape[1]:
            raise ValueError(
                f"{len(names)} feature names for {features.shape[1]} columns")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "LabeledTable":
        idx = np.asarray(indices, dtype=int)
        return LabeledTable(self.features[idx], self.targets[idx], self.feature_names)


def partition_sizes(m: int, fractions: Sequence[float]) -> list[int]:
    """Split ``m`` rows into integer part sizes proportional to ``fractions``.

    Largest-remainder rounding: each size is within one row of m*fraction and
    the sizes sum to m exactly.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive, got {tuple(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    exact = [m * f for f in fractions]
    sizes = [int(np.floor(e)) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    leftover = m - sum(sizes)
    for i in sorted(range(len(fractions)), key=lambda i: -remainders[i])[:leftover]:
        sizes[i] += 1
    return sizes


def split_indices(m: int, fractions: Sequence[float],
                  seed: int | np.random.Generator) -> tuple[np.ndarray, ...]:
    """Shuffle the row indices ``0..m-1`` with ``seed`` and cut them into
    consecutive groups of the :func:`partition_sizes` sizes.  A Generator
    seed is drawn from, and so advanced."""
    sizes = partition_sizes(m, fractions)
    order = np.random.default_rng(seed).permutation(m)
    return tuple(np.split(order, np.cumsum(sizes[:-1])))
