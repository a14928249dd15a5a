"""Stacked generalization with a simplex-constrained linear meta-learner.

Rows are split into H folds; every base learner is fitted H times, each time
on the complement of one fold, and its held-out predictions fill one column
of the level-1 sample, so no learner ever scores a row it trained on.  The
meta-learner minimises the squared error of a convex combination of the
level-1 columns -- weights nonnegative and summing to one -- which keeps
stacked predictions inside the range of the base predictions and guarantees
the meta objective is no worse than the best single learner.  Final base
learners are refitted on all rows for prediction time, except those the
caller has already fitted on all rows and hands over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .adaboost import fit_adaboost_r2
from .boosting import fit_gradient_boost
from .forest import default_mtry_regression, fit_random_forest
from .tables import LabeledTable
from .tree import fit_regression_tree

_SOLVER_TOL = 1e-12
_SOLVER_MAX_ITER = 10_000


class StackingError(RuntimeError):
    """A base learner failed while building the level-1 sample."""


@dataclass(frozen=True)
class LearnerSpec:
    """Base-learner descriptor: a kind tag plus keyword hyperparameters.

    Kinds: ``tree``, ``forest``, ``gbr``, ``adbr``, plus the trivial ``mean``
    and ``constant`` learners used in tests.
    """

    kind: str
    params: dict = field(default_factory=dict)
    name: Optional[str] = None

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.kind


@dataclass(frozen=True)
class StackConfig:
    base_learner_specs: tuple[LearnerSpec, ...]
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.base_learner_specs) < 1:
            raise ValueError("need at least one base learner")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be at least 2, got {self.n_folds}")


@dataclass
class _MeanLearner:
    value: float

    def predict_row(self, x) -> float:
        return self.value

    def predict(self, X) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.value)


def fit_base_learner(spec: LearnerSpec, data: LabeledTable, seed: int):
    """Train one base learner described by ``spec`` on ``data``."""
    p = dict(spec.params)
    if spec.kind == "tree":
        return fit_regression_tree(data, p.pop("min_leaf_size", 1),
                                   max_depth=p.pop("max_depth", None))
    if spec.kind == "forest":
        return fit_random_forest(
            data,
            n_trees=p.pop("n_trees", 30),
            mtry=p.pop("mtry", default_mtry_regression(data.n_features)),
            min_leaf_size=p.pop("min_leaf_size", 5),
            seed=p.pop("seed", seed))
    if spec.kind == "gbr":
        return fit_gradient_boost(
            data,
            n_trees=p.pop("n_trees", 100),
            learning_rate=p.pop("learning_rate", 0.1),
            min_leaf_size=p.pop("min_leaf_size", 5),
            max_depth=p.pop("max_depth", None))
    if spec.kind == "adbr":
        return fit_adaboost_r2(
            data,
            n_rounds=p.pop("n_rounds", 20),
            min_leaf_size=p.pop("min_leaf_size", 5),
            max_depth=p.pop("max_depth", 3))
    if spec.kind == "mean":
        return _MeanLearner(float(np.mean(data.targets)))
    if spec.kind == "constant":
        return _MeanLearner(float(p.pop("value", 0.0)))
    raise ValueError(f"unknown base learner kind {spec.kind!r}")


def kfold_partition(m: int, n_folds: int, seed: int) -> list[np.ndarray]:
    """Shuffle row indices and cut them into ``n_folds`` near-equal folds."""
    if not 2 <= n_folds <= m:
        raise ValueError(f"n_folds must lie in [2, {m}], got {n_folds}")
    order = np.random.default_rng(seed).permutation(m)
    base, extra = divmod(m, n_folds)
    folds, start = [], 0
    for h in range(n_folds):
        size = base + (1 if h < extra else 0)
        folds.append(np.sort(order[start:start + size]))
        start += size
    return folds


def _learner_seeds(cfg: StackConfig, n_folds: int) -> np.ndarray:
    n_specs = len(cfg.base_learner_specs)
    return np.random.default_rng(cfg.seed).integers(
        0, 2 ** 31 - 1, size=(n_specs, n_folds + 1))


def build_level1_sample(data: LabeledTable, cfg: StackConfig) -> LabeledTable:
    """Out-of-fold base predictions as an m x L table with unchanged targets."""
    folds = kfold_partition(data.n_rows, cfg.n_folds, cfg.seed)
    seeds = _learner_seeds(cfg, cfg.n_folds)
    columns = np.empty((data.n_rows, len(cfg.base_learner_specs)))
    for l, spec in enumerate(cfg.base_learner_specs):
        for h, fold in enumerate(folds):
            train_rows = np.setdiff1d(np.arange(data.n_rows), fold)
            try:
                model = fit_base_learner(spec, data.subset(train_rows), int(seeds[l, h]))
            except Exception as exc:
                raise StackingError(
                    f"base learner {l} ({spec.label}) failed on fold {h}: {exc}") from exc
            columns[fold, l] = model.predict(data.features[fold])
    names = tuple(f"{spec.label}_{l}" for l, spec in enumerate(cfg.base_learner_specs))
    return LabeledTable(columns, data.targets, names)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto {u >= 0, sum u = 1} by the sorting construction.
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > cumulative - 1.0)[0][-1]
    theta = (cumulative[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def stack_objective(level1: LabeledTable, weights: Sequence[float]) -> float:
    """Sum of squared residuals of the weighted level-1 combination."""
    w = np.asarray(weights, dtype=float)
    residual = level1.targets - level1.features @ w
    return float(residual @ residual)


def solve_stacking_weights(level1: LabeledTable) -> np.ndarray:
    """Minimise the stacking squared error over the probability simplex.

    Projected gradient descent with fixed step 1/Lambda, Lambda being a power
    iteration bound on the gradient's Lipschitz constant; stops when the
    mean-squared objective improves by less than 1e-12 or after 10,000 steps.
    """
    F = level1.features
    y = level1.targets
    m, n_learners = F.shape
    if n_learners == 1:
        return np.array([1.0])

    gram = F.T @ F / m
    v = np.full(n_learners, 1.0 / np.sqrt(n_learners))
    for _ in range(100):
        gv = gram @ v
        norm = np.linalg.norm(gv)
        if norm == 0.0:
            return np.full(n_learners, 1.0 / n_learners)
        v = gv / norm
    lam = 2.0 * float(v @ gram @ v) * 1.01  # Lipschitz bound for the MSE gradient
    if lam <= 0.0 or not np.isfinite(lam):
        return np.full(n_learners, 1.0 / n_learners)

    weights = np.full(n_learners, 1.0 / n_learners)
    fitted = F @ weights  # reused by the next step's gradient
    objective = float(np.mean((y - fitted) ** 2))
    for _ in range(_SOLVER_MAX_ITER):
        gradient = 2.0 * F.T @ (fitted - y) / m
        weights = _project_simplex(weights - gradient / lam)
        fitted = F @ weights
        new_objective = float(np.mean((y - fitted) ** 2))
        if abs(objective - new_objective) < _SOLVER_TOL:
            objective = new_objective
            break
        objective = new_objective
    return weights


@dataclass
class StackedModel:
    final_base_learners: list
    weights: np.ndarray
    specs: tuple[LearnerSpec, ...]
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("stacking weights must be nonnegative and sum to one")
        object.__setattr__(self, "weights", w)

    def predict_row(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        base = np.array([learner.predict_row(x) for learner in self.final_base_learners])
        return float(self.weights @ base)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        base = np.stack([learner.predict(X) for learner in self.final_base_learners])
        return self.weights @ base


def fit_stacked(data: LabeledTable, cfg: StackConfig,
                fitted: Optional[Mapping[str, object]] = None) -> StackedModel:
    """Level-1 construction, weight solve, then final refits on all rows.

    ``fitted`` maps spec labels to models already fitted on all of ``data``
    with that spec; those are reused instead of refitted.  Only seed-free
    learners give the same model either way, since a refit draws its seed
    from ``cfg.seed``.
    """
    fitted = fitted or {}
    level1 = build_level1_sample(data, cfg)
    weights = solve_stacking_weights(level1)
    seeds = _learner_seeds(cfg, cfg.n_folds)
    finals = [fitted[spec.label] if spec.label in fitted
              else fit_base_learner(spec, data, int(seeds[l, cfg.n_folds]))
              for l, spec in enumerate(cfg.base_learner_specs)]
    return StackedModel(final_base_learners=finals, weights=weights,
                        specs=tuple(cfg.base_learner_specs),
                        n_features=data.n_features, feature_names=data.feature_names)

