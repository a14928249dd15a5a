"""Stacked generalization with a simplex-constrained linear meta-learner.

Rows are split into H folds; every base learner is fitted H times, each time
on the complement of one fold, and its held-out predictions fill one column
of the level-1 sample, so no learner ever scores a row it trained on.  The
meta-learner minimises the squared error of a convex combination of the
level-1 columns -- weights nonnegative and summing to one, the constrained
least squares of Breiman's *Stacked Regressions* (1996) -- which keeps
stacked predictions inside the range of the base predictions and guarantees
the meta objective is no worse than the best single learner.  The weights
are solved exactly by enumerating the supports of the simplex, so at most
``MAX_BASE_LEARNERS`` learners may be stacked.  A learner whose weight is 0
contributes nothing, so the stacked model keeps only the learners of
positive weight, its members.  Their final fits use all rows and the
stacking seed, except those the caller has already fitted that way and
hands over.

The L x H fold fits are independent, so they run in a pool of worker
processes, one per CPU in this process's affinity mask (limit them with
``taskset``) and at most one per fit.  The pool forks, so workers start
without importing anything again; with one usable CPU, or on a platform
that cannot fork, the fits run in process.  Each fit keeps its own seed and
the parent places its predictions by (learner, fold), so the level-1 sample
and everything after it do not depend on the worker count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .adaboost import fit_adaboost_r2
from .boosting import fit_gradient_boost
from .forest import default_mtry_regression, fit_random_forest
from .tables import LabeledTable, split_indices
from .tree import fit_regression_tree

# 2**10 - 1 = 1,023 supports to enumerate in the weight solve
MAX_BASE_LEARNERS = 10


class StackingError(RuntimeError):
    """A base learner failed while building the level-1 sample."""


@dataclass(frozen=True)
class LearnerSpec:
    """Base-learner descriptor: a kind tag plus keyword hyperparameters.

    Kinds: ``tree``, ``forest``, ``gbr`` and ``adbr``.  A kind's parameters
    are the keyword-only arguments of its fit in ``_LEARNERS``;
    ``fit_base_learner`` refuses an unknown kind or parameter with a
    ``ValueError`` naming it.
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
        if not 1 <= len(self.base_learner_specs) <= MAX_BASE_LEARNERS:
            raise ValueError(f"need 1 to {MAX_BASE_LEARNERS} base learners, "
                             f"got {len(self.base_learner_specs)}")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be at least 2, got {self.n_folds}")


def _tree(data, seed, *, min_leaf_size=1, max_depth=None):
    return fit_regression_tree(data, min_leaf_size, max_depth=max_depth)


def _forest(data, seed, *, n_trees=30, mtry=None, min_leaf_size=5):
    if mtry is None:
        mtry = default_mtry_regression(data.n_features)
    return fit_random_forest(data, n_trees, mtry, min_leaf_size, seed)


def _gbr(data, seed, *, n_trees=100, learning_rate=0.1, min_leaf_size=5, max_depth=None):
    return fit_gradient_boost(data, n_trees, learning_rate, min_leaf_size, max_depth=max_depth)


def _adbr(data, seed, *, n_rounds=20, min_leaf_size=5, max_depth=3):
    return fit_adaboost_r2(data, n_rounds, min_leaf_size, max_depth=max_depth)


# kind -> fit(data, seed, **params); the keyword-only defaults list the parameters
_LEARNERS = {"tree": _tree, "forest": _forest, "gbr": _gbr, "adbr": _adbr}


def fit_base_learner(spec: LearnerSpec, data: LabeledTable, seed: int):
    """Train one base learner described by ``spec`` on ``data``."""
    fit = _LEARNERS.get(spec.kind)
    if fit is None:
        raise ValueError(f"unknown base learner kind {spec.kind!r}")
    unknown = sorted(set(spec.params) - set(fit.__kwdefaults__ or ()))
    if unknown:
        raise ValueError(f"unknown parameter(s) for base learner kind {spec.kind!r}: "
                         f"{', '.join(unknown)}")
    return fit(data, seed, **spec.params)


def kfold_partition(m: int, n_folds: int, seed: int) -> list[np.ndarray]:
    """Shuffle row indices and cut them into ``n_folds`` sorted folds whose
    sizes differ by at most one, the larger first."""
    if not 2 <= n_folds <= m:
        raise ValueError(f"n_folds must lie in [2, {m}], got {n_folds}")
    return [np.sort(f) for f in split_indices(m, (1.0 / n_folds,) * n_folds, seed)]


def _fold_workers(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` fold fits: the CPUs this process may
    run on, at most one per fit."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_tasks)


@contextmanager
def _fold_map(n_tasks: int):
    """The ``map`` that runs the fold fits: a fork process pool's, which
    yields results in task order and raises ``BrokenProcessPool`` for each
    fit still owed when a worker dies, or the builtin in process when there
    is one worker or no fork; on exit the pool cancels the fits not started."""
    import multiprocessing
    workers = _fold_workers(n_tasks) if "fork" in multiprocessing.get_all_start_methods() else 1
    if workers == 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def _fit_fold(task: tuple) -> np.ndarray:
    """Predictions for the rows of ``fold`` by ``spec`` fitted with ``seed``
    on every other row of ``data``; ``task`` is ``(spec, data, fold, seed)``."""
    spec, data, fold, seed = task
    train_rows = np.setdiff1d(np.arange(data.n_rows), fold)
    return fit_base_learner(spec, data.subset(train_rows), seed).predict(data.features[fold])


def build_level1_sample(data: LabeledTable, cfg: StackConfig) -> LabeledTable:
    """Out-of-fold base predictions as an m x L table with unchanged targets."""
    folds = kfold_partition(data.n_rows, cfg.n_folds, cfg.seed)
    # Learner l fits fold h with seeds[l, h].  The last column goes unused; it
    # is drawn because the (L, H + 1) shape fixes which value each fold gets.
    seeds = np.random.default_rng(cfg.seed).integers(
        0, 2 ** 31 - 1, size=(len(cfg.base_learner_specs), cfg.n_folds + 1))
    pairs = list(product(enumerate(cfg.base_learner_specs), enumerate(folds)))
    tasks = [(spec, data, fold, int(seeds[l, h])) for (l, spec), (h, fold) in pairs]
    columns = np.empty((data.n_rows, len(cfg.base_learner_specs)))
    with _fold_map(len(tasks)) as fold_map:
        fits = fold_map(_fit_fold, tasks)
        for (l, spec), (h, fold) in pairs:
            try:
                predictions = next(fits)
            except Exception as exc:  # the first failure in (l, h) order
                raise StackingError(
                    f"base learner {l} ({spec.label}) failed on fold {h}: {exc}") from exc
            columns[fold, l] = predictions
    names = tuple(f"{spec.label}_{l}" for l, spec in enumerate(cfg.base_learner_specs))
    return LabeledTable(columns, data.targets, names)


def stack_objective(level1: LabeledTable, weights: Sequence[float]) -> float:
    """Sum of squared residuals of the weighted level-1 combination."""
    w = np.asarray(weights, dtype=float)
    residual = level1.targets - level1.features @ w
    return float(residual @ residual)


def solve_stacking_weights(level1: LabeledTable) -> np.ndarray:
    """Exact minimiser of the stacking squared error over the probability simplex.

    The minimum lies inside some face of the simplex, where it is the
    sum-to-one least squares solution on that face's columns.  Each of the
    2**L - 1 supports is solved with ``lstsq`` on the columns' differences
    from the support's first column; of the solutions with every weight
    nonnegative (each vertex is one), the least squared error wins, ties
    going to the fewest columns, then the lowest column indices.  Weights off
    the winning support are exactly zero.
    """
    F, y = level1.features, level1.targets
    n_learners = F.shape[1]
    best_sse, best = np.inf, None
    for size in range(1, n_learners + 1):
        for support in combinations(range(n_learners), size):
            first, rest = F[:, support[0]], F[:, support[1:]]
            tail = np.linalg.lstsq(rest - first[:, None], y - first, rcond=None)[0]
            weights = np.concatenate(([1.0 - tail.sum()], tail))
            if np.any(weights < 0):
                continue
            residual = y - F[:, support] @ weights
            sse = float(residual @ residual)
            if best is None or sse < best_sse:
                best_sse, best = sse, np.zeros(n_learners)
                best[list(support)] = weights
    return best


@dataclass
class StackedModel:
    """The members of a stack: each final base learner with its spec and its
    positive weight, in the order of the stack's configuration."""

    final_base_learners: list
    weights: np.ndarray
    specs: tuple[LearnerSpec, ...]
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.final_base_learners),) or len(self.specs) != w.size:
            raise ValueError(f"stacked model has {w.size} weights and {len(self.specs)} "
                             f"specs for {len(self.final_base_learners)} base models")
        if not np.all(np.isfinite(w)) or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"stacking weights must be finite, positive and sum to one, "
                             f"got {w.tolist()}")
        object.__setattr__(self, "weights", w)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.weights @ np.stack([m.predict(X) for m in self.final_base_learners])


def fit_stacked(data: LabeledTable, cfg: StackConfig,
                fitted: Optional[Sequence[object]] = None) -> StackedModel:
    """Level-1 construction, weight solve, then final fits on all rows of the
    learners whose weight is not 0.

    A final base learner is ``fit_base_learner(spec, data, cfg.seed)``.
    ``fitted``, aligned with ``cfg.base_learner_specs``, holds models the
    caller already fitted exactly so, reused instead of fitted again, and
    ``None`` where the stack fits that learner itself.
    """
    specs = cfg.base_learner_specs
    fitted = [None] * len(specs) if fitted is None else list(fitted)
    if len(fitted) != len(specs):
        raise ValueError(f"{len(fitted)} fitted models handed over for {len(specs)} "
                         f"base learners")
    weights = solve_stacking_weights(build_level1_sample(data, cfg))
    members = np.flatnonzero(weights)
    finals = [fit_base_learner(specs[l], data, cfg.seed) if fitted[l] is None else fitted[l]
              for l in members]
    return StackedModel(final_base_learners=finals, weights=weights[members],
                        specs=tuple(specs[l] for l in members),
                        n_features=data.n_features, feature_names=data.feature_names)
