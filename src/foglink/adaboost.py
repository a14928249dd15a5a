"""AdaBoost: the binary classifier with threshold stumps, and the linear-loss
regression adaptation used for SNR prediction.

The classifier follows the textbook recipe: uniform initial weights, weak
learners chosen to minimise weighted misclassification (both stump
polarities are searched, so the error never exceeds one half), learner
votes delta = ln((1-eps)/eps)/2, and multiplicative weight updates kept
normalised each round.

The regressor reweights by per-row linear loss scaled to [0, 1]: rounds
continue while the weight-averaged loss stays below one half, weights are
multiplied by beta^(1-loss) with beta = loss_bar/(1-loss_bar), and
prediction is the weighted median of the weak learners under weights
ln(1/beta).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .tables import LabeledTable
from .tree import RegressionTree, fit_regression_tree

# Vote assigned to a weak learner with zero weighted error, where the
# ln((1-eps)/eps)/2 formula diverges.
_PERFECT_ALPHA = 0.5 * math.log((1.0 - 1e-12) / 1e-12)
_PERFECT_LOG_INV_BETA = math.log(1e12)


class AdaBoostTrainingError(RuntimeError):
    """First-round weak learner no better than chance; boosting cannot start."""


@dataclass
class Stump:
    """Depth-1 threshold rule: x[feature] <= threshold maps to ``polarity``,
    the other side to ``-polarity``."""

    feature: int
    threshold: float
    polarity: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        side = np.where(X[:, self.feature] <= self.threshold, 1.0, -1.0)
        return self.polarity * side


@dataclass
class StumpVote:
    """Binary classifier: the sign of the alpha-weighted stump vote."""

    stumps: list[Stump]
    alphas: list[float]
    round_errors: list[float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        vote = sum(a * stump.predict(X) for a, stump in zip(self.alphas, self.stumps))
        return np.where(vote >= 0, 1.0, -1.0)  # tie votes resolve to +1


@dataclass
class AdaBoostModel:
    """AdaBoost.R2 regressor: the weighted median of its trees under ``alphas``."""

    weak_learners: list[RegressionTree]
    alphas: list[float]
    n_features: int
    feature_names: Optional[tuple[str, ...]] = None
    round_errors: Optional[list[float]] = None

    def __post_init__(self) -> None:
        if not self.weak_learners or len(self.alphas) != len(self.weak_learners):
            raise ValueError(f"AdaBoost needs one alpha per weak learner and at least one "
                             f"learner, got {len(self.alphas)} alphas for "
                             f"{len(self.weak_learners)} learners")
        # positive alphas keep the running sums of predict_row ascending
        for i, alpha in enumerate(self.alphas):
            if not (math.isfinite(alpha) and alpha > 0):
                raise ValueError(f"AdaBoost alphas[{i}] must be finite and positive, "
                                 f"got {alpha!r}")

    def predict_row(self, x: Sequence[float]) -> float:
        """The weighted median of the trees' values: the smallest value, in
        stable order, whose running alpha sum reaches half the total."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        xs = x.tolist()
        values = [learner.leaf_value(xs) for learner in self.weak_learners]
        order = sorted(range(len(values)), key=values.__getitem__)
        cum = list(accumulate(self.alphas[i] for i in order))
        j = bisect_left(cum, 0.5 * cum[-1])
        return values[order[min(j, len(order) - 1)]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([self.predict_row(row) for row in X])


def _candidate_thresholds(column: np.ndarray) -> np.ndarray:
    distinct = np.unique(column)
    return 0.5 * (distinct[:-1] + distinct[1:])


def _best_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[Stump, float]:
    """Minimum-weighted-error stump; searches both polarities, ties broken by
    feature index, threshold, then +1 polarity."""
    best_stump, best_err = None, np.inf
    for f in range(X.shape[1]):
        for t in _candidate_thresholds(X[:, f]):
            plus = np.where(X[:, f] <= t, 1.0, -1.0)
            err_plus = float(w[plus != y].sum())
            for polarity, err in ((1, err_plus), (-1, float(w.sum()) - err_plus)):
                if err < best_err:
                    best_stump, best_err = Stump(f, float(t), polarity), err
    if best_stump is None:
        raise AdaBoostTrainingError("no threshold separates any feature")
    return best_stump, best_err


def classifier_round(X: np.ndarray, y: np.ndarray,
                     weights: np.ndarray) -> tuple[Stump, float, float, np.ndarray]:
    """One boosting round: best stump, its weighted error and vote, and the
    renormalised sample weights for the next round."""
    stump, eps = _best_stump(X, y, weights)
    if eps > 0.5:  # defensive; the polarity search already covers the flip
        stump = Stump(stump.feature, stump.threshold, -stump.polarity)
        eps = 1.0 - eps
    if eps == 0.0:
        return stump, eps, _PERFECT_ALPHA, weights
    alpha = 0.5 * math.log((1.0 - eps) / eps)
    updated = weights * np.exp(-alpha * y * stump.predict(X))
    return stump, eps, alpha, updated / updated.sum()


def fit_adaboost_classifier(data: LabeledTable, n_rounds: int) -> StumpVote:
    """Boost threshold stumps on +-1 labels for up to ``n_rounds`` rounds."""
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be positive, got {n_rounds}")
    y = data.targets
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("classifier targets must be exactly -1 or +1")
    if data.n_rows < 2 or np.unique(y).size < 2:
        raise ValueError("need at least two rows with both classes present")

    X = data.features
    w = np.full(data.n_rows, 1.0 / data.n_rows)
    learners: list[Stump] = []
    alphas: list[float] = []
    errors: list[float] = []
    for _ in range(n_rounds):
        stump, eps, alpha, w = classifier_round(X, y, w)
        if eps == 0.5:
            if not learners:
                raise AdaBoostTrainingError("first-round stump is no better than chance")
            break
        learners.append(stump)
        alphas.append(alpha)
        errors.append(eps)
        if eps == 0.0:
            break
    return StumpVote(stumps=learners, alphas=alphas, round_errors=errors)


def fit_adaboost_r2(data: LabeledTable, n_rounds: int, min_leaf_size: int, *,
                    max_depth: Optional[int] = 3) -> AdaBoostModel:
    """Boost depth-capped regression trees under linear loss.

    Raises :class:`AdaBoostTrainingError` if the very first round's average
    loss already reaches 0.5; later such rounds just end the boosting.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be positive, got {n_rounds}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if data.n_rows < 2:
        raise ValueError("need at least two rows")

    X, y = data.features, data.targets
    w = np.full(data.n_rows, 1.0 / data.n_rows)
    learners: list[RegressionTree] = []
    alphas: list[float] = []
    losses: list[float] = []
    perfect = 1e-12 * max(1.0, float(np.abs(y).max()))
    for _ in range(n_rounds):
        tree = fit_regression_tree(data, min_leaf_size, max_depth=max_depth,
                                   sample_weight=w)
        abs_err = np.abs(y - tree.predict(X))
        worst = float(abs_err.max())
        if worst <= perfect:  # rounding-scale residuals count as a perfect fit
            learners.append(tree)
            alphas.append(_PERFECT_LOG_INV_BETA)
            losses.append(0.0)
            break
        loss = abs_err / worst
        loss_bar = float(np.dot(w, loss))
        if loss_bar >= 0.5:
            if not learners:
                raise AdaBoostTrainingError(
                    f"first-round average loss {loss_bar:.3f} >= 0.5")
            break
        beta = loss_bar / (1.0 - loss_bar)
        learners.append(tree)
        alphas.append(math.log(1.0 / beta))
        losses.append(loss_bar)
        w = w * beta ** (1.0 - loss)
        w = w / w.sum()
    return AdaBoostModel(weak_learners=learners, alphas=alphas, n_features=data.n_features,
                         feature_names=data.feature_names, round_errors=losses)
