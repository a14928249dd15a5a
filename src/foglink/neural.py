"""Feed-forward multilayer perceptron trained by mini-batch gradient descent.

The default regression architecture is 5 inputs, one sigmoid hidden layer
and a single linear output.  Inputs are z-scored per feature, with the
statistics fitted on the training split only and stored on the model, so a
trained network standardises its own inputs at prediction time.  Training
is a plain sequential loop (reproducibility over speed): identical seeds
give bit-identical loss histories.  ``gradient_check`` verifies the
backpropagated gradients against central finite differences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .tables import LabeledTable, split_indices


class ActivationKind(enum.Enum):
    TANH = "tanh"
    SIGMOID = "sigmoid"
    RELU = "relu"
    GAUSSIAN = "gaussian"
    DIRECT = "direct"


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


def _apply(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.TANH:
        return np.tanh(z)
    if kind is ActivationKind.SIGMOID:
        return 1.0 / (1.0 + np.exp(-z))
    if kind is ActivationKind.RELU:
        return np.maximum(0.0, z)
    if kind is ActivationKind.GAUSSIAN:
        return np.exp(-z * z)
    return z


def _derivative(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.TANH:
        t = np.tanh(z)
        return 1.0 - t * t
    if kind is ActivationKind.SIGMOID:
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 - s)
    if kind is ActivationKind.RELU:
        return (z > 0).astype(float)
    if kind is ActivationKind.GAUSSIAN:
        return -2.0 * z * np.exp(-z * z)
    return np.ones_like(z)


def _layer_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"layer_sizes needs >= 2 positive entries, got {sizes}")
    return sizes


@dataclass
class MLPModel:
    """Layer sizes, per-layer weight matrices (fan_in x fan_out, row-major)
    and biases, plus the input standardisation fitted at training time."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: ActivationKind = ActivationKind.SIGMOID
    output_activation: ActivationKind = ActivationKind.DIRECT
    x_mean: Optional[np.ndarray] = None
    x_std: Optional[np.ndarray] = None
    feature_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        sizes = _layer_sizes(self.layer_sizes)
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight matrix and bias vector per layer transition")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} parameter shapes disagree with {sizes}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} parameters must be finite")
        object.__setattr__(self, "layer_sizes", sizes)
        if self.x_mean is None:
            self.x_mean = np.zeros(sizes[0])
        if self.x_std is None:
            self.x_std = np.ones(sizes[0])
        if (self.x_mean.shape != (sizes[0],) or self.x_std.shape != (sizes[0],)
                or not np.all(np.isfinite(self.x_mean))
                or not np.all(np.isfinite(self.x_std)) or np.any(self.x_std <= 0)):
            raise ValueError(f"x_mean and x_std must be finite vectors of length "
                             f"{sizes[0]}, with x_std > 0")

    @classmethod
    def initialize(cls, layer_sizes: Sequence[int],
                   hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                   output_activation: ActivationKind = ActivationKind.DIRECT,
                   seed: int = 0) -> "MLPModel":
        """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases."""
        sizes = _layer_sizes(layer_sizes)
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(layer_sizes=sizes, weights=weights, biases=biases,
                   hidden_activation=hidden_activation,
                   output_activation=output_activation)

    def copy(self) -> "MLPModel":
        return MLPModel(layer_sizes=self.layer_sizes,
                        weights=[w.copy() for w in self.weights],
                        biases=[b.copy() for b in self.biases],
                        hidden_activation=self.hidden_activation,
                        output_activation=self.output_activation,
                        x_mean=self.x_mean.copy(), x_std=self.x_std.copy(),
                        feature_names=self.feature_names)

    def _forward_batch(self, X: np.ndarray):
        """Returns (pre-activations per layer, post-activations per layer)."""
        a = (X - self.x_mean) / self.x_std
        pre, post = [], [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            kind = self.output_activation if i == last else self.hidden_activation
            a = _apply(kind, z)
            pre.append(z)
            post.append(a)
        return pre, post

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected (m, {self.layer_sizes[0]}) matrix, got {X.shape}")
        _, post = self._forward_batch(X)
        return post[-1][:, 0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int = 0
    early_stop_patience: int = 0  # 0 disables validation-based early stopping

    def __post_init__(self) -> None:
        # zero is allowed as a frozen-parameter baseline
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be nonnegative")


@dataclass
class TrainResult:
    model: MLPModel
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_rows: np.ndarray = None
    val_rows: np.ndarray = None
    test_rows: np.ndarray = None


def _mse(model: MLPModel, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((model.predict(X) - y) ** 2))


def _gradients(model: MLPModel, X: np.ndarray, y: np.ndarray):
    """Backpropagated gradients of the batch MSE wrt weights and biases."""
    pre, post = model._forward_batch(X)
    last = len(model.weights) - 1
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    delta = (2.0 / X.shape[0]) * (post[-1][:, 0] - y)[:, None]
    delta = delta * _derivative(model.output_activation, pre[-1])
    for i in range(last, -1, -1):
        grad_w[i] = post[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * _derivative(model.hidden_activation, pre[i - 1])
    return grad_w, grad_b


def train(model: MLPModel, data: LabeledTable, cfg: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent on mean squared error.

    Rows are shuffled once and split 70/15/15 into training, validation and
    test rows; the test rows are only reported, never used.  Input
    standardisation is fitted on the training rows only.  With a positive
    patience, training stops after that many epochs without validation
    improvement and the best-validation parameters are restored.
    """
    if data.n_rows < 1:
        raise ValueError("cannot train on an empty table")
    if data.n_features != model.layer_sizes[0]:
        raise ValueError(
            f"model expects {model.layer_sizes[0]} inputs, table has {data.n_features}")

    rng = np.random.default_rng(cfg.seed)
    # largest-remainder rounding gives the 0.7 share a row whenever there is one
    train_rows, val_rows, test_rows = split_indices(data.n_rows, (0.7, 0.15, 0.15), rng)
    n_train = len(train_rows)

    X_train = data.features[train_rows]
    y_train = data.targets[train_rows]
    X_val = data.features[val_rows]
    y_val = data.targets[val_rows]

    fitted = model.copy()
    fitted.feature_names = data.feature_names
    fitted.x_mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    fitted.x_std = np.where(std > 0, std, 1.0)

    result = TrainResult(model=fitted, train_rows=train_rows,
                         val_rows=val_rows, test_rows=test_rows)
    best_val = np.inf
    best_params = None
    stale_epochs = 0
    for epoch in range(cfg.epochs):
        batch_order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = batch_order[start:start + cfg.batch_size]
            grad_w, grad_b = _gradients(fitted, X_train[rows], y_train[rows])
            for i in range(len(fitted.weights)):
                fitted.weights[i] -= cfg.learning_rate * grad_w[i]
                fitted.biases[i] -= cfg.learning_rate * grad_b[i]
        epoch_train = _mse(fitted, X_train, y_train)
        epoch_val = _mse(fitted, X_val, y_val) if len(val_rows) else float("nan")
        if not np.isfinite(epoch_train):
            raise TrainingError(f"training loss diverged at epoch {epoch}")
        result.train_loss.append(epoch_train)
        result.val_loss.append(epoch_val)
        if cfg.early_stop_patience > 0 and len(val_rows):
            if epoch_val < best_val:
                best_val = epoch_val
                best_params = ([w.copy() for w in fitted.weights],
                               [b.copy() for b in fitted.biases])
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= cfg.early_stop_patience:
                    break
    if best_params is not None:
        fitted.weights, fitted.biases = best_params
    return result


def gradient_check(model: MLPModel, data: LabeledTable, epsilon: float) -> float:
    """Max relative gap between backprop and central-difference gradients."""
    if not 1e-8 < epsilon < 1e-3:
        raise ValueError(f"epsilon must lie in (1e-8, 1e-3), got {epsilon}")
    X, y = data.features, data.targets
    grad_w, grad_b = _gradients(model, X, y)
    worst = 0.0
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for arr, grad in zip(params, grads):
            flat = arr.ravel()
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + epsilon
                up = _mse(model, X, y)
                flat[j] = keep - epsilon
                down = _mse(model, X, y)
                flat[j] = keep
                numeric = (up - down) / (2.0 * epsilon)
                analytic = grad.ravel()[j]
                gap = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, gap)
    return worst
