"""JSON persistence for every fitted model type.

Each payload carries a ``model`` tag, the input schema (``n_features``,
``feature_names``), what ``predict`` reads, and the fit diagnostics the
training log reports (``oob_error``, ``round_errors``); the fitting
hyperparameters are in the run manifest.  Trees are their five parallel
node lists (``feature``, ``threshold``, ``left``, ``right``, ``value``, as in
``tree.RegressionTree``), networks row-major weight matrices with their
input standardisation.  Stacked models embed their members' models whole.
Dumps are compact and key-sorted, so identical models serialise to
identical bytes.  Loading refuses non-finite numbers, ignores keys it does
not read, and checks that every walk down a tree ends at a leaf.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

import numpy as np

from .adaboost import AdaBoostMode, AdaBoostModel, Stump
from .boosting import GradientBoostModel
from .forest import RandomForestModel
from .neural import ActivationKind, MLPModel
from .stacking import LearnerSpec, StackedModel
from .tree import RegressionTree

AnyModel = Union[RegressionTree, RandomForestModel, GradientBoostModel,
                 AdaBoostModel, StackedModel, MLPModel]


def _nodes(tree: RegressionTree) -> dict:
    return {"feature": tree.feature, "threshold": tree.threshold, "left": tree.left,
            "right": tree.right, "value": tree.value}


def _tree(d: dict, n_features: int, names) -> RegressionTree:
    """The tree whose node lists ``d`` holds.  A split's feature must index a
    column and its children must come after it, so no walk revisits a node."""
    feature = [int(f) for f in d["feature"]]
    left = [int(i) for i in d["left"]]
    right = [int(i) for i in d["right"]]
    threshold = [float(t) for t in d["threshold"]]
    value = [float(v) for v in d["value"]]
    n = len(feature)
    lengths = [len(column) for column in (feature, threshold, left, right, value)]
    if n == 0 or lengths.count(n) != 5:
        raise ValueError(f"tree node lists must share one nonzero length, got {lengths}")
    for i, (f, lo, hi) in enumerate(zip(feature, left, right)):
        if f != -1 and not (0 <= f < n_features and i < lo < n and i < hi < n):
            raise ValueError(
                f"tree node {i} splits on feature {f} into nodes {lo} and {hi}; "
                f"need a feature in [0, {n_features}) and children in ({i}, {n})")
    return RegressionTree(feature, threshold, left, right, value, n_features, names)


def _names(model) -> Any:
    return list(model.feature_names) if model.feature_names is not None else None


def model_to_dict(model: AnyModel) -> dict:
    if isinstance(model, RegressionTree):
        return {"model": "regression_tree", "n_features": model.n_features,
                "feature_names": _names(model), **_nodes(model)}
    if isinstance(model, RandomForestModel):
        return {"model": "random_forest", "oob_error": model.oob_error,
                "n_features": model.n_features, "feature_names": _names(model),
                "trees": [_nodes(t) for t in model.trees]}
    if isinstance(model, GradientBoostModel):
        return {"model": "gradient_boost", "init_value": model.init_value,
                "learning_rate": model.learning_rate, "n_features": model.n_features,
                "feature_names": _names(model),
                "trees": [_nodes(t) for t in model.trees]}
    if isinstance(model, AdaBoostModel):
        if model.mode is AdaBoostMode.BINARY_CLASSIFIER:
            learners = [{"feature": s.feature, "threshold": s.threshold,
                         "polarity": s.polarity} for s in model.weak_learners]
        else:
            learners = [_nodes(t) for t in model.weak_learners]
        return {"model": "adaboost", "mode": model.mode.value,
                "alphas": list(model.alphas), "round_errors": model.round_errors,
                "n_features": model.n_features, "feature_names": _names(model),
                "learners": learners}
    if isinstance(model, StackedModel):
        return {"model": "stacked", "weights": [float(w) for w in model.weights],
                "specs": [{"kind": s.kind, "name": s.name, "params": s.params}
                          for s in model.specs],
                "n_features": model.n_features, "feature_names": _names(model),
                "base_models": [model_to_dict(m) for m in model.final_base_learners]}
    if isinstance(model, MLPModel):
        return {"model": "mlp", "layer_sizes": list(model.layer_sizes),
                "hidden_activation": model.hidden_activation.value,
                "output_activation": model.output_activation.value,
                "weights": [w.tolist() for w in model.weights],
                "biases": [b.tolist() for b in model.biases],
                "x_mean": model.x_mean.tolist(), "x_std": model.x_std.tolist(),
                "feature_names": _names(model)}
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(d: dict) -> AnyModel:
    kind = d.get("model")
    names = tuple(d["feature_names"]) if d.get("feature_names") is not None else None
    if kind == "regression_tree":
        return _tree(d, int(d["n_features"]), names)
    if kind == "random_forest":
        trees = [_tree(n, int(d["n_features"]), names) for n in d["trees"]]
        return RandomForestModel(trees=trees, oob_error=d["oob_error"],
                                 n_features=int(d["n_features"]), feature_names=names)
    if kind == "gradient_boost":
        trees = [_tree(n, int(d["n_features"]), names) for n in d["trees"]]
        return GradientBoostModel(init_value=float(d["init_value"]), trees=trees,
                                  learning_rate=float(d["learning_rate"]),
                                  n_features=int(d["n_features"]), feature_names=names)
    if kind == "adaboost":
        mode = AdaBoostMode(d["mode"])
        if mode is AdaBoostMode.BINARY_CLASSIFIER:
            learners = [Stump(int(s["feature"]), float(s["threshold"]), int(s["polarity"]))
                        for s in d["learners"]]
        else:
            learners = [_tree(n, int(d["n_features"]), names) for n in d["learners"]]
        return AdaBoostModel(weak_learners=learners,
                             alphas=[float(a) for a in d["alphas"]], mode=mode,
                             n_features=int(d["n_features"]), feature_names=names,
                             round_errors=d.get("round_errors"))
    if kind == "stacked":
        specs = tuple(LearnerSpec(kind=s["kind"], params=dict(s["params"]),
                                  name=s.get("name")) for s in d["specs"])
        return StackedModel(final_base_learners=[model_from_dict(m) for m in d["base_models"]],
                            weights=np.asarray(d["weights"], dtype=float), specs=specs,
                            n_features=int(d["n_features"]), feature_names=names)
    if kind == "mlp":
        return MLPModel(layer_sizes=tuple(int(s) for s in d["layer_sizes"]),
                        weights=[np.asarray(w, dtype=float) for w in d["weights"]],
                        biases=[np.asarray(b, dtype=float) for b in d["biases"]],
                        hidden_activation=ActivationKind(d["hidden_activation"]),
                        output_activation=ActivationKind(d["output_activation"]),
                        x_mean=np.asarray(d["x_mean"], dtype=float),
                        x_std=np.asarray(d["x_std"], dtype=float),
                        feature_names=names)
    raise ValueError(f"unknown model tag {kind!r}")


def save_model(model: AnyModel, path: Union[str, Path]) -> None:
    payload = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(payload + "\n")


def _non_finite(literal: str):
    raise ValueError(f"non-finite number {literal}")


def load_model(path: Union[str, Path]) -> AnyModel:
    """Read a model file; a missing, ill-typed, non-finite or invalid field
    is a ValueError naming the file."""
    try:
        return model_from_dict(json.loads(Path(path).read_text(),
                                          parse_constant=_non_finite))
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"model file {path}: malformed field ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
