"""JSON persistence for every fitted model type.

Each payload carries a ``model`` tag, the input schema (``n_features``,
``feature_names``), what ``predict`` reads, and the fit diagnostics the
training log reports (``oob_error``, ``round_errors``); the fitting
hyperparameters are in the run manifest.  Trees are their five parallel
node lists (``feature``, ``threshold``, ``left``, ``right``, ``value``, as in
``tree.RegressionTree``), networks row-major weight matrices with their
input standardisation.  A stacked model is its weight for every configured
learner, 0 for one left out, and the whole models of its members, the
learners of positive weight; the ``specs`` of earlier files go unread.
Dumps are compact and key-sorted, so identical models serialise to
identical bytes.  Loading refuses non-finite numbers (``1e400`` included),
integers beyond the float range and a non-integer where an integer belongs
(a node's feature or child, ``n_features``, ``layer_sizes``), feature
names that are not null or one string per input, ignores keys it does not
read, and checks that every walk down a tree ends at a leaf.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Union

import numpy as np

from .adaboost import AdaBoostModel
from .boosting import GradientBoostModel
from .forest import RandomForestModel
from .neural import ActivationKind, MLPModel
from .stacking import StackedModel
from .tree import RegressionTree

AnyModel = Union[RegressionTree, RandomForestModel, GradientBoostModel,
                 AdaBoostModel, StackedModel, MLPModel]


def _nodes(tree: RegressionTree) -> dict:
    return {"feature": tree.feature, "threshold": tree.threshold, "left": tree.left,
            "right": tree.right, "value": tree.value}


def _int(value, field: str) -> int:
    """``value``, which must be a JSON integer: ``int()`` would truncate a
    float and take a boolean for 0 or 1."""
    if type(value) is not int:
        raise ValueError(f"field {field!r}: need an integer, got {value!r}")
    return value


def _tree(d: dict, n_features: int, names) -> RegressionTree:
    """The tree whose node lists ``d`` holds.  A split's feature must index a
    column and its children must come after it, so no walk revisits a node."""
    feature, left, right = ([_int(i, field) for i in d[field]]
                            for field in ("feature", "left", "right"))
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
        return {"model": "adaboost", "alphas": list(model.alphas),
                "round_errors": model.round_errors, "n_features": model.n_features,
                "feature_names": _names(model),
                "learners": [_nodes(t) for t in model.weak_learners]}
    if isinstance(model, StackedModel):
        return {"model": "stacked", "weights": [float(w) for w in model.weights],
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


def _feature_names(d: dict, n_inputs: int):
    """The ``feature_names`` of ``d``: null, or one string per input."""
    names = d.get("feature_names")
    if names is not None and not (isinstance(names, list) and len(names) == n_inputs
                                  and all(isinstance(name, str) for name in names)):
        raise ValueError(f"field 'feature_names': need null or a list of {n_inputs} "
                         f"strings, got {names!r}")
    return None if names is None else tuple(names)


def model_from_dict(d: dict) -> AnyModel:
    if not isinstance(d, dict):
        raise ValueError(f"a model must be a JSON object, got {type(d).__name__}")
    kind = d.get("model")
    if kind == "mlp":
        model = MLPModel(layer_sizes=tuple(_int(s, "layer_sizes") for s in d["layer_sizes"]),
                         weights=[np.asarray(w, dtype=float) for w in d["weights"]],
                         biases=[np.asarray(b, dtype=float) for b in d["biases"]],
                         hidden_activation=ActivationKind(d["hidden_activation"]),
                         output_activation=ActivationKind(d["output_activation"]),
                         x_mean=np.asarray(d["x_mean"], dtype=float),
                         x_std=np.asarray(d["x_std"], dtype=float))
        model.feature_names = _feature_names(d, model.layer_sizes[0])
        return model
    if kind not in ("regression_tree", "random_forest", "gradient_boost", "adaboost", "stacked"):
        raise ValueError(f"unknown model tag {kind!r}")
    n_features = _int(d["n_features"], "n_features")
    names = _feature_names(d, n_features)
    if kind == "regression_tree":
        return _tree(d, n_features, names)
    if kind == "random_forest":
        return RandomForestModel(trees=[_tree(n, n_features, names) for n in d["trees"]],
                                 oob_error=d["oob_error"], n_features=n_features,
                                 feature_names=names)
    if kind == "gradient_boost":
        return GradientBoostModel(init_value=float(d["init_value"]),
                                  trees=[_tree(n, n_features, names) for n in d["trees"]],
                                  learning_rate=float(d["learning_rate"]),
                                  n_features=n_features, feature_names=names)
    if kind == "adaboost":
        return AdaBoostModel(weak_learners=[_tree(n, n_features, names) for n in d["learners"]],
                             alphas=[float(a) for a in d["alphas"]],
                             n_features=n_features, feature_names=names,
                             round_errors=d.get("round_errors"))
    return StackedModel(final_base_learners=[model_from_dict(m) for m in d["base_models"]],
                        weights=np.asarray(d["weights"], dtype=float),
                        n_features=n_features, feature_names=names)


def save_model(model: AnyModel, path: Union[str, Path]) -> None:
    payload = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(payload + "\n")


def _non_finite(literal: str):
    raise ValueError(f"non-finite number {literal}")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _non_finite(literal)
    return value


def _float_range_int(literal: str) -> int:
    value = int(literal)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(literal.lstrip('-'))} digits is out of the float range")
    return value


def load_model(path: Union[str, Path]) -> AnyModel:
    """Read a model file; a missing, ill-typed, non-finite or invalid field,
    an integer beyond the float range, nesting beyond the interpreter's
    recursion limit, or a file that is not a JSON object is a ValueError
    naming the file."""
    try:
        return model_from_dict(json.loads(
            Path(path).read_text(), parse_constant=_non_finite,
            parse_float=_finite_float, parse_int=_float_range_int))
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"model file {path}: malformed field ({exc})") from exc
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"model file {path}: nested too deeply") from exc
