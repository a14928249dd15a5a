import json

import numpy as np
import pytest

from foglink.adaboost import fit_adaboost_classifier, fit_adaboost_r2
from foglink.boosting import fit_gradient_boost
from foglink.forest import fit_random_forest
from foglink.neural import ActivationKind, MLPModel, TrainConfig, train
from foglink.serialize import load_model, model_from_dict, model_to_dict, save_model
from foglink.stacking import LearnerSpec, StackConfig, fit_stacked
from foglink.tables import LabeledTable
from foglink.tree import RegressionTree, fit_regression_tree


@pytest.fixture
def data():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.normal(size=30)
    return LabeledTable(X, y, ("a", "b", "c"))


@pytest.fixture
def grid():
    return np.random.default_rng(8).uniform(-1, 1, size=(25, 3))


def round_trip(model):
    return model_from_dict(model_to_dict(model))


def test_tree_round_trip(data, grid):
    model = fit_regression_tree(data, 2)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.feature_names == ("a", "b", "c")
    assert clone.min_leaf_size == 2


def test_forest_round_trip(data, grid):
    model = fit_random_forest(data, 6, 2, 3, seed=1)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.oob_error == model.oob_error
    assert clone.bootstrap_seed == 1


def test_gradient_boost_round_trip(data, grid):
    model = fit_gradient_boost(data, 20, 0.2, 2)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.learning_rate == 0.2


def test_adaboost_classifier_round_trip(grid):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    model = fit_adaboost_classifier(LabeledTable(X, y, ("a", "b", "c")), 5)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.alphas == model.alphas


def test_adaboost_r2_round_trip(data, grid):
    model = fit_adaboost_r2(data, 5, 2)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))


def test_stacked_round_trip(data, grid):
    cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 2}),
                       LearnerSpec("forest", {"n_trees": 4, "min_leaf_size": 3}),
                       LearnerSpec("tree", {"max_depth": 0})), n_folds=3, seed=2)
    model = fit_stacked(data, cfg)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.weights == pytest.approx(model.weights, rel=0, abs=0)
    assert [s.kind for s in clone.specs] == ["tree", "forest", "tree"]


def test_mlp_round_trip(data, grid):
    net = MLPModel.initialize((3, 5, 1), hidden_activation=ActivationKind.TANH, seed=3)
    fitted = train(net, data, TrainConfig(0.05, epochs=30, batch_size=8, seed=4)).model
    clone = round_trip(fitted)
    assert np.array_equal(fitted.predict(grid), clone.predict(grid))
    assert clone.hidden_activation is ActivationKind.TANH
    assert np.array_equal(clone.x_mean, fitted.x_mean)


def test_save_load_files_byte_identical_for_same_fit(tmp_path, data):
    for index, fit in enumerate((lambda: fit_random_forest(data, 4, 1, 2, seed=5),
                                 lambda: fit_gradient_boost(data, 5, 0.3, 3))):
        path_a = tmp_path / f"a{index}.json"
        path_b = tmp_path / f"b{index}.json"
        save_model(fit(), path_a)
        save_model(fit(), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        loaded = load_model(path_a)
        grid = data.features
        assert np.array_equal(loaded.predict(grid), fit().predict(grid))


def test_deep_tree_round_trip(tmp_path):
    # a chain 2,000 splits deep: split k sends x <= k to a leaf valued k
    depth = 2000
    feature = [0, -1] * depth + [-1]
    threshold = [t for k in range(depth) for t in (float(k), 0.0)] + [0.0]
    left = [i for k in range(depth) for i in (2 * k + 1, -1)] + [-1]
    right = [i for k in range(depth) for i in (2 * k + 2, -1)] + [-1]
    value = [v for k in range(depth) for v in (0.0, float(k))] + [float(depth)]
    model = RegressionTree(feature, threshold, left, right, value, 1, 1, ("x",))
    path = tmp_path / "deep.json"
    save_model(model, path)
    clone = load_model(path)
    grid = np.linspace(-1.0, depth + 1.0, 4003)[:, None]
    expected = np.minimum(np.ceil(np.maximum(grid[:, 0], 0.0)), depth)
    assert np.array_equal(model.predict(grid), expected)
    assert np.array_equal(clone.predict(grid), expected)
    rows = grid[::97]
    assert [clone.predict_row(x) for x in rows] == [model.predict_row(x) for x in rows]


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"model": "perceptron-9000"})


def test_missing_field_names_file_and_field(tmp_path, data):
    path = tmp_path / "gbr.json"
    save_model(fit_gradient_boost(data, 3, 0.1, 2), path)
    payload = json.loads(path.read_text())
    del payload["init_value"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"gbr\.json: missing field 'init_value'"):
        load_model(path)


def test_ill_typed_field_is_value_error(tmp_path, data):
    path = tmp_path / "tree.json"
    save_model(fit_regression_tree(data, 2), path)
    payload = json.loads(path.read_text())
    payload["feature"] = None
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"tree\.json: malformed field"):
        load_model(path)
