import json

import numpy as np
import pytest

from foglink.adaboost import fit_adaboost_r2
from foglink.boosting import fit_gradient_boost
from foglink.cli import EXIT_VALIDATION, main
from foglink.forest import fit_random_forest
from foglink.neural import ActivationKind, MLPModel, TrainConfig, train
from foglink.serialize import load_model, model_from_dict, model_to_dict, save_model
from foglink.stacking import (LearnerSpec, StackConfig, build_level1_sample, fit_base_learner,
                              fit_stacked, solve_stacking_weights)
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


def test_forest_round_trip(data, grid):
    model = fit_random_forest(data, 6, 2, 3, seed=1)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.oob_error == model.oob_error


def test_gradient_boost_round_trip(data, grid):
    model = fit_gradient_boost(data, 20, 0.2, 2)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    assert clone.learning_rate == 0.2


def test_adaboost_r2_round_trip(data, grid):
    model = fit_adaboost_r2(data, 5, 2)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))


def test_adaboost_file_with_mode_key_loads(tmp_path, data, grid):
    """Earlier versions wrote ``"mode":"r2_regressor"`` into every AdaBoost
    file; loading ignores it."""
    model = fit_adaboost_r2(data, 5, 2)
    path = tmp_path / "adbr.json"
    path.write_text(json.dumps({**model_to_dict(model), "mode": "r2_regressor"},
                               sort_keys=True, separators=(",", ":")) + "\n")
    clone = load_model(path)
    assert np.array_equal(clone.predict(grid), model.predict(grid))
    assert clone.alphas == model.alphas and clone.round_errors == model.round_errors


def test_adaboost_classifier_payload_is_refused(tmp_path, capsys):
    """A stump classifier is not a saved model kind: its file exits 3."""
    payload = {"model": "adaboost", "mode": "binary_classifier", "alphas": [0.5],
               "round_errors": [0.25], "n_features": 1, "feature_names": ["x"],
               "learners": [{"feature": 0, "threshold": 1.5, "polarity": 1}]}
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(payload))
    features = tmp_path / "features.csv"
    features.write_text("x\n0.5\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(path), "--features", str(features),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"model file {path}: malformed field" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("alpha", [0.0, -0.5])
def test_adaboost_alpha_not_positive_is_refused(tmp_path, capsys, data, alpha):
    """AdaBoost.R2 only stores alphas ln(1/beta) > 0; a file holding another
    exits 3 naming the alpha."""
    payload = model_to_dict(fit_adaboost_r2(data, 5, 2))
    payload["alphas"][1] = alpha
    path = tmp_path / "adbr.json"
    path.write_text(json.dumps(payload))
    features = tmp_path / "features.csv"
    features.write_text("a,b,c\n0.5,0.5,0.5\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(path), "--features", str(features),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"model file {path}: AdaBoost alphas[1] must be finite and positive" in err
    assert "Traceback" not in err and not out.exists()


# the depth-0 tree, one leaf holding the mean target, gets weight 0
THREE_LEARNERS = StackConfig((LearnerSpec("tree", {"min_leaf_size": 2}),
                              LearnerSpec("forest", {"n_trees": 4, "min_leaf_size": 3}),
                              LearnerSpec("tree", {"max_depth": 0})), n_folds=3, seed=2)


def test_stacked_round_trip(data, grid):
    cfg = THREE_LEARNERS
    model = fit_stacked(data, cfg)
    clone = round_trip(model)
    assert np.array_equal(model.predict(grid), clone.predict(grid))
    # the whole weight vector round-trips, 0 for each learner left out, and
    # the members are exactly the learners of positive weight
    weights = solve_stacking_weights(build_level1_sample(data, cfg))
    assert clone.weights.tolist() == model.weights.tolist() == weights.tolist()
    assert 0 < np.count_nonzero(weights) == len(clone.final_base_learners) < len(weights)


def parent_format(model, cfg) -> dict:
    """``model`` as earlier versions saved it: the members' weights only,
    each member with a copy of its spec."""
    payload = model_to_dict(model)
    members = np.flatnonzero(model.weights)
    payload["weights"] = [payload["weights"][l] for l in members]
    payload["specs"] = [{"kind": cfg.base_learner_specs[l].kind, "name": None,
                         "params": cfg.base_learner_specs[l].params} for l in members]
    return payload


def test_parent_format_stack_loads_and_predicts_the_same(tmp_path, data, grid):
    cfg = THREE_LEARNERS
    model = fit_stacked(data, cfg)
    path = tmp_path / "stacked.json"
    path.write_text(json.dumps(parent_format(model, cfg), sort_keys=True,
                               separators=(",", ":")) + "\n")
    old = load_model(path)
    assert np.array_equal(old.predict(grid), model.predict(grid))
    assert old.weights.tolist() == model.weights[model.weights > 0].tolist()


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
    model = RegressionTree(feature, threshold, left, right, value, 1, ("x",))
    path = tmp_path / "deep.json"
    save_model(model, path)
    clone = load_model(path)
    grid = np.linspace(-1.0, depth + 1.0, 4003)[:, None]
    expected = np.minimum(np.ceil(np.maximum(grid[:, 0], 0.0)), depth)
    assert np.array_equal(model.predict(grid), expected)
    assert np.array_equal(clone.predict(grid), expected)
    rows = grid[::97]
    assert [clone.predict_row(x) for x in rows] == [model.predict_row(x) for x in rows]


def depth_first(tree):
    """``tree`` with its nodes numbered as earlier versions numbered them: a
    split's two children side by side, and the right child's subtree
    numbered before the left one's."""
    old, left, right, stack = [0], [-1], [-1], [0]  # old[i]: node i's number in ``tree``
    while stack:
        node = stack.pop()
        if tree.feature[old[node]] >= 0:
            child = len(old)
            old += [tree.left[old[node]], tree.right[old[node]]]
            left[node], right[node] = child, child + 1
            left += [-1, -1]
            right += [-1, -1]
            stack += [child, child + 1]
    return RegressionTree([tree.feature[i] for i in old], [tree.threshold[i] for i in old],
                          left, right, [tree.value[i] for i in old], tree.n_features,
                          tree.feature_names)


def test_depth_first_file_loads_and_predicts_the_same(tmp_path, data, grid):
    """Files written when nodes were numbered depth-first need no migration:
    the loader asks only that each child comes after its parent."""
    model = fit_regression_tree(data, 1)
    old = depth_first(model)
    assert old.feature != model.feature and sorted(old.value) == sorted(model.value)
    paths = tmp_path / "level.json", tmp_path / "depth_first.json"
    save_model(model, paths[0])
    save_model(old, paths[1])
    level, depth = (load_model(path) for path in paths)
    assert np.array_equal(depth.predict(grid), level.predict(grid))
    assert [depth.predict_row(x) for x in grid] == [level.predict_row(x) for x in grid]
    assert np.array_equal(level.predict(grid), model.predict(grid))


# keys the files of earlier versions held that nothing reads
OLD_KEYS = [(lambda d: fit_regression_tree(d, 2), {"min_leaf_size": 2}),
            (lambda d: fit_random_forest(d, 6, 2, 3, seed=1),
             {"seed": 1, "mtry": 2, "min_leaf_size": 3}),
            (lambda d: fit_gradient_boost(d, 20, 0.2, 2), {"min_leaf_size": 2})]


@pytest.mark.parametrize("fit, old_keys", OLD_KEYS, ids=["tree", "forest", "gbr"])
def test_old_indented_file_loads(tmp_path, data, grid, fit, old_keys):
    model = fit(data)
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**model_to_dict(model), **old_keys},
                               sort_keys=True, indent=1) + "\n")
    assert np.array_equal(load_model(path).predict(grid), model.predict(grid))


def test_saved_file_is_compact(tmp_path, data):
    path = tmp_path / "tree.json"
    save_model(fit_regression_tree(data, 2), path)
    text = path.read_text()
    assert text.count("\n") == 1 and ", " not in text and ": " not in text
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_old_stack_with_zero_weight_is_refused(tmp_path, data, capsys):
    """Earlier versions saved every configured learner, a weight of 0
    included, with its spec and model; such a file exits 3 naming the file,
    for it holds a model for a learner of weight 0."""
    mean = LearnerSpec("tree", {"max_depth": 0})
    cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 2}),
                       LearnerSpec("forest", {"n_trees": 4, "min_leaf_size": 3})),
                      n_folds=3, seed=2)
    old = parent_format(fit_stacked(data, cfg), cfg)
    members = len(old["weights"])
    old["weights"].append(0.0)
    old["specs"].append({"kind": "tree", "name": None, "params": mean.params})
    old["base_models"].append(model_to_dict(fit_base_learner(mean, data, 2)))
    path = tmp_path / "stacked.json"
    path.write_text(json.dumps(old, sort_keys=True, indent=1) + "\n")
    features = tmp_path / "features.csv"
    features.write_text("a,b,c\n0.1,0.2,0.3\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(path), "--features", str(features),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"model file {path}: stacked model has {members} positive weights for " \
           f"{members + 1} base models" in err
    assert "Traceback" not in err and not out.exists()


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


SENTINEL = 12345.678
# one fit per saved model kind, and where its file holds a float that predict reads
KIND_FIELDS = {
    "tree": (lambda d: fit_regression_tree(d, 2), lambda p: p["threshold"]),
    "forest": (lambda d: fit_random_forest(d, 3, 2, 3, seed=1),
               lambda p: p["trees"][0]["value"]),
    "gbr": (lambda d: fit_gradient_boost(d, 3, 0.1, 2), None),
    "adbr": (lambda d: fit_adaboost_r2(d, 3, 2), lambda p: p["alphas"]),
    "stacked": (lambda d: fit_stacked(d, StackConfig(
        (LearnerSpec("tree", {"min_leaf_size": 2}),
         LearnerSpec("forest", {"n_trees": 3, "min_leaf_size": 3})), n_folds=2, seed=2)),
        lambda p: p["weights"]),
    "mlp": (lambda d: MLPModel.initialize((3, 4, 1), seed=3), lambda p: p["x_std"]),
}


def predict_exit(tmp_path, text, capsys):
    """``predict``'s exit code and stderr for a model file holding ``text``."""
    path = tmp_path / "model.json"
    path.write_text(text)
    features = tmp_path / "features.csv"
    features.write_text("a,b,c\n0.1,0.2,0.3\n")
    out = tmp_path / "pred.csv"
    code = main(["predict", "--model", str(path), "--features", str(features),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert not out.exists()
    return code, err, path


@pytest.mark.parametrize("literal, message", [
    ("1e400", "non-finite number 1e400"),
    ("-1e400", "non-finite number -1e400"),
    ("1" + "0" * 400, "integer of 401 digits is out of the float range"),
    ("-1" + "0" * 400, "integer of 401 digits is out of the float range")],
    ids=["1e400", "-1e400", "400-digit-int", "-400-digit-int"])
@pytest.mark.parametrize("kind", list(KIND_FIELDS))
def test_out_of_range_number_is_refused(tmp_path, capsys, data, kind, literal, message):
    """A number that parses to no finite float exits 3 naming the file,
    where it loaded as inf (so gbr wrote nan) or overflowed in float()."""
    fit, field = KIND_FIELDS[kind]
    payload = model_to_dict(fit(data))
    if field is None:
        payload["learning_rate"] = SENTINEL
    else:
        field(payload)[0] = SENTINEL
    text = json.dumps(payload).replace(repr(SENTINEL), literal)
    code, err, path = predict_exit(tmp_path, text, capsys)
    assert code == EXIT_VALIDATION
    assert f"validation error: model file {path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, edit, message", [
    ("tree", lambda p: p["feature"].__setitem__(0, 0.9),
     "field 'feature': need an integer, got 0.9"),
    ("tree", lambda p: p["left"].__setitem__(0, 1.7), "field 'left': need an integer, got 1.7"),
    ("tree", lambda p: p["right"].__setitem__(0, True),
     "field 'right': need an integer, got True"),
    ("tree", lambda p: p.update(n_features=3.0), "field 'n_features': need an integer, got 3.0"),
    ("forest", lambda p: p.update(n_features=True),
     "field 'n_features': need an integer, got True"),
    ("stacked", lambda p: p["base_models"][0]["left"].__setitem__(0, 1.0),
     "field 'left': need an integer, got 1.0"),
    ("mlp", lambda p: p["layer_sizes"].__setitem__(1, 4.5),
     "field 'layer_sizes': need an integer, got 4.5")],
    ids=["feature-float", "left-float", "right-bool", "n_features-float", "n_features-bool",
         "stack-member-left", "layer_sizes-float"])
def test_non_integer_field_is_refused(tmp_path, capsys, data, kind, edit, message):
    """A float or boolean where an integer belongs exits 3 naming the file;
    ``int()`` had taken 0.9 for feature 0 and true for node 1."""
    payload = model_to_dict(KIND_FIELDS[kind][0](data))
    edit(payload)
    code, err, path = predict_exit(tmp_path, json.dumps(payload), capsys)
    assert code == EXIT_VALIDATION
    assert f"validation error: model file {path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["file", "stack member"])
def test_model_that_is_not_an_object_is_refused(tmp_path, capsys, data, where):
    payload = [1, 2]
    if where == "stack member":
        payload = model_to_dict(KIND_FIELDS["stacked"][0](data))
        payload["base_models"][0] = [1, 2]
    code, err, path = predict_exit(tmp_path, json.dumps(payload), capsys)
    assert code == EXIT_VALIDATION
    assert f"model file {path}: a model must be a JSON object, got list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("nesting", ["arrays", "stacks"])
def test_model_nested_too_deeply_is_refused(tmp_path, capsys, data, nesting):
    """Nesting beyond the recursion limit exits 3 naming the file: 100,000
    arrays in ``base_models``, or 900 stacks each the only member of the
    next.  The texts are built as strings, as ``json.dumps`` cannot encode
    them either."""
    stack = ('{"model":"stacked","n_features":3,"feature_names":["a","b","c"],'
             '"weights":[1.0],"base_models":[')
    if nesting == "arrays":
        text = stack + "[" * 100_000 + "]" * 100_000 + "]}"
    else:
        tree = json.dumps(model_to_dict(fit_regression_tree(data, 2)))
        text = stack * 900 + tree + "]}" * 900
    code, err, path = predict_exit(tmp_path, text, capsys)
    assert (code, err) == (EXIT_VALIDATION,
                           f"validation error: model file {path}: nested too deeply\n")


@pytest.mark.parametrize("kind, names", [
    ("tree", "abc"), ("tree", ["a", "b"]), ("tree", [1, 2, 3]), ("mlp", ["a", "b"])],
    ids=["string", "too-few", "not-strings", "mlp-too-few"])
def test_feature_names_not_one_string_per_input_are_refused(tmp_path, capsys, data, kind,
                                                            names):
    """``feature_names`` must be null or one string per input; ``"abc"`` had
    loaded as the names a, b and c, and predicted on a CSV headed a,b,c."""
    payload = {**model_to_dict(KIND_FIELDS[kind][0](data)), "feature_names": names}
    code, err, path = predict_exit(tmp_path, json.dumps(payload), capsys)
    assert code == EXIT_VALIDATION
    assert (f"validation error: model file {path}: field 'feature_names': need null or "
            f"a list of 3 strings, got {names!r}") in err
    assert "Traceback" not in err
