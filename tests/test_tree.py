import numpy as np
import pytest

from foglink.tables import LabeledTable
from foglink.tree import Leaf, Split, fit_regression_tree


def table(features, targets):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 1 and len(targets) > 1:
        features = features.T
    return LabeledTable(features, targets, tuple(f"f{i}" for i in range(features.shape[1])))


def test_constant_targets_single_leaf():
    tree = fit_regression_tree(table([[0.0], [1.0], [2.0]], [5.0, 5.0, 5.0]), 1)
    assert isinstance(tree.root, Leaf)
    assert tree.root.value == 5.0


def test_two_cluster_split():
    data = table([0.0, 1.0, 10.0, 11.0], [0.0, 0.0, 1.0, 1.0])
    tree = fit_regression_tree(data, 1)
    assert isinstance(tree.root, Split)
    assert 1.0 < tree.root.threshold < 10.0
    assert isinstance(tree.root.left, Leaf) and tree.root.left.value == 0.0
    assert isinstance(tree.root.right, Leaf) and tree.root.right.value == 1.0
    assert tree.predict_row([0.5]) == 0.0
    assert tree.predict_row([10.5]) == 1.0


def test_min_leaf_equal_to_rows_gives_mean():
    data = table([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 6.0])
    tree = fit_regression_tree(data, 4)
    assert isinstance(tree.root, Leaf)
    assert tree.root.value == pytest.approx(3.0)


def test_memorises_training_rows_with_min_leaf_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    tree = fit_regression_tree(LabeledTable(X, y, ("a", "b", "c")), 1)
    assert tree.predict(X) == pytest.approx(y, rel=1e-12)


def test_routing_is_left_on_ties():
    data = table([0.0, 1.0], [0.0, 1.0])
    tree = fit_regression_tree(data, 1)
    # exactly at the threshold routes left
    assert tree.predict_row([tree.root.threshold]) == 0.0


def test_dimension_mismatch_rejected():
    tree = fit_regression_tree(table([0.0, 1.0], [0.0, 1.0]), 1)
    with pytest.raises(ValueError):
        tree.predict_row([0.0, 1.0])
    with pytest.raises(ValueError):
        tree.predict(np.zeros((3, 4)))


def test_empty_table_rejected():
    empty = LabeledTable(np.zeros((0, 2)), np.zeros(0), ("a", "b"))
    with pytest.raises(ValueError):
        fit_regression_tree(empty, 1)


def test_feature_subset_limits_splits():
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=30), np.linspace(0, 1, 30)])
    y = X[:, 1] * 10.0  # only feature 1 is informative
    data = LabeledTable(X, y, ("noise", "signal"))
    tree = fit_regression_tree(data, 5, feature_subset=[0])

    def features_used(node, found):
        if isinstance(node, Split):
            found.add(node.feature)
            features_used(node.left, found)
            features_used(node.right, found)
        return found

    assert features_used(tree.root, set()) <= {0}


def test_feature_subset_out_of_range_rejected():
    data = table([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        fit_regression_tree(data, 1, feature_subset=[3])


def test_max_depth_caps_tree():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    tree = fit_regression_tree(LabeledTable(X, y, ("a", "b")), 1, max_depth=2)

    def depth(node):
        if isinstance(node, Leaf):
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(tree.root) <= 2


def test_sample_weight_shifts_leaf_values():
    data = table([0.0, 1.0], [0.0, 10.0])
    heavy_right = fit_regression_tree(data, 2, sample_weight=np.array([1.0, 3.0]))
    assert heavy_right.root.value == pytest.approx(7.5)


def test_integer_weights_match_duplicated_rows():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 5.0, 5.0, 10.0])
    counts = [1, 2, 3, 1]
    weighted = fit_regression_tree(LabeledTable(X, y, ("x",)), 1,
                                   sample_weight=np.array(counts, dtype=float))
    rows = np.repeat(np.arange(4), counts)
    duplicated = fit_regression_tree(LabeledTable(X[rows], y[rows], ("x",)), 1)
    grid = np.linspace(-1.0, 4.0, 23)[:, None]
    assert weighted.predict(grid) == pytest.approx(duplicated.predict(grid), rel=1e-12)


def test_tie_break_prefers_lowest_feature_index():
    # identical columns: the split must land on feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_regression_tree(LabeledTable(X, y, ("a", "b")), 1)
    assert tree.root.feature == 0


def test_refit_is_deterministic():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    data = LabeledTable(X, y, ("a", "b"))
    grid = rng.normal(size=(50, 2))
    first = fit_regression_tree(data, 2).predict(grid)
    second = fit_regression_tree(data, 2).predict(grid)
    assert np.array_equal(first, second)
