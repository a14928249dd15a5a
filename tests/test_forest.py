import numpy as np
import pytest

from foglink.forest import default_mtry_regression, fit_random_forest
from foglink.tables import LabeledTable
from foglink.tree import fit_regression_tree


def linear_data(n, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + noise * rng.normal(size=n)
    return LabeledTable(X, y, ("x1", "x2"))


def test_default_mtry_rules():
    assert default_mtry_regression(5) == 2
    assert default_mtry_regression(3) == 1


def test_constant_targets():
    X = np.random.default_rng(2).normal(size=(12, 2))
    data = LabeledTable(X, np.full(12, 4.25), ("a", "b"))
    forest = fit_random_forest(data, 5, mtry=1, min_leaf_size=1, seed=0)
    assert forest.predict(X) == pytest.approx(np.full(12, 4.25), rel=1e-15)
    assert forest.oob_error == pytest.approx(0.0, abs=1e-30)


def test_same_seed_bitwise_identical():
    data = linear_data(30, 3, noise=0.1)
    grid = np.random.default_rng(4).uniform(-1, 1, size=(40, 2))
    a = fit_random_forest(data, 8, 1, 2, seed=42)
    b = fit_random_forest(data, 8, 1, 2, seed=42)
    assert np.array_equal(a.predict(grid), b.predict(grid))
    assert a.oob_error == b.oob_error


def test_different_seeds_differ():
    data = linear_data(30, 3, noise=0.1)
    grid = np.random.default_rng(4).uniform(-1, 1, size=(40, 2))
    a = fit_random_forest(data, 8, 1, 2, seed=42)
    b = fit_random_forest(data, 8, 1, 2, seed=43)
    assert not np.array_equal(a.predict(grid), b.predict(grid))


def test_prediction_is_mean_of_member_trees():
    data = linear_data(25, 6, noise=0.2)
    forest = fit_random_forest(data, 7, 2, 3, seed=9)
    x = np.array([0.3, -0.4])
    member = [tree.predict(x[None])[0] for tree in forest.trees]
    predicted = forest.predict(x[None])[0]
    assert predicted == pytest.approx(np.mean(member), rel=1e-12)
    assert min(member) <= predicted <= max(member)


def test_forest_smooths_coarse_trees_on_linear_data():
    data = linear_data(20, 7)
    forest = fit_random_forest(data, 60, 2, min_leaf_size=5, seed=13)
    tree = fit_regression_tree(data, 5)
    forest_mse = np.mean((forest.predict(data.features) - data.targets) ** 2)
    tree_mse = np.mean((tree.predict(data.features) - data.targets) ** 2)
    assert forest_mse <= tree_mse


def test_oob_error_tracks_generalisation():
    data = linear_data(60, 8, noise=0.05)
    forest = fit_random_forest(data, 40, 2, 2, seed=21)
    assert forest.oob_error is not None
    assert 0.0 < forest.oob_error < np.var(data.targets)


def test_mtry_out_of_range_rejected():
    data = linear_data(10, 0)
    with pytest.raises(ValueError):
        fit_random_forest(data, 3, mtry=3, min_leaf_size=1, seed=0)
    with pytest.raises(ValueError):
        fit_random_forest(data, 0, mtry=1, min_leaf_size=1, seed=0)
