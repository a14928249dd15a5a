import json

import numpy as np
import pytest
from reference_tree import reference_grow
from test_tree import awkward_table

from foglink import tree as tree_module
from foglink.adaboost import fit_adaboost_r2
from foglink.boosting import fit_gradient_boost
from foglink.forest import fit_random_forest
from foglink.serialize import model_to_dict
from foglink.tables import LabeledTable
from foglink.tree import fit_regression_tree

TEN_POINT = LabeledTable(
    np.arange(10, dtype=float)[:, None],
    np.array([0.0, 1.0, 1.5, 1.2, 3.0, 4.5, 4.4, 6.0, 7.5, 10.0]),
    ("x",))


def test_zero_stages_is_mean_predictor():
    model = fit_gradient_boost(TEN_POINT, 0, 0.5, 1)
    assert model.trees == []
    grid = np.linspace(-5, 15, 7)[:, None]
    expected = np.mean(TEN_POINT.targets)
    assert model.predict(grid) == pytest.approx(np.full(7, expected), rel=1e-12)


def test_constant_targets_stay_constant():
    data = LabeledTable(np.arange(6, dtype=float)[:, None], np.full(6, 2.5), ("x",))
    model = fit_gradient_boost(data, 5, 0.3, 1)
    assert model.predict(data.features) == pytest.approx(np.full(6, 2.5), rel=1e-12)


def test_train_mse_collapses_on_memorisable_data():
    model = fit_gradient_boost(TEN_POINT, 50, 0.5, 1)
    mse = np.mean((model.predict(TEN_POINT.features) - TEN_POINT.targets) ** 2)
    assert mse < 1e-4


def test_stages_match_independent_reference_loop():
    # a re-implementation of the boosting recursion, sharing only the tree fitter
    learning_rate = 0.5
    current = np.full(TEN_POINT.n_rows, TEN_POINT.targets.mean())
    reference_stages = [current.copy()]
    for _ in range(50):
        residuals = TEN_POINT.targets - current
        tree = fit_regression_tree(
            LabeledTable(TEN_POINT.features, residuals, TEN_POINT.feature_names), 1)
        current = current + learning_rate * tree.predict(TEN_POINT.features)
        reference_stages.append(current.copy())

    model = fit_gradient_boost(TEN_POINT, 50, learning_rate, 1)
    staged = model.staged_predict(TEN_POINT.features)
    assert len(staged) == len(reference_stages)
    for ours, ref in zip(staged, reference_stages):
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_stages_match_geometric_decay_closed_form():
    # with min_leaf 1 and distinct features every stage memorises its
    # residuals, so residuals shrink by exactly (1 - learning_rate) per stage
    learning_rate = 0.5
    model = fit_gradient_boost(TEN_POINT, 50, learning_rate, 1)
    staged = model.staged_predict(TEN_POINT.features)
    mean = TEN_POINT.targets.mean()
    for n, stage in enumerate(staged):
        factor = 1.0 - (1.0 - learning_rate) ** n
        expected = mean + factor * (TEN_POINT.targets - mean)
        assert stage == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_staging_identity_is_exact():
    model = fit_gradient_boost(TEN_POINT, 12, 0.3, 2)
    staged = model.staged_predict(TEN_POINT.features)
    for n, tree in enumerate(model.trees, start=1):
        increment = model.learning_rate * tree.predict(TEN_POINT.features)
        assert np.array_equal(staged[n], staged[n - 1] + increment)


def test_learning_rate_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            fit_gradient_boost(TEN_POINT, 5, bad, 1)


def test_negative_stage_count_rejected():
    with pytest.raises(ValueError):
        fit_gradient_boost(TEN_POINT, -1, 0.5, 1)


@pytest.mark.parametrize("max_depth", [-1, -2])
def test_negative_max_depth_rejected(max_depth):
    with pytest.raises(ValueError, match="max_depth must be nonnegative"):
        fit_gradient_boost(TEN_POINT, 5, 0.5, 1, max_depth=max_depth)


def fit_both(fit):
    """The serialized model ``fit()`` returns, as fitted and with every tree
    grown by the brute-force reference search instead."""
    fast = json.dumps(model_to_dict(fit()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_grow", reference_grow)
        reference = json.dumps(model_to_dict(fit()))
    return fast, reference


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_depth", [None, 2, 6])
def test_gradient_boost_matches_reference_grower(seed, max_depth):
    data = awkward_table(seed, n=120)
    fast, reference = fit_both(lambda: fit_gradient_boost(data, 8, 0.3, 3, max_depth=max_depth))
    assert fast == reference


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_depth", [1, 3, 5])
def test_adaboost_matches_reference_grower(seed, max_depth):
    # rounds after the first fit under unequal weights
    data = awkward_table(seed, n=120)
    fast, reference = fit_both(lambda: fit_adaboost_r2(data, 8, 3, max_depth=max_depth))
    assert fast == reference


def node_depths(tree):
    """Each node's depth; a child's index is always above its parent's."""
    depth = [0] * len(tree.feature)
    for node, feature in enumerate(tree.feature):
        if feature >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return depth


@pytest.mark.parametrize("fit", [
    lambda data: [fit_regression_tree(data, 3)],
    lambda data: fit_gradient_boost(data, 4, 0.3, 3, max_depth=6).trees,
    lambda data: fit_adaboost_r2(data, 4, 3, max_depth=5).weak_learners,
    lambda data: fit_random_forest(data, 4, 3, 3, seed=2).trees,
], ids=["tree", "gbr", "adbr", "rf"])
def test_nodes_are_numbered_level_by_level(fit):
    """Nodes are numbered as they are grown: a whole depth before the next,
    and a split's two children side by side."""
    for tree in fit(awkward_table(1, n=120)):
        depth = node_depths(tree)
        assert max(depth) >= 3 and depth == sorted(depth)
        assert all(tree.right[node] == tree.left[node] + 1
                   for node, feature in enumerate(tree.feature) if feature >= 0)
