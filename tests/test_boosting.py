import numpy as np
import pytest

from foglink.boosting import fit_gradient_boost
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
