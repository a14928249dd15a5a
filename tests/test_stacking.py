import numpy as np
import pytest

from foglink import stacking
from foglink.stacking import (
    LearnerSpec,
    StackConfig,
    StackedModel,
    StackingError,
    build_level1_sample,
    fit_stacked,
    kfold_partition,
    solve_stacking_weights,
    stack_objective,
)
from foglink.tables import LabeledTable


def random_table(m, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(m, k))
    y = X @ rng.normal(size=k) + 0.1 * rng.normal(size=m)
    return LabeledTable(X, y, tuple(f"f{i}" for i in range(k)))


class TestKfold:
    def test_even_division(self):
        folds = kfold_partition(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_spread(self):
        folds = kfold_partition(10, 3, seed=0)
        assert sorted(len(f) for f in folds) == [3, 3, 4]

    def test_partition_laws(self):
        folds = kfold_partition(23, 4, seed=7)
        joined = np.concatenate(folds)
        assert sorted(joined) == list(range(23))
        assert len(set(joined)) == 23

    def test_deterministic(self):
        a = kfold_partition(17, 3, seed=9)
        b = kfold_partition(17, 3, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_partition(3, 4, seed=0)


class TestLevel1:
    def test_constant_zero_learner_gives_zero_column(self):
        data = random_table(12, 2, 0)
        cfg = StackConfig((LearnerSpec("constant", {"value": 0.0}),), n_folds=3, seed=1)
        level1 = build_level1_sample(data, cfg)
        assert level1.features.shape == (12, 1)
        assert np.all(level1.features == 0.0)
        assert np.array_equal(level1.targets, data.targets)

    def test_mean_learner_sees_only_out_of_fold_targets(self):
        data = random_table(6, 1, 3)
        cfg = StackConfig((LearnerSpec("mean"),), n_folds=2, seed=5)
        level1 = build_level1_sample(data, cfg)
        folds = kfold_partition(6, 2, seed=5)
        for fold, other in ((folds[0], folds[1]), (folds[1], folds[0])):
            expected = data.targets[other].mean()
            assert level1.features[fold, 0] == pytest.approx(expected, rel=1e-12)

    def test_shape_and_names(self):
        data = random_table(20, 3, 4)
        cfg = StackConfig((LearnerSpec("tree"), LearnerSpec("mean")), n_folds=4, seed=0)
        level1 = build_level1_sample(data, cfg)
        assert level1.features.shape == (20, 2)
        assert level1.feature_names == ("tree_0", "mean_1")

    def test_perturbing_a_fold_leaves_its_rows_unchanged(self):
        data = random_table(18, 2, 8)
        cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 2}),), n_folds=3, seed=2)
        level1 = build_level1_sample(data, cfg)
        folds = kfold_partition(18, 3, seed=2)
        poke = folds[1]
        targets = data.targets.copy()
        targets[poke] = 0.0
        perturbed = build_level1_sample(
            LabeledTable(data.features, targets, data.feature_names), cfg)
        # rows of the perturbed fold are predicted by learners that never saw it
        assert np.array_equal(level1.features[poke], perturbed.features[poke])
        other = np.concatenate([folds[0], folds[2]])
        assert not np.array_equal(level1.features[other], perturbed.features[other])

    def test_learner_failure_is_identified(self):
        data = random_table(12, 2, 9)
        cfg = StackConfig((LearnerSpec("adbr", {"max_depth": 0}),), n_folds=2, seed=0)
        with pytest.raises(StackingError, match="fold"):
            build_level1_sample(data, cfg)


def reference_solve_weights(level1):
    """The solver as it was when each step computed F @ weights twice."""
    F, y = level1.features, level1.targets
    m, n_learners = F.shape
    gram = F.T @ F / m
    v = np.full(n_learners, 1.0 / np.sqrt(n_learners))
    for _ in range(100):
        gv = gram @ v
        v = gv / np.linalg.norm(gv)
    lam = 2.0 * float(v @ gram @ v) * 1.01
    weights = np.full(n_learners, 1.0 / n_learners)
    objective = float(np.mean((y - F @ weights) ** 2))
    for _ in range(stacking._SOLVER_MAX_ITER):
        gradient = 2.0 * F.T @ (F @ weights - y) / m
        weights = stacking._project_simplex(weights - gradient / lam)
        new_objective = float(np.mean((y - F @ weights) ** 2))
        if abs(objective - new_objective) < stacking._SOLVER_TOL:
            break
        objective = new_objective
    return weights


class TestSolveWeights:
    @pytest.mark.parametrize("seed", range(4))
    def test_weights_bit_identical_to_two_product_loop(self, seed):
        # level-1 columns as stacking sees them: close, correlated predictions
        rng = np.random.default_rng(seed + 400)
        y = rng.normal(40.0, 5.0, size=200)
        F = y[:, None] + rng.normal(0.0, 0.5, size=(200, 4)) * [1.0, 0.8, 1.2, 0.3]
        level1 = LabeledTable(F, y, ("rf", "gbr", "adbr", "tree"))
        assert (solve_stacking_weights(level1).tobytes()
                == reference_solve_weights(level1).tobytes())

    def test_single_learner(self):
        level1 = LabeledTable(np.ones((5, 1)), np.zeros(5), ("only",))
        assert solve_stacking_weights(level1) == pytest.approx([1.0])

    def test_duplicate_columns_reach_single_column_objective(self):
        rng = np.random.default_rng(13)
        col = rng.normal(size=30)
        y = col + 0.05 * rng.normal(size=30)
        level1 = LabeledTable(np.column_stack([col, col]), y, ("a", "b"))
        weights = solve_stacking_weights(level1)
        single = float(np.sum((y - col) ** 2))
        assert stack_objective(level1, weights) == pytest.approx(single, rel=1e-9)

    def test_exact_column_takes_all_weight(self):
        rng = np.random.default_rng(15)
        y = rng.normal(size=40)
        F = np.column_stack([rng.normal(size=40), y, rng.normal(size=40)])
        weights = solve_stacking_weights(LabeledTable(F, y, ("a", "b", "c")))
        assert weights[1] == pytest.approx(1.0, abs=1e-6)
        assert stack_objective(LabeledTable(F, y, ("a", "b", "c")), weights) < 1e-10

    def test_weights_on_simplex(self):
        for seed in range(5):
            level1 = random_table(25, 4, seed + 100)
            weights = solve_stacking_weights(level1)
            assert np.all(weights >= 0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_objective_never_worse_than_any_vertex(self):
        for seed in range(5):
            level1 = random_table(30, 3, seed + 200)
            weights = solve_stacking_weights(level1)
            solved = stack_objective(level1, weights)
            for l in range(3):
                vertex = np.zeros(3)
                vertex[l] = 1.0
                assert solved <= stack_objective(level1, vertex) + 1e-9

    def test_duplicating_sample_leaves_weights_unchanged(self):
        level1 = random_table(20, 3, 300)
        doubled = LabeledTable(np.vstack([level1.features] * 2),
                               np.concatenate([level1.targets] * 2),
                               level1.feature_names)
        assert solve_stacking_weights(doubled) == pytest.approx(
            solve_stacking_weights(level1), abs=1e-12)

    def test_brute_force_grid_confirms_optimum(self):
        level1 = random_table(25, 3, 301)
        solved = stack_objective(level1, solve_stacking_weights(level1))
        best = np.inf
        for i in range(101):
            for j in range(101 - i):
                w = np.array([i, j, 100 - i - j]) / 100.0
                best = min(best, stack_objective(level1, w))
        assert solved <= best + 1e-9


class TestStackedModel:
    def test_one_hot_weights_reduce_to_base_learner(self):
        data = random_table(20, 2, 17)
        cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 1}),
                           LearnerSpec("constant", {"value": 1e6})), n_folds=4, seed=3)
        model = fit_stacked(data, cfg)
        # the memorising tree dominates the absurd constant
        assert model.weights[0] == pytest.approx(1.0, abs=1e-6)
        x = data.features[3]
        assert model.predict_row(x) == pytest.approx(
            model.final_base_learners[0].predict_row(x), rel=1e-6)

    def test_agreeing_bases_pass_through(self):
        model = StackedModel(
            final_base_learners=[],  # replaced below
            weights=np.array([0.25, 0.75]),
            specs=(LearnerSpec("constant"), LearnerSpec("constant")),
            n_features=1)
        from foglink.stacking import _MeanLearner
        model.final_base_learners = [_MeanLearner(4.0), _MeanLearner(4.0)]
        assert model.predict_row([0.0]) == pytest.approx(4.0, rel=1e-12)

    def test_prediction_inside_base_range(self):
        data = random_table(30, 2, 19)
        cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 5}),
                           LearnerSpec("mean"),
                           LearnerSpec("forest", {"n_trees": 5, "min_leaf_size": 3})),
                          n_folds=3, seed=11)
        model = fit_stacked(data, cfg)
        grid = np.random.default_rng(23).uniform(-1, 1, size=(40, 2))
        base = np.stack([lear.predict(grid) for lear in model.final_base_learners])
        stacked = model.predict(grid)
        assert np.all(stacked >= base.min(axis=0) - 1e-9)
        assert np.all(stacked <= base.max(axis=0) + 1e-9)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            StackedModel(final_base_learners=[], weights=np.array([0.5, 0.6]),
                         specs=(), n_features=1)
        with pytest.raises(ValueError):
            StackedModel(final_base_learners=[], weights=np.array([-0.1, 1.1]),
                         specs=(), n_features=1)

    def test_fit_deterministic_given_seed(self):
        data = random_table(24, 2, 29)
        cfg = StackConfig((LearnerSpec("forest", {"n_trees": 4, "min_leaf_size": 2}),
                           LearnerSpec("tree")), n_folds=3, seed=31)
        grid = np.random.default_rng(1).uniform(-1, 1, size=(10, 2))
        a = fit_stacked(data, cfg).predict(grid)
        b = fit_stacked(data, cfg).predict(grid)
        assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        StackConfig((), n_folds=3)
    with pytest.raises(ValueError):
        StackConfig((LearnerSpec("tree"),), n_folds=1)
