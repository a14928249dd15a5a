import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from foglink import stacking
from foglink.serialize import save_model
from foglink.stacking import (
    LearnerSpec,
    StackConfig,
    StackedModel,
    StackingError,
    build_level1_sample,
    fit_base_learner,
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


class Constant:
    """A fitted learner that predicts ``value`` for every row."""

    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(np.asarray(X).shape[0], self.value)


@pytest.fixture
def constant_kind(monkeypatch):
    """Adds the learner kind ``constant`` (parameter ``value``); the fold pool
    forks after the patch, so its workers know the kind too."""
    monkeypatch.setitem(stacking._LEARNERS, "constant",
                        lambda data, seed, *, value=0.0: Constant(float(value)))


# a depth-0 tree is one leaf holding the mean target of its rows
MEAN = LearnerSpec("tree", {"max_depth": 0}, name="mean")


def fold_paths():
    """Worker counts that reach both fold-fit paths: in process and the pool."""
    return (1, 2) if "fork" in multiprocessing.get_all_start_methods() else (1,)


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
    def test_constant_zero_learner_gives_zero_column(self, constant_kind):
        data = random_table(12, 2, 0)
        cfg = StackConfig((LearnerSpec("constant", {"value": 0.0}),), n_folds=3, seed=1)
        level1 = build_level1_sample(data, cfg)
        assert level1.features.shape == (12, 1)
        assert np.all(level1.features == 0.0)
        assert np.array_equal(level1.targets, data.targets)

    def test_mean_learner_sees_only_out_of_fold_targets(self):
        data = random_table(6, 1, 3)
        cfg = StackConfig((MEAN,), n_folds=2, seed=5)
        level1 = build_level1_sample(data, cfg)
        folds = kfold_partition(6, 2, seed=5)
        for fold, other in ((folds[0], folds[1]), (folds[1], folds[0])):
            expected = data.targets[other].mean()
            assert level1.features[fold, 0] == pytest.approx(expected, rel=1e-12)

    def test_shape_and_names(self):
        data = random_table(20, 3, 4)
        cfg = StackConfig((LearnerSpec("tree"), MEAN), n_folds=4, seed=0)
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

    def test_learner_failure_is_identified(self, monkeypatch):
        # adbr fails on fold 1 only; every fold of the forest fails at once,
        # yet the first failure in (learner, fold) order is the one reported
        data = random_table(12, 2, 9)
        cfg = StackConfig((LearnerSpec("adbr", {"max_depth": 0}),
                           LearnerSpec("forest", {"n_trees": 0})), n_folds=2, seed=0)
        for workers in fold_paths():
            monkeypatch.setattr(stacking, "_fold_workers", lambda n_tasks, w=workers: w)
            with pytest.raises(StackingError) as raised:
                build_level1_sample(data, cfg)
            assert str(raised.value) == ("base learner 0 (adbr) failed on fold 1: "
                                         "first-round average loss 0.656 >= 0.5")


class TestFoldPool:
    SPECS = (LearnerSpec("forest", {"n_trees": 3, "min_leaf_size": 2}),
             LearnerSpec("gbr", {"n_trees": 5, "max_depth": 3}),
             LearnerSpec("adbr", {"n_rounds": 3}),
             LearnerSpec("tree", {"min_leaf_size": 2}))

    def test_pool_equals_in_process(self, monkeypatch, tmp_path):
        if fold_paths() == (1,):
            pytest.skip("no fork start method on this platform")
        data = random_table(60, 3, 12)
        cfg = StackConfig(self.SPECS, n_folds=5, seed=3)
        calls = Counter()

        def counted(*args, **kwargs):
            calls["fit"] += 1
            return fit_base_learner(*args, **kwargs)

        monkeypatch.setattr(stacking, "fit_base_learner", counted)
        level1, in_parent = {}, {}
        for workers in (1, 2):
            monkeypatch.setattr(stacking, "_fold_workers", lambda n_tasks, w=workers: w)
            calls.clear()
            level1[workers] = build_level1_sample(data, cfg)
            in_parent[workers] = calls["fit"]
            save_model(fit_stacked(data, cfg), tmp_path / f"stacked_{workers}.json")
        # pool workers' fits never reach the parent's counter
        assert in_parent == {1: 20, 2: 0}
        assert np.array_equal(level1[1].features, level1[2].features)
        assert level1[1].feature_names == level1[2].feature_names
        assert ((tmp_path / "stacked_1.json").read_bytes()
                == (tmp_path / "stacked_2.json").read_bytes())

    def test_workers_capped_by_usable_cpus_and_tasks(self):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count()
        assert stacking._fold_workers(1) == 1
        assert stacking._fold_workers(10 ** 6) == cpus

    def test_import_leaves_multiprocessing_unloaded(self):
        # `import foglink` pays for no pool; fitting imports it when needed
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        probe = ("import sys, foglink, foglink.cli; "
                 "print('multiprocessing' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.strip() == "False"


def grid_objectives(level1):
    """Stacking objective at every point of the 0.01 grid on the 3-simplex."""
    grid = np.array([(i, j, 100 - i - j) for i in range(101)
                     for j in range(101 - i)]) / 100.0
    residuals = level1.targets[:, None] - level1.features @ grid.T
    return np.sum(residuals * residuals, axis=0)


class TestSolveWeights:
    @pytest.mark.parametrize("doubled_tree", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_kkt_conditions_hold(self, seed, doubled_tree):
        # level-1 columns as stacking sees them: close, correlated predictions;
        # a column with twice the tree's error must stay off the support
        rng = np.random.default_rng(seed + 400)
        y = rng.normal(40.0, 5.0, size=200)
        F = y[:, None] + rng.normal(0.0, 0.5, size=(200, 4)) * [1.0, 0.8, 1.2, 0.3]
        if doubled_tree:
            F = np.column_stack([F, 2.0 * F[:, 3] - y])
        names = tuple(f"c{l}" for l in range(F.shape[1]))
        weights = solve_stacking_weights(LabeledTable(F, y, names))
        gradient = F.T @ (F @ weights - y)
        support = weights > 0
        tol = 1e-8 * np.abs(gradient).max()
        level = gradient[support].min()
        assert np.all(gradient[support] <= level + tol)
        assert np.all(gradient[~support] >= level - tol)
        assert list(support) == [True] * 4 + [False] * doubled_tree
        assert np.all(weights[~support] == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_collinear_columns_reach_simplex_optimum(self, seed):
        # columns = truth + small noise: an ill-conditioned Gram (cond ~ 3e4)
        rng = np.random.default_rng(seed)
        y = rng.normal(40.0, 5.0, size=200)
        F = np.column_stack([y + rng.normal(0.0, s, size=200) for s in (0.3, 0.5, 1.0)])
        level1 = LabeledTable(F, y, ("a", "b", "c"))
        solved = stack_objective(level1, solve_stacking_weights(level1))
        for vertex in np.eye(3):
            assert solved <= stack_objective(level1, vertex) + 1e-9
        assert solved <= grid_objectives(level1).min() + 1e-9

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
        assert weights.tolist() == [1.0, 0.0]  # ties go to the fewest, lowest columns

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
    def test_one_hot_weights_reduce_to_base_learner(self, constant_kind):
        data = random_table(20, 2, 17)
        cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 1}),
                           LearnerSpec("constant", {"value": 1e6})), n_folds=4, seed=3)
        model = fit_stacked(data, cfg)
        # the memorising tree dominates the absurd constant
        assert model.weights[0] == pytest.approx(1.0, abs=1e-6)
        x = data.features[3]
        assert model.predict(x[None])[0] == pytest.approx(
            model.final_base_learners[0].predict(x[None])[0], rel=1e-6)

    def test_agreeing_bases_pass_through(self):
        model = StackedModel(
            final_base_learners=[Constant(4.0), Constant(4.0)],
            weights=np.array([0.25, 0.75]),
            specs=(LearnerSpec("constant"), LearnerSpec("constant")),
            n_features=1)
        assert model.predict(np.zeros((1, 1)))[0] == pytest.approx(4.0, rel=1e-12)

    def test_members_are_the_learners_of_nonzero_weight(self, monkeypatch):
        """Only learners of nonzero weight get a final fit and join the model,
        in configuration order."""
        data = random_table(30, 2, 19)
        cfg = StackConfig((MEAN, LearnerSpec("tree", {"min_leaf_size": 2}),
                           LearnerSpec("forest", {"n_trees": 5, "min_leaf_size": 3})),
                          n_folds=3, seed=11)
        level1 = build_level1_sample(data, cfg)
        weights = solve_stacking_weights(level1)
        members = tuple(cfg.base_learner_specs[l] for l in np.flatnonzero(weights))
        assert 0 < len(members) < len(cfg.base_learner_specs)
        final_fits = []
        monkeypatch.setattr(stacking, "build_level1_sample", lambda d, c: level1)
        monkeypatch.setattr(stacking, "fit_base_learner",
                            lambda spec, d, seed: final_fits.append(spec)
                            or fit_base_learner(spec, d, seed))
        model = fit_stacked(data, cfg)
        assert model.specs == tuple(final_fits) == members
        assert model.weights.tolist() == weights[weights > 0].tolist()

    def test_prediction_inside_base_range(self):
        data = random_table(30, 2, 19)
        cfg = StackConfig((LearnerSpec("tree", {"min_leaf_size": 5}),
                           MEAN,
                           LearnerSpec("forest", {"n_trees": 5, "min_leaf_size": 3})),
                          n_folds=3, seed=11)
        model = fit_stacked(data, cfg)
        grid = np.random.default_rng(23).uniform(-1, 1, size=(40, 2))
        base = np.stack([lear.predict(grid) for lear in model.final_base_learners])
        stacked = model.predict(grid)
        assert np.all(stacked >= base.min(axis=0) - 1e-9)
        assert np.all(stacked <= base.max(axis=0) + 1e-9)

    def test_invalid_weights_rejected(self):
        # a learner of weight 0 is no member, so a zero weight is refused too
        for weights in ([0.5, 0.6], [-0.1, 1.1], [np.nan, np.nan], [1.0, 0.0]):
            with pytest.raises(ValueError, match="finite, positive and sum to one"):
                StackedModel(final_base_learners=[Constant(1.0), Constant(2.0)],
                             weights=np.array(weights), specs=(MEAN, MEAN), n_features=1)

    @pytest.mark.parametrize("n_learners, n_specs", [(1, 2), (2, 1)])
    def test_one_weight_and_spec_per_member(self, n_learners, n_specs):
        with pytest.raises(ValueError, match=f"2 weights and {n_specs} specs for "
                                             f"{n_learners} base models"):
            StackedModel(final_base_learners=[Constant(1.0)] * n_learners,
                         weights=np.array([0.5, 0.5]), specs=(MEAN,) * n_specs,
                         n_features=1)

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
    StackConfig((MEAN,) * 10)
    with pytest.raises(ValueError, match="1 to 10 base learners, got 11"):
        StackConfig((MEAN,) * 11)
    with pytest.raises(ValueError):
        StackConfig((LearnerSpec("tree"),), n_folds=1)


@pytest.mark.parametrize("kind, params, named", [("tree", {"min_leaf": 20}, "min_leaf"),
                                                 ("forest", {"n_tree": 2}, "n_tree"),
                                                 ("forest", {"seed": 7}, "seed")],
                         ids=["tree-min_leaf", "forest-n_tree", "forest-seed"])
def test_unknown_learner_parameter_named(kind, params, named):
    """A misspelt parameter is refused instead of fitting with the default."""
    with pytest.raises(ValueError,
                       match=f"unknown parameter\\(s\\) for base learner kind '{kind}': {named}$"):
        fit_base_learner(LearnerSpec(kind, params), random_table(30, 3, 0), seed=0)
