import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foglink.adaboost import (
    AdaBoostModel,
    AdaBoostTrainingError,
    Stump,
    StumpVote,
    classifier_round,
    fit_adaboost_classifier,
    fit_adaboost_r2,
)
from foglink.tables import LabeledTable
from foglink.tree import RegressionTree

# one feature, one mislabelled point relative to the best threshold rule
HAND_X = np.array([[0.0], [1.0], [2.0], [3.0]])
HAND_Y = np.array([1.0, 1.0, -1.0, 1.0])
HAND_TABLE = LabeledTable(HAND_X, HAND_Y, ("x",))


class TestClassifierRound:
    def test_initial_distribution_is_uniform(self):
        model = fit_adaboost_classifier(HAND_TABLE, 1)
        # round 1 sees weights 1/m; its chosen stump and error pin that down
        assert model.round_errors[0] == pytest.approx(0.25, rel=1e-12)

    def test_hand_computed_first_round(self):
        w = np.full(4, 0.25)
        stump, eps, alpha, updated = classifier_round(HAND_X, HAND_Y, w)
        assert stump.feature == 0
        assert stump.threshold == pytest.approx(1.5)
        assert stump.polarity == 1
        assert eps == pytest.approx(0.25, rel=1e-12)
        assert alpha == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
        assert updated == pytest.approx([1 / 6, 1 / 6, 1 / 6, 1 / 2], rel=1e-12)

    def test_weights_stay_normalised_over_rounds(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=30) > 0, 1.0, -1.0)
        w = np.full(30, 1.0 / 30)
        for _ in range(8):
            _, eps, _, w = classifier_round(X, y, w)
            if eps in (0.0, 0.5):
                break
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_error_alpha_is_capped_positive(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([-1.0, 1.0])
        _, eps, alpha, _ = classifier_round(X, y, np.array([0.5, 0.5]))
        assert eps == 0.0
        assert 0 < alpha < 20


class TestClassifierFit:
    def test_separable_data_perfect_after_round_one(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = fit_adaboost_classifier(LabeledTable(X, y, ("x",)), 10)
        assert len(model.stumps) == 1
        assert model.round_errors == [0.0]
        assert model.predict(X).tolist() == list(y)

    def test_all_stored_errors_below_half_and_alphas_positive(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 1] - X[:, 2] + 0.4 * rng.normal(size=40) > 0, 1.0, -1.0)
        model = fit_adaboost_classifier(LabeledTable(X, y, ("a", "b", "c")), 12)
        assert all(eps < 0.5 for eps in model.round_errors)
        assert all(alpha > 0 for alpha in model.alphas)

    def test_boosting_reduces_training_error(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(-1, 1, size=(60, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)  # needs more than one stump
        data = LabeledTable(X, y, ("a", "b"))
        one = fit_adaboost_classifier(data, 1)
        many = fit_adaboost_classifier(data, 25)

        def training_error(model):
            return float(np.mean(model.predict(X) != y))

        assert training_error(many) < training_error(one)

    def test_xor_fails_round_one(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(AdaBoostTrainingError):
            fit_adaboost_classifier(LabeledTable(X, y, ("a", "b")), 5)

    def test_single_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            fit_adaboost_classifier(LabeledTable(X, np.array([1.0, 1.0]), ("x",)), 3)

    def test_non_sign_targets_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            fit_adaboost_classifier(LabeledTable(X, np.array([0.0, 1.0]), ("x",)), 3)


class TestPredictVote:
    def _model(self, votes, alphas):
        # stump with huge threshold always fires its polarity
        stumps = [Stump(0, 1e9, v) for v in votes]
        return StumpVote(stumps=stumps, alphas=list(alphas), round_errors=[])

    def test_single_learner_vote(self):
        assert self._model([1], [1.0]).predict([[0.0]]).tolist() == [1.0]
        assert self._model([-1], [1.0]).predict([[0.0]]).tolist() == [-1.0]

    def test_weighted_majority(self):
        model = self._model([1, 1, -1], [0.3, 0.4, 0.5])
        assert model.predict([[0.0]]).tolist() == [1.0]

    def test_symmetric_tie_resolves_positive(self):
        model = self._model([1, -1], [0.5, 0.5])
        assert model.predict([[0.0], [5.0]]).tolist() == [1.0, 1.0]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_stumps=st.integers(1, 6))
    def test_vote_is_the_alpha_weighted_sign_row_by_row(self, seed, n_stumps):
        rng = np.random.default_rng(seed)
        X = rng.integers(-2, 3, size=(40, 2)).astype(float)
        stumps = [Stump(int(rng.integers(2)), float(rng.integers(-2, 2)) + 0.5,
                        int(rng.choice([-1, 1]))) for _ in range(n_stumps)]
        # alphas from a small set, so exact ties occur
        alphas = rng.choice([0.25, 0.5, 1.0], size=n_stumps).tolist()
        model = StumpVote(stumps=stumps, alphas=alphas, round_errors=[])
        for row, label in zip(X, model.predict(X)):
            vote = sum(a * (s.polarity if row[s.feature] <= s.threshold else -s.polarity)
                       for a, s in zip(alphas, stumps))
            assert label == (1.0 if vote >= 0 else -1.0)


class TestAdaboostR2:
    def test_perfectly_fittable_single_round(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 1))
        y = rng.normal(size=8)
        model = fit_adaboost_r2(LabeledTable(X, y, ("x",)), 10, 1, max_depth=None)
        assert len(model.weak_learners) == 1
        assert model.round_errors == [0.0]
        assert model.predict(X) == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize("max_depth", [-1, -2])
    def test_negative_max_depth_rejected(self, max_depth):
        X = np.arange(6, dtype=float)[:, None]
        with pytest.raises(ValueError, match="max_depth must be nonnegative"):
            fit_adaboost_r2(LabeledTable(X, X[:, 0], ("x",)), 5, 1, max_depth=max_depth)

    def test_constant_targets(self):
        X = np.arange(6, dtype=float)[:, None]
        model = fit_adaboost_r2(LabeledTable(X, np.full(6, 3.5), ("x",)), 5, 1)
        assert model.predict(X) == pytest.approx(np.full(6, 3.5), rel=1e-12)

    def test_boosting_beats_first_learner_on_noisy_linear_data(self):
        rng = np.random.default_rng(41)
        X = np.linspace(0, 1, 15)[:, None]
        y = 2.0 * X[:, 0] + 0.05 * rng.normal(size=15)
        data = LabeledTable(X, y, ("x",))
        boosted = fit_adaboost_r2(data, 12, 2, max_depth=2)
        first = boosted.weak_learners[0]
        boosted_mae = np.mean(np.abs(boosted.predict(X) - y))
        first_mae = np.mean(np.abs(first.predict(X) - y))
        assert boosted_mae <= first_mae

    def test_round_losses_below_half(self):
        # step targets keep the weak-learner residuals skewed, so rounds proceed
        rng = np.random.default_rng(43)
        X = rng.uniform(size=(30, 2))
        y = 5.0 * (X[:, 0] > 0.5) + 0.1 * rng.normal(size=30)
        model = fit_adaboost_r2(LabeledTable(X, y, ("a", "b")), 10, 3)
        assert len(model.weak_learners) >= 1
        assert all(loss < 0.5 for loss in model.round_errors)
        assert all(alpha > 0 for alpha in model.alphas)

    def test_prediction_is_weighted_median_of_learners(self):
        rng = np.random.default_rng(47)
        X = rng.uniform(size=(20, 2))
        y = 3.0 * X[:, 0] - X[:, 1]
        model = fit_adaboost_r2(LabeledTable(X, y, ("a", "b")), 6, 2, max_depth=2)
        x = np.array([0.5, 0.5])
        member = sorted(t.predict_row(x) for t in model.weak_learners)
        assert member[0] <= model.predict_row(x) <= member[-1]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_trees=st.integers(1, 9))
    def test_predict_equals_numpy_weighted_median(self, data, n_trees):
        """Row by row, bit for bit: the stable argsort / cumsum / searchsorted
        rule over the trees' values, with tied values and tied running sums."""
        value = st.sampled_from([-1.5, 0.0, 0.25, 2.0, 7.0])
        alpha = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                          st.builds(lambda m, e: m * 10.0 ** e,
                                    st.floats(1.0, 10.0), st.integers(-8, 8)))
        stumps = [RegressionTree(feature=[data.draw(st.integers(0, 1)), -1, -1],
                                 threshold=[data.draw(st.sampled_from([-0.5, 0.0, 0.5])),
                                            0.0, 0.0],
                                 left=[1, -1, -1], right=[2, -1, -1],
                                 value=[0.0, data.draw(value), data.draw(value)],
                                 n_features=2) for _ in range(n_trees)]
        alphas = data.draw(st.lists(alpha, min_size=n_trees, max_size=n_trees))
        model = AdaBoostModel(weak_learners=stumps, alphas=alphas, n_features=2)
        coordinate = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
        X = np.array(data.draw(st.lists(st.lists(coordinate, min_size=2, max_size=2),
                                        min_size=1, max_size=12)))
        for row, got in zip(X, model.predict(X)):
            values = np.array([tree.predict_row(row) for tree in stumps])
            order = np.argsort(values, kind="stable")
            cum = np.cumsum(np.asarray(alphas)[order])
            j = int(np.searchsorted(cum, 0.5 * cum[-1]))
            assert got == values[order][min(j, n_trees - 1)]

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan"), float("inf")])
    def test_alpha_not_finite_and_positive_refused(self, alpha):
        stump = RegressionTree([-1], [0.0], [-1], [-1], [1.0], n_features=1)
        with pytest.raises(ValueError, match=r"alphas\[1\] must be finite and positive"):
            AdaBoostModel(weak_learners=[stump] * 3, alphas=[1.0, alpha, alpha], n_features=1)

    def test_hopeless_weak_learner_fails_round_one(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        with pytest.raises(AdaBoostTrainingError):
            # depth 0 trees predict the mean only, average loss reaches 1
            fit_adaboost_r2(LabeledTable(X, y, ("x",)), 3, 1, max_depth=0)
