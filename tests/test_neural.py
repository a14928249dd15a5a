import math

import numpy as np
import pytest

from foglink.neural import (
    ActivationKind,
    MLPModel,
    TrainConfig,
    TrainingError,
    gradient_check,
    train,
)
from foglink.tables import LabeledTable


def activation(kind, t):
    """``kind`` at ``t``, through a one-neuron network that feeds ``t`` to its
    hidden activation unchanged and passes the result straight out."""
    net = MLPModel(layer_sizes=(1, 1, 1), weights=[np.ones((1, 1)), np.ones((1, 1))],
                   biases=[np.zeros(1), np.zeros(1)], hidden_activation=kind)
    return net.predict(np.array([[t]]))[0]


class TestActivation:
    def test_sigmoid_at_zero(self):
        assert activation(ActivationKind.SIGMOID, 0.0) == 0.5

    def test_closed_forms_at_anchor_points(self):
        assert activation(ActivationKind.TANH, 0.0) == 0.0
        assert activation(ActivationKind.RELU, -3.0) == 0.0
        assert activation(ActivationKind.RELU, 2.5) == 2.5
        assert activation(ActivationKind.GAUSSIAN, 0.0) == 1.0
        assert activation(ActivationKind.DIRECT, -1.7) == -1.7

    def test_sigmoid_of_log3(self):
        assert activation(ActivationKind.SIGMOID, math.log(3.0)) == pytest.approx(0.75, rel=1e-12)


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = MLPModel(layer_sizes=(3, 2, 1),
                         weights=[np.zeros((3, 2)), np.zeros((2, 1))],
                         biases=[np.zeros(2), np.zeros(1)])
        assert model.predict(np.array([[5.0, -2.0, 7.0]]))[0] == 0.0

    def test_single_sigmoid_neuron_passthrough(self):
        model = MLPModel(layer_sizes=(1, 1, 1),
                         weights=[np.zeros((1, 1)), np.ones((1, 1))],
                         biases=[np.zeros(1), np.zeros(1)])
        assert model.predict(np.array([[123.0]]))[0] == pytest.approx(0.5, rel=1e-12)

    def test_hand_evaluated_2_3_1_network(self):
        # pencil-and-paper: z1 = [1.5, 1.5, 0], output 3*sigmoid(1.5) + 1.5 + 0.25
        w1 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        b1 = np.array([0.5, -0.5, 0.0])
        w2 = np.array([[1.0], [2.0], [3.0]])
        c = np.array([0.25])
        model = MLPModel(layer_sizes=(2, 3, 1), weights=[w1, w2], biases=[b1, c])
        sig = 1.0 / (1.0 + math.exp(-1.5))
        expected = 1.0 * sig + 2.0 * sig + 3.0 * 0.5 + 0.25
        assert model.predict(np.array([[1.0, 2.0]]))[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = MLPModel.initialize((3, 4, 1), seed=0)
        with pytest.raises(ValueError):
            model.predict(np.array([[1.0, 2.0]]))

    def test_initialize_refuses_a_zero_width_layer(self):
        """Refused before any weight is drawn, so no divide-by-zero warning."""
        with pytest.raises(ValueError, match="layer_sizes"):
            MLPModel.initialize((5, 0, 1), seed=0)

    def test_continuity_in_parameters(self):
        model = MLPModel.initialize((2, 5, 1), hidden_activation=ActivationKind.TANH, seed=7)
        x = np.array([[0.3, -0.8]])
        base = model.predict(x)[0]
        bumped = model.copy()
        bumped.weights[0][0, 0] += 1e-8
        assert abs(bumped.predict(x)[0] - base) < 1e-4


def linear_table(n=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = 2.0 * X[:, 0] - X[:, 1] + noise * rng.normal(size=n)
    return LabeledTable(X, y, ("x1", "x2"))


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self):
        data = linear_table()
        model = MLPModel.initialize((2, 4, 1), seed=1)
        before = [w.copy() for w in model.weights]
        result = train(model, data, TrainConfig(0.0, epochs=5, batch_size=8, seed=2))
        for w_before, w_after in zip(before, result.model.weights):
            assert np.array_equal(w_before, w_after)
        assert len(set(result.train_loss)) == 1  # flat history

    def test_single_row_linear_model_converges_exactly(self):
        data = LabeledTable(np.array([[1.0, 2.0]]), np.array([5.0]), ("a", "b"))
        net = MLPModel.initialize((2, 1), hidden_activation=ActivationKind.DIRECT,
                                  output_activation=ActivationKind.DIRECT, seed=3)
        result = train(net, data, TrainConfig(0.5, epochs=200, batch_size=1, seed=4))
        assert result.train_loss[-1] < 1e-10

    def test_tanh_network_learns_linear_map(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(200, 2))
        data = LabeledTable(X, 2.0 * X[:, 0] - X[:, 1], ("x1", "x2"))
        model = MLPModel.initialize((2, 8, 1), hidden_activation=ActivationKind.TANH, seed=1)
        result = train(model, data, TrainConfig(0.05, epochs=2000, batch_size=32, seed=2))
        val_X = data.features[result.val_rows]
        val_y = data.targets[result.val_rows]
        pred = result.model.predict(val_X)
        r2 = 1.0 - np.sum((val_y - pred) ** 2) / np.sum((val_y - val_y.mean()) ** 2)
        assert r2 >= 0.99

    def test_direct_net_reaches_least_squares_solution(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + 3.0 + 0.2 * rng.normal(size=20)
        data = LabeledTable(X, y, ("a", "b", "c"))
        net = MLPModel.initialize((3, 1), hidden_activation=ActivationKind.DIRECT,
                                  output_activation=ActivationKind.DIRECT, seed=3)
        result = train(net, data, TrainConfig(0.1, epochs=8000, batch_size=20, seed=4))
        X_train = data.features[result.train_rows]
        y_train = data.targets[result.train_rows]
        standardized = (X_train - result.model.x_mean) / result.model.x_std
        design = np.column_stack([standardized, np.ones(len(X_train))])
        coef, *_ = np.linalg.lstsq(design, y_train, rcond=None)
        assert result.model.predict(X_train) == pytest.approx(design @ coef, abs=1e-6)

    def test_same_seed_identical_history(self):
        data = linear_table(noise=0.1)
        cfg = TrainConfig(0.05, epochs=50, batch_size=8, seed=11)
        a = train(MLPModel.initialize((2, 6, 1), seed=9), data, cfg)
        b = train(MLPModel.initialize((2, 6, 1), seed=9), data, cfg)
        assert a.train_loss == b.train_loss
        assert a.val_loss == b.val_loss

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_epoch(self):
        data = linear_table()
        net = MLPModel.initialize((2, 1), hidden_activation=ActivationKind.DIRECT,
                                  output_activation=ActivationKind.DIRECT, seed=0)
        with pytest.raises(TrainingError, match="epoch"):
            train(net, data, TrainConfig(1e6, epochs=50, batch_size=40, seed=0))

    def test_early_stopping_restores_best(self):
        data = linear_table(n=60, noise=0.3)
        model = MLPModel.initialize((2, 6, 1), seed=13)
        cfg = TrainConfig(0.08, epochs=500, batch_size=8, seed=13, early_stop_patience=5)
        result = train(model, data, cfg)
        assert len(result.train_loss) <= 500
        val_X = data.features[result.val_rows]
        val_y = data.targets[result.val_rows]
        final_val = float(np.mean((result.model.predict(val_X) - val_y) ** 2))
        assert final_val == pytest.approx(min(result.val_loss), rel=1e-9)

    def test_split_is_disjoint_and_exhaustive(self):
        data = linear_table(n=41)
        result = train(MLPModel.initialize((2, 3, 1), seed=1), data,
                       TrainConfig(0.01, epochs=2, batch_size=8, seed=5))
        joined = np.concatenate([result.train_rows, result.val_rows, result.test_rows])
        assert sorted(joined) == list(range(41))

    def test_feature_count_mismatch_rejected(self):
        data = linear_table()
        with pytest.raises(ValueError):
            train(MLPModel.initialize((3, 2, 1), seed=0), data,
                  TrainConfig(0.1, epochs=1, batch_size=4, seed=0))


class TestGradientCheck:
    def test_linear_network_gradients_are_tight(self):
        data = linear_table(n=12, seed=21)
        net = MLPModel.initialize((2, 1), hidden_activation=ActivationKind.DIRECT,
                                  output_activation=ActivationKind.DIRECT, seed=2)
        assert gradient_check(net, data, 1e-5) <= 1e-7

    @pytest.mark.parametrize("kind", [ActivationKind.TANH, ActivationKind.SIGMOID,
                                      ActivationKind.GAUSSIAN, ActivationKind.DIRECT])
    def test_smooth_activations(self, kind):
        data = linear_table(n=15, seed=22, noise=0.2)
        net = MLPModel.initialize((2, 4, 1), hidden_activation=kind, seed=3)
        assert gradient_check(net, data, 1e-5) <= 1e-4

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(0.5, 1.5, size=(15, 2))  # keeps pre-activations off 0
        data = LabeledTable(X, X[:, 0] + X[:, 1], ("a", "b"))
        net = MLPModel.initialize((2, 4, 1), hidden_activation=ActivationKind.RELU, seed=4)
        assert gradient_check(net, data, 1e-5) <= 1e-4

    def test_zero_gradient_saddle(self):
        X = np.zeros((4, 2))
        data = LabeledTable(X, np.zeros(4), ("a", "b"))
        net = MLPModel(layer_sizes=(2, 3, 1),
                       weights=[np.zeros((2, 3)), np.zeros((3, 1))],
                       biases=[np.zeros(3), np.zeros(1)],
                       hidden_activation=ActivationKind.TANH)
        assert gradient_check(net, data, 1e-5) <= 1e-8

    def test_epsilon_domain(self):
        data = linear_table(n=5)
        net = MLPModel.initialize((2, 2, 1), seed=0)
        for bad in (1e-8, 1e-3, 0.1):
            with pytest.raises(ValueError):
                gradient_check(net, data, bad)
