"""Unit tests for the MLP (including finite-difference gradient checks), its
optimizer and its losses."""

import numpy as np
import pytest

from repro.ml import MlpConfig, MlpDistributionRegressor, MlpNetwork
from repro.ml.losses import (
    binary_cross_entropy,
    cross_entropy_from_logits,
    cross_entropy_gradient,
    log_softmax,
    softmax,
)
from repro.ml.optimizers import Adam


def mean_kl(targets, predictions):
    """Mean ``KL(target_row || prediction_row)`` over a batch of histograms."""
    mask = targets > 0
    terms = np.zeros_like(targets)
    terms[mask] = targets[mask] * np.log(targets[mask] / np.clip(predictions, 1e-12, None)[mask])
    return float(terms.sum(axis=1).mean())


class TestConfigValidation:
    def test_defaults(self):
        MlpConfig()

    def test_bad_hidden(self):
        with pytest.raises(ValueError):
            MlpConfig(hidden_sizes=(0,))

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            MlpConfig(activation="gelu")

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            MlpConfig(batch_size=0)

    def test_bad_validation_fraction(self):
        with pytest.raises(ValueError):
            MlpConfig(validation_fraction=1.0)
        with pytest.raises(ValueError):
            MlpConfig(validation_fraction=-0.1)

    def test_bad_max_epochs(self):
        with pytest.raises(ValueError):
            MlpConfig(max_epochs=0)

    def test_bad_l2(self):
        with pytest.raises(ValueError):
            MlpConfig(l2=-1e-9)


class TestNetwork:
    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError):
            MlpNetwork(0, (4,), 2)
        with pytest.raises(ValueError):
            MlpNetwork(3, (4,), 0)

    def test_forward_shapes(self):
        net = MlpNetwork(5, (7, 6), 4, seed=0)
        X = np.ones((8, 5))
        logits, pre, act = net.forward(X)
        assert logits.shape == (8, 4)
        assert [z.shape for z in pre] == [(8, 7), (8, 6), (8, 4)]
        assert act[0] is X and act[-1] is logits and len(act) == 4
        assert [p.shape for p in net.parameters] == [(5, 7), (7, 6), (6, 4), (7,), (6,), (4,)]

    def test_seed_fixes_initialisation(self):
        a, b, c = (MlpNetwork(3, (5,), 2, seed=s) for s in (1, 1, 2))
        assert all(np.array_equal(p, q) for p, q in zip(a.parameters, b.parameters))
        assert not np.array_equal(a.weights[0], c.weights[0])
        assert all(not bias.any() for bias in a.biases)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_hidden_activations_stay_in_range(self, activation):
        net = MlpNetwork(4, (16, 16), 3, activation=activation, seed=0)
        X = np.random.default_rng(0).normal(scale=5.0, size=(32, 4))
        _, pre, act = net.forward(X)
        for z, h in zip(pre[:-1], act[1:-1]):
            if activation == "relu":
                assert np.array_equal(h, np.maximum(z, 0.0))
            else:
                assert np.all(np.abs(h) <= 1.0) and np.array_equal(h, np.tanh(z))
        assert np.array_equal(act[-1], pre[-1])  # the output layer is linear


class TestGradients:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_backward_matches_finite_differences(self, activation):
        rng = np.random.default_rng(0)
        net = MlpNetwork(5, (7, 6), 4, activation=activation, seed=1)
        X = rng.normal(size=(8, 5))
        T = np.abs(rng.normal(size=(8, 4)))
        T /= T.sum(axis=1, keepdims=True)

        logits, pre, act = net.forward(X)
        grads = net.backward(cross_entropy_gradient(logits, T), pre, act)
        params = net.parameters

        eps = 1e-6
        rng2 = np.random.default_rng(2)
        for _ in range(12):
            pi = int(rng2.integers(0, len(params)))
            flat = params[pi].reshape(-1)
            ei = int(rng2.integers(0, flat.size))
            orig = flat[ei]
            flat[ei] = orig + eps
            up = cross_entropy_from_logits(net.predict_logits(X), T)
            flat[ei] = orig - eps
            down = cross_entropy_from_logits(net.predict_logits(X), T)
            flat[ei] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[pi].reshape(-1)[ei]
            assert numeric == pytest.approx(analytic, abs=1e-5)

    def test_l2_gradient(self):
        net = MlpNetwork(3, (4,), 2, seed=0)
        X = np.ones((2, 3))
        T = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        logits, pre, act = net.forward(X)
        g0 = net.backward(cross_entropy_gradient(logits, T), pre, act, l2=0.0)
        g1 = net.backward(cross_entropy_gradient(logits, T), pre, act, l2=0.1)
        assert np.allclose(g1[0] - g0[0], 0.1 * net.weights[0])


class TestDistributionRegressor:
    def _dataset(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 4))
        Y = np.zeros((n, 6))
        flag = X[:, 0] > 0
        Y[flag, 0] = 0.5
        Y[flag, 5] = 0.5
        Y[~flag, 2] = 1.0
        return X, Y

    def test_learns_bimodal_mapping(self):
        X, Y = self._dataset()
        reg = MlpDistributionRegressor(
            MlpConfig(hidden_sizes=(24,), max_epochs=200, seed=1)
        )
        reg.fit(X, Y)
        assert mean_kl(Y, reg.predict(X)) < 0.15

    def test_prediction_rows_are_distributions(self):
        X, Y = self._dataset()
        reg = MlpDistributionRegressor(MlpConfig(max_epochs=5)).fit(X, Y)
        P = reg.predict(X)
        assert np.all(P >= 0)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_rejects_unnormalized_targets(self):
        X = np.zeros((3, 2))
        Y = np.full((3, 4), 0.5)
        with pytest.raises(ValueError):
            MlpDistributionRegressor().fit(X, Y)

    def test_rejects_negative_targets(self):
        X = np.zeros((2, 2))
        Y = np.asarray([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MlpDistributionRegressor().fit(X, Y)

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            MlpDistributionRegressor().fit(np.zeros((3, 2)), np.ones((2, 2)) / 2)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MlpDistributionRegressor().predict(np.zeros((1, 2)))

    def test_deterministic_given_seed(self):
        X, Y = self._dataset(n=100)
        config = MlpConfig(hidden_sizes=(8,), max_epochs=10, seed=7)
        a = MlpDistributionRegressor(config).fit(X, Y).predict(X)
        b = MlpDistributionRegressor(config).fit(X, Y).predict(X)
        assert np.allclose(a, b)

    def test_rejects_non_finite_targets(self):
        Y = np.asarray([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="y contains non-finite"):
            MlpDistributionRegressor().fit(np.zeros((2, 2)), Y)

    def _fitted(self, **overrides):
        X, Y = self._dataset(n=80)
        config = MlpConfig(hidden_sizes=(8, 6), max_epochs=6, seed=2, **overrides)
        return MlpDistributionRegressor(config).fit(X, Y), X, Y

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_predict_rows_matches_predict(self, activation):
        reg, X, _ = self._fitted(activation=activation)
        rows = reg.predict_rows(X)
        assert np.allclose(rows, reg.predict(X), rtol=1e-12, atol=1e-15)
        assert np.allclose(rows.sum(axis=1), 1.0)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_predict_rows_equal_one_row_calls(self, activation):
        reg, X, _ = self._fitted(activation=activation)
        for k in range(1, 17):
            block = reg.predict_rows(X[:k])
            for i in range(k):
                alone = X[i : i + 1]
                assert np.array_equal(block[i], reg.predict_rows(alone)[0]), f"k={k}, row {i}"
                assert np.array_equal(block[i], reg.predict(alone)[0]), f"k={k}, row {i}"

    def test_predict_rows_unfitted(self):
        with pytest.raises(RuntimeError):
            MlpDistributionRegressor().predict_rows(np.zeros((1, 2)))

    @pytest.mark.parametrize("rows, fraction", [(80, 0.0), (9, 0.5)])
    def test_without_validation_every_epoch_runs(self, rows, fraction):
        """No validation split (none asked for, or under 10 rows): no early
        stop, one training-loss entry per epoch."""
        X, Y = self._dataset(n=rows)
        config = MlpConfig(hidden_sizes=(4,), max_epochs=7, validation_fraction=fraction)
        reg = MlpDistributionRegressor(config).fit(X, Y)
        assert len(reg.history_) == 7
        assert reg.history_[-1] == pytest.approx(
            cross_entropy_from_logits(reg.network.predict_logits(X), Y), rel=1e-12
        )

    def test_early_stopping_restores_the_best_epoch(self):
        X, Y = self._dataset(n=100)
        config = MlpConfig(
            hidden_sizes=(8,), max_epochs=60, early_stopping_patience=2, learning_rate=0.05, seed=3
        )
        reg = MlpDistributionRegressor(config).fit(X, Y)
        # the held-out rows are the first 10 of the seeded permutation
        val = np.random.default_rng(config.seed).permutation(len(X))[:10]
        restored = cross_entropy_from_logits(reg.network.predict_logits(X[val]), Y[val])
        assert restored in reg.history_
        assert restored <= min(reg.history_) + 1e-6


class TestOptimizers:
    def _quadratic_steps(self, optimizer, steps=200):
        # minimise f(w) = ||w - 3||^2 via its gradient
        w = np.zeros(4)
        params = [w]
        for _ in range(steps):
            grads = [2.0 * (w - 3.0)]
            optimizer.step(params, grads)
        return w

    def test_adam_converges(self):
        w = self._quadratic_steps(Adam(learning_rate=0.2), steps=400)
        assert np.allclose(w, 3.0, atol=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)

    def test_adam_first_step_has_learning_rate_magnitude(self):
        """Bias correction makes the first step ``lr * sign(g)``."""
        w = np.zeros(4)
        Adam(learning_rate=0.1).step([w], [np.asarray([2.0, -0.5, 1e3, 0.0])])
        assert np.allclose(w, [-0.1, 0.1, -0.1, 0.0], atol=1e-6)

    def test_adam_new_instance_has_no_state(self):
        """A reversed gradient is damped by the first step's momentum in a
        used instance; a new one takes a full step along it."""
        g = np.asarray([1.0, -2.0])
        used = Adam(learning_rate=0.1)
        used.step([np.zeros(2)], [g])
        second, fresh = np.zeros(2), np.zeros(2)
        used.step([second], [-g])
        Adam(learning_rate=0.1).step([fresh], [-g])
        assert np.allclose(fresh, [0.1, -0.1], atol=1e-6)
        assert np.all(np.abs(second) < 0.1 * np.abs(fresh))

    def test_softmax_stability(self):
        z = np.asarray([[1000.0, 1000.0]])
        assert np.allclose(softmax(z), [[0.5, 0.5]])


class TestLosses:
    def test_log_softmax_is_log_of_softmax(self):
        z = np.random.default_rng(0).normal(scale=4.0, size=(6, 5))
        assert np.allclose(log_softmax(z), np.log(softmax(z)), rtol=1e-12)
        assert np.isfinite(log_softmax(np.asarray([[1000.0, -1000.0]]))).all()

    def test_cross_entropy_is_least_at_the_target(self):
        """At logits ``log t`` the loss is the targets' entropy and its
        gradient vanishes (the KL term is zero)."""
        T = np.asarray([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
        entropy = float(-(T * np.log(T)).sum(axis=1).mean())
        assert cross_entropy_from_logits(np.log(T), T) == pytest.approx(entropy, rel=1e-12)
        assert np.allclose(cross_entropy_gradient(np.log(T), T), 0.0, atol=1e-15)
        assert cross_entropy_from_logits(np.zeros_like(T), T) > entropy

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cross_entropy_gradient(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_binary_cross_entropy_clips_certain_mistakes(self):
        loss = binary_cross_entropy(np.asarray([1.0, 0.0]), np.asarray([0, 1]))
        assert loss == pytest.approx(-np.log(1e-12))
        assert binary_cross_entropy(np.asarray([0.5]), np.asarray([1])) == pytest.approx(np.log(2))
