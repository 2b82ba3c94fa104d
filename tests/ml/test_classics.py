"""Unit tests for logistic regression, preprocessing, metrics and k-fold."""

import numpy as np
import pytest

from repro.ml import LogisticRegression, StandardScaler, accuracy, kfold_indices


def linear_dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] - 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestLogisticRegression:
    def test_separable_data(self):
        X, y = linear_dataset()
        clf = LogisticRegression().fit(X, y)
        assert accuracy(y, np.argmax(clf.predict_proba(X), axis=1)) > 0.97

    def test_loss_monotone(self):
        X, y = linear_dataset()
        clf = LogisticRegression().fit(X, y)
        assert all(b <= a + 1e-12 for a, b in zip(clf.history_, clf.history_[1:]))

    def test_proba_columns(self):
        X, y = linear_dataset(50)
        clf = LogisticRegression().fit(X, y)
        proba = clf.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), np.asarray([0, 1, 2]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((1, 1)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), np.asarray([0, 1]))

    def test_validation(self):
        y = np.asarray([0, 1])
        with pytest.raises(ValueError, match="non-finite"):
            LogisticRegression().fit(np.asarray([[0.0], [np.nan]]), y)
        with pytest.raises(ValueError, match="2-D"):
            LogisticRegression().fit(np.zeros((2, 1, 1)), y)
        clf = LogisticRegression().fit(np.asarray([[0.0], [1.0]]), y)
        with pytest.raises(ValueError, match="non-finite"):
            clf.predict_proba(np.asarray([[np.inf]]))

    def test_decision_function_is_the_logit(self):
        X, y = linear_dataset(60)
        clf = LogisticRegression().fit(X, y)
        logits = clf.decision_function(X)
        assert np.array_equal(logits, X @ clf.coef_ + clf.intercept_)
        assert np.array_equal(clf.predict_proba(X)[:, 1], LogisticRegression._sigmoid(logits))

    def test_refit_is_bit_identical(self):
        X, y = linear_dataset(80, seed=3)
        a = LogisticRegression().fit(X, y)
        b = LogisticRegression().fit(X, y)
        assert np.array_equal(a.coef_, b.coef_)
        assert a.intercept_ == b.intercept_
        assert a.history_ == b.history_

    def test_intercept_learns_the_class_prior(self):
        """With no signal in the features only the (unpenalised) intercept
        moves, and it settles on the log-odds of the label frequency."""
        y = np.asarray([1] * 40 + [0] * 10)
        clf = LogisticRegression().fit(np.zeros((50, 2)), y)
        assert np.array_equal(clf.coef_, np.zeros(2))
        assert clf.predict_proba(np.zeros((1, 2)))[0, 1] == pytest.approx(0.8, abs=1e-3)

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            out = LogisticRegression._sigmoid(np.asarray([-1000.0, 0.0, 1000.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]
        z = np.linspace(-30, 30, 61)
        assert np.allclose(LogisticRegression._sigmoid(-z), 1.0 - LogisticRegression._sigmoid(z))

    def test_one_dimensional_input_is_one_row(self):
        X, y = linear_dataset(40)
        clf = LogisticRegression().fit(X, y)
        assert np.array_equal(clf.predict_proba(X[0]), clf.predict_proba(X[:1]))


class TestPreprocessing:
    def test_scaler_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(100, 3))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_constant_feature(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)

    def test_scaler_feature_count_mismatch(self):
        scaler = StandardScaler().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((2, 2)))

    def test_scaler_unfitted(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))

    def test_scaler_rejects_a_matrix_with_no_rows(self):
        scaler = StandardScaler()
        with pytest.raises(ValueError, match="no rows"):
            scaler.fit(np.zeros((0, 3)))
        assert scaler.mean_ is None and scaler.scale_ is None

    def test_scaler_roundtrip(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.transform(X) * scaler.scale_ + scaler.mean_, X)

    def test_scaler_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            StandardScaler().fit(np.asarray([[1.0, np.nan], [2.0, 3.0]]))

    @pytest.mark.parametrize("k", [1, 2, 7, 16])
    def test_transform_rows_equal_one_row_calls(self, k):
        """The served stages scale each block's rows together: an
        elementwise map, so row ``i`` is bit for bit its one-row call's."""
        rng = np.random.default_rng(k)
        scaler = StandardScaler().fit(rng.normal(2.0, 3.0, size=(30, 5)))
        X = rng.normal(2.0, 3.0, size=(k, 5))
        block = scaler.transform(X)
        for i in range(k):
            assert np.array_equal(block[i], scaler.transform(X[i])[0])


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 0], [1, 0, 1])

    def test_accuracy_needs_a_label(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_accuracy_ignores_shape(self):
        assert accuracy(np.asarray([[1], [0], [0]]), np.asarray([1, 0, 1])) == pytest.approx(2 / 3)


class TestModelSelection:
    def test_kfold_partitions(self):
        folds = list(kfold_indices(23, folds=5, seed=0))
        assert len(folds) == 5
        all_validation = np.concatenate([v for _, v in folds])
        assert sorted(all_validation.tolist()) == list(range(23))
        for train, validation in folds:
            assert set(train.tolist()).isdisjoint(validation.tolist())

    def test_kfold_validation(self):
        with pytest.raises(ValueError):
            list(kfold_indices(3, folds=5))

    def test_kfold_needs_two_folds(self):
        with pytest.raises(ValueError):
            list(kfold_indices(10, folds=1))

    def test_kfold_fold_sizes_balanced(self):
        folds = list(kfold_indices(23, folds=5, seed=2))
        assert sorted(len(v) for _, v in folds) == [4, 4, 5, 5, 5]
        for train, validation in folds:
            assert sorted([*train.tolist(), *validation.tolist()]) == list(range(23))

    def test_kfold_deterministic_given_seed(self):
        def splits(seed):
            return [v.tolist() for _, v in kfold_indices(20, folds=4, seed=seed)]

        assert splits(3) == splits(3)
        assert splits(3) != splits(4)
