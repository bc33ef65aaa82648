"""Tests for the SVM substrate: kernels, the SMO solver and one-vs-one."""

import numpy as np
import pytest

from repro.ml.kernels import (
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    make_kernel,
)
from repro.ml.multiclass import OneVsOneSVC
from repro.ml.svm import BinarySVC, SVMNotFittedError

from tests.oracles.svm import ReferenceBinarySVC


class TestKernels:
    def test_linear_kernel_matches_dot_product(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Y = np.array([[0.5, 0.5]])
        K = LinearKernel()(X, Y)
        assert K.shape == (2, 1)
        assert K[0, 0] == pytest.approx(1.5)
        assert K[1, 0] == pytest.approx(3.5)

    def test_rbf_kernel_is_one_on_diagonal(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        K = RBFKernel(gamma=0.7)(X, X)
        assert np.allclose(np.diag(K), 1.0)

    def test_rbf_kernel_decreases_with_distance(self):
        k = RBFKernel(gamma=1.0)
        near = k(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k(np.array([[0.0]]), np.array([[2.0]]))[0, 0]
        assert near > far

    def test_rbf_kernel_values_in_unit_interval(self):
        X = np.random.default_rng(1).normal(size=(10, 4))
        K = RBFKernel(gamma=0.3)(X, X)
        assert np.all(K <= 1.0 + 1e-12)
        assert np.all(K >= 0.0)

    def test_polynomial_kernel_degree_one_is_affine_dot(self):
        k = PolynomialKernel(degree=1, gamma=1.0, coef0=2.0)
        K = k(np.array([[1.0, 1.0]]), np.array([[2.0, 3.0]]))
        assert K[0, 0] == pytest.approx(7.0)

    def test_kernel_gram_is_symmetric(self):
        X = np.random.default_rng(2).normal(size=(6, 3))
        for kernel in (LinearKernel(), RBFKernel(gamma=0.5), PolynomialKernel()):
            K = kernel(X, X)
            assert np.allclose(K, K.T)

    def test_kernel_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            LinearKernel()(np.ones((2, 3)), np.ones((2, 4)))

    def test_make_kernel_by_name(self):
        assert isinstance(make_kernel("linear"), LinearKernel)
        assert isinstance(make_kernel("rbf", gamma=2.0), RBFKernel)
        assert isinstance(make_kernel("poly", degree=2), PolynomialKernel)

    def test_make_kernel_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_kernel("sigmoid")


class TestBinarySVC:
    def _separable(self, rng):
        X = np.vstack(
            [rng.normal(-2.0, 0.4, size=(25, 2)), rng.normal(2.0, 0.4, size=(25, 2))]
        )
        y = np.array([0] * 25 + [1] * 25)
        return X, y

    def test_fits_linearly_separable_data(self, rng):
        X, y = self._separable(rng)
        clf = BinarySVC(C=1.0, kernel="linear").fit(X, y)
        assert clf.score(X, y) == pytest.approx(1.0)

    def test_rbf_fits_xor_pattern(self, rng):
        X = np.vstack(
            [
                rng.normal([0, 0], 0.2, size=(20, 2)),
                rng.normal([3, 3], 0.2, size=(20, 2)),
                rng.normal([0, 3], 0.2, size=(20, 2)),
                rng.normal([3, 0], 0.2, size=(20, 2)),
            ]
        )
        y = np.array([0] * 40 + [1] * 40)
        clf = BinarySVC(C=10.0, kernel="rbf", gamma=1.0).fit(X, y)
        assert clf.score(X, y) > 0.9

    def test_predict_before_fit_raises(self):
        with pytest.raises(SVMNotFittedError):
            BinarySVC().predict(np.zeros((1, 2)))

    def test_decision_function_sign_matches_prediction(self, rng):
        X, y = self._separable(rng)
        clf = BinarySVC(C=1.0, kernel="linear").fit(X, y)
        scores = clf.decision_function(X)
        preds = clf.predict(X)
        assert np.all((scores >= 0) == (preds == clf.classes_[1]))

    def test_string_labels_are_preserved(self, rng):
        X, _ = self._separable(rng)
        y = np.array(["a"] * 25 + ["b"] * 25)
        clf = BinarySVC(kernel="linear").fit(X, y)
        assert set(clf.predict(X)) <= {"a", "b"}

    def test_single_class_training_predicts_that_class(self):
        X = np.zeros((5, 2))
        y = np.array(["only"] * 5)
        clf = BinarySVC().fit(X, y)
        assert list(clf.predict(np.ones((3, 2)))) == ["only"] * 3

    def test_more_than_two_classes_raises(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            BinarySVC().fit(X, np.array([0, 1, 2]))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            BinarySVC().fit(np.zeros((3, 2)), np.array([0, 1]))

    def test_support_vectors_are_subset_of_training_data(self, rng):
        X, y = self._separable(rng)
        clf = BinarySVC(C=1.0, kernel="linear").fit(X, y)
        assert clf.support_vectors_.shape[0] <= X.shape[0]
        assert clf.support_vectors_.shape[1] == X.shape[1]

    def test_gamma_scale_heuristic_used_when_none(self, rng):
        X, y = self._separable(rng)
        clf = BinarySVC(kernel="rbf", gamma=None).fit(X, y)
        assert clf._kernel_obj.gamma > 0


class TestOneVsOneSVC:
    def _blobs(self, rng, centers=(0.0, 4.0, 8.0), n=20):
        X = np.vstack([rng.normal(c, 0.3, size=(n, 2)) for c in centers])
        y = np.repeat(np.arange(len(centers)), n)
        return X, y

    def test_three_class_blobs_are_learned(self, rng):
        X, y = self._blobs(rng)
        clf = OneVsOneSVC(C=10.0, kernel="rbf").fit(X, y)
        assert clf.score(X, y) > 0.95

    def test_number_of_pairwise_estimators(self, rng):
        X, y = self._blobs(rng, centers=(0.0, 3.0, 6.0, 9.0))
        clf = OneVsOneSVC(kernel="linear").fit(X, y)
        assert len(clf.estimators_) == 6  # 4 choose 2

    def test_predict_before_fit_raises(self):
        with pytest.raises(SVMNotFittedError):
            OneVsOneSVC().predict(np.zeros((1, 2)))

    def test_single_class_dataset(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        y = np.array(["w1"] * 5)
        clf = OneVsOneSVC().fit(X, y)
        assert list(clf.predict(X)) == ["w1"] * 5

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError):
            OneVsOneSVC().fit(np.empty((0, 2)), np.empty((0,)))

    def test_string_labels(self, rng):
        X, y_int = self._blobs(rng)
        labels = np.array(["w0", "w1", "w2"])[y_int]
        clf = OneVsOneSVC(kernel="linear").fit(X, labels)
        assert set(clf.predict(X)) <= {"w0", "w1", "w2"}
        assert clf.score(X, labels) > 0.95

    def test_generalises_to_held_out_points(self, rng):
        X, y = self._blobs(rng, n=30)
        clf = OneVsOneSVC(C=10.0, kernel="rbf").fit(X[::2], y[::2])
        assert clf.score(X[1::2], y[1::2]) > 0.9

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            OneVsOneSVC().fit(np.zeros((3, 2)), np.array([0, 1]))


class TestPrecomputedKernel:
    """``kernel="precomputed"``: Gram-view fits, bit-identical to direct."""

    def _data(self, rng, n=60, d=12, classes=3):
        X = rng.normal(size=(n, d))
        y = rng.integers(0, classes, n)
        return X, y

    def test_binary_precomputed_fit_bit_identical_to_direct(self, rng):
        X, y = self._data(rng, classes=2)
        kern = RBFKernel(gamma=0.15)
        K = kern(X, X)
        for _ in range(3):
            idx = np.sort(rng.choice(X.shape[0], size=40, replace=False))
            direct = BinarySVC(C=5.0, kernel=kern, random_state=0).fit(X[idx], y[idx])
            pre = BinarySVC(C=5.0, kernel="precomputed", random_state=0).fit(
                K[np.ix_(idx, idx)], y[idx]
            )
            np.testing.assert_array_equal(direct.dual_coef_, pre.dual_coef_)
            np.testing.assert_array_equal(direct.support_idx_, pre.support_idx_)
            assert direct.intercept_ == pre.intercept_

    def test_ovo_precomputed_predictions_bit_identical_to_direct(self, rng):
        X, y = self._data(rng)
        kern = RBFKernel(gamma=0.15)
        K = kern(X, X)
        idx = np.sort(rng.choice(X.shape[0], size=45, replace=False))
        test = np.setdiff1d(np.arange(X.shape[0]), idx)
        direct = OneVsOneSVC(C=5.0, kernel=kern, random_state=0).fit(X[idx], y[idx])
        pre = OneVsOneSVC(C=5.0, kernel="precomputed", random_state=0).fit(
            K[np.ix_(idx, idx)], y[idx]
        )
        np.testing.assert_array_equal(
            direct.predict(X[test]), pre.predict(kern(X[test], X[idx]))
        )
        # Cached test-row columns of a bigger Gram block work identically.
        K_all = kern(X, X[idx])
        np.testing.assert_array_equal(
            pre.predict(K_all[test]), direct.predict(X[test])
        )

    def test_precomputed_requires_square_gram(self, rng):
        X, y = self._data(rng, classes=2)
        with pytest.raises(ValueError, match="square"):
            BinarySVC(kernel="precomputed").fit(X[:10, :5], y[:10])
        with pytest.raises(ValueError, match="square"):
            OneVsOneSVC(kernel="precomputed").fit(X[:10, :5], y[:10])

    def test_precomputed_predict_validates_columns(self, rng):
        X, y = self._data(rng, classes=2)
        K = LinearKernel()(X, X)
        clf = BinarySVC(kernel="precomputed").fit(K[:30, :30], y[:30])
        with pytest.raises(ValueError, match="training columns"):
            clf.decision_function(K[:5, :10])


class TestSMOErrorCache:
    """The incremental error cache and its retained reference formulation."""

    def _binary(self, rng, n=50):
        X = np.vstack([
            rng.normal(-1.0, 1.0, size=(n // 2, 6)),
            rng.normal(1.0, 1.0, size=(n - n // 2, 6)),
        ])
        y = np.array([0] * (n // 2) + [1] * (n - n // 2))
        return X, y

    def test_fixed_seed_fits_are_bit_identical(self, rng):
        X, y = self._binary(rng)
        fits = [
            BinarySVC(C=2.0, kernel="rbf", gamma=0.2, random_state=7).fit(X, y)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(fits[0].dual_coef_, fits[1].dual_coef_)
        np.testing.assert_array_equal(fits[0].alpha_, fits[1].alpha_)
        assert fits[0].intercept_ == fits[1].intercept_

    def test_reference_formulation_reaches_same_quality(self, rng):
        X, y = self._binary(rng, n=60)
        cached = BinarySVC(C=2.0, kernel="linear", random_state=0).fit(X, y)
        reference = ReferenceBinarySVC(
            C=2.0, kernel="linear", random_state=0
        ).fit(X, y)
        assert cached.score(X, y) >= reference.score(X, y) - 0.05

    def test_dual_constraints_hold_after_cached_fit(self, rng):
        """The incremental updates preserve the SMO dual invariants.

        Every accepted (i, j) step must keep the box constraints
        ``0 <= alpha <= C`` and conserve ``sum(alpha * y)`` (each step
        moves the pair along the equality constraint); a buggy cache
        update would break them silently.
        """
        X, y = self._binary(rng, n=40)
        clf = BinarySVC(C=1.0, kernel="linear", random_state=0).fit(X, y)
        y_signed = np.where(y == clf.classes_[1], 1.0, -1.0)
        assert np.all(clf.alpha_ >= 0.0)
        assert np.all(clf.alpha_ <= clf.C)
        assert abs(float(clf.alpha_ @ y_signed)) < 1e-7

    def test_warm_start_converges_to_valid_solution(self, rng):
        X, y = self._binary(rng, n=60)
        kern = LinearKernel()
        K = kern(X, X)
        cold_small = BinarySVC(C=1.0, kernel="precomputed", random_state=0).fit(
            K[:30, :30], y[:30]
        )
        warm = BinarySVC(C=1.0, kernel="precomputed", random_state=0)
        warm.fit(K, y, init=(cold_small.alpha_, cold_small.intercept_))
        cold = BinarySVC(C=1.0, kernel="precomputed", random_state=0).fit(K, y)
        # Same tol-quality stationary point: train accuracy matches cold.
        assert (
            abs(float(np.mean(warm.predict(K) == y)) - float(np.mean(cold.predict(K) == y)))
            <= 0.05
        )

    def test_warm_start_rejects_oversized_alpha(self, rng):
        X, y = self._binary(rng, n=20)
        with pytest.raises(ValueError, match="warm-start"):
            BinarySVC(kernel="linear").fit(X, y, init=(np.zeros(25), 0.0))

    def test_ovo_pair_states_roundtrip_as_warm_init(self, rng):
        X = np.vstack([rng.normal(c, 0.8, size=(15, 4)) for c in (0.0, 3.0, 6.0)])
        y = np.repeat(np.array(["a", "b", "c"]), 15)
        perm = rng.permutation(45)
        X, y = X[perm], y[perm]
        kern = LinearKernel()
        K = kern(X, X)
        small = OneVsOneSVC(C=1.0, kernel="precomputed", random_state=0).fit(
            K[:30, :30], y[:30]
        )
        states = small.pair_states()
        assert set(states) == {("a", "b"), ("a", "c"), ("b", "c")}
        big = OneVsOneSVC(C=1.0, kernel="precomputed", random_state=0)
        big.fit(K, y, warm_init=states)
        assert float(np.mean(big.predict(K) == y)) > 0.8
