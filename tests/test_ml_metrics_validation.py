"""Tests for metrics, cross-validation, mutual information and correlation."""

import numpy as np
import pytest

from repro.ml.correlation import correlation_matrix
from repro.ml.metrics import (
    DetectionCounts,
    accuracy,
    f_measure,
    precision,
    recall,
)
from repro.ml.multiclass import OneVsOneSVC
from repro.ml.mutual_info import (
    conditional_entropy,
    marginal_entropy,
    quantize,
    rank_features_by_rmi,
    relative_mutual_information,
    stream_importance,
)
from repro.ml.validation import (
    SVCFoldFitter,
    learning_curve,
    stratified_fold_assignments,
    stratified_kfold_indices,
)

from tests.oracles.svm import PerFitFoldFitter


class TestDetectionCounts:
    def test_precision_recall_fmeasure(self):
        counts = DetectionCounts(tp=8, fp=2, fn=2)
        assert counts.precision == pytest.approx(0.8)
        assert counts.recall == pytest.approx(0.8)
        assert counts.f_measure == pytest.approx(0.8)

    def test_zero_positives_give_zero_metrics(self):
        counts = DetectionCounts(tp=0, fp=0, fn=5)
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.f_measure == 0.0

    def test_rates_sum_to_one(self):
        counts = DetectionCounts(tp=3, fp=1, fn=6)
        rates = counts.rates()
        assert sum(rates.values()) == pytest.approx(1.0)

    def test_addition_aggregates_counts(self):
        total = DetectionCounts(1, 2, 3) + DetectionCounts(4, 5, 6)
        assert (total.tp, total.fp, total.fn) == (5, 7, 9)

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            DetectionCounts(-1, 0, 0)

    def test_convenience_functions(self):
        assert precision(4, 1) == pytest.approx(0.8)
        assert recall(4, 1) == pytest.approx(0.8)
        assert f_measure(4, 1, 1) == pytest.approx(0.8)


class TestAccuracy:
    def test_accuracy_perfect_and_zero(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 2, 3], [3, 1, 2]) == 0.0

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_accuracy_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])


class TestCrossValidation:
    def test_stratified_kfold_preserves_class_presence(self, rng):
        y = np.array([0] * 10 + [1] * 10)
        for train_idx, _ in stratified_kfold_indices(y, 5, rng):
            assert set(y[train_idx]) == {0, 1}

    def test_stratified_kfold_covers_all_samples(self, rng):
        y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        seen = []
        for _, test_idx in stratified_kfold_indices(y, 3, rng):
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(10))

    def test_stratified_kfold_train_test_partition(self, rng):
        y = np.array([0] * 7 + [1] * 5 + [2] * 3)
        for train_idx, test_idx in stratified_kfold_indices(y, 3, rng):
            assert set(train_idx).isdisjoint(set(test_idx))
            assert sorted(np.concatenate([train_idx, test_idx])) == list(range(15))

    def test_stratified_kfold_invalid_folds_raise(self, rng):
        with pytest.raises(ValueError):
            list(stratified_kfold_indices([0, 1] * 5, 1, rng))
        with pytest.raises(ValueError):
            list(stratified_kfold_indices([0, 1, 0], 5, rng))

    def test_fold_assignments_spread_each_class_evenly(self, rng):
        y = np.array([0] * 11 + [1] * 4 + [2] * 7)
        assignments = stratified_fold_assignments(y, 5, rng)
        assert set(assignments.tolist()) == set(range(5))
        for cls in np.unique(y):
            per_fold = np.bincount(assignments[y == cls], minlength=5)
            assert per_fold.max() - per_fold.min() <= 1

    def test_kfold_indices_follow_the_fold_assignments(self):
        y = np.array([0, 1, 1] * 6)
        assignments = stratified_fold_assignments(y, 3, np.random.default_rng(5))
        splits = stratified_kfold_indices(y, 3, np.random.default_rng(5))
        for k, (train_idx, test_idx) in enumerate(splits):
            np.testing.assert_array_equal(test_idx, np.flatnonzero(assignments == k))
            np.testing.assert_array_equal(train_idx, np.flatnonzero(assignments != k))

    def test_learning_curve_improves_with_more_data(self, rng):
        X = np.vstack([rng.normal(-2, 1.0, (60, 2)), rng.normal(2, 1.0, (60, 2))])
        y = np.array([0] * 60 + [1] * 60)
        result = learning_curve(
            lambda: OneVsOneSVC(kernel="linear"),
            X,
            y,
            train_sizes=[4, 60],
            n_folds=4,
            n_repeats=3,
            rng=rng,
        )
        assert result.mean_accuracy[-1] >= result.mean_accuracy[0] - 0.05
        assert np.all(result.ci95 >= 0)

    def test_learning_curve_requires_positive_sizes(self, rng):
        with pytest.raises(ValueError):
            learning_curve(
                lambda: OneVsOneSVC(), np.zeros((4, 1)), [0, 1, 0, 1], train_sizes=[]
            )

    def test_learning_curve_skips_single_class_subsets(self):
        """Single-class training subsets are skipped, not fit (regression).

        With one minority sample, every size-1 subset (and most size-2
        subsets) is single-class; the old ``< 1`` guard was dead code, so a
        degenerate constant classifier was silently scored.  Record every
        fit's training labels and assert each saw at least two classes.
        """
        fitted_label_sets = []

        class RecordingEstimator:
            def fit(self, X, y):
                fitted_label_sets.append(set(np.asarray(y).tolist()))
                self._majority = max(set(y), key=list(y).count)
                return self

            def predict(self, X):
                return np.full(np.atleast_2d(X).shape[0], self._majority)

        X = np.arange(24, dtype=float).reshape(12, 2)
        y = np.array(["a"] * 11 + ["b"])
        result = learning_curve(
            RecordingEstimator,
            X,
            y,
            train_sizes=[1, 2, 8],
            n_folds=3,
            n_repeats=4,
            rng=np.random.default_rng(0),
        )
        assert fitted_label_sets, "no fit ever ran"
        assert all(len(labels) >= 2 for labels in fitted_label_sets)
        # Size 1 can never contain two classes: NaN mean AND NaN ci95.
        assert np.isnan(result.mean_accuracy[0])
        assert np.isnan(result.ci95[0])

    def test_learning_curve_nan_ci95_for_empty_sizes(self):
        """Sizes with zero valid repeats report NaN ci95, not 0 (regression).

        The old code clamped the repeat count to 1, reporting a confident
        ``ci95 = 0`` next to a NaN mean.
        """
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        y = np.array(["a"] * 9 + ["b"])
        result = learning_curve(
            lambda: OneVsOneSVC(kernel="linear"),
            X,
            y,
            train_sizes=[1, 5],
            n_folds=2,
            n_repeats=2,
            rng=rng,
        )
        empty = np.isnan(result.all_scores).all(axis=1)
        assert empty[0], "size 1 should have no valid repeats"
        assert np.isnan(result.ci95[empty]).all()
        assert np.isnan(result.mean_accuracy[empty]).all()
        # Sizes that did produce scores keep finite statistics.
        if (~empty).any():
            assert np.isfinite(result.ci95[~empty]).all()


class TestMutualInformation:
    def test_quantize_range(self, rng):
        q = quantize(rng.normal(size=100), bins=16)
        assert q.min() >= 0
        assert q.max() <= 15

    def test_quantize_constant_feature(self):
        q = quantize(np.ones(10), bins=256)
        assert np.all(q == 0)

    def test_quantize_rejects_nan_and_inf(self):
        for poison in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                quantize(np.array([1.0, poison, 2.0]))

    def test_marginal_entropy_nonnegative(self, rng):
        assert marginal_entropy(rng.normal(size=200)) >= 0

    def test_conditional_entropy_not_above_marginal(self, rng):
        x = rng.normal(size=200)
        y = (x > 0).astype(int)
        assert conditional_entropy(x, y) <= marginal_entropy(x) + 1e-9

    def test_rmi_informative_feature_beats_noise(self, rng):
        y = np.repeat([0, 1], 100)
        informative = y * 10.0 + rng.normal(0, 0.1, 200)
        noise = rng.normal(size=200)
        assert relative_mutual_information(informative, y) > relative_mutual_information(
            noise, y
        )

    def test_rmi_in_unit_interval(self, rng):
        y = np.repeat([0, 1], 50)
        x = rng.normal(size=100)
        assert 0.0 <= relative_mutual_information(x, y) <= 1.0

    def test_rmi_constant_feature_is_zero(self):
        y = np.repeat([0, 1], 5)
        assert relative_mutual_information(np.ones(10), y) == 0.0

    def test_rank_features_by_rmi_orders_descending(self, rng):
        y = np.repeat([0, 1], 100)
        X = np.column_stack([rng.normal(size=200), y * 5 + rng.normal(0, 0.1, 200)])
        ranked = rank_features_by_rmi(X, y, ["noise", "signal"])
        assert ranked[0].name == "signal"
        assert ranked[0].rmi >= ranked[1].rmi

    def test_rank_features_drops_highly_correlated(self, rng):
        y = np.repeat([0, 1], 100)
        signal = y * 5.0 + rng.normal(0, 0.1, 200)
        X = np.column_stack([signal, signal * 1.0001, rng.normal(size=200)])
        ranked = rank_features_by_rmi(
            X, y, ["s1", "s2", "noise"], drop_correlated_above=0.99
        )
        names = [fi.name for fi in ranked]
        assert not ("s1" in names and "s2" in names)

    def test_stream_importance_aggregates_by_stream(self):
        from repro.ml.mutual_info import FeatureImportance

        ranked = [
            FeatureImportance("d1-d2-var", 0.5),
            FeatureImportance("d1-d2-ent", 0.3),
            FeatureImportance("d2-d3-ac", 0.2),
        ]
        scores = stream_importance(ranked)
        assert scores[("d1", "d2")] == pytest.approx(0.5)
        assert scores[("d2", "d3")] == pytest.approx(0.2)


class TestCorrelation:
    def test_correlation_matrix_diagonal_is_one(self, rng):
        X = rng.normal(size=(30, 4))
        result = correlation_matrix(X, ["a", "b", "c", "d"])
        assert np.allclose(np.diag(result.matrix), 1.0)

    def test_perfectly_correlated_columns(self, rng):
        x = rng.normal(size=50)
        result = correlation_matrix(np.column_stack([x, 2 * x]), ["a", "b"])
        assert result.value("a", "b") == pytest.approx(1.0)

    def test_anticorrelated_columns(self, rng):
        x = rng.normal(size=50)
        result = correlation_matrix(np.column_stack([x, -x]), ["a", "b"])
        assert result.value("a", "b") == pytest.approx(-1.0)

    def test_constant_column_yields_zero_offdiagonal(self, rng):
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        result = correlation_matrix(X, ["const", "x"])
        assert result.value("const", "x") == pytest.approx(0.0)

    def test_names_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            correlation_matrix(rng.normal(size=(10, 3)), ["a", "b"])


class TestSVCFoldFitter:
    """Shared-Gram / warm-start learning-curve fitters."""

    def _data(self, seed=0, n_per=30, d=8):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(c, 1.2, size=(n_per, d)) for c in (0.0, 2.0, 4.0)])
        y = np.repeat(np.array(["a", "b", "c"]), n_per)
        return X, y

    def _curve(self, X, y, fitter, seed=1):
        return learning_curve(
            None, X, y, [6, 12, 24, 48], n_folds=3, n_repeats=2,
            rng=np.random.default_rng(seed), fitter=fitter,
        )

    def test_shared_gram_bit_identical_to_per_fit_reference(self):
        X, y = self._data()
        shared = self._curve(
            X, y, SVCFoldFitter(kernel="rbf", random_state=0, warm_start=False)
        )
        perfit = self._curve(
            X, y, PerFitFoldFitter(kernel="rbf", random_state=0,
                                   warm_start=False)
        )
        np.testing.assert_array_equal(
            shared.all_scores, perfit.all_scores
        )

    def test_fitter_and_estimator_paths_share_the_random_stream(self):
        # Same rng, same folds: a fitter curve and an estimator curve must
        # evaluate the identical sizes (NaN pattern) even though the
        # estimators differ.
        X, y = self._data()
        fitted = self._curve(X, y, SVCFoldFitter(kernel="linear", random_state=0))
        plain = learning_curve(
            lambda: OneVsOneSVC(kernel="linear", random_state=0),
            X, y, [6, 12, 24, 48], n_folds=3, n_repeats=2,
            rng=np.random.default_rng(1),
        )
        np.testing.assert_array_equal(
            np.isnan(fitted.all_scores), np.isnan(plain.all_scores)
        )

    def test_warm_start_curve_close_to_cold(self):
        X, y = self._data()
        warm = self._curve(X, y, SVCFoldFitter(kernel="linear", random_state=0,
                                               warm_start=True))
        cold = self._curve(X, y, SVCFoldFitter(kernel="linear", random_state=0,
                                               warm_start=False))
        # tol-equivalent stationary points: close scores, not bitwise.
        assert np.nanmax(np.abs(warm.all_scores - cold.all_scores)) <= 0.15

    def test_reference_error_cache_off_close_to_fast(self):
        X, y = self._data()
        fast = self._curve(X, y, SVCFoldFitter(kernel="linear", random_state=0))
        baseline = self._curve(
            X, y, PerFitFoldFitter(kernel="linear", random_state=0,
                                   warm_start=False, error_cache=False)
        )
        assert np.nanmax(np.abs(fast.all_scores - baseline.all_scores)) <= 0.2

    def test_empty_test_folds_are_skipped(self):
        # Regression: 9 samples over 5 stratified folds leaves fold 4
        # empty (round-robin per class); the curve must skip it instead of
        # crashing on the accuracy of an empty prediction set.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 3))
        y = np.array(["a"] * 4 + ["b"] * 3 + ["c"] * 2)
        result = learning_curve(
            None, X, y, [4, 7], n_folds=5, n_repeats=2,
            rng=np.random.default_rng(0),
            fitter=SVCFoldFitter(kernel="linear", random_state=0),
        )
        assert np.isfinite(result.mean_accuracy).any()

    def test_learning_curve_requires_exactly_one_strategy(self):
        X, y = self._data()
        with pytest.raises(ValueError, match="exactly one"):
            learning_curve(None, X, y, [4], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="exactly one"):
            learning_curve(
                lambda: OneVsOneSVC(), X, y, [4],
                rng=np.random.default_rng(0), fitter=SVCFoldFitter(),
            )

    def test_fitter_rejects_precomputed_kernel_name(self):
        X, y = self._data()
        with pytest.raises(ValueError, match="underlying kernel"):
            self._curve(X, y, SVCFoldFitter(kernel="precomputed"))
