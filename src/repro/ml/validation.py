"""Cross-validation utilities.

The paper evaluates the RE classifier with 5-fold cross-validation repeated
10 times to smooth out the randomness of the split (Section VII-B), and
plots a learning curve over increasing training-set sizes.  This module
provides stratified k-fold splitters plus the repeated
learning-curve machinery, without any external ML dependency.

Shared-Gram learning curves
---------------------------

Within one (repeat, fold) of the Figure 8 protocol, every training subset
of size ``s`` is a *prefix* of the same shuffled training fold — so the
Gram matrices of all sizes are leading principal submatrices of a single
per-fold kernel matrix, and all test predictions read from one cached
``(n_test, n_train)`` Gram block.  :class:`SVCFoldFitter` exploits exactly
that: ``learning_curve`` hands it the shuffled fold once
(:meth:`~SVCFoldFitter.begin_fold`), and every per-size fit becomes an
index-sliced ``kernel="precomputed"`` fit.  Because the kernels are
slice-stable (:mod:`repro.ml.kernels`), the shared-Gram path is
bit-identical to the per-fit reference in ``tests/oracles/svm.py``, which
computes a fresh kernel per fit — the equivalence contract
``benchmarks/test_analysis_throughput.py`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import Kernel, make_kernel, scale_gamma
from .metrics import accuracy
from .multiclass import OneVsOneSVC
from .scaling import StandardScaler

__all__ = [
    "stratified_fold_assignments",
    "stratified_kfold_indices",
    "learning_curve",
    "LearningCurveResult",
    "SVCFoldFitter",
]


def stratified_fold_assignments(
    y: Sequence, n_folds: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Stratified fold membership as one integer array.

    Returns ``assignments`` with ``assignments[i]`` the fold of sample
    ``i``: per class, a shuffled round-robin spread over the folds.  This is
    the columnar form of the stratified split — fold ``k``'s test set is
    ``assignments == k`` — used by the vectorised cross-validation paths;
    :func:`stratified_kfold_indices` derives its index pairs from it, so
    both consume the random stream identically.

    Classes with fewer members than folds are spread as evenly as possible;
    a class may then be absent from some training folds, matching what
    happens with the paper's small event counts.
    """
    y = np.asarray(y)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if y.shape[0] < n_folds:
        raise ValueError("more folds than samples")
    if rng is None:
        rng = np.random.default_rng()
    assignments = np.empty(y.shape[0], dtype=np.intp)
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        assignments[idx] = np.arange(idx.shape[0]) % n_folds
    return assignments


def stratified_kfold_indices(
    y: Sequence, n_folds: int, rng: Optional[np.random.Generator] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield k-fold splits preserving per-class proportions.

    Index pairs are derived from :func:`stratified_fold_assignments`
    (train and test indices both ascending, as before).
    """
    assignments = stratified_fold_assignments(y, n_folds, rng)
    for i in range(n_folds):
        test_mask = assignments == i
        yield (
            np.flatnonzero(~test_mask).astype(int),
            np.flatnonzero(test_mask).astype(int),
        )


@dataclass
class SVCFoldFitter:
    """Per-fold learning-curve fitter for the scaled SVC stack.

    A *fold fitter* is the per-fold strategy object ``learning_curve``
    drives instead of a plain estimator factory: ``begin_fold`` receives
    the whole shuffled training fold (plus the test fold) once, and
    ``fit_predict`` then scores one prefix size.  Any object with those two
    methods works; this implementation covers the SVC stack of the paper
    (standard scaling + one-vs-one SMO machines).

    Parameters mirror :class:`~repro.ml.multiclass.OneVsOneSVC`.
    ``begin_fold`` fits a :class:`~repro.ml.scaling.StandardScaler` on the
    full training fold, and ``gamma=None`` resolves the RBF/poly
    coefficient with the shared ``"scale"`` heuristic on the scaled
    training fold — one preprocessing and one kernel per fold, the
    invariants that make the Gram matrix shareable across training sizes.
    It then computes one train x train and one test x train Gram block;
    every per-size fit is an index-sliced ``kernel="precomputed"`` fit and
    every prediction reads cached test-row columns.

    ``warm_start`` exploits the same prefix structure on the *solver* side:
    each pairwise SMO machine of size ``s`` is initialised from the dual
    state of the previous (smaller) size's fit (zero-padded alphas remain
    dual-feasible because a pair's samples keep their relative order across
    prefixes).  Warm-started solves converge to a KKT point of the same
    ``tol`` quality in far fewer steps, but generally a *different* one
    within that tolerance — so ``warm_start=False`` is the configuration
    whose scores equal the per-fit reference's bit for bit, and the
    default (warm start on) is pinned by the golden tests instead.
    """

    C: float = 1.0
    kernel: object = "rbf"
    gamma: Optional[float] = None
    tol: float = 1e-3
    max_passes: int = 5
    max_iter: int = 200
    random_state: Optional[int] = None
    warm_start: bool = True

    def _fold_kernel(self, X_train: np.ndarray) -> Kernel:
        """Resolve the fold-level kernel (fixed across training sizes)."""
        if isinstance(self.kernel, Kernel):
            return self.kernel
        name = str(self.kernel)
        if name == "precomputed":
            raise ValueError(
                "SVCFoldFitter computes its own Gram matrices; pass the "
                "underlying kernel, not 'precomputed'"
            )
        if name == "linear":
            return make_kernel("linear")
        gamma = self.gamma if self.gamma is not None else scale_gamma(X_train)
        return make_kernel(name, gamma=gamma)

    def _make_svc(self, kernel: object) -> OneVsOneSVC:
        return OneVsOneSVC(
            C=self.C,
            kernel=kernel,
            gamma=self.gamma,
            tol=self.tol,
            max_passes=self.max_passes,
            max_iter=self.max_iter,
            random_state=self.random_state,
        )

    def begin_fold(
        self, X_train: np.ndarray, y_train: np.ndarray, X_test: np.ndarray
    ) -> dict:
        """Fold-level setup: scaling, kernel resolution and shared Grams.

        ``X_train`` arrives in the shuffled fold order — every training
        subset evaluated by ``fit_predict`` is a leading prefix of it.
        """
        X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        y_train = np.asarray(y_train)
        scaler = StandardScaler().fit(X_train)
        X_train = scaler.transform(X_train)
        X_test = scaler.transform(X_test)
        kernel = self._fold_kernel(X_train)
        return {
            "y": y_train,
            "K_train": kernel(X_train, X_train),
            "K_test": kernel(X_test, X_train),
        }

    def fit_predict(self, state: dict, size: int) -> np.ndarray:
        """Fit on the first ``size`` fold rows; predict the test fold.

        ``learning_curve`` evaluates sizes in increasing order, so with
        ``warm_start`` each fit continues from the previous prefix's dual
        state (kept in ``state``).
        """
        y = state["y"][:size]
        warm = state.get("pair_states") if self.warm_start else None
        clf = self._make_svc("precomputed")
        clf.fit(state["K_train"][:size, :size], y, warm_init=warm)
        predicted = clf.predict(state["K_test"][:, :size])
        if self.warm_start:
            state["pair_states"] = clf.pair_states()
        return predicted


@dataclass(frozen=True)
class LearningCurveResult:
    """Learning-curve data: accuracy as a function of training-set size.

    Attributes
    ----------
    train_sizes:
        Numbers of training samples evaluated.
    mean_accuracy:
        Mean test accuracy across folds and repeats, per training size.
    ci95:
        Half-width of the 95 % confidence interval across repeats, per size
        (the error bars of Figure 8).  ``NaN`` — like ``mean_accuracy`` —
        for sizes no repeat could evaluate (e.g. every training subset of
        that size was single-class).
    all_scores:
        Raw matrix of shape ``(len(train_sizes), n_repeats)`` of per-repeat
        fold-averaged accuracies.
    """

    train_sizes: np.ndarray
    mean_accuracy: np.ndarray
    ci95: np.ndarray
    all_scores: np.ndarray


def learning_curve(
    make_estimator: Optional[Callable[[], object]],
    X: np.ndarray,
    y: Sequence,
    train_sizes: Sequence[int],
    *,
    n_folds: int = 5,
    n_repeats: int = 10,
    rng: Optional[np.random.Generator] = None,
    fitter: Optional[object] = None,
) -> LearningCurveResult:
    """Reproduce the paper's Figure 8 protocol.

    For each repeat, the data is split into ``n_folds`` stratified folds.
    For each fold and each requested training-set size ``m``, the estimator
    is trained on the first ``m`` samples of the training fold (shuffled) and
    scored on the test fold.  The per-repeat score of a size is the mean over
    folds; the reported mean and 95 % confidence interval are over repeats.

    The work per fold is delegated either to a plain estimator factory
    (``make_estimator``: one fresh ``fit``/``predict`` object per subset)
    or to a *fold fitter* (``fitter``: an object with ``begin_fold(X_train,
    y_train, X_test)`` and ``fit_predict(state, size)``, e.g.
    :class:`SVCFoldFitter`), which sees the whole shuffled training fold
    once and can therefore share per-fold work — kernel matrices above all
    — across the training sizes.  Exactly one of the two must be given;
    both consume the random stream identically, so swapping a factory for
    an equivalent fitter never changes the folds.

    Training subsets containing a single class are skipped: a one-class fit
    degenerates to a constant predictor, which would silently bias small
    training sizes on imbalanced data.  Sizes for which *no* fold of any
    repeat produced a valid fit report ``NaN`` mean *and* ``NaN`` ci95
    (never a misleading zero-width interval).
    """
    if (make_estimator is None) == (fitter is None):
        raise ValueError("provide exactly one of make_estimator and fitter")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y)
    if rng is None:
        rng = np.random.default_rng()
    sizes = np.asarray(sorted(set(int(s) for s in train_sizes if s >= 1)), dtype=int)
    if sizes.size == 0:
        raise ValueError("train_sizes must contain at least one positive size")

    scores = np.full((sizes.size, n_repeats), np.nan)
    for rep in range(n_repeats):
        fold_scores: Dict[int, List[float]] = {int(s): [] for s in sizes}
        for train_idx, test_idx in stratified_kfold_indices(y, n_folds, rng):
            shuffled = rng.permutation(train_idx)
            if test_idx.size == 0:
                # A dataset barely above n_folds can leave a fold without
                # test samples (round-robin stratification); there is
                # nothing to score, so the fold contributes no values.
                # The permutation above is still drawn, keeping the random
                # stream — and hence every other fold — unchanged.
                continue
            fold_state = None  # built lazily: folds may have no valid size
            for s in sizes:
                if s > shuffled.size:
                    continue
                subset = shuffled[:s]
                if np.unique(y[subset]).size < 2:
                    continue
                if fitter is not None:
                    if fold_state is None:
                        fold_state = fitter.begin_fold(
                            X[shuffled], y[shuffled], X[test_idx]
                        )
                    predicted = fitter.fit_predict(fold_state, int(s))
                else:
                    est = make_estimator()
                    est.fit(X[subset], y[subset])
                    predicted = est.predict(X[test_idx])
                fold_scores[int(s)].append(accuracy(y[test_idx], predicted))
        for si, s in enumerate(sizes):
            vals = fold_scores[int(s)]
            if vals:
                scores[si, rep] = float(np.mean(vals))

    counts = np.sum(~np.isnan(scores), axis=1)
    valid = counts > 0
    mean = np.full(sizes.size, np.nan)
    ci95 = np.full(sizes.size, np.nan)
    if valid.any():
        mean[valid] = np.nanmean(scores[valid], axis=1)
        std = np.nanstd(scores[valid], axis=1)
        ci95[valid] = 1.96 * std / np.sqrt(counts[valid])
    return LearningCurveResult(
        train_sizes=sizes, mean_accuracy=mean, ci95=ci95, all_scores=scores
    )
