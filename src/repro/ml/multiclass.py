"""Multi-class SVM classification via one-vs-one voting.

FADEWICH's RE module distinguishes k+1 classes (``w0`` = "somebody entered
the office", ``w1..wk`` = "the user at workstation i left").  The binary SMO
solver in :mod:`repro.ml.svm` is composed into a multi-class classifier with
the one-vs-one strategy used by libsvm: one binary machine per unordered
class pair, predictions by majority vote with ties broken by the summed
decision-function margins.

With ``kernel="precomputed"`` the classifier fits on a square training Gram
matrix: each pairwise machine trains on the index-sliced sub-Gram of its
two classes' samples, and ``predict`` takes the ``(m, n_train)`` Gram rows
between the query points and the full training set, slicing each pair's
columns internally.  Slice-stable kernels make this bit-identical to direct
fits on the corresponding sample rows (see :mod:`repro.ml.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from .kernels import Kernel
from .svm import BinarySVC, SVMNotFittedError

__all__ = ["OneVsOneSVC"]


@dataclass
class OneVsOneSVC:
    """One-vs-one multi-class support vector classifier.

    Parameters mirror :class:`~repro.ml.svm.BinarySVC` and are forwarded to
    every pairwise machine.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1]])
    >>> y = np.array([0, 0, 1, 1, 2, 2])
    >>> clf = OneVsOneSVC(C=10.0, kernel="rbf").fit(X, y)
    >>> clf.predict([[0.05], [5.05], [9.9]]).tolist()
    [0, 1, 2]
    """

    C: float = 1.0
    kernel: object = "rbf"
    gamma: Optional[float] = None
    tol: float = 1e-3
    max_passes: int = 5
    max_iter: int = 200
    random_state: Optional[int] = None

    classes_: np.ndarray = field(default=None, repr=False)
    estimators_: Dict[Tuple[int, int], BinarySVC] = field(
        default_factory=dict, repr=False
    )
    pair_indices_: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _precomputed: bool = field(default=False, repr=False)
    _n_fit: int = field(default=0, repr=False)
    _fitted: bool = field(default=False, repr=False)

    def _make_binary(self) -> BinarySVC:
        return BinarySVC(
            C=self.C,
            kernel=self.kernel,
            gamma=self.gamma,
            tol=self.tol,
            max_passes=self.max_passes,
            max_iter=self.max_iter,
            random_state=self.random_state,
        )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        warm_init: Optional[Dict[Tuple[object, object], Tuple[np.ndarray, float]]] = None,
    ) -> "OneVsOneSVC":
        """Fit one binary SVM per unordered pair of classes present in ``y``.

        With ``kernel="precomputed"``, ``X`` is the square training Gram
        matrix; each pairwise machine fits on its classes' sub-Gram view.

        ``warm_init`` optionally warm-starts the pairwise SMO solvers: a
        mapping from ``(class_a, class_b)`` *label* pairs (sorted order) to
        the ``(alpha, b)`` dual state of a fit on a training-set prefix —
        see :meth:`pair_states` and :meth:`BinarySVC.fit`.  Keys are label
        values, not class indices, so the mapping stays valid when a prefix
        contained fewer classes.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        precomputed = (
            not isinstance(self.kernel, Kernel)
            and str(self.kernel) == "precomputed"
        )
        if precomputed and X.shape[0] != X.shape[1]:
            raise ValueError(
                "kernel='precomputed' requires a square Gram matrix, "
                f"got shape {X.shape}"
            )
        self._precomputed = precomputed
        self._n_fit = X.shape[0]
        self.classes_ = np.unique(y)
        self.estimators_ = {}
        self.pair_indices_ = {}
        for a, b in combinations(range(self.classes_.shape[0]), 2):
            ca, cb = self.classes_[a], self.classes_[b]
            mask = (y == ca) | (y == cb)
            init = None
            if warm_init is not None:
                init = warm_init.get((ca, cb))
            est = self._make_binary()
            if precomputed:
                idx = np.flatnonzero(mask)
                self.pair_indices_[(a, b)] = idx
                est.fit(X[np.ix_(idx, idx)], y[idx], init=init)
            else:
                est.fit(X[mask], y[mask], init=init)
            self.estimators_[(a, b)] = est
        self._fitted = True
        return self

    def pair_states(self) -> Dict[Tuple[object, object], Tuple[np.ndarray, float]]:
        """Dual state of every pairwise machine, keyed by label pair.

        Returns ``{(class_a, class_b): (alpha, intercept)}`` suitable as
        ``warm_init`` for a fit on a training set this one is a *prefix*
        of: each pair's samples keep their relative order in the larger
        set, so the alphas line up with the prefix rows and the remaining
        entries start at zero (dual-feasible).
        """
        if not self._fitted:
            raise SVMNotFittedError("call fit() before pair_states()")
        states: Dict[Tuple[object, object], Tuple[np.ndarray, float]] = {}
        for (a, b), est in self.estimators_.items():
            if est.alpha_ is None:
                continue
            states[(self.classes_[a], self.classes_[b])] = (
                est.alpha_, est.intercept_
            )
        return states

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict by one-vs-one majority vote.

        Ties are broken by the accumulated absolute decision margin each
        class obtained across its pairwise contests.  With
        ``kernel="precomputed"``, ``X`` holds the Gram rows between the
        query points and the full training set (shape ``(m, n_train)``).
        """
        if not self._fitted:
            raise SVMNotFittedError("call fit() before predict()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._precomputed and X.shape[1] != self._n_fit:
            raise ValueError(
                f"precomputed predict needs Gram rows with {self._n_fit} "
                f"training columns, got {X.shape[1]}"
            )
        n = X.shape[0]
        n_classes = self.classes_.shape[0]
        if n_classes == 1:
            return np.full(n, self.classes_[0])

        votes = np.zeros((n, n_classes))
        margins = np.zeros((n, n_classes))
        for (a, b), est in self.estimators_.items():
            ca, cb = self.classes_[a], self.classes_[b]
            X_pair = X[:, self.pair_indices_[(a, b)]] if self._precomputed else X
            pred = est.predict(X_pair)
            if est.classes_.shape[0] == 2:
                score = est.decision_function(X_pair)
            else:
                score = np.zeros(n)
            for cls_idx, cls in ((a, ca), (b, cb)):
                won = pred == cls
                votes[won, cls_idx] += 1
                margins[won, cls_idx] += np.abs(score[won])

        # lexicographic argmax on (votes, margins)
        best = np.zeros(n, dtype=int)
        for i in range(n):
            order = np.lexsort((margins[i], votes[i]))
            best[i] = order[-1]
        return self.classes_[best]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy of :meth:`predict` on ``(X, y)``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))
