"""The SMO and learning-curve references of the RE classifier.

* :class:`ReferenceBinarySVC` runs the original SMO sweep, which
  recomputes the full error vector inside every candidate step (an O(n^2)
  pass), in place of :class:`~repro.ml.svm.BinarySVC`'s incremental error
  cache.  The two reach KKT points of the same ``tol`` quality along
  different floating-point trajectories, so their fits agree
  statistically, not bitwise.
* :class:`ReferenceOneVsOneSVC` composes those machines one-vs-one.
* :class:`PerFitFoldFitter` is the per-fit learning-curve reference: every
  training size fits directly on its sample rows with the fold-level
  kernel, one fresh Gram per fit, where
  :class:`~repro.ml.validation.SVCFoldFitter` slices one shared Gram
  matrix.  With ``warm_start=False`` both give the same scores bit for
  bit (the kernels are slice-stable); with ``error_cache=False`` it also
  runs :class:`ReferenceOneVsOneSVC`, the per-fit baseline the Figure 8
  throughput gate times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.multiclass import OneVsOneSVC
from repro.ml.scaling import StandardScaler
from repro.ml.svm import BinarySVC
from repro.ml.validation import SVCFoldFitter

__all__ = ["ReferenceBinarySVC", "ReferenceOneVsOneSVC", "PerFitFoldFitter"]


class ReferenceBinarySVC(BinarySVC):
    """:class:`~repro.ml.svm.BinarySVC` on the original SMO sweep."""

    def _smo(
        self,
        K: np.ndarray,
        y_signed: np.ndarray,
        alpha: np.ndarray,
        b: float,
        rng: np.random.Generator,
        init: Optional[tuple],
    ) -> tuple:
        """The original SMO sweep, without the error cache.

        Recomputes the decision value of each scanned sample and — inside
        every candidate step — the full error vector with an O(n^2) pass,
        exactly as the pre-cache implementation did.  ``init`` is unused:
        the sweep reads the warm-started ``alpha`` and ``b`` directly.
        """
        n = y_signed.shape[0]

        def decision(i: int) -> float:
            return float((alpha * y_signed) @ K[:, i] + b)

        passes = 0
        it = 0
        while passes < self.max_passes and it < self.max_iter:
            num_changed = 0
            for i in range(n):
                E_i = decision(i) - y_signed[i]
                r_i = E_i * y_signed[i]
                if (r_i < -self.tol and alpha[i] < self.C) or (
                    r_i > self.tol and alpha[i] > 0
                ):
                    # second-choice heuristic: maximise |E_i - E_j|
                    errors = (alpha * y_signed) @ K + b - y_signed
                    j = int(np.argmax(np.abs(errors - E_i)))
                    if j == i:
                        j = int(rng.integers(0, n - 1))
                        if j >= i:
                            j += 1
                    E_j = float(errors[j])

                    alpha_i_old, alpha_j_old = alpha[i], alpha[j]
                    if y_signed[i] != y_signed[j]:
                        L = max(0.0, alpha[j] - alpha[i])
                        H = min(self.C, self.C + alpha[j] - alpha[i])
                    else:
                        L = max(0.0, alpha[i] + alpha[j] - self.C)
                        H = min(self.C, alpha[i] + alpha[j])
                    if L >= H:
                        continue

                    eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                    if eta >= 0:
                        continue

                    alpha_j_new = alpha_j_old - y_signed[j] * (E_i - E_j) / eta
                    alpha_j_new = min(max(alpha_j_new, L), H)
                    if abs(alpha_j_new - alpha_j_old) < 1e-7:
                        continue
                    alpha_i_new = alpha_i_old + y_signed[i] * y_signed[j] * (
                        alpha_j_old - alpha_j_new
                    )

                    b1 = (
                        b
                        - E_i
                        - y_signed[i] * (alpha_i_new - alpha_i_old) * K[i, i]
                        - y_signed[j] * (alpha_j_new - alpha_j_old) * K[i, j]
                    )
                    b2 = (
                        b
                        - E_j
                        - y_signed[i] * (alpha_i_new - alpha_i_old) * K[i, j]
                        - y_signed[j] * (alpha_j_new - alpha_j_old) * K[j, j]
                    )
                    if 0 < alpha_i_new < self.C:
                        b = b1
                    elif 0 < alpha_j_new < self.C:
                        b = b2
                    else:
                        b = (b1 + b2) / 2.0

                    alpha[i], alpha[j] = alpha_i_new, alpha_j_new
                    num_changed += 1
            it += 1
            if num_changed == 0:
                passes += 1
            else:
                passes = 0
        return alpha, b


class ReferenceOneVsOneSVC(OneVsOneSVC):
    """:class:`~repro.ml.multiclass.OneVsOneSVC` over
    :class:`ReferenceBinarySVC` machines."""

    def _make_binary(self) -> BinarySVC:
        return ReferenceBinarySVC(
            C=self.C,
            kernel=self.kernel,
            gamma=self.gamma,
            tol=self.tol,
            max_passes=self.max_passes,
            max_iter=self.max_iter,
            random_state=self.random_state,
        )


@dataclass
class PerFitFoldFitter(SVCFoldFitter):
    """:class:`~repro.ml.validation.SVCFoldFitter` with one fresh Gram per fit.

    ``error_cache=False`` fits every size with
    :class:`ReferenceOneVsOneSVC` instead of
    :class:`~repro.ml.multiclass.OneVsOneSVC`.
    """

    error_cache: bool = True

    def _make_svc(self, kernel: object) -> OneVsOneSVC:
        svc = OneVsOneSVC if self.error_cache else ReferenceOneVsOneSVC
        return svc(
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
        """Fold-level setup: scaling and kernel resolution; the scaled
        fold rows are kept for the per-fit Grams."""
        X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        y_train = np.asarray(y_train)
        scaler = StandardScaler().fit(X_train)
        X_train = scaler.transform(X_train)
        X_test = scaler.transform(X_test)
        kernel = self._fold_kernel(X_train)
        state = {"y": y_train, "kernel": kernel}
        state["X_train"] = X_train
        state["X_test"] = X_test
        return state

    def fit_predict(self, state: dict, size: int) -> np.ndarray:
        """Fit on the first ``size`` fold rows with the fold kernel;
        predict the test fold."""
        y = state["y"][:size]
        warm = state.get("pair_states") if self.warm_start else None
        clf = self._make_svc(state["kernel"])
        clf.fit(state["X_train"][:size], y, warm_init=warm)
        predicted = clf.predict(state["X_test"])
        if self.warm_start:
            state["pair_states"] = clf.pair_states()
        return predicted
