"""Binary soft-margin Support Vector Machine trained with SMO.

The Radio Environment module of FADEWICH uses an SVM to map a radio
signature (per-stream variance / entropy / autocorrelation features) to the
workstation whose user caused it.  scikit-learn is unavailable offline, so
this module implements a binary C-SVM with the Sequential Minimal
Optimization (SMO) algorithm of Platt (1998), with the usual working-set
heuristics (maximal KKT violation for the first multiplier, maximal
|E_i - E_j| for the second).

The solver maintains the SMO *error cache*: the vector ``E = (alpha * y) @
K + b - y`` is initialised once and updated incrementally (two rank-one
kernel-column updates plus the bias shift) on every accepted ``(i, j)``
step, instead of being recomputed with a full O(n^2) pass inside the inner
loop of every candidate step.  The original recomputing sweep is kept as
a reference in ``tests/oracles/svm.py``, which overrides the solver
method; the two reach KKT points of the same ``tol`` quality along
different floating-point trajectories.

Precomputed kernels
-------------------

``kernel="precomputed"`` fits directly on a Gram matrix: ``fit(K, y)``
takes the square training Gram, and ``predict`` / ``decision_function``
take the ``(m, n_train)`` Gram rows between the query points and the
*original training set* (support-vector columns are selected internally
via ``support_idx_``).  Because the kernels in :mod:`repro.ml.kernels` are
slice-stable, fitting on an index-sliced view of a larger Gram matrix is
bit-identical to a direct fit on the corresponding sample rows — the
property the shared-Gram learning-curve fast path relies on.

Only the binary classifier lives here; multi-class composition (one-vs-one
voting, as in libsvm) lives in :mod:`repro.ml.multiclass`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import Kernel, RBFKernel, make_kernel, scale_gamma

__all__ = ["BinarySVC", "SVMNotFittedError"]


class SVMNotFittedError(RuntimeError):
    """Raised when ``predict`` / ``decision_function`` precede ``fit``."""


@dataclass
class BinarySVC:
    """Binary C-support-vector classifier.

    Parameters
    ----------
    C:
        Soft-margin penalty.  Larger values penalise margin violations more.
    kernel:
        A :class:`~repro.ml.kernels.Kernel` instance, a kernel name
        (``"linear"``, ``"rbf"``, ``"poly"``), or ``"precomputed"`` to fit
        directly on a Gram matrix (see the module docstring).
    gamma:
        RBF/poly kernel coefficient.  ``None`` selects ``1 / (n_features *
        Var(X))`` ("scale" heuristic) at fit time.
    tol:
        KKT violation tolerance used as the SMO stopping criterion.
    max_passes:
        Number of consecutive full passes without any multiplier update
        required before training stops.
    max_iter:
        Hard cap on optimisation sweeps, as a safety net.
    random_state:
        Seed for the tie-breaking randomness in the second-choice heuristic.

    Notes
    -----
    Labels passed to :meth:`fit` may be any two distinct values; internally
    they are mapped to ``{-1, +1}`` and :meth:`predict` returns the original
    values.
    """

    C: float = 1.0
    kernel: object = "rbf"
    gamma: Optional[float] = None
    tol: float = 1e-3
    max_passes: int = 5
    max_iter: int = 200
    random_state: Optional[int] = None

    # fitted state
    support_vectors_: np.ndarray = field(default=None, repr=False)
    support_idx_: np.ndarray = field(default=None, repr=False)
    dual_coef_: np.ndarray = field(default=None, repr=False)
    alpha_: np.ndarray = field(default=None, repr=False)
    intercept_: float = field(default=0.0, repr=False)
    classes_: np.ndarray = field(default=None, repr=False)
    _kernel_obj: Kernel = field(default=None, repr=False)
    _precomputed: bool = field(default=False, repr=False)
    _n_fit: int = field(default=0, repr=False)
    _fitted: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @property
    def _is_precomputed_kernel(self) -> bool:
        return not isinstance(self.kernel, Kernel) and str(self.kernel) == "precomputed"

    def _resolve_kernel(self, X: np.ndarray) -> Kernel:
        if isinstance(self.kernel, Kernel):
            return self.kernel
        gamma = self.gamma
        if gamma is None:
            gamma = scale_gamma(X)
        if self.kernel == "rbf":
            return RBFKernel(gamma=gamma)
        if self.kernel in ("poly", "polynomial"):
            return make_kernel("poly", gamma=gamma)
        return make_kernel(str(self.kernel))

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        init: Optional[tuple] = None,
    ) -> "BinarySVC":
        """Train the classifier on samples ``X`` with binary labels ``y``.

        With ``kernel="precomputed"``, ``X`` is the square training Gram
        matrix instead of a sample matrix.

        ``init`` optionally warm-starts the SMO solver with ``(alpha0,
        b0)`` dual state from a related problem — e.g. the fit on a prefix
        of this training set, as in the learning-curve fast path.
        ``alpha0`` may be shorter than ``n`` (missing entries start at 0,
        which preserves dual feasibility) and must satisfy the box
        constraints.  A warm-started solve reaches a KKT point of the same
        ``tol`` quality as a cold one, generally in far fewer steps; the
        two stationary points may differ within that tolerance.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        precomputed = self._is_precomputed_kernel
        if precomputed:
            if X.shape[0] != X.shape[1]:
                raise ValueError(
                    "kernel='precomputed' requires a square Gram matrix, "
                    f"got shape {X.shape}"
                )
            K = X
            self._kernel_obj = None
        self._precomputed = precomputed
        self._n_fit = X.shape[0]
        classes = np.unique(y)
        if classes.shape[0] == 1:
            # Degenerate but not an error: always predict the single class.
            self.classes_ = classes
            self.support_vectors_ = None if precomputed else X[:1]
            self.support_idx_ = np.zeros(1, dtype=np.intp)
            self.dual_coef_ = np.zeros(1)
            self.alpha_ = np.zeros(X.shape[0])
            self.intercept_ = 1.0
            if not precomputed:
                self._kernel_obj = self._resolve_kernel(X)
            self._fitted = True
            return self
        if classes.shape[0] != 2:
            raise ValueError(
                f"BinarySVC requires exactly 2 classes, got {classes.shape[0]}"
            )
        self.classes_ = classes
        y_signed = np.where(y == classes[1], 1.0, -1.0)

        if not precomputed:
            kernel = self._resolve_kernel(X)
            self._kernel_obj = kernel
            K = kernel(X, X)

        n = X.shape[0]
        alpha = np.zeros(n)
        b = 0.0
        rng = np.random.default_rng(self.random_state)

        if init is not None:
            alpha0, b0 = init
            alpha0 = np.asarray(alpha0, dtype=float)
            if alpha0.shape[0] > n:
                raise ValueError("warm-start alpha longer than the training set")
            alpha[: alpha0.shape[0]] = alpha0
            np.clip(alpha, 0.0, self.C, out=alpha)
            b = float(b0)

        alpha, b = self._smo(K, y_signed, alpha, b, rng, init)
        return self._finalize_fit(X, alpha, y_signed, b, precomputed)

    def _smo(
        self,
        K: np.ndarray,
        y_signed: np.ndarray,
        alpha: np.ndarray,
        b: float,
        rng: np.random.Generator,
        init: Optional[tuple],
    ) -> tuple:
        """The SMO sweep over the training Gram ``K``; returns ``(alpha, b)``.

        ``alpha`` and ``b`` arrive box-clipped (warm-started when ``init``
        was given).
        """
        n = y_signed.shape[0]
        # SMO error cache: E = (alpha * y) @ K + b - y.  With alpha = 0 and
        # b = 0 this starts as -y and is updated incrementally on every
        # accepted step — never recomputed with an O(n^2) pass.
        if init is not None:
            E = (alpha * y_signed) @ K + b - y_signed
        else:
            E = -y_signed.copy()

        passes = 0
        it = 0
        # Cached extrema of the error vector: |E_i - E_j| is maximised at
        # either the largest or the smallest error, so the second-choice
        # heuristic only needs argmin/argmax of E — maintained here and
        # refreshed after accepted steps (the only times E changes),
        # instead of a full |E - E_i| scan per candidate.
        j_min = int(np.argmin(E))
        j_max = int(np.argmax(E))
        while passes < self.max_passes and it < self.max_iter:
            num_changed = 0
            # One vectorised KKT scan selects the sweep's candidate set —
            # the per-sample Python loop then only visits violators (and
            # a converged sweep costs one array pass instead of n checks).
            # Each candidate is re-checked against the *current* error
            # cache before stepping, since earlier steps in the sweep may
            # have repaired its violation.
            r = E * y_signed
            candidates = np.flatnonzero(
                ((r < -self.tol) & (alpha < self.C)) | ((r > self.tol) & (alpha > 0))
            )
            for i in candidates:
                E_i = float(E[i])
                r_i = E_i * y_signed[i]
                if (r_i < -self.tol and alpha[i] < self.C) or (
                    r_i > self.tol and alpha[i] > 0
                ):
                    # second-choice heuristic: maximise |E_i - E_j|
                    j = j_max if E[j_max] - E_i >= E_i - E[j_min] else j_min
                    if j == i:
                        j = int(rng.integers(0, n - 1))
                        if j >= i:
                            j += 1
                    E_j = float(E[j])

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
                        b_new = b1
                    elif 0 < alpha_j_new < self.C:
                        b_new = b2
                    else:
                        b_new = (b1 + b2) / 2.0

                    # Incremental error-cache update for the accepted step:
                    # two kernel columns and the bias shift.
                    E += (
                        y_signed[i] * (alpha_i_new - alpha_i_old) * K[:, i]
                        + y_signed[j] * (alpha_j_new - alpha_j_old) * K[:, j]
                        + (b_new - b)
                    )
                    j_min = int(np.argmin(E))
                    j_max = int(np.argmax(E))
                    b = b_new
                    alpha[i], alpha[j] = alpha_i_new, alpha_j_new
                    num_changed += 1
            it += 1
            if num_changed == 0:
                passes += 1
            else:
                passes = 0
        return alpha, b

    def _finalize_fit(
        self,
        X: np.ndarray,
        alpha: np.ndarray,
        y_signed: np.ndarray,
        b: float,
        precomputed: bool,
    ) -> "BinarySVC":
        """Extract the support set and publish the fitted state."""
        sv_mask = alpha > 1e-8
        if not np.any(sv_mask):
            # No support vectors found (e.g. perfectly separated trivial data);
            # keep everything so decision_function remains defined.
            sv_mask = np.ones(alpha.shape[0], dtype=bool)
        self.alpha_ = alpha
        self.support_idx_ = np.flatnonzero(sv_mask)
        self.support_vectors_ = None if precomputed else X[sv_mask]
        self.dual_coef_ = (alpha * y_signed)[sv_mask]
        self.intercept_ = float(b)
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Return the signed distance to the separating hyperplane.

        With ``kernel="precomputed"``, ``X`` holds the Gram rows between
        the query points and the full training set (shape
        ``(m, n_train)``); the support-vector columns are selected
        internally.
        """
        if not self._fitted:
            raise SVMNotFittedError("call fit() before decision_function()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._precomputed:
            if X.shape[1] != self._n_fit:
                raise ValueError(
                    f"precomputed decision needs Gram rows with {self._n_fit} "
                    f"training columns, got {X.shape[1]}"
                )
            K = X[:, self.support_idx_]
        else:
            K = self._kernel_obj(X, self.support_vectors_)
        return K @ self.dual_coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict class labels (in the original label space) for ``X``."""
        if not self._fitted:
            raise SVMNotFittedError("call fit() before predict()")
        if self.classes_.shape[0] == 1:
            X = np.atleast_2d(np.asarray(X, dtype=float))
            return np.full(X.shape[0], self.classes_[0])
        scores = self.decision_function(X)
        return np.where(scores >= 0, self.classes_[1], self.classes_[0])

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy of :meth:`predict` on ``(X, y)``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))
