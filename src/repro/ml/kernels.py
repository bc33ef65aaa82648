"""Kernel functions for the SVM substrate.

FADEWICH's Radio Environment (RE) module classifies radio signatures with a
Support Vector Machine.  scikit-learn is not available in this environment,
so the kernels (and the SMO solver in :mod:`repro.ml.svm`) are implemented
from scratch on top of numpy.

A kernel is represented by a :class:`Kernel` object exposing a single
``__call__(X, Y)`` computing the Gram matrix between two sample matrices of
shapes ``(n, d)`` and ``(m, d)``.

Slice stability
---------------

Every kernel here guarantees **slice stability**: each Gram entry depends
only on its own pair of rows, so

``kernel(X[idx], Y[jdx]) == kernel(X, Y)[np.ix_(idx, jdx)]``

holds *bitwise*, for any index subsets.  This is what makes precomputed-
kernel SVC fits (``kernel="precomputed"`` on index-sliced Gram views)
bit-identical to direct fits on the same row subsets — the contract the
shared-Gram learning-curve fast path is built on.  BLAS matrix products do
**not** have this property (their accumulation order depends on the matrix
shapes), so the cross terms are computed with ``np.einsum`` (plain C loops
whose per-element reduction order depends only on the feature axis); do not
"optimise" them back to ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "LinearKernel",
    "RBFKernel",
    "PolynomialKernel",
    "make_kernel",
    "scale_gamma",
]


def scale_gamma(X: np.ndarray) -> float:
    """The ``"scale"`` heuristic ``1 / (n_features * Var(X))``.

    The shared gamma default of the SVM substrate (libsvm's ``"scale"``):
    used by :class:`~repro.ml.svm.BinarySVC` at fit time and by the
    learning-curve fold fitters when fixing one kernel per fold.
    Degenerate (constant or empty) data falls back to ``1 / n_features``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    var = float(X.var()) if X.size else 1.0
    if var <= 0.0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def _cross_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Slice-stable pairwise dot products ``out[i, j] = X[i] . Y[j]``.

    ``np.einsum`` (without ``optimize``) reduces over the feature axis with
    a fixed per-element order, unlike BLAS ``X @ Y.T`` whose blocking — and
    hence rounding — depends on the operand shapes.
    """
    return np.einsum("ik,jk->ij", X, Y)


class Kernel:
    """Base class for kernel functions.

    Subclasses implement :meth:`gram` returning the kernel matrix
    ``K[i, j] = k(X[i], Y[j])``, computed slice-stably (see the module
    docstring).
    """

    name = "base"

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != Y.shape[1]:
            raise ValueError(
                f"feature dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
            )
        return self.gram(X, Y)


@dataclass
class LinearKernel(Kernel):
    """The linear kernel ``k(x, y) = x . y``."""

    name = "linear"

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _cross_dot(X, Y)


@dataclass
class RBFKernel(Kernel):
    """The Gaussian radial basis function kernel.

    ``k(x, y) = exp(-gamma * ||x - y||^2)``

    Parameters
    ----------
    gamma:
        Inverse length-scale.  If ``None``, a data-dependent default of
        ``1 / n_features`` is used at fit time by the SVM.
    """

    gamma: float = 1.0
    name = "rbf"

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        sq_x = np.einsum("ij,ij->i", X, X)[:, None]
        sq_y = np.einsum("ij,ij->i", Y, Y)[None, :]
        sq_dist = np.maximum(sq_x + sq_y - 2.0 * _cross_dot(X, Y), 0.0)
        return np.exp(-self.gamma * sq_dist)


@dataclass
class PolynomialKernel(Kernel):
    """The polynomial kernel ``k(x, y) = (gamma * x.y + coef0) ** degree``."""

    degree: int = 3
    gamma: float = 1.0
    coef0: float = 1.0
    name = "poly"

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (self.gamma * _cross_dot(X, Y) + self.coef0) ** self.degree


def make_kernel(name: str, **params) -> Kernel:
    """Construct a kernel by name.

    Parameters
    ----------
    name:
        One of ``"linear"``, ``"rbf"`` or ``"poly"``.
    params:
        Keyword parameters forwarded to the kernel constructor
        (e.g. ``gamma`` for the RBF kernel).
    """
    name = name.lower()
    if name == "linear":
        return LinearKernel()
    if name == "rbf":
        return RBFKernel(**params)
    if name in ("poly", "polynomial"):
        return PolynomialKernel(**params)
    raise ValueError(f"unknown kernel: {name!r}")
