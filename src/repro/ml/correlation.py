"""Correlation analysis of stream features.

The paper's appendix (Figure 11) shows the Pearson correlation between the
per-stream variance features over the labelled samples: streams between
physically close devices react similarly to a moving body.  This module
computes that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["correlation_matrix", "CorrelationResult"]


@dataclass(frozen=True)
class CorrelationResult:
    """A labelled correlation matrix.

    Attributes
    ----------
    names:
        Column labels (e.g. stream ids like ``"d1-d2"``).
    matrix:
        Symmetric Pearson correlation matrix; constant columns yield zeros
        off the diagonal and 1.0 on the diagonal.
    """

    names: Tuple[str, ...]
    matrix: np.ndarray

    def value(self, a: str, b: str) -> float:
        """Correlation between the two named columns."""
        ia, ib = self.names.index(a), self.names.index(b)
        return float(self.matrix[ia, ib])


def correlation_matrix(X: np.ndarray, names: Sequence[str]) -> CorrelationResult:
    """Pearson correlation between the columns of ``X``.

    Parameters
    ----------
    X:
        Matrix of shape ``(n_samples, n_columns)`` — e.g. the variance
        feature of every stream, over all labelled samples.
    names:
        One label per column.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(names):
        raise ValueError("names length must match number of columns")
    if X.shape[0] < 2:
        raise ValueError("need at least two samples to compute correlations")
    with np.errstate(invalid="ignore"):
        corr = np.corrcoef(X, rowvar=False)
    corr = np.atleast_2d(corr)
    corr = np.nan_to_num(corr, nan=0.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationResult(names=tuple(names), matrix=corr)

