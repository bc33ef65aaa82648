"""Feature scaling utilities.

SVMs are sensitive to feature scale; RE feature vectors mix variances (dB^2,
potentially large), entropies (nats, small) and autocorrelations (unitless,
in [-1, 1]).  A standard (z-score) scaler fitted on the training fold and
applied to both folds keeps the classifier well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["StandardScaler"]


@dataclass
class StandardScaler:
    """Per-feature z-score normalisation: ``(x - mean) / std``.

    Features with zero variance are left centred but unscaled (divide by 1)
    so constant features do not produce NaNs.
    """

    mean_: Optional[np.ndarray] = field(default=None, repr=False)
    scale_: Optional[np.ndarray] = field(default=None, repr=False)

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("cannot fit scaler on empty data")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std <= 1e-15] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X - self.mean_) / self.scale_
