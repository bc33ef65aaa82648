"""Classification and detection metrics.

Provides the metrics the paper reports:

* precision / recall / F-measure for the Movement Detection module
  (Figure 7, Table III),
* classification accuracy for the Radio Environment classifier (Figure 8),
* a small container for TP/FP/FN counts of a detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "DetectionCounts",
    "precision",
    "recall",
    "f_measure",
    "accuracy",
]


@dataclass(frozen=True)
class DetectionCounts:
    """True-positive / false-positive / false-negative counts of a detector.

    The MD module is scored per-event: a variation window overlapping a true
    (ground-truth) movement window is a TP, a variation window overlapping no
    true window is an FP, and a true window covered by no variation window is
    an FN (paper Section V-A).
    """

    tp: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError("counts must be non-negative")

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0.0 when no positives were predicted."""
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 0.0 when there were no true events."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f_measure(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0

    def rates(self) -> Dict[str, float]:
        """TP/FP/FN as fractions of the total decisions, as in Table III.

        Table III reports each count divided by the total number of
        TP + FP + FN decisions, alongside the absolute counts.
        """
        total = self.tp + self.fp + self.fn
        if total == 0:
            return {"tp": 0.0, "fp": 0.0, "fn": 0.0}
        return {
            "tp": self.tp / total,
            "fp": self.fp / total,
            "fn": self.fn / total,
        }

    def __add__(self, other: "DetectionCounts") -> "DetectionCounts":
        return DetectionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn
        )


def precision(tp: int, fp: int) -> float:
    """Precision from raw counts."""
    return DetectionCounts(tp, fp, 0).precision


def recall(tp: int, fn: int) -> float:
    """Recall from raw counts."""
    return DetectionCounts(tp, 0, fn).recall


def f_measure(tp: int, fp: int, fn: int) -> float:
    """F-measure from raw counts, as plotted in Figure 7."""
    return DetectionCounts(tp, fp, fn).f_measure


def accuracy(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of predictions equal to the true labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape[0] != y_pred.shape[0]:
        raise ValueError("y_true and y_pred have different lengths")
    if y_true.shape[0] == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float(np.mean(y_true == y_pred))

