"""Labelled sample datasets for the RE classifier.

The Radio Environment classifier is trained on *samples*: one feature vector
per detected variation window, labelled either automatically (via the KMA
idle-time correlation, paper Section IV-D3) or with the ground truth during
offline evaluation.  This module provides the dataset containers shared by
the training phase, the cross-validation evaluation and the feature
analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["LabeledSample", "SampleDataset"]


@dataclass(frozen=True)
class LabeledSample:
    """One labelled RE sample.

    Attributes
    ----------
    features:
        The feature vector (3 features per stream, in stream order).
    label:
        Event label: ``"w0"`` for office entries, ``"wi"`` for departures
        from workstation ``wi``.
    time:
        Start time of the variation window the sample was extracted from.
    day_index:
        The campaign day the sample belongs to (useful for leave-one-day-out
        analyses).
    """

    features: np.ndarray
    label: str
    time: float
    day_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=float).ravel()
        )
        if self.features.size == 0:
            raise ValueError("a sample needs at least one feature")
        if not self.label:
            raise ValueError("a sample needs a non-empty label")


@dataclass
class SampleDataset:
    """A collection of labelled samples with matrix conversion helpers."""

    feature_names: Tuple[str, ...]
    samples: List[LabeledSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.feature_names) == 0:
            raise ValueError("feature_names must not be empty")
        for s in self.samples:
            self._check_sample(s)
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _check_sample(self, sample: LabeledSample) -> None:
        if sample.features.shape[0] != len(self.feature_names):
            raise ValueError(
                f"sample has {sample.features.shape[0]} features, "
                f"dataset expects {len(self.feature_names)}"
            )

    # ------------------------------------------------------------------ #
    def add(self, sample: LabeledSample) -> None:
        """Append one sample (validating its dimensionality)."""
        self._check_sample(sample)
        self.samples.append(sample)
        self._arrays = None

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def labels(self) -> List[str]:
        return [s.label for s in self.samples]

    def label_counts(self) -> Dict[str, int]:
        """Histogram of labels (the shape of the paper's Table II)."""
        counts: Dict[str, int] = {}
        for s in self.samples:
            counts[s.label] = counts.get(s.label, 0) + 1
        return counts

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)``: the sample matrix and the label vector.

        The arrays are memoised (invalidated by :meth:`add`) because the
        cross-validation and learning-curve sweeps request them repeatedly;
        treat them as read-only.
        """
        if not self.samples:
            return (
                np.empty((0, self.n_features)),
                np.empty((0,), dtype=object),
            )
        if self._arrays is None:
            X = np.vstack([s.features for s in self.samples])
            y = np.asarray([s.label for s in self.samples], dtype=object)
            self._arrays = (X, y)
        return self._arrays
