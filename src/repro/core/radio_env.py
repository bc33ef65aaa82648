"""Radio Environment (RE) module.

RE answers the question "who caused this variation window?".  From the RSSI
measurements observed in the first ``t_delta`` seconds of a variation
window it computes, per stream, the variance, the histogram entropy and the
autocorrelation (paper Section IV-D1), concatenates them into a sample, and
classifies the sample with a multi-class SVM into one of the labels
``w0`` ("somebody entered the office") or ``wi`` ("the user at workstation
``wi`` left").

The classifier is trained during the installation phase on samples labelled
automatically through KMA idle times (Section IV-D3); the offline
evaluation instead labels samples with the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..features.window import window_statistics
from ..ml.multiclass import OneVsOneSVC
from ..ml.scaling import StandardScaler
from ..ml.validation import SVCFoldFitter
from ..radio.trace import RssiTrace
from ..simulation.dataset import SampleDataset
from .config import REConfig
from .windows import VariationWindow

__all__ = ["RadioEnvironment", "RENotTrainedError"]


class RENotTrainedError(RuntimeError):
    """Raised when classification is requested before training."""


@dataclass
class RadioEnvironment:
    """The RE module: feature extraction + SVM classification.

    Parameters
    ----------
    stream_ids:
        The monitored streams, fixing the feature-vector layout.
    config:
        RE parameters.
    random_state:
        Seed forwarded to the SVM (tie-breaking only).
    """

    stream_ids: Sequence[str]
    config: Optional[REConfig] = None
    random_state: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.stream_ids) == 0:
            raise ValueError("RadioEnvironment requires at least one stream")
        if len(set(self.stream_ids)) != len(self.stream_ids):
            raise ValueError("stream_ids must be unique")
        if self.config is None:
            self.config = REConfig()
        self._scaler: Optional[StandardScaler] = None
        self._classifier: Optional[OneVsOneSVC] = None

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> List[str]:
        """``{sid}-var``, ``{sid}-ent`` and ``{sid}-ac`` per stream, in
        feature-vector order: the paper's Table V notation."""
        return [
            f"{sid}-{stat}" for sid in self.stream_ids for stat in ("var", "ent", "ac")
        ]

    @property
    def is_trained(self) -> bool:
        return self._classifier is not None

    # ------------------------------------------------------------------ #
    def extract_samples(
        self, trace: RssiTrace, starts: Sequence[float], t_delta_s: float
    ) -> np.ndarray:
        """Feature vectors of the windows ``[t1, t1 + t_delta]`` of a trace.

        One row per start ``t1``, laid out as :attr:`feature_names`.  Only
        the *initial* ``t_delta`` seconds of a variation window are used:
        the paper argues the beginning of the user's path is the most
        workstation-specific part (later parts converge towards the shared
        door).  A window holds the trace's samples with ``t1 <= t <= t1 +
        t_delta``; windows with equal sample counts (a window near a day's
        end or off the sample grid can be shorter) go through one
        :func:`~repro.features.window.window_statistics` call.
        """
        if not t_delta_s > 0:
            raise ValueError("t_delta_s must be positive")
        missing = [sid for sid in self.stream_ids if sid not in trace.streams]
        if missing:
            raise KeyError(f"trace is missing streams: {missing}")
        starts = np.asarray(starts, dtype=float)
        times = trace.times
        first = np.searchsorted(times, starts, side="left")
        lengths = np.searchsorted(times, starts + t_delta_s, side="right") - first
        if np.any(lengths < 2):
            raise ValueError(
                "variation window contains fewer than 2 samples; "
                "check the sampling rate and t_delta"
            )
        cfg = self.config
        n_streams = len(self.stream_ids)
        out = np.empty((starts.shape[0], 3 * n_streams))
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            index = first[rows, None] + np.arange(length)
            block = np.empty((rows.size, n_streams, length))
            for j, sid in enumerate(self.stream_ids):
                block[:, j] = trace.streams[sid][index]
            stats = window_statistics(
                block.reshape(-1, length),
                entropy_bins=cfg.entropy_bins,
                ac_lag=cfg.autocorrelation_lag,
            )
            out[rows] = stats.reshape(rows.size, -1)
        return out

    def extract_sample(
        self,
        trace: RssiTrace,
        window: VariationWindow,
        t_delta_s: float,
    ) -> np.ndarray:
        """Feature vector of the window ``[t1, t1 + t_delta]`` of a trace,
        ``t1`` being the variation window's start (:meth:`extract_samples`
        on a batch of one)."""
        return self.extract_samples(trace, [window.t_start], t_delta_s)[0]

    def empty_dataset(self) -> SampleDataset:
        """A dataset with this RE instance's feature layout."""
        return SampleDataset(feature_names=tuple(self.feature_names))

    # ------------------------------------------------------------------ #
    def fit(self, dataset: SampleDataset) -> "RadioEnvironment":
        """Train the classifier on a labelled sample dataset."""
        if len(dataset) == 0:
            raise ValueError("cannot train RE on an empty dataset")
        if tuple(dataset.feature_names) != tuple(self.feature_names):
            raise ValueError("dataset feature layout does not match this RE")
        X, y = dataset.to_arrays()
        return self.fit_arrays(X, y)

    def fit_arrays(self, X: np.ndarray, y: np.ndarray) -> "RadioEnvironment":
        """Train directly from arrays (used by the cross-validation loops)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("cannot train RE on an empty dataset")
        self._scaler = StandardScaler().fit(X)
        cfg = self.config
        self._classifier = OneVsOneSVC(
            C=cfg.svm_c,
            kernel=cfg.svm_kernel,
            random_state=self.random_state,
        )
        self._classifier.fit(self._scaler.transform(X), np.asarray(y))
        return self

    def classify(self, features: np.ndarray) -> str:
        """Predict the label of one sample."""
        return self.classify_many(np.atleast_2d(features))[0]

    def classify_many(self, X: np.ndarray) -> List[str]:
        """Predict labels for a matrix of samples."""
        if self._classifier is None or self._scaler is None:
            raise RENotTrainedError("call fit() before classify()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        preds = self._classifier.predict(self._scaler.transform(X))
        return [str(p) for p in preds]

    def classify_window(
        self, trace: RssiTrace, window: VariationWindow, t_delta_s: float
    ) -> str:
        """Extract the sample for a window and classify it in one call."""
        return self.classify(self.extract_sample(trace, window, t_delta_s))

    def curve_fitter(self, shared_gram: bool = True) -> SVCFoldFitter:
        """The learning-curve fold fitter for this RE configuration.

        Used by the Figure 8 protocol: per (repeat, fold) the fitter fixes
        one :class:`~repro.ml.scaling.StandardScaler` and one kernel on the
        full training fold, then fits every training-size prefix on shared
        Gram views (``shared_gram=True``, the fast path) or on the raw rows
        with a fresh per-fit Gram (``shared_gram=False``, the retained
        bit-identical reference).

        Note the deliberate semantic difference from :meth:`fit_arrays`,
        which standardises and resolves the kernel per training subset:
        fold-level preprocessing is what makes the Gram matrix shareable
        across training sizes, scales the test fold consistently for every
        size, and gives all pairwise machines one common kernel.
        """
        cfg = self.config
        return SVCFoldFitter(
            C=cfg.svm_c,
            kernel=cfg.svm_kernel,
            random_state=self.random_state,
            shared_gram=shared_gram,
        )

    # ------------------------------------------------------------------ #
    def clone_untrained(self) -> "RadioEnvironment":
        """A fresh, untrained RE with the same configuration.

        Used by the cross-validation loops, which train one classifier per
        fold.
        """
        return RadioEnvironment(
            stream_ids=tuple(self.stream_ids),
            config=self.config,
            random_state=self.random_state,
        )
