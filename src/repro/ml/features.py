"""Window features used by the Radio Environment classifier.

For every RSSI stream, FADEWICH computes three features over the window
``[t1, t1 + t_delta]`` at the start of a variation window (paper Section
IV-D1):

* the **variance** of the window,
* the **entropy** of the window's frequency-distribution histogram,
* the **autocorrelation** of the window at a fixed lag.

This module implements those features plus the per-sample feature-vector
assembly (features of all streams concatenated in a stable order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "window_variance",
    "window_entropy",
    "window_autocorrelation",
    "stream_features",
    "FeatureExtractor",
]


def window_variance(window: Sequence[float]) -> float:
    """Population variance of the window (paper: sigma^2 = sum (r - mu)^2 / n)."""
    window = np.asarray(window, dtype=float)
    if window.size == 0:
        raise ValueError("variance of an empty window is undefined")
    return float(np.var(window))


def window_entropy(window: Sequence[float], bins: int = 16) -> float:
    """Shannon entropy (nats) of the histogram of the window values.

    The paper computes the entropy of the frequency-distribution histogram of
    the window; the number of histogram bins is an implementation parameter.
    Constant windows have zero entropy.
    """
    window = np.asarray(window, dtype=float)
    if window.size == 0:
        raise ValueError("entropy of an empty window is undefined")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    # np.histogram cannot split a denormal-width value range into multiple
    # finite bins; such a window is constant for any practical purpose and
    # has zero entropy (one occupied bin), like an exactly-constant one.
    spread = float(window.max() - window.min())
    with np.errstate(over="ignore"):
        if spread > 0.0 and not np.isfinite(np.float64(bins) / spread):
            return 0.0
    counts, _ = np.histogram(window, bins=bins)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def window_autocorrelation(window: Sequence[float], lag: int = 1) -> float:
    """Sample autocorrelation of the window at the given lag.

    Follows the paper's definition

    .. math:: R(k) = \\frac{1}{(n - k)\\sigma^2}\\sum_j (r_j - \\mu)(r_{j+k} - \\mu)

    A window with zero variance (all samples identical) returns 1.0 by
    convention: a constant signal is perfectly self-similar.
    """
    window = np.asarray(window, dtype=float)
    n = window.size
    if n == 0:
        raise ValueError("autocorrelation of an empty window is undefined")
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag >= n:
        return 0.0
    mu = window.mean()
    var = np.var(window)
    if var <= 1e-15:
        return 1.0
    centered = window - mu
    num = float((centered[: n - lag] * centered[lag:]).sum())
    return num / ((n - lag) * var)


def stream_features(
    window: Sequence[float], *, entropy_bins: int = 16, ac_lag: int = 1
) -> Tuple[float, float, float]:
    """Return ``(variance, entropy, autocorrelation)`` for one stream window."""
    return (
        window_variance(window),
        window_entropy(window, bins=entropy_bins),
        window_autocorrelation(window, lag=ac_lag),
    )


@dataclass(frozen=True)
class FeatureExtractor:
    """Assemble fixed-order feature vectors from per-stream RSSI windows.

    Parameters
    ----------
    stream_ids:
        The ordered list of stream identifiers (e.g. ``("d1-d2", "d1-d3", ...)``).
        The ordering fixes the layout of the output feature vector so that
        training and online samples are always aligned.
    entropy_bins:
        Histogram bins used for the entropy feature.
    ac_lag:
        Lag of the autocorrelation feature.
    """

    stream_ids: Tuple[str, ...]
    entropy_bins: int = 16
    ac_lag: int = 1

    def __post_init__(self) -> None:
        if len(self.stream_ids) == 0:
            raise ValueError("FeatureExtractor requires at least one stream")
        if len(set(self.stream_ids)) != len(self.stream_ids):
            raise ValueError("stream_ids must be unique")

    @property
    def n_features(self) -> int:
        """Total length of the feature vector: 3 features per stream."""
        return 3 * len(self.stream_ids)

    def feature_names(self) -> List[str]:
        """Names like ``"d1-d2-var"``, matching the paper's Table V notation."""
        names: List[str] = []
        for sid in self.stream_ids:
            names.extend([f"{sid}-var", f"{sid}-ent", f"{sid}-ac"])
        return names

    def extract(self, windows: Dict[str, Sequence[float]]) -> np.ndarray:
        """Build one sample's feature vector from per-stream windows.

        Parameters
        ----------
        windows:
            Mapping from stream id to the RSSI measurements observed in
            ``[t1, t1 + t_delta]`` for that stream.  Every stream in
            ``stream_ids`` must be present.
        """
        values: List[float] = []
        for sid in self.stream_ids:
            if sid not in windows:
                raise KeyError(f"missing window for stream {sid!r}")
            var, ent, ac = stream_features(
                windows[sid], entropy_bins=self.entropy_bins, ac_lag=self.ac_lag
            )
            values.extend([var, ent, ac])
        return np.asarray(values, dtype=float)
