"""Detector interface, result grid and registry.

A *detector* is the pluggable kernel that turns a rolling-std-sum series
``s_t`` into movement decisions.  The paper's KDE normal-profile
Mahalanobis detector is one point in a family of RSSI-variation motion
detectors; this module gives the family one seam so sweeps, the columnar
evaluation engines and the streaming service can host any member without
knowing which one they are running.

The contract
------------

Every detector is a **frozen config dataclass** with a class-level
``name`` and a pair of engines:

``offline_grid(std_sums, config, init_samples) -> DetectionGrid``
    The batch reference.  ``std_sums`` is an ``(n, n_cols)`` float matrix
    of per-instant std sums (one column per sensor subset, evaluated in
    lockstep — the shape :func:`repro.core.movement.run_profile_grid`
    consumes); ``config`` is the scenario's
    :class:`~repro.core.config.MDConfig`; ``init_samples`` is the number
    of leading observations that form the initialisation window.  The
    result carries per-column ``decisions`` (int8: ``-1`` while
    initialising, ``0``/``1`` after) and ``thresholds`` (NaN while
    undefined), with the threshold first materialising at row
    ``init_samples - 1`` — the same convention as the KDE profile grid.

``streaming_engine(config, init_samples) -> engine``
    A fresh incremental engine whose ``extend(values) ->
    (decisions, thresholds)`` consumes one scalar series in arbitrary
    batch splits.  The concatenated outputs must be **bitwise identical**
    to column 0 of ``offline_grid`` over the same values — the same
    equivalence contract ``OnlineStdSum``/``OnlineProfile`` established —
    and the tier-1 suite enforces it for every registered detector under
    hypothesis-generated random splits (partial-window head included).

Detector identity (``name`` plus config fields) participates in scenario
naming, ``ScenarioSpec.content_hash`` and the sweep-store staleness
fingerprint, so a grid re-run with a different detector never reuses
stale records.  Register custom detectors with :func:`register_detector`;
that also makes their configs decodable from stored sweep records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ..identity import Registry

__all__ = [
    "DETECTORS",
    "DetectionGrid",
    "register_detector",
    "detector_names",
    "get_detector",
]


@dataclass(frozen=True)
class DetectionGrid:
    """Per-column detector output over an ``(n, n_cols)`` std-sum matrix.

    ``decisions`` is int8 with ``-1`` while the detector initialises and
    ``0``/``1`` (no movement / movement) afterwards; ``thresholds`` holds
    the effective threshold trace, NaN wherever it is not yet defined.
    Matches the :class:`~repro.core.movement.ProfileGridResult` layout so
    existing consumers need no translation.
    """

    decisions: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        if self.decisions.shape != self.thresholds.shape:
            raise ValueError(
                "decisions and thresholds must share a shape, got "
                f"{self.decisions.shape} vs {self.thresholds.shape}"
            )


#: The detector zoo: :func:`register_detector` adds a member,
#: :func:`get_detector` resolves a name, class or instance.
DETECTORS = Registry("detector", ("offline_grid", "streaming_engine"))
register_detector = DETECTORS.register
detector_names = DETECTORS.names
get_detector = DETECTORS.get


def column_grid(
    column: Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray]],
    std_sums,
    init_samples: int,
) -> DetectionGrid:
    """An ``offline_grid`` from ``column(values, init_samples) -> (decisions,
    thresholds)``, called once per contiguous column of ``std_sums``."""
    matrix = np.asarray(std_sums, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"std_sums must be 2-D, got shape {matrix.shape}")
    if init_samples < 2:
        raise ValueError(f"init_samples must be >= 2, got {init_samples}")
    decisions = np.empty(matrix.shape, dtype=np.int8)
    thresholds = np.empty(matrix.shape)
    for col in range(matrix.shape[1]):
        decisions[:, col], thresholds[:, col] = column(
            np.ascontiguousarray(matrix[:, col]), init_samples
        )
    return DetectionGrid(decisions=decisions, thresholds=thresholds)


def calibrated_threshold(
    init_values: Sequence[float], scale: float, floor: float
) -> float:
    """The init-window threshold ``max(scale × median(init_values), floor)``
    (an empty window has median 0)."""
    values = np.asarray(init_values, dtype=float)
    base = float(np.median(values)) if values.size else 0.0
    return max(scale * base, floor)
