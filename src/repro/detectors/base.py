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
``name``, one engine and two entry points to it:

``streaming_engine(config, init_samples) -> engine``
    A fresh incremental engine whose ``extend(values) ->
    (decisions, thresholds)`` consumes one scalar series in arbitrary
    batch splits; the concatenated outputs must not depend on the
    splits, which the tier-1 suite checks for every registered detector
    under hypothesis-generated random splits (partial-window head
    included).  ``config`` is the scenario's
    :class:`~repro.core.config.MDConfig`; ``init_samples`` is the number
    of leading observations that form the initialisation window.
    Decisions are int8 (``-1`` while initialising, ``0``/``1`` after)
    and thresholds NaN while undefined, the threshold first
    materialising at ``init_samples - 1``.

``offline_grid(std_sums, config, init_samples) -> DetectionGrid``
    The engine run over whole columns: ``std_sums`` is an ``(n,
    n_cols)`` float matrix of per-instant std sums, one independent
    column per sensor subset or day, and column ``j`` of the result is
    ``streaming_engine(config, init_samples).extend(std_sums[:, j])``.
    :func:`column_grid` does exactly that; the KDE detector instead
    advances all columns as lockstep chains of one profile, with the
    same bits.

Detector identity (``name`` plus config fields) participates in scenario
naming, ``ScenarioSpec.content_hash`` and the sweep-store staleness
fingerprint, so a grid re-run with a different detector never reuses
stale records.  Register custom detectors with :func:`register_detector`;
that also makes their configs decodable from stored sweep records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    :class:`~repro.core.movement.ProfileGridResult` is another name for it.
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


def column_grid(detector, std_sums, config, init_samples: int) -> DetectionGrid:
    """An ``offline_grid`` that runs a fresh ``detector.streaming_engine``
    over each contiguous column of ``std_sums``."""
    matrix = np.asarray(std_sums, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"std_sums must be 2-D, got shape {matrix.shape}")
    if init_samples < 2:
        raise ValueError(f"init_samples must be >= 2, got {init_samples}")
    decisions = np.empty(matrix.shape, dtype=np.int8)
    thresholds = np.empty(matrix.shape)
    for col in range(matrix.shape[1]):
        engine = detector.streaming_engine(config, init_samples)
        decisions[:, col], thresholds[:, col] = engine.extend(
            np.ascontiguousarray(matrix[:, col])
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


def check_fields(rules) -> None:
    """Reject a snapshot: raise a ``ValueError`` naming the field of the
    first ``(field, ok, rule)`` whose ``ok`` is false."""
    for field, ok, rule in rules:
        if not ok:
            raise ValueError(f"snapshot field {field!r} {rule}")


def calibration_rules(state, init_samples: int) -> list:
    """:func:`check_fields` rules of a calibrating zoo engine's snapshot.

    ``eff`` is set exactly from ``init_samples`` values on; ``calib`` holds
    the statistics of positions ``1 .. count - 1`` until then, none after.
    """
    count, calib = state["count"], state["calib"]
    calibrated = count >= init_samples
    want = 0 if calibrated else max(count - 1, 0)
    return [
        (
            "eff",
            (state["eff"] is not None) == calibrated,
            f"must be set exactly when count {count} >= init_samples "
            f"{init_samples}",
        ),
        (
            "calib",
            len(calib) == want,
            f"holds {len(calib)} values at count {count}, expected {want}",
        ),
    ]
