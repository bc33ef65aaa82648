"""Detector interface and registry.

A *detector* is the pluggable kernel that turns a rolling-std-sum series
``s_t`` into movement decisions.  The paper's KDE normal-profile
Mahalanobis detector is one point in a family of RSSI-variation motion
detectors; this module gives the family one seam so the sweep's MD grid
and the streaming service can host any member without knowing which one
they are running.

The contract
------------

Every detector is a **frozen config dataclass** with a class-level
``name`` and one entry point:

``streaming_engine(config, init_samples) -> engine``
    A fresh incremental engine whose ``extend(values) ->
    (decisions, thresholds)`` consumes a 1-D batch of one series, or an
    ``(m, chains)`` block advancing each column as its own *chain*, in
    lockstep; the first block that holds values fixes the chain count,
    and the outputs take the input's shape.  The concatenated outputs
    must not depend on the batch splits nor on the other chains, which
    the tier-1 suite checks for every registered detector under random
    splits (partial-window head included).  ``config`` is the scenario's
    :class:`~repro.core.config.MDConfig`; ``init_samples`` is the number
    of leading observations that form the initialisation window.
    Decisions are int8 (``-1`` while initialising, ``0``/``1`` after)
    and thresholds NaN while undefined, the threshold first
    materialising at ``init_samples - 1``.  Input that is not 1-D or
    2-D, or a block of another chain count, is a ``ValueError`` before
    any state changes (:func:`chain_block`).  ``snapshot()`` /
    ``restore(state)`` hold a single chain.

The live detector feeds one chain per tenant; the sweep
(:func:`~repro.core.evaluation.evaluate_md_grid`) feeds one engine every
``s_t`` column (sensor subset, day) of a group of equally long days.

Detector identity (``name`` plus config fields) participates in scenario
naming, ``ScenarioSpec.content_hash`` and the sweep-store staleness
fingerprint, so a grid re-run with a different detector never reuses
stale records.  Register custom detectors with :func:`register_detector`;
that also makes their configs decodable from stored sweep records.
"""

from __future__ import annotations

import numpy as np

from ..identity import Registry

__all__ = [
    "DETECTORS",
    "register_detector",
    "detector_names",
    "get_detector",
]


#: The detector zoo: :func:`register_detector` adds a member,
#: :func:`get_detector` resolves a name, class or instance.
DETECTORS = Registry("detector", ("streaming_engine",))
register_detector = DETECTORS.register
detector_names = DETECTORS.names
get_detector = DETECTORS.get


def chain_block(values, chains: int, fixed: bool) -> np.ndarray:
    """``values`` as an ``(m, chains)`` float block; a 1-D batch is one chain.

    A ``ValueError`` for input that is not 1-D or 2-D, and, once ``fixed``,
    for a block of other than ``chains`` chains.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    elif values.ndim != 2:
        raise ValueError(
            f"expected a 1-D batch or an (m, chains) block, got shape {values.shape}"
        )
    if fixed and values.shape[1] != chains:
        raise ValueError(
            f"expected a block of {chains} chain(s), got {values.shape[1]}"
        )
    return values


def calibrated_threshold(
    init_values: np.ndarray, scale: float, floor: float
) -> np.ndarray:
    """Each chain's init-window threshold ``max(scale × median, floor)``
    over the ``(k, chains)`` block of its init-window statistics (``k >=
    1``)."""
    return np.maximum(scale * np.median(init_values, axis=0), floor)


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
