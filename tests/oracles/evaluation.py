"""Per-observation references of the columnar evaluation pipeline.

:func:`evaluate_md_scalar` restricts each day's trace and drives
:func:`~tests.oracles.movement.detect_offline_scalar` per sensor subset;
:func:`cross_validated_predictions_scalar` builds its folds as index
lists.  ``tests/test_analysis_equivalence.py`` pins
:func:`~repro.core.evaluation.evaluate_md`,
:func:`~repro.core.evaluation.evaluate_md_grid` and
:func:`~repro.core.evaluation.cross_validated_predictions` to them bit for
bit, and ``benchmarks/test_analysis_throughput.py`` times them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import FadewichConfig
from repro.core.evaluation import (
    DayEvaluation,
    MDEvaluation,
    _scored_events,
    streams_for_sensors,
)
from repro.core.radio_env import RadioEnvironment
from repro.core.windows import match_windows
from repro.ml.validation import stratified_kfold_indices
from repro.simulation.collector import CampaignRecording
from repro.simulation.dataset import SampleDataset

from .movement import detect_offline_scalar

__all__ = ["evaluate_md_scalar", "cross_validated_predictions_scalar"]


def evaluate_md_scalar(
    recording: CampaignRecording,
    config: FadewichConfig,
    sensor_ids: Sequence[str],
) -> MDEvaluation:
    """Per-observation reference implementation of
    :func:`~repro.core.evaluation.evaluate_md`.

    Restricts the trace and recomputes the rolling statistics per call and
    drives the normal profile one value at a time — the semantics reference
    the equivalence tests pin the columnar paths against.
    """
    stream_ids = streams_for_sensors(sensor_ids)
    evaluation = MDEvaluation(
        sensor_ids=tuple(sensor_ids), t_delta_s=config.t_delta_s
    )
    for day in recording.days:
        trace = day.trace.restricted_to(stream_ids)
        md_result = detect_offline_scalar(trace, config.md)
        scored_events = _scored_events(day)
        match = match_windows(
            md_result.windows,
            scored_events,
            config.true_window_slack_s,
            min_duration_s=config.t_delta_s,
        )
        evaluation.days.append(
            DayEvaluation(
                day_index=day.day_index,
                trace=trace,
                md_result=md_result,
                match=match,
                events=scored_events,
            )
        )
    return evaluation


def cross_validated_predictions_scalar(
    re_module: RadioEnvironment,
    dataset: SampleDataset,
    *,
    n_folds: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, str]:
    """Per-fold-list reference implementation of
    :func:`~repro.core.evaluation.cross_validated_predictions` (the
    equivalence tests pin the columnar path against it)."""
    if len(dataset) == 0:
        return {}
    if rng is None:
        rng = np.random.default_rng()
    X, y = dataset.to_arrays()
    predictions: Dict[int, str] = {}
    n_classes = np.unique(y).shape[0]
    if len(dataset) < n_folds or n_classes < 2:
        fitted = re_module.clone_untrained().fit_arrays(X, y)
        for i, label in enumerate(fitted.classify_many(X)):
            predictions[i] = label
        return predictions
    for train_idx, test_idx in stratified_kfold_indices(y, n_folds, rng):
        if np.unique(y[train_idx]).shape[0] < 2 or train_idx.size == 0:
            fallback = str(np.unique(y[train_idx])[0]) if train_idx.size else str(y[0])
            for i in test_idx:
                predictions[int(i)] = fallback
            continue
        fold_re = re_module.clone_untrained().fit_arrays(X[train_idx], y[train_idx])
        for i, label in zip(test_idx, fold_re.classify_many(X[test_idx])):
            predictions[int(i)] = label
    return predictions
