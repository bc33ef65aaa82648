"""Evaluation pipeline: from a recorded campaign to the paper's metrics.

The analysis modules (one per table / figure) all share the same processing
chain, which mirrors the paper's Section VII-C procedure:

1. restrict the recorded traces to the streams of the chosen sensor subset,
2. run MD over every day: the detector's ``streaming_engine`` decides
   each ``s_t`` column and :class:`~repro.streaming.detector.WindowTracker`,
   the live detector's window automaton, closes its variation windows,
3. match the resulting variation windows against the ground-truth events
   (TP / FP / FN),
4. extract one labelled RE sample per true positive,
5. cross-validate the RE classifier over those samples,
6. combine MD matches and RE predictions into per-departure
   deauthentication outcomes (cases A / B / C).

This module implements those steps once; the analysis modules compose them.

Columnar paths and their references
-----------------------------------

* :func:`evaluate_md` / :func:`evaluate_md_grid` share one rolling-window
  feature matrix per recorded day (:class:`CampaignStdFeatures`), sliced
  per sensor subset and fed to one engine of the detector as lockstep
  chains, all sensor counts and equally long days advancing together.
  They take ``s_t`` the way the live
  :class:`~repro.streaming.detector.OnlineDetector` does — from the second
  sample, partial windows first, streams added left to right — so the
  per-day ``std_sums``, thresholds and windows they report equal the
  router's for the same recording.
* :func:`cross_validated_predictions` builds its folds as arrays
  (:func:`~repro.ml.validation.stratified_fold_assignments`) and fits on
  contiguous index views.

Both must stay **bit-identical** to the per-observation and per-fold-list
references in ``tests/oracles/evaluation.py``, which restrict each trace,
recompute its rolling statistics and drive the normal profile one value at
a time — ``tests/test_analysis_equivalence.py`` pins this across seeds,
layouts and sensor counts, and ``tests/test_golden_analysis.py`` pins the
paper-facing numbers they produce.  Change either side only with those
suites green (or consciously re-pinned in the same commit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..detectors import KdeMdDetector
from ..features.rolling import RollingStdExtractor
from ..features.store import FeatureStore
from ..mobility.events import EventKind, GroundTruthEvent
from ..ml.metrics import DetectionCounts
from ..ml.validation import stratified_fold_assignments
from ..radio.links import enumerate_stream_ids
from ..radio.trace import RssiTrace
from ..simulation.collector import CampaignRecording, DayRecording
from ..simulation.dataset import LabeledSample, SampleDataset
from ..sliding import sum_rows
from ..streaming.detector import WindowTracker
from .config import FadewichConfig
from .movement import OfflineMDResult, _profile_init_samples
from .radio_env import RadioEnvironment
from .security import DeauthOutcome, classify_outcome
from .windows import MatchResult, VariationWindow, match_windows

__all__ = [
    "sensor_subset",
    "streams_for_sensors",
    "DayEvaluation",
    "MDEvaluation",
    "CampaignStdFeatures",
    "evaluate_md",
    "evaluate_md_grid",
    "build_sample_dataset",
    "cross_validated_predictions",
    "departure_outcomes",
]


def sensor_subset(all_sensor_ids: Sequence[str], k: int) -> List[str]:
    """The first ``k`` sensors of a deployment, in id order.

    The paper sweeps the number of sensors from 3 to 9 (Table III and
    Figures 7-10); subsets are taken in the deployment's enumeration order.
    """
    ids = list(all_sensor_ids)
    if k < 2:
        raise ValueError("a subset needs at least 2 sensors")
    if k > len(ids):
        raise ValueError(f"requested {k} sensors but only {len(ids)} exist")
    return ids[:k]


def streams_for_sensors(sensor_ids: Sequence[str]) -> List[str]:
    """All directed stream ids among the given sensors."""
    return enumerate_stream_ids(list(sensor_ids))


@dataclass
class DayEvaluation:
    """MD evaluation artefacts of one recorded day."""

    day_index: int
    trace: RssiTrace
    md_result: OfflineMDResult
    match: MatchResult
    events: List[GroundTruthEvent]

    @property
    def counts(self) -> DetectionCounts:
        return self.match.counts


@dataclass
class MDEvaluation:
    """MD evaluation of a whole campaign for one sensor subset."""

    sensor_ids: Tuple[str, ...]
    t_delta_s: float
    days: List[DayEvaluation] = field(default_factory=list)

    @property
    def counts(self) -> DetectionCounts:
        """Aggregate TP/FP/FN over all days."""
        total = DetectionCounts(0, 0, 0)
        for day in self.days:
            total = total + day.counts
        return total

    def rematch(self, t_delta_s: float, slack_s: float) -> "MDEvaluation":
        """Re-score the same MD windows with a different ``t_delta``.

        MD's variation windows do not depend on ``t_delta`` (it is only a
        filter), so sweeping ``t_delta`` (Figure 7) reuses the detection
        results and merely re-runs the matching step.
        """
        new_days = []
        for day in self.days:
            match = match_windows(
                day.md_result.windows,
                day.events,
                slack_s,
                min_duration_s=t_delta_s,
            )
            new_days.append(
                DayEvaluation(
                    day_index=day.day_index,
                    trace=day.trace,
                    md_result=day.md_result,
                    match=match,
                    events=day.events,
                )
            )
        return MDEvaluation(
            sensor_ids=self.sensor_ids, t_delta_s=t_delta_s, days=new_days
        )


class CampaignStdFeatures:
    """The shared rolling-window feature matrix of a recorded campaign.

    For every day, the per-stream rolling standard deviations over *all*
    recorded streams are computed once
    (:class:`~repro.features.rolling.RollingStdExtractor`); any sensor
    subset's ``s_t`` series is then its columns added left to right —
    bit-identical to recomputing the rolling statistics on the restricted
    trace, and to the live detector's series, at a fraction of the cost.
    :func:`evaluate_md` and :func:`evaluate_md_grid` share one instance
    across sensor counts.

    Blocks live in a :class:`~repro.features.store.FeatureStore`; pass
    ``store=`` to share one store (and its cache) with the other configs
    of the same recording, as :meth:`~repro.analysis.scenarios.
    ScenarioSweepRunner.run` does: configs with equal std windows then
    compute each day's block once.  The store validates day membership,
    so a day from a different campaign can no longer alias this
    recording's matrices by sharing a ``day_index``.
    """

    def __init__(
        self,
        recording: CampaignRecording,
        config: FadewichConfig,
        *,
        store: Optional[FeatureStore] = None,
    ) -> None:
        if store is not None and store.recording is not recording:
            raise ValueError("feature store is bound to a different recording")
        self.recording = recording
        self.config = config
        self.store = store if store is not None else FeatureStore(recording)
        self._extractor = RollingStdExtractor(std_window_s=config.md.std_window_s)

    def day_matrix(
        self, day: DayRecording
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
        """``(times, std_matrix, column_of_stream)`` of one day, cached."""
        return self.store.day_block(self._extractor, day)

    def std_sums(
        self, day: DayRecording, stream_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(times, s_t)`` series of one day for a stream subset,
        streams added in ``stream_ids`` order."""
        times, matrix, columns = self.day_matrix(day)
        return times, sum_rows(matrix.T, [columns[sid] for sid in stream_ids])


# Rows per engine call of the MD grid: whole-day blocks would hold several
# day-sized temporaries per chain inside the engine.
_BLOCK_ROWS = 1024


def _scored_events(day: DayRecording) -> List[GroundTruthEvent]:
    return [
        e for e in day.events if e.kind in (EventKind.DEPARTURE, EventKind.ENTRY)
    ]


def _evaluate_md_sets(
    recording: CampaignRecording,
    config: FadewichConfig,
    subsets: Sequence[Tuple[int, List[str]]],
    features: Optional[CampaignStdFeatures] = None,
    detector: object = KdeMdDetector(),
) -> Dict[int, MDEvaluation]:
    """Columnar MD evaluation of several sensor subsets at once.

    All subsets of all days advance as lockstep chains: one
    ``detector.streaming_engine`` per group of equally-shaped days, fed
    the pooled ``(n_obs, n_days * n_subsets)`` std-sum matrix in
    ``_BLOCK_ROWS``-row blocks.
    """
    if not subsets:
        return {}
    if features is None:
        features = CampaignStdFeatures(recording, config)
    evaluations = {
        key: MDEvaluation(sensor_ids=tuple(ids), t_delta_s=config.t_delta_s)
        for key, ids in subsets
    }
    stream_sets = {key: streams_for_sensors(ids) for key, ids in subsets}

    # Per day: the pooled std-sum columns (one per subset) and metadata.
    day_inputs = []
    for day in recording.days:
        columns = []
        times = None
        for key, _ in subsets:
            times, sums = features.std_sums(day, stream_sets[key])
            columns.append(sums)
        stacked = np.column_stack(columns)
        day_inputs.append(
            (day, times, stacked, _profile_init_samples(times, config.md))
        )

    # Group equally-shaped days so their chains run through one engine,
    # then split the pooled grid back per day.
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, (_, times, stacked, init_samples) in enumerate(day_inputs):
        groups.setdefault((stacked.shape[0], init_samples), []).append(i)
    n_subsets = len(subsets)
    grids: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(day_inputs)
    for (n, init_samples), indices in groups.items():
        pooled = np.hstack([day_inputs[i][2] for i in indices])
        engine = detector.streaming_engine(config.md, init_samples)
        decisions = np.empty(pooled.shape, dtype=np.int8)
        thresholds = np.empty(pooled.shape)
        for a in range(0, n, _BLOCK_ROWS):
            rows = slice(a, a + _BLOCK_ROWS)
            decisions[rows], thresholds[rows] = engine.extend(pooled[rows])
        for position, i in enumerate(indices):
            block = slice(position * n_subsets, (position + 1) * n_subsets)
            grids[i] = (decisions[:, block], thresholds[:, block])

    for (day, times, stacked, _), grid in zip(day_inputs, grids):
        assert grid is not None
        decisions, thresholds = grid
        scored = _scored_events(day)
        for j, (key, _) in enumerate(subsets):
            tracker = WindowTracker(config.md.merge_gap_s)
            tracker.extend(times, decisions[:, j] == 1)
            tracker.finalize()
            md_result = OfflineMDResult(
                times=times,
                std_sums=np.ascontiguousarray(stacked[:, j]),
                windows=tuple(tracker.completed_windows),
                threshold_trace=np.ascontiguousarray(thresholds[:, j]),
            )
            match = match_windows(
                md_result.windows,
                scored,
                config.true_window_slack_s,
                min_duration_s=config.t_delta_s,
            )
            evaluations[key].days.append(
                DayEvaluation(
                    day_index=day.day_index,
                    trace=day.trace.restricted_view(stream_sets[key]),
                    md_result=md_result,
                    match=match,
                    events=list(scored),
                )
            )
    return evaluations


def evaluate_md(
    recording: CampaignRecording,
    config: FadewichConfig,
    sensor_ids: Sequence[str],
    *,
    features: Optional[CampaignStdFeatures] = None,
    detector: object = KdeMdDetector(),
) -> MDEvaluation:
    """Run offline MD over every recorded day for one sensor subset.

    This is the columnar fast path (bit-identical to the per-observation
    reference in ``tests/oracles/evaluation.py``).  Pass a shared
    :class:`CampaignStdFeatures` to reuse the rolling feature matrix across
    calls; sweeps over sensor counts should prefer :func:`evaluate_md_grid`,
    which additionally runs all counts' chains in lockstep.
    """
    return _evaluate_md_sets(
        recording, config, [(0, list(sensor_ids))], features, detector
    )[0]


def evaluate_md_grid(
    recording: CampaignRecording,
    config: FadewichConfig,
    sensor_counts: Optional[Sequence[int]] = None,
    *,
    features: Optional[CampaignStdFeatures] = None,
    detector: object = KdeMdDetector(),
) -> Dict[int, MDEvaluation]:
    """Batch MD evaluation over a sweep of sensor counts.

    The paper's Table III / Figures 7-10 all sweep the number of sensors;
    this entry point computes the whole sweep at once: the rolling feature
    matrix of each day is computed once and sliced per count, and every
    (day, count) chain advances through one detector engine together.
    Returns ``{n_sensors: MDEvaluation}``, each value bit-identical to
    :func:`evaluate_md` on ``sensor_subset(ids, n)``.
    """
    all_ids = list(recording.layout.sensor_ids)
    if sensor_counts is None:
        sensor_counts = range(3, len(all_ids) + 1)
    # Dedupe while keeping order: a duplicated count must not append its
    # days (and hence its counts) twice to one evaluation.
    counts = list(dict.fromkeys(int(n) for n in sensor_counts))
    subsets = [(n, sensor_subset(all_ids, n)) for n in counts]
    return _evaluate_md_sets(recording, config, subsets, features, detector)


def build_sample_dataset(
    evaluation: MDEvaluation,
    config: FadewichConfig,
    *,
    random_state: Optional[int] = None,
) -> Tuple[RadioEnvironment, SampleDataset]:
    """Extract one labelled RE sample per true positive of an MD evaluation.

    Samples are labelled with the ground truth (the offline analogue of the
    paper's KMA-based auto-labelling).  Each day's windows go through one
    :meth:`~repro.core.radio_env.RadioEnvironment.extract_samples` call.
    Returns the (untrained) RE instance whose feature layout matches the
    dataset, plus the dataset itself.
    """
    stream_ids = streams_for_sensors(evaluation.sensor_ids)
    re_module = RadioEnvironment(
        stream_ids=stream_ids, config=config.re, random_state=random_state
    )
    dataset = re_module.empty_dataset()
    for day in evaluation.days:
        labelled = [
            (window.t_start, true_window.event.label)
            for window, true_window in day.match.true_positive_pairs
            if true_window.event.label is not None
        ]
        if not labelled:
            continue
        starts, labels = zip(*labelled)
        samples = re_module.extract_samples(day.trace, starts, config.t_delta_s)
        for features, t1, label in zip(samples, starts, labels):
            dataset.add(
                LabeledSample(
                    features=features, label=label, time=t1, day_index=day.day_index
                )
            )
    return re_module, dataset


def cross_validated_predictions(
    re_module: RadioEnvironment,
    dataset: SampleDataset,
    *,
    n_folds: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, str]:
    """Out-of-fold RE predictions for every sample of the dataset.

    Follows the paper's protocol: the samples are split into ``n_folds``
    stratified folds; for each fold the classifier is trained on the other
    folds and predicts the held-out samples.  Returns a mapping from sample
    index (position in ``dataset.samples``) to the predicted label.

    Columnar fast path: the fold memberships are one assignment array
    (:func:`~repro.ml.validation.stratified_fold_assignments`), each fold's
    train/test sets are boolean-mask index views, and the out-of-fold
    predictions fill one preallocated vector.  Bit-identical to the
    per-fold-list reference in ``tests/oracles/evaluation.py``.
    """
    if len(dataset) == 0:
        return {}
    if rng is None:
        rng = np.random.default_rng()
    X, y = dataset.to_arrays()
    n_classes = np.unique(y).shape[0]
    if len(dataset) < n_folds or n_classes < 2:
        # Too few samples to cross-validate: train and predict in-sample
        # (the small-sensor-count regimes of the paper hit this too).
        fitted = re_module.clone_untrained().fit_arrays(X, y)
        return dict(enumerate(fitted.classify_many(X)))
    assignments = stratified_fold_assignments(y, n_folds, rng)
    predicted = np.empty(y.shape[0], dtype=object)
    for fold in range(n_folds):
        test_mask = assignments == fold
        train_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
        if np.unique(y[train_idx]).shape[0] < 2 or train_idx.size == 0:
            fallback = str(np.unique(y[train_idx])[0]) if train_idx.size else str(y[0])
            predicted[test_idx] = fallback
            continue
        fold_re = re_module.clone_untrained().fit_arrays(X[train_idx], y[train_idx])
        predicted[test_idx] = fold_re.classify_many(X[test_idx])
    return {i: str(label) for i, label in enumerate(predicted)}


def departure_outcomes(
    evaluation: MDEvaluation,
    dataset: SampleDataset,
    predictions: Dict[int, str],
    config: FadewichConfig,
) -> List[DeauthOutcome]:
    """Per-departure deauthentication outcomes (decision-tree cases A/B/C).

    Matches each departure event to its MD variation window (if any) and the
    out-of-fold RE prediction of the corresponding sample, then classifies
    the outcome with :func:`~repro.core.security.classify_outcome`.
    """
    # Index predictions by (day_index, window start time).
    prediction_by_key: Dict[Tuple[int, float], str] = {}
    for idx, label in predictions.items():
        sample = dataset.samples[idx]
        prediction_by_key[(sample.day_index, round(sample.time, 6))] = label

    outcomes: List[DeauthOutcome] = []
    for day in evaluation.days:
        matched: Dict[int, Tuple[VariationWindow, str]] = {}
        for window, true_window in day.match.true_positive_pairs:
            key = (day.day_index, round(window.t_start, 6))
            predicted = prediction_by_key.get(key)
            matched[id(true_window.event)] = (window, predicted)
        for event in day.events:
            if event.kind is not EventKind.DEPARTURE:
                continue
            if id(event) in matched:
                window, predicted = matched[id(event)]
                outcomes.append(
                    classify_outcome(event, window, predicted, config)
                )
            else:
                outcomes.append(classify_outcome(event, None, None, config))
    return outcomes
