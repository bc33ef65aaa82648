"""Zone-occupancy estimation from per-link attenuation.

One engine, :class:`ZoneEngine`, runs the whole pipeline with bounded
state, and every path runs it: :meth:`ZoneOccupancyEstimator.day_grid`
feeds it a recorded day's RSSI in fixed blocks, and
:class:`~repro.streaming.detector.OnlineDetector` (so the router) every
batch it consumes.  The concatenated outputs over *any* batch split of a
day — partial smoothing head included — are bitwise identical.

The inference pipeline (the paper's "future work" localisation sketched
by the senseye exemplars, adapted to a room with *seated* occupants
whose bodies shadow desk-adjacent links permanently):

1. read each link's attenuation as its baseline
   (:class:`~repro.zones.attenuation.AttenuationExtractor`) minus the
   observed RSSI, and smooth it with a short rolling mean;
2. calibrate each link's quiescent level as the median of its first
   ``calibration_samples`` smoothed values, and rectify the excess
   (``max(smoothed - calib, 0)``) so a departing occupant's *removed*
   seat shadow cannot drag zone scores negative;
3. average the rectified excess of the links crossing each zone,
   weighting every link by ``1 / (number of zones it crosses)`` — a
   wall-to-wall link that crosses the whole office says little about
   *where* the body is, a short link crossing one zone says a lot;
4. declare the argmax zone occupied when its score clears
   ``threshold_db``.  Equal scores resolve to the lowest zone index —
   the same tie-break :meth:`~repro.zones.map.ZoneMap.zone_of` applies
   to boundary points.

Like the detector engines, nothing is declared during the calibration
window: scores are NaN and occupancy is ``-1`` for the first
``calibration_samples`` instants.

The engine smooths every link of a batch in one ``np.mean`` call over the
``(L, w - 1)`` rows of a :class:`repro.sliding.Carry` of attenuation
samples (:func:`repro.sliding.sliding`), which is what makes any batch
split give the same bits.  It keeps the rest of its state as ``(L, ·)``
arrays too, one row per link: the calibration buffer and the frozen
medians.  The calibration median is an order statistic, so it is
value-deterministic whatever the split.  Zone scores add each zone's link
rows in the zone's declared stream order with identical weights; a zone
that no present link crosses scores 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..radio.geometry import Point
from ..radio.office import OfficeLayout
from ..sliding import Carry, sliding, sum_rows
from .attenuation import AttenuationExtractor
from .map import ZoneMap

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..features.store import FeatureStore
    from ..simulation.collector import DayRecording

__all__ = [
    "ZoneGrid",
    "ZoneAccuracy",
    "ZoneOccupancyEstimator",
    "ZoneEngine",
    "score_walks",
]

# RSSI rows per ``ZoneEngine.extend`` call in ``day_grid``.  One call over
# a whole day holds all its temporaries at once (a 320 MiB tracemalloc peak
# on a 115,200 x 72 day); 1,024-row blocks peak near 6 MiB, and ran no
# slower on a 2-vCPU host.
_DAY_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ZoneGrid:
    """Per-instant zone scores and the occupancy decision.

    ``scores`` is ``(n, n_zones)`` calibrated excess attenuation (dB)
    per zone, NaN inside the calibration window where it is undefined;
    ``occupied`` is int64 with the winning zone index, ``-1`` where no
    zone clears the threshold (including the calibration window).
    """

    scores: np.ndarray
    occupied: np.ndarray

    def __post_init__(self) -> None:
        if self.scores.shape[:1] != self.occupied.shape:
            raise ValueError(
                "scores and occupied must agree on the instant count, got "
                f"{self.scores.shape} vs {self.occupied.shape}"
            )

    @property
    def n_samples(self) -> int:
        return int(self.occupied.shape[0])


@dataclass(frozen=True)
class ZoneAccuracy:
    """Zone-occupancy score against ground-truth walker positions.

    Counts accumulate over the *scoreable* instants: timestamps covered
    by exactly one active trajectory (multi-walker instants are ambiguous
    for a single-occupant estimator and are excluded).
    """

    n_instants: int = 0
    n_predicted: int = 0
    n_correct: int = 0

    def __add__(self, other: "ZoneAccuracy") -> "ZoneAccuracy":
        return ZoneAccuracy(
            n_instants=self.n_instants + other.n_instants,
            n_predicted=self.n_predicted + other.n_predicted,
            n_correct=self.n_correct + other.n_correct,
        )

    @property
    def accuracy(self) -> float:
        """Fraction of occupancy predictions naming the true zone."""
        return self.n_correct / self.n_predicted if self.n_predicted else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of scoreable instants with an occupancy prediction."""
        return self.n_predicted / self.n_instants if self.n_instants else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "n_instants": int(self.n_instants),
            "n_predicted": int(self.n_predicted),
            "n_correct": int(self.n_correct),
            "accuracy": float(self.accuracy),
            "coverage": float(self.coverage),
        }


class _Links:
    """The crossing links a stream subset scores zones with.

    ``needed`` lists every present crossing link once, in first-crossing
    order: the row order of the excess block.  ``weights`` holds each
    link's ``1 / zones crossed`` (a wall-to-wall link says little about
    *where*).  Per zone, ``rows`` indexes its present links in the zone's
    declared stream order and ``denoms`` adds their weights left to right.
    """

    def __init__(self, zone_map: ZoneMap, available: Sequence[str]) -> None:
        present = set(available)
        crossed: Dict[str, int] = {}
        for zone in zone_map.zones:
            for sid in zone.stream_ids:
                crossed[sid] = crossed.get(sid, 0) + 1
        row_of: Dict[str, int] = {}
        self.rows: List[np.ndarray] = []
        self.denoms: List[float] = []
        for zone in zone_map.zones:
            sids = [sid for sid in zone.stream_ids if sid in present]
            denom = 0.0
            for sid in sids:
                row_of.setdefault(sid, len(row_of))
                denom += 1.0 / crossed[sid]
            self.rows.append(np.array([row_of[sid] for sid in sids], dtype=np.intp))
            self.denoms.append(denom)
        self.needed = list(row_of)
        self.weights = np.array([1.0 / crossed[sid] for sid in self.needed])


def _score_matrix(excess: np.ndarray, links: _Links) -> np.ndarray:
    """``(m, n_zones)`` weighted-mean zone scores from ``(L, m)`` link excess,
    which it weights in place (a weighted copy costs more than the
    scoring).  Each zone adds its weighted rows in zone stream order, left
    to right.  A zone that no present link crosses scores 0.0.
    """
    excess *= links.weights[:, None]
    scores = np.zeros((excess.shape[1], len(links.rows)))
    for z, (rows, denom) in enumerate(zip(links.rows, links.denoms)):
        if rows.size:
            scores[:, z] = sum_rows(excess, rows) / denom
    return scores


def _decide(scores: np.ndarray, threshold_db: float) -> np.ndarray:
    """Occupancy decisions for calibrated score rows (int64, -1 = none)."""
    best = np.argmax(scores, axis=1)
    top = scores[np.arange(scores.shape[0]), best]
    return np.where(top > threshold_db, best, -1).astype(np.int64)


@dataclass(frozen=True)
class ZoneOccupancyEstimator:
    """Which zone is occupied, inferred from crossing-link attenuation.

    Parameters
    ----------
    zone_map:
        The zones and their crossing links
        (:meth:`~repro.zones.map.ZoneMap.from_layout`).
    attenuation:
        Baseline model turning raw RSSI into per-link attenuation.
    smoothing_samples:
        Rolling-mean window (samples) applied per link before zoning.
    calibration_samples:
        Leading smoothed samples whose per-link median defines the
        quiescent level; no occupancy is declared inside this window.
    threshold_db:
        Minimum weighted zone excess to declare occupancy.
    """

    zone_map: ZoneMap
    attenuation: AttenuationExtractor = field(
        default_factory=AttenuationExtractor
    )
    smoothing_samples: int = 4
    calibration_samples: int = 120
    threshold_db: float = 0.25

    def __post_init__(self) -> None:
        if self.smoothing_samples < 1:
            raise ValueError("smoothing_samples must be at least 1")
        if self.calibration_samples < 1:
            raise ValueError("calibration_samples must be at least 1")

    def day_grid(
        self,
        day: "DayRecording",
        layout: OfficeLayout,
        store: Optional["FeatureStore"] = None,
    ) -> Tuple[np.ndarray, ZoneGrid]:
        """``(times, grid)`` for one recorded day: the day's RSSI through a
        fresh :meth:`streaming_engine`, block by block.

        ``store`` is accepted and not read: zones cache no features, and
        perfbench's traced copy of the sweep (``perfbench/sweeps.py``)
        still passes one.
        """
        trace = day.trace
        ids = trace.stream_ids
        engine = self.streaming_engine(ids, layout)
        n = trace.n_samples
        scores = np.empty((n, self.zone_map.n_zones))
        occupied = np.empty(n, dtype=np.int64)
        for a in range(0, n, _DAY_BLOCK_ROWS):
            rows = slice(a, a + _DAY_BLOCK_ROWS)
            grid = engine.extend(
                np.column_stack([trace.streams[sid][rows] for sid in ids])
            )
            scores[rows] = grid.scores
            occupied[rows] = grid.occupied
        return trace.times, ZoneGrid(scores=scores, occupied=occupied)

    def streaming_engine(
        self, stream_ids: Sequence[str], layout: OfficeLayout
    ) -> "ZoneEngine":
        """A fresh engine for the given stream order (RSSI batch columns)."""
        needed = _Links(self.zone_map, stream_ids).needed
        expected = self.attenuation.baseline(layout, needed)
        baselines = {sid: float(expected[j]) for j, sid in enumerate(needed)}
        return ZoneEngine(
            zone_map=self.zone_map,
            stream_ids=stream_ids,
            baselines=baselines,
            smoothing_samples=self.smoothing_samples,
            calibration_samples=self.calibration_samples,
            threshold_db=self.threshold_db,
        )


class ZoneEngine:
    """The zone-occupancy engine: RSSI batches in, per-instant grids out.

    Bounded state, one row per needed link: a
    :class:`~repro.sliding.Carry` of the last ``smoothing_samples - 1``
    attenuation values, up to ``calibration_samples`` smoothed values
    while calibrating, and the calibration medians once frozen.  Hosted
    per-tenant by :class:`~repro.streaming.detector.OnlineDetector`, and
    over a whole recorded day by :meth:`ZoneOccupancyEstimator.day_grid`.
    """

    def __init__(
        self,
        zone_map: ZoneMap,
        stream_ids: Sequence[str],
        baselines: Mapping[str, float],
        smoothing_samples: int,
        calibration_samples: int,
        threshold_db: float,
    ) -> None:
        if smoothing_samples < 1:
            raise ValueError("smoothing_samples must be at least 1")
        if calibration_samples < 1:
            raise ValueError("calibration_samples must be at least 1")
        self.zone_map = zone_map
        self.stream_ids = list(stream_ids)
        self.smoothing_samples = int(smoothing_samples)
        self.calibration_samples = int(calibration_samples)
        self.threshold_db = float(threshold_db)
        self._links = _Links(zone_map, self.stream_ids)
        needed = self._links.needed
        missing = [sid for sid in needed if sid not in baselines]
        if missing:
            raise ValueError(f"missing baselines for streams {missing!r}")
        self._baseline_row = np.array([float(baselines[sid]) for sid in needed])
        self._cols = np.array([self.stream_ids.index(s) for s in needed], dtype=np.intp)
        self._carry = Carry(self.smoothing_samples - 1, needed)
        self._calib_buf = np.empty((len(needed), 0))
        self._calib: Optional[np.ndarray] = None

    def extend(self, matrix: np.ndarray) -> ZoneGrid:
        """Consume an ``(m, n_streams)`` RSSI batch, return its grid."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.stream_ids):
            raise ValueError(
                f"expected a (m, {len(self.stream_ids)}) matrix, "
                f"got shape {matrix.shape}"
            )
        m = matrix.shape[0]
        k = self.calibration_samples
        ext, c0 = self._carry.push(self._baseline_row - matrix[:, self._cols])
        smoothed = sliding(ext, self.smoothing_samples, np.mean, new=m, seen=c0)
        if self._calib is None:
            take = min(m, k - c0)
            if take > 0:
                self._calib_buf = np.concatenate(
                    (self._calib_buf, smoothed[:, :take]), axis=1
                )
            if c0 + m >= k:
                # The calibration median is an order statistic of each
                # link's first k smoothed values — value-deterministic,
                # so this buffered copy gives the same bits under any
                # batch split.
                self._calib = np.median(self._calib_buf, axis=1)
                self._calib_buf = np.empty((self._calib.size, 0))
        scores = np.full((m, self.zone_map.n_zones), np.nan)
        occupied = np.full(m, -1, dtype=np.int64)
        j0 = max(0, k - c0)
        if self._calib is not None and j0 < m:
            excess = np.maximum(smoothed[:, j0:] - self._calib[:, None], 0.0)
            scores[j0:] = _score_matrix(excess, self._links)
            occupied[j0:] = _decide(scores[j0:], self.threshold_db)
        return ZoneGrid(scores=scores, occupied=occupied)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Plain-JSON state: config, baselines, tails and calibration."""
        carry = self._carry.snapshot()
        needed = self._links.needed
        return {
            "count": carry["count"],
            "stream_ids": list(self.stream_ids),
            "smoothing_samples": int(self.smoothing_samples),
            "calibration_samples": int(self.calibration_samples),
            "threshold_db": float(self.threshold_db),
            "zones": self.zone_map.to_jsonable(),
            "baselines": dict(zip(needed, self._baseline_row.tolist())),
            "tails": dict(zip(needed, carry["tails"])),
            "calib_buf": dict(zip(needed, self._calib_buf.tolist())),
            "calib": (
                None if self._calib is None
                else dict(zip(needed, self._calib.tolist()))
            ),
        }

    @classmethod
    def from_snapshot(cls, state: Mapping[str, object]) -> "ZoneEngine":
        """Rebuild an engine from :meth:`snapshot`, rejecting inconsistent state.

        The tails, calibration buffers and (once frozen) calibration
        medians must cover exactly the needed streams, and each buffer must
        hold every smoothed value seen while calibrating; anything else
        raises a ``ValueError`` naming the stream.
        """
        engine = cls(
            zone_map=ZoneMap.from_jsonable(state["zones"]),
            stream_ids=list(state["stream_ids"]),
            baselines=dict(state["baselines"]),
            smoothing_samples=int(state["smoothing_samples"]),
            calibration_samples=int(state["calibration_samples"]),
            threshold_db=float(state["threshold_db"]),
        )
        needed = engine._links.needed
        calib = state.get("calib")
        for key in ("tails", "calib_buf") + (() if calib is None else ("calib",)):
            got, want = set(state[key]), set(needed)
            if got != want:
                raise ValueError(
                    f"snapshot {key} do not match the needed streams: missing "
                    f"{sorted(want - got)}, unexpected {sorted(got - want)}"
                )
        count = int(state["count"])
        tails = state["tails"]
        engine._carry.restore({"count": count, "tails": [tails[sid] for sid in needed]})
        buffered = 0 if calib is not None else min(count, engine.calibration_samples)
        bufs = []
        for sid in needed:
            buf = np.asarray(state["calib_buf"][sid], dtype=float)
            if buf.shape != (buffered,):
                raise ValueError(
                    f"snapshot calib_buf of stream {sid!r} holds {buf.size} "
                    f"values, expected {buffered}"
                )
            bufs.append(buf)
        engine._calib_buf = np.array(bufs).reshape(len(needed), buffered)
        engine._calib = (
            None if calib is None else np.array([float(calib[s]) for s in needed])
        )
        return engine


def score_walks(
    zone_map: ZoneMap,
    times: np.ndarray,
    occupied: np.ndarray,
    trajectories: Sequence[object],
) -> ZoneAccuracy:
    """Score zone occupancy against ground-truth walker trajectories.

    ``trajectories`` are :class:`~repro.mobility.trajectory.Trajectory`
    objects (any walker, any day); instants covered by exactly one active
    trajectory are scored against
    :meth:`~repro.mobility.trajectory.Trajectory.positions_at`.
    """
    times = np.asarray(times, dtype=float)
    occupied = np.asarray(occupied)
    n = times.shape[0]
    if occupied.shape[0] != n:
        raise ValueError("times and occupied must have equal length")
    active = np.zeros(n, dtype=np.int64)
    masks = []
    for traj in trajectories:
        mask = (times >= traj.start_time) & (times <= traj.end_time)
        masks.append(mask)
        active += mask
    total = ZoneAccuracy()
    for traj, mask in zip(trajectories, masks):
        idx = np.flatnonzero(mask & (active == 1))
        if idx.size == 0:
            continue
        pos = traj.positions_at(times[idx])
        truth = np.fromiter(
            (zone_map.zone_of(Point(float(x), float(y))) for x, y in pos),
            dtype=np.int64,
            count=idx.size,
        )
        pred = occupied[idx]
        has_pred = pred >= 0
        total = total + ZoneAccuracy(
            n_instants=int(idx.size),
            n_predicted=int(has_pred.sum()),
            n_correct=int((has_pred & (pred == truth)).sum()),
        )
    return total
