"""The paper's KDE normal-profile detector (Algorithm 1, §IV-C), as a zoo member.

:class:`OnlineProfile` is Algorithm 1's normal profile and the detector's
only engine: a Gaussian KDE over the first ``init_samples`` values, the
anomaly threshold at its ``(100 - alpha)``-th percentile, and the batch
update — accepted when fewer than ``tau`` of a batch's ``b`` values are
anomalous — that drops the window's oldest ``b`` values and appends the
batch (:meth:`~repro.ml.kde.GaussianKDE.updated`).  It advances any number
of independent chains in lockstep: the streaming service runs one chain
per tenant, :meth:`KdeMdDetector.offline_grid` one chain per ``s_t``
column over whole columns.  Row-wise Scott bandwidths and the
warm-started :func:`~repro.ml.kde.mixture_quantiles` solve are
independent per row, so every chain matches
:class:`~repro.core.movement.NormalProfile`, the per-observation
reference, bit for bit whatever the chain count or batch split.

All tunables live on the scenario's :class:`~repro.core.config.MDConfig`;
the detector itself carries no fields, which is what pins the goldens:
there is no second copy of the configuration to drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

import numpy as np

from ..ml.kde import GaussianKDE, mixture_quantiles, scott_bandwidths
from .base import DetectionGrid, check_fields, column_grid, register_detector

__all__ = ["KdeMdDetector", "OnlineProfile"]


class OnlineProfile:
    """Algorithm 1's KDE normal profile over one or more lockstep chains.

    :meth:`extend` takes a 1-D block of one chain's ``s_t`` values, or an
    ``(m, chains)`` block advancing every column as its own chain; the
    first block fixes the chain count.  State: the init values, the
    ``(chains, window)`` KDE data matrix with its bandwidths and
    thresholds, and the partial batch.  An accepted update grows a window
    of ``init_samples`` to ``batch_size`` values when ``batch_size >
    init_samples``, at times that differ per chain, so that case takes a
    single chain.  ``threshold``, ``kde`` and the snapshots describe a
    single chain.
    """

    def __init__(self, config, init_samples: int) -> None:
        if init_samples < 2:
            raise ValueError("init_samples must be >= 2")
        self._config = config
        self._init_samples = int(init_samples)
        self._init = np.empty((0, 1))  # (k, chains) initialisation values
        self._pending = np.empty((0, 1))  # (p, chains) partial batch
        self._data: Optional[np.ndarray] = None  # (chains, window) KDE data
        self._h: Optional[np.ndarray] = None  # (chains,) bandwidths
        self._th: Optional[np.ndarray] = None  # (chains,) thresholds

    # ------------------------------------------------------------------ #
    @property
    def is_ready(self) -> bool:
        """Whether the initial profile has been built."""
        return self._th is not None

    @property
    def threshold(self) -> Optional[float]:
        """Current anomaly threshold (``None`` until ready)."""
        return None if self._th is None else float(self._th[0])

    @property
    def kde(self) -> Optional[GaussianKDE]:
        if self._th is None:
            return None
        return GaussianKDE(self._data[0].copy(), bandwidth=float(self._h[0]))

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of a single-chain profile.

        The KDE is captured as its data window plus the resolved float
        bandwidth, so a restore sidesteps any re-derivation.
        """
        if self._init.shape[1] != 1:
            raise ValueError("only a single-chain profile has a snapshot")
        kde = None
        if self._th is not None:
            kde = {"data": self._data[0].tolist(), "bandwidth": float(self._h[0])}
        return {
            "init_buffer": self._init[:, 0].tolist(),
            "kde": kde,
            "threshold": self.threshold,
            "pending": self._pending[:, 0].tolist(),
            "pending_count": self._pending.shape[0],
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite the state from a single-chain :meth:`snapshot` dict.

        Fields that disagree would silently change every later threshold,
        so each rule raises a ``ValueError`` naming its field.
        """
        n0, b = self._init_samples, self._config.batch_size
        init = np.asarray(state["init_buffer"], dtype=float).reshape(-1, 1)
        pending = np.asarray(state["pending"], dtype=float).reshape(-1, 1)
        kde, threshold = state["kde"], state["threshold"]
        ready = kde is not None
        windows = (n0, b) if b > n0 else (n0,)
        rules = (
            (
                "pending_count",
                state["pending_count"] == len(pending) < b,
                f"must equal the {len(pending)} pending values and be "
                f"below batch_size {b}",
            ),
            (
                "threshold",
                (threshold is not None) == ready,
                "must be set exactly when kde is",
            ),
            (
                "init_buffer",
                len(init) == n0 if ready else len(init) < n0,
                f"holds {len(init)} values: init_samples {n0} exactly when "
                "kde is set, fewer otherwise",
            ),
            ("pending", ready or not len(pending), "must be empty before kde"),
            (
                "kde",
                not ready or len(kde["data"]) in windows,
                f"data must hold one of {windows} values",
            ),
        )
        check_fields(rules)
        self._init, self._pending = init, pending
        if ready:
            self._data = np.asarray(kde["data"], dtype=float).reshape(1, -1)
            self._h = np.array([float(kde["bandwidth"])])
            self._th = np.array([float(threshold)])
        else:
            self._data = self._h = self._th = None

    # ------------------------------------------------------------------ #
    def extend(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Consume ``s_t`` values; return ``(decisions, thresholds)``.

        Both have the block's shape.  ``decisions`` is int8: ``-1`` while
        the profile is initialising (the scalar path's ``None``), ``0``
        normal, ``1`` anomalous.  ``thresholds`` is the threshold in force
        *after* each observation (NaN while initialising) — the
        :attr:`~repro.core.movement.OfflineMDResult.threshold_trace`.
        """
        values = np.asarray(values, dtype=float)
        block = values if values.ndim == 2 else values.reshape(-1, 1)
        cfg = self._config
        if not self._init.shape[0]:  # nothing consumed: fix the chain count
            if block.shape[1] > 1 and cfg.batch_size > self._init_samples:
                raise ValueError("lockstep chains need batch_size <= init_samples")
            self._init = self._pending = block[:0]
        n = block.shape[0]
        decisions = np.full(block.shape, -1, dtype=np.int8)
        thresholds = np.full(block.shape, np.nan)
        pos = 0
        if self._th is None:
            pos = min(self._init_samples - self._init.shape[0], n)
            self._init = np.concatenate((self._init, block[:pos]))
            if self._init.shape[0] == self._init_samples:
                self._data = self._init.T.copy()
                self._h = scott_bandwidths(self._data)
                self._th = mixture_quantiles(
                    self._data, self._h, 100.0 - cfg.alpha
                )
                thresholds[pos - 1] = self._th

        b = cfg.batch_size
        while pos < n:
            seg = block[pos : pos + b - self._pending.shape[0]]
            end = pos + seg.shape[0]
            decisions[pos:end] = seg >= self._th
            thresholds[pos:end] = self._th
            self._pending = np.concatenate((self._pending, seg))
            pos = end
            if self._pending.shape[0] == b:
                anomalous = np.count_nonzero(self._pending >= self._th, axis=0)
                accept = np.flatnonzero(anomalous / b < cfg.tau)
                if accept.size:
                    self._update(accept)
                    # The scalar path re-solves while observing the batch's
                    # last value, so the trace shows the new threshold there.
                    thresholds[end - 1] = self._th
                self._pending = self._pending[:0]
        if values.ndim != 2:
            return decisions[:, 0], thresholds[:, 0]
        return decisions, thresholds

    def _update(self, rows: np.ndarray) -> None:
        """Accept the full partial batch into the KDE windows of ``rows``."""
        b = self._pending.shape[0]
        keep = self._data.shape[1] - b
        if keep < 0:  # a single chain whose init window is shorter than b
            self._data = self._pending.T.copy()
        else:
            self._data[rows, :keep] = self._data[rows, b:]
            self._data[rows, keep:] = self._pending[:, rows].T
        window = self._data[rows]
        self._h[rows] = h = scott_bandwidths(window)
        # Warm-start from the previous thresholds, like NormalProfile.
        self._th[rows] = mixture_quantiles(
            window, h, 100.0 - self._config.alpha, x0=self._th[rows]
        )


@register_detector
@dataclass(frozen=True)
class KdeMdDetector:
    """KDE normal profile + Newton-quantile threshold (paper Section IV)."""

    name: ClassVar[str] = "kde_md"

    def offline_grid(self, std_sums, config, init_samples) -> DetectionGrid:
        if config.batch_size > init_samples:
            return column_grid(self, std_sums, config, init_samples)
        profile = OnlineProfile(config, init_samples)
        return DetectionGrid(*profile.extend(np.asarray(std_sums, dtype=float)))

    def streaming_engine(self, config, init_samples) -> OnlineProfile:
        return OnlineProfile(config, init_samples)
