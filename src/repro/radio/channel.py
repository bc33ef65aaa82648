"""Composite channel model: from body positions to RSSI samples.

Ties together the large-scale path loss, the per-link fade level, the
quiescent noise and the body-shadowing model.  Given the positions of all
people in the office at a sampling instant, :class:`RadioChannel` produces
one quantised RSSI sample (dBm) per directed stream — the quantity the
paper's sensors report.

Two sampling modes
------------------

* **Scalar** — :meth:`RadioChannel.sample_vector` / :meth:`RadioChannel.sample`
  produce one multi-stream sample per call, advancing the channel state one
  timestep.  This is the reference path used by
  ``CampaignCollector.collect_day_scalar`` and by the online examples.
* **Batch** — :meth:`RadioChannel.sample_block` computes a whole
  ``(n_steps, n_streams)`` chunk of samples in one vectorised pass.  It is
  the hot path of the batch campaign engine.

Seeding scheme
--------------

When constructed with ``seed_seq`` (a :class:`numpy.random.SeedSequence`),
the channel spawns one child generator per stochastic purpose — slow drift,
quiescent noise, outlier indicators, outlier magnitudes and shadowing
fluctuation.  Each purpose consumes a fixed number of draws per timestep
from its own stream, so drawing ``n`` values step by step (scalar mode) or
``(k, n)`` values at once (batch mode) yields *identical* numbers: the two
modes are bit-for-bit equivalent.  When constructed with a plain ``rng``
the channel keeps the historical single-stream draw order; that mode cannot
be batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .fading import QuiescentNoise
from .geometry import Point
from .links import LinkSet
from .pathloss import LogDistancePathLoss
from .shadowing import BodyShadowingModel

__all__ = ["ChannelConfig", "RadioChannel"]


@dataclass(frozen=True)
class ChannelConfig:
    """Configuration of the composite radio channel.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power of the sensor radios.
    pathloss:
        Large-scale path-loss model.
    noise:
        Quiescent (no-motion) noise model.
    shadowing:
        Human-body shadowing model.
    quantization_db:
        RSSI register resolution; real radios report integer dBm, i.e. 1.0.
        Set to 0 to disable quantisation.
    rssi_floor_dbm:
        Sensitivity floor below which measurements saturate.
    slow_drift_sigma_db:
        Standard deviation of a slow random-walk drift common to the whole
        environment (temperature, interference level changing over minutes).
    slow_drift_tau_s:
        Mean-reversion time constant of the drift (Ornstein-Uhlenbeck).
    """

    tx_power_dbm: float = 4.0
    pathloss: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    noise: QuiescentNoise = field(default_factory=QuiescentNoise)
    shadowing: BodyShadowingModel = field(default_factory=BodyShadowingModel)
    quantization_db: float = 1.0
    rssi_floor_dbm: float = -95.0
    slow_drift_sigma_db: float = 0.5
    slow_drift_tau_s: float = 120.0


class RadioChannel:
    """Stateful radio channel producing per-stream RSSI samples.

    The channel holds a small amount of state: the slow environmental drift
    (an Ornstein-Uhlenbeck process shared by all links, representing slowly
    varying interference and temperature effects) so that consecutive
    samples are realistically correlated over minutes.

    Parameters
    ----------
    links:
        The deployment's directed streams.
    config:
        Channel configuration.
    rng:
        Random generator for all stochastic components (legacy single-stream
        mode; ignored when ``seed_seq`` is given).
    sample_interval_s:
        Time between consecutive samples (used to scale the drift process).
    seed_seq:
        A :class:`numpy.random.SeedSequence` from which one child generator
        per stochastic purpose is spawned.  Required for
        :meth:`sample_block`; makes scalar and batch sampling bit-identical.
    """

    #: How many timesteps :meth:`sample_block` processes per vectorised
    #: chunk.  Bounds the working-set size (chunk x bodies x streams) while
    #: keeping per-chunk numpy overhead negligible.
    BLOCK_CHUNK_STEPS = 1024

    def __init__(
        self,
        links: LinkSet,
        config: Optional[ChannelConfig] = None,
        rng: Optional[np.random.Generator] = None,
        sample_interval_s: float = 0.25,
        seed_seq: Optional[np.random.SeedSequence] = None,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self._links = links
        self._config = config if config is not None else ChannelConfig()
        self._dt = sample_interval_s
        self._drift = 0.0
        if seed_seq is not None:
            (
                drift_ss,
                noise_ss,
                outlier_u_ss,
                outlier_n_ss,
                extra_ss,
            ) = seed_seq.spawn(5)
            self._drift_rng = np.random.default_rng(drift_ss)
            self._noise_rng = np.random.default_rng(noise_ss)
            self._outlier_u_rng = np.random.default_rng(outlier_u_ss)
            self._outlier_n_rng = np.random.default_rng(outlier_n_ss)
            self._extra_rng = np.random.default_rng(extra_ss)
            # No legacy generator in split mode: an accidental legacy draw
            # would silently desynchronise the per-purpose streams, so fail
            # fast instead.
            self._rng = None
            self._split = True
        else:
            self._rng = rng if rng is not None else np.random.default_rng()
            self._split = False
        # Pre-compute the static mean RSSI of every stream.
        self._mean_rssi: Dict[str, float] = {
            s.id: self._config.pathloss.mean_rssi_dbm(
                s.length, tx_power_dbm=self._config.tx_power_dbm
            )
            for s in links
        }
        # Vectorised per-stream arrays used by the fast sampling paths.
        self._stream_order = links.stream_ids
        self._tx_xy = np.asarray(
            [[s.tx_position.x, s.tx_position.y] for s in links], dtype=float
        )
        self._rx_xy = np.asarray(
            [[s.rx_position.x, s.rx_position.y] for s in links], dtype=float
        )
        self._link_len = np.linalg.norm(self._tx_xy - self._rx_xy, axis=1)
        self._sensitivity = np.asarray(
            [s.fade.sensitivity for s in links], dtype=float
        )
        self._mean_vec = np.asarray(
            [self._mean_rssi[sid] for sid in self._stream_order], dtype=float
        )

    # ------------------------------------------------------------------ #
    @property
    def links(self) -> LinkSet:
        return self._links

    @property
    def config(self) -> ChannelConfig:
        return self._config

    @property
    def stream_ids(self):
        """Stream ids in the channel's enumeration order."""
        return self._links.stream_ids

    def mean_rssi(self, sid: str) -> float:
        """The undisturbed mean RSSI of a stream (dBm)."""
        return self._mean_rssi[sid]

    # ------------------------------------------------------------------ #
    def _drift_theta(self) -> float:
        cfg = self._config
        return self._dt / max(cfg.slow_drift_tau_s, self._dt)

    def _advance_drift(self) -> float:
        cfg = self._config
        if cfg.slow_drift_sigma_db <= 0:
            return 0.0
        theta = self._drift_theta()
        if self._split:
            c = cfg.slow_drift_sigma_db * np.sqrt(theta)
            z = self._drift_rng.standard_normal()
            self._drift = c * z + (1.0 - theta) * self._drift
        else:
            self._drift += -theta * self._drift + self._rng.normal(
                0.0, cfg.slow_drift_sigma_db * np.sqrt(theta)
            )
        return self._drift

    def _drift_block(self, n_steps: int) -> np.ndarray:
        """The next ``n_steps`` values of the drift process (split mode).

        The AR(1) recurrence is evaluated with exactly the expression the
        scalar path uses (``c * z + (1 - theta) * drift``), so consecutive
        scalar calls and one block call produce bit-identical series.
        """
        cfg = self._config
        if cfg.slow_drift_sigma_db <= 0:
            return np.zeros(n_steps)
        theta = self._drift_theta()
        c = cfg.slow_drift_sigma_db * np.sqrt(theta)
        z = self._drift_rng.standard_normal(n_steps)
        out = np.empty(n_steps)
        drift = self._drift
        scale = 1.0 - theta
        for i in range(n_steps):
            drift = c * z[i] + scale * drift
            out[i] = drift
        self._drift = drift
        return out

    # ------------------------------------------------------------------ #
    def _shadowing_block(
        self,
        body_xy: np.ndarray,
        speeds: np.ndarray,
        mask: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-step, per-stream ``(attenuation_db, extra_sigma_db)``.

        Parameters
        ----------
        body_xy:
            ``(n_steps, n_bodies, 2)`` positions.  Rows masked out may hold
            any finite placeholder.
        speeds:
            ``(n_steps, n_bodies)`` instantaneous speeds (m/s).
        mask:
            ``(n_steps, n_bodies)`` presence mask; masked bodies contribute
            exactly zero, so a block over all persons equals a scalar call
            over only the present ones.

        Returns
        -------
        (attenuation, extra_sigma):
            Two ``(n_steps, n_streams)`` arrays, applying the same
            attenuation / static-sigma / motion-sigma profile as
            :class:`~repro.radio.shadowing.BodyShadowingModel`.
        """
        n_steps = body_xy.shape[0]
        n_streams = self._tx_xy.shape[0]
        if body_xy.shape[1] == 0 or not mask.any():
            zeros = np.zeros((n_steps, n_streams))
            return zeros, zeros.copy()
        sh = self._config.shadowing
        mask3 = mask[:, :, None]
        bx = body_xy[:, :, 0][:, :, None]  # (k, b, 1)
        by = body_xy[:, :, 1][:, :, None]
        txx, txy = self._tx_xy[:, 0], self._tx_xy[:, 1]  # (s,)
        rxx, rxy = self._rx_xy[:, 0], self._rx_xy[:, 1]
        # Distances body -> tx and body -> rx, shape (k, b, s).
        dxt, dyt = bx - txx, by - txy
        d_tx = np.sqrt(dxt * dxt + dyt * dyt)
        dxr, dyr = bx - rxx, by - rxy
        d_rx = np.sqrt(dxr * dxr + dyr * dyr)
        delta = np.maximum(d_tx + d_rx - self._link_len, 0.0)
        reach = sh.lambda_m * sh.sigma_reach_multiplier
        within = (delta <= reach) & mask3
        atten = np.where(
            within,
            sh.max_attenuation_db
            * np.exp(-sh.attenuation_decay * delta / sh.lambda_m),
            0.0,
        )
        sigma = np.where(
            within, sh.max_extra_sigma_db * np.exp(-delta / sh.lambda_m), 0.0
        )
        # Motion-induced fluctuation: distance from each body to each link
        # segment, speed-scaled exponential decay.
        vx, vy = rxx - txx, rxy - txy  # (s,)
        link_len_sq = np.maximum(self._link_len ** 2, 1e-12)
        t_par = np.clip((dxt * vx + dyt * vy) / link_len_sq, 0.0, 1.0)
        cx = txx + t_par * vx
        cy = txy + t_par * vy
        sdx, sdy = bx - cx, by - cy
        seg_dist = np.sqrt(sdx * sdx + sdy * sdy)
        speed_factor = np.minimum(
            speeds / sh.motion_reference_speed, 1.5
        )[:, :, None]
        motion_sigma = np.where(
            mask3,
            sh.motion_sigma_db
            * speed_factor
            * np.exp(-seg_dist / sh.motion_range_m),
            0.0,
        )
        total_atten = atten.sum(axis=1) * self._sensitivity
        total_sigma = (
            np.sqrt((sigma ** 2).sum(axis=1) + (motion_sigma ** 2).sum(axis=1))
            * self._sensitivity
        )
        return total_atten, total_sigma

    def _shadowing_vectors(self, bodies, speeds) -> np.ndarray:
        """Per-stream ``(attenuation_db, extra_sigma_db)`` for one instant.

        Thin single-step wrapper over :meth:`_shadowing_block`, so the
        scalar and batch paths share one implementation.
        """
        n = self._tx_xy.shape[0]
        if not bodies:
            return np.zeros((2, n))
        body_xy = np.asarray([[b.x, b.y] for b in bodies], dtype=float)
        sp = np.asarray(speeds, dtype=float)
        atten, sigma = self._shadowing_block(
            body_xy[None, :, :],
            sp[None, :],
            np.ones((1, body_xy.shape[0]), dtype=bool),
        )
        return np.vstack([atten[0], sigma[0]])

    # ------------------------------------------------------------------ #
    def sample_vector(
        self,
        body_positions: Iterable[Point],
        body_speeds: Optional[Iterable[float]] = None,
    ) -> np.ndarray:
        """One RSSI sample per stream as an array in stream-id order.

        Parameters
        ----------
        body_positions:
            Positions of every person inside the office.
        body_speeds:
            Their instantaneous speeds (m/s), in the same order.  Omitted
            speeds default to zero (static bodies).

        This is the per-step path used by ``collect_day_scalar`` and the
        online examples; :meth:`sample` wraps it into a dictionary and
        :meth:`sample_block` is its vectorised batch counterpart.
        """
        bodies = list(body_positions)
        if body_speeds is None:
            speeds = [0.0] * len(bodies)
        else:
            speeds = [float(s) for s in body_speeds]
        if len(speeds) != len(bodies):
            raise ValueError("body_speeds must match body_positions in length")
        cfg = self._config
        drift = self._advance_drift()
        n = self._mean_vec.shape[0]

        atten, extra_sigma = self._shadowing_vectors(bodies, speeds)
        if self._split:
            noise = self._noise_rng.standard_normal(n) * (
                cfg.noise.base_sigma_db * self._sensitivity
            )
            if cfg.noise.outlier_prob > 0:
                outliers = self._outlier_u_rng.random(n) < cfg.noise.outlier_prob
                noise = noise + outliers * (
                    self._outlier_n_rng.standard_normal(n)
                    * cfg.noise.outlier_scale_db
                )
            extra = np.where(
                extra_sigma > 0,
                self._extra_rng.standard_normal(n) * extra_sigma,
                0.0,
            )
        else:
            noise = self._rng.normal(
                0.0, cfg.noise.base_sigma_db * self._sensitivity
            )
            if cfg.noise.outlier_prob > 0:
                outliers = self._rng.random(n) < cfg.noise.outlier_prob
                noise = noise + outliers * self._rng.normal(
                    0.0, cfg.noise.outlier_scale_db, n
                )
            extra = np.where(
                extra_sigma > 0, self._rng.normal(0.0, 1.0, n) * extra_sigma, 0.0
            )
        rssi = self._mean_vec - atten + noise + extra + drift
        rssi = np.maximum(rssi, cfg.rssi_floor_dbm)
        if cfg.quantization_db > 0:
            rssi = np.round(rssi / cfg.quantization_db) * cfg.quantization_db
        return rssi

    def sample_block(
        self,
        positions: np.ndarray,
        speeds: Optional[np.ndarray] = None,
        presence: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """A whole chunk of RSSI samples in one vectorised pass.

        Parameters
        ----------
        positions:
            ``(n_steps, n_bodies, 2)`` body positions (``(n_steps, 2)`` is
            accepted for a single body).  Rows of absent bodies may hold any
            finite placeholder — they are masked by ``presence``.
        speeds:
            ``(n_steps, n_bodies)`` speeds (m/s); zero when omitted.
        presence:
            ``(n_steps, n_bodies)`` boolean mask; all-present when omitted.

        Returns
        -------
        ndarray of shape ``(n_steps, n_streams)``
            One quantised RSSI sample per step and stream, advancing the
            drift state across the block.  Requires a channel built with
            ``seed_seq``; the result is bit-identical to ``n_steps``
            successive :meth:`sample_vector` calls with the present bodies.
        """
        if not self._split:
            raise RuntimeError(
                "sample_block requires a channel constructed with seed_seq= "
                "(per-purpose random streams); the legacy single-rng draw "
                "order cannot be batched"
            )
        pos = np.asarray(positions, dtype=float)
        if pos.ndim == 2:
            pos = pos[:, None, :]
        if pos.ndim != 3 or pos.shape[-1] != 2:
            raise ValueError("positions must have shape (n_steps, n_bodies, 2)")
        n_steps, n_bodies = pos.shape[0], pos.shape[1]
        if speeds is None:
            sp = np.zeros((n_steps, n_bodies))
        else:
            sp = np.asarray(speeds, dtype=float)
            if sp.ndim == 1:
                sp = sp[:, None]
            if sp.shape != (n_steps, n_bodies):
                raise ValueError("speeds must have shape (n_steps, n_bodies)")
        if presence is None:
            mask = np.ones((n_steps, n_bodies), dtype=bool)
        else:
            mask = np.asarray(presence, dtype=bool)
            if mask.ndim == 1:
                mask = mask[:, None]
            if mask.shape != (n_steps, n_bodies):
                raise ValueError("presence must have shape (n_steps, n_bodies)")

        cfg = self._config
        n = self._mean_vec.shape[0]
        out = np.empty((n_steps, n))
        base_sigma = cfg.noise.base_sigma_db * self._sensitivity

        # Shadowing geometry is a pure function of (positions, speeds,
        # presence); most of a working day is motionless (seated spans are
        # piecewise-constant between fidget resamples), so evaluate it only
        # at change points and fan the rows back out.  Identical inputs
        # yield identical outputs, keeping the scalar equivalence exact.
        if n_steps > 1 and n_bodies > 0:
            unchanged = (
                np.all(pos[1:] == pos[:-1], axis=(1, 2))
                & np.all(sp[1:] == sp[:-1], axis=1)
                & np.all(mask[1:] == mask[:-1], axis=1)
            )
            run_starts = np.concatenate(
                [[0], np.flatnonzero(~unchanged) + 1]
            )
        else:
            run_starts = np.array([0]) if n_steps else np.empty(0, dtype=int)
        n_unique = run_starts.shape[0]
        atten_u = np.empty((n_unique, n))
        sigma_u = np.empty((n_unique, n))
        for ustart in range(0, n_unique, self.BLOCK_CHUNK_STEPS):
            ustop = min(ustart + self.BLOCK_CHUNK_STEPS, n_unique)
            idx = run_starts[ustart:ustop]
            atten_u[ustart:ustop], sigma_u[ustart:ustop] = self._shadowing_block(
                pos[idx], sp[idx], mask[idx]
            )
        run_lens = np.diff(np.concatenate([run_starts, [n_steps]]))
        step_to_unique = np.repeat(np.arange(n_unique), run_lens)

        for start in range(0, n_steps, self.BLOCK_CHUNK_STEPS):
            stop = min(start + self.BLOCK_CHUNK_STEPS, n_steps)
            k = stop - start
            atten = atten_u[step_to_unique[start:stop]]
            extra_sigma = sigma_u[step_to_unique[start:stop]]
            drift = self._drift_block(k)
            noise = self._noise_rng.standard_normal((k, n)) * base_sigma
            if cfg.noise.outlier_prob > 0:
                outliers = (
                    self._outlier_u_rng.random((k, n)) < cfg.noise.outlier_prob
                )
                noise = noise + outliers * (
                    self._outlier_n_rng.standard_normal((k, n))
                    * cfg.noise.outlier_scale_db
                )
            extra = np.where(
                extra_sigma > 0,
                self._extra_rng.standard_normal((k, n)) * extra_sigma,
                0.0,
            )
            rssi = self._mean_vec - atten + noise + extra + drift[:, None]
            rssi = np.maximum(rssi, cfg.rssi_floor_dbm)
            if cfg.quantization_db > 0:
                rssi = np.round(rssi / cfg.quantization_db) * cfg.quantization_db
            out[start:stop] = rssi
        return out

    def sample(
        self,
        body_positions: Iterable[Point],
        body_speeds: Optional[Iterable[float]] = None,
    ) -> Dict[str, float]:
        """One RSSI sample per stream, given current body positions.

        Parameters
        ----------
        body_positions:
            Positions of every person currently inside the office.  People
            sitting at their desks count too — they are simply far from most
            links' sensitive ellipses and mostly contribute nothing.
        body_speeds:
            Their instantaneous speeds (m/s); zero (static) when omitted.

        Returns
        -------
        dict
            Mapping stream id -> RSSI sample in dBm.
        """
        values = self.sample_vector(body_positions, body_speeds)
        return {
            sid: float(values[i]) for i, sid in enumerate(self._stream_order)
        }

    def reset(self) -> None:
        """Reset the slow drift state (e.g. between independent campaigns)."""
        self._drift = 0.0
