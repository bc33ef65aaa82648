"""Human-body shadowing model.

The physical effect FADEWICH exploits: a human body near the line of sight
of a transmitter-receiver pair attenuates and perturbs the received signal.
Device-free localisation models this with the *excess path length* of the
body relative to the link: the body affects the link when the path
transmitter -> body -> receiver is at most ``lambda`` metres longer than the
direct path — i.e. when the body is inside a thin ellipse whose foci are
the two sensors.

The model produces, for one link and one set of body positions:

* a deterministic mean attenuation (dB), strongest when the body is exactly
  on the line of sight and decaying with excess path length, and
* an extra fluctuation standard deviation (dB), because a body *near* the
  link also scatters multipath components and makes the RSSI noisier even
  when the mean barely changes.

Both effects scale with the link's fade-level sensitivity.

:class:`BodyShadowingModel` holds the parameters only.  The model has one
implementation, :meth:`repro.radio.channel.RadioChannel._shadowing_block`,
which evaluates it for every step, body and stream at once; the scalar and
batch sampling paths both run it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BodyShadowingModel"]


@dataclass(frozen=True)
class BodyShadowingModel:
    """Excess-path-length ellipse model of body-induced shadowing.

    Parameters
    ----------
    lambda_m:
        Ellipse width parameter (metres of excess path length).  Bodies with
        excess path length below ``lambda_m`` count as obstructing the link.
    max_attenuation_db:
        Mean attenuation when the body sits exactly on the line of sight.
    attenuation_decay:
        Exponential decay rate of the attenuation with excess path length,
        normalised by ``lambda_m``.
    max_extra_sigma_db:
        Extra fluctuation (std-dev, dB) injected when the body is on the
        line of sight.  Kept deliberately small: the dominant fluctuation
        signature of a *moving* body is the change of the mean attenuation
        as it crosses link ellipses, not extra per-sample noise — a person
        sitting still barely increases the short-window variance, which is
        what lets MD's normal profile stay valid while users are seated.
    sigma_reach_multiplier:
        Bodies up to ``sigma_reach_multiplier * lambda_m`` of excess path
        length still inject some extra fluctuation (scattering reaches
        further than the mean obstruction).
    motion_sigma_db:
        Peak extra fluctuation (std-dev, dB) injected on a link by a body
        *moving* right on top of it.  A moving scatterer perturbs the
        multipath structure of most links in a small room — this is the
        dominant detection signal of device-free systems (and of FADEWICH's
        MD module) — whereas a static body leaves the fluctuation level
        almost unchanged.
    motion_range_m:
        Exponential decay length (metres, measured from the body to the
        link segment) of the motion-induced fluctuation.
    motion_reference_speed:
        Body speed (m/s) at which the motion effect saturates; walking at
        1.4 m/s is full strength, a slow shuffle contributes
        proportionally less.
    """

    lambda_m: float = 0.35
    max_attenuation_db: float = 8.0
    attenuation_decay: float = 3.0
    max_extra_sigma_db: float = 0.8
    sigma_reach_multiplier: float = 3.0
    motion_sigma_db: float = 3.5
    motion_range_m: float = 1.2
    motion_reference_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_m <= 0:
            raise ValueError("lambda_m must be positive")
        if self.max_attenuation_db < 0 or self.max_extra_sigma_db < 0:
            raise ValueError("attenuation and sigma must be non-negative")
        if self.sigma_reach_multiplier < 1.0:
            raise ValueError("sigma_reach_multiplier must be >= 1")
        if self.motion_sigma_db < 0:
            raise ValueError("motion_sigma_db must be non-negative")
        if self.motion_range_m <= 0 or self.motion_reference_speed <= 0:
            raise ValueError("motion range and reference speed must be positive")
