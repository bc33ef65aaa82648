"""Radio propagation substrate: the simulated office testbed.

The paper's evaluation runs on nine physical wireless sensors in a 6 m x 3 m
office.  This package replaces that hardware with a physics-inspired
simulator (see DESIGN.md, substitution table):

* :mod:`~repro.radio.geometry` — planar geometry primitives,
* :mod:`~repro.radio.office` — the office layout (sensors d1..d9,
  workstations w1..w3, the single door), including :func:`paper_office`,
* :mod:`~repro.radio.pathloss` — log-distance / free-space path loss,
* :mod:`~repro.radio.fading` — quiescent noise and per-link fade levels,
* :mod:`~repro.radio.shadowing` — the human-body obstruction model's
  parameters (the channel evaluates it),
* :mod:`~repro.radio.links` — the m*(m-1) directed stream enumeration,
* :mod:`~repro.radio.channel` — the composite channel producing RSSI samples,
* :mod:`~repro.radio.trace` — the timestamped trace container.
"""

from .channel import ChannelConfig, RadioChannel
from .fading import LinkFadeLevel, QuiescentNoise, SkewLaplace
from .geometry import Point, interpolate
from .links import LinkSet, Stream, enumerate_stream_ids, stream_id
from .office import OfficeLayout, Sensor, Workstation, paper_office
from .pathloss import FreeSpacePathLoss, LogDistancePathLoss
from .shadowing import BodyShadowingModel
from .trace import RssiTrace

__all__ = [
    "BodyShadowingModel",
    "ChannelConfig",
    "FreeSpacePathLoss",
    "LinkFadeLevel",
    "LinkSet",
    "LogDistancePathLoss",
    "OfficeLayout",
    "Point",
    "QuiescentNoise",
    "RadioChannel",
    "RssiTrace",
    "Sensor",
    "SkewLaplace",
    "Stream",
    "Workstation",
    "enumerate_stream_ids",
    "interpolate",
    "paper_office",
    "stream_id",
]
