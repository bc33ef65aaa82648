"""The paper's KDE normal-profile Mahalanobis detector, as a zoo member.

This is a pure port: both engines delegate to the exact code paths that
predate the detector abstraction — :func:`repro.core.movement.run_profile_grid`
offline and :class:`repro.streaming.detector.OnlineProfile` online — so a
scenario analysed through ``KdeMdDetector`` produces bitwise the numbers
it produced before the zoo existed (the golden and equivalence suites run
unchanged against it).  All tunables live on the scenario's
:class:`~repro.core.config.MDConfig`; the detector itself carries no
fields, which is what pins the goldens: there is no second copy of the
configuration to drift.

Imports of the engine modules are deferred into the methods: the
detectors package sits below ``core``/``streaming`` in the import graph
(both import it for their default detector, this one), and lazy imports
keep that graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .base import DetectionGrid, register_detector

__all__ = ["KdeMdDetector"]


@register_detector
@dataclass(frozen=True)
class KdeMdDetector:
    """KDE normal profile + Newton-quantile threshold (paper Section IV)."""

    name: ClassVar[str] = "kde_md"

    def offline_grid(self, std_sums, config, init_samples) -> DetectionGrid:
        from ..core.movement import run_profile_grid

        grid = run_profile_grid(std_sums, config, init_samples)
        return DetectionGrid(decisions=grid.decisions, thresholds=grid.thresholds)

    def streaming_engine(self, config, init_samples):
        from ..streaming.detector import OnlineProfile

        return OnlineProfile(config, init_samples)
