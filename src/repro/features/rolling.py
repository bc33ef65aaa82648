"""Rolling-std feature extraction behind ``CampaignStdFeatures``.

Window length from the configured std window and the trace's median
sample interval (:func:`repro.sliding.sample_count`, as the live
detector derives it), then :func:`repro.core.movement.rolling_std_matrix`
over all streams: each stream's partial-head sliding std from the second
sample on, the ``s_t`` convention of
:class:`~repro.streaming.detector.OnlineStdSum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from ..core.movement import rolling_std_matrix
from ..sliding import sample_count
from .base import FeatureBlock, register_extractor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..radio.office import OfficeLayout
    from ..simulation.collector import DayRecording

__all__ = ["RollingStdExtractor"]


@register_extractor
@dataclass(frozen=True)
class RollingStdExtractor:
    """Per-stream rolling standard deviation over a fixed time window.

    Parameters
    ----------
    std_window_s:
        Window length in seconds; converted to samples per day from the
        trace's median sample interval, never below two samples.
    """

    name: ClassVar[str] = "rolling_std"

    std_window_s: float = 4.0

    def __post_init__(self) -> None:
        if not self.std_window_s > 0:
            raise ValueError("std_window_s must be positive")

    def day_block(self, day: "DayRecording", layout: "OfficeLayout") -> FeatureBlock:
        """Rolling-std block for one day, columns in trace stream order."""
        trace = day.trace
        rate = 1.0 / trace.sample_interval
        window_samples = sample_count(self.std_window_s, rate)
        times, matrix = rolling_std_matrix(trace, window_samples)
        columns = {sid: j for j, sid in enumerate(trace.stream_ids)}
        return times, matrix, columns
