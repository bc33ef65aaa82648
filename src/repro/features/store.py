"""Per-recording cache of extractor feature blocks.

One :class:`FeatureStore` is bound to one
:class:`~repro.simulation.collector.CampaignRecording` and caches every
extractor's per-day blocks side by side, keyed by ``(extractor
digest, day index)``.  The digest is content-based
(:func:`repro.identity.digest`), so two equal
configs share cache entries while any config change computes fresh
matrices.

Day membership is validated by object identity against the bound
recording: historically the rolling-std cache keyed on ``day.day_index``
alone, so a ``DayRecording`` from a *different* campaign with the same
index silently returned the wrong matrix.  The store refuses such days
outright.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..identity import digest
from .base import FeatureBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..simulation.collector import CampaignRecording, DayRecording

__all__ = ["FeatureStore"]


class FeatureStore:
    """Caches per-day feature blocks for one campaign recording.

    Parameters
    ----------
    recording:
        The campaign whose days this store serves.  Blocks are computed
        lazily on first request and shared across all consumers holding
        the store (detection, the zoo, zone inference).
    """

    def __init__(self, recording: "CampaignRecording") -> None:
        self.recording = recording
        self._day_ids = {id(day) for day in recording.days}
        self._blocks: Dict[Tuple[str, int], FeatureBlock] = {}
        self._hits = 0
        self._misses = 0

    @property
    def hits(self) -> int:
        """Number of day_block calls served from cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of day_block calls that computed a fresh block."""
        return self._misses

    def day_block(self, extractor: object, day: "DayRecording") -> FeatureBlock:
        """The extractor's ``(times, matrix, columns)`` block for ``day``.

        Raises ``ValueError`` if ``day`` does not belong to this store's
        recording — same-index days from other campaigns must never alias
        each other's features.
        """
        if id(day) not in self._day_ids:
            raise ValueError(
                f"day {day.day_index} does not belong to this store's recording"
            )
        key = (digest(extractor), day.day_index)
        block = self._blocks.get(key)
        if block is None:
            self._misses += 1
            block = extractor.day_block(day, self.recording.layout)
            self._blocks[key] = block
        else:
            self._hits += 1
        return block
