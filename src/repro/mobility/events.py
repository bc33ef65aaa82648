"""Ground-truth movement events.

During the paper's data collection a human supervisor recorded when users
stepped away from their workstations and when they entered or exited the
room.  The simulator plays the supervisor's role: every scheduled behaviour
emits ground-truth events that the evaluation uses to score MD (TP/FP/FN)
and to label RE training samples.

Event label convention (paper Section IV-D2):

* ``w0`` — somebody entered the office,
* ``wi`` (i >= 1) — the user assigned to workstation ``wi`` left its
  proximity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["EventKind", "GroundTruthEvent", "EventLog", "ENTRY_LABEL"]

ENTRY_LABEL = "w0"
"""Label the paper assigns to 'a user entered the office' events."""


class EventKind(enum.Enum):
    """Kinds of ground-truth movement events."""

    DEPARTURE = "departure"
    """A user left the proximity of their workstation (and exits the room)."""

    ENTRY = "entry"
    """A user entered the office through the door (and sits down)."""

    INTERNAL_MOVE = "internal_move"
    """A user moved inside the office without leaving (e.g. visiting a
    colleague's desk); generates fluctuations but is not a departure."""


@dataclass(frozen=True)
class GroundTruthEvent:
    """One supervised movement event.

    Attributes
    ----------
    kind:
        What happened.
    time:
        The instant the user left the workstation proximity (departures) or
        crossed the door (entries), in seconds from the campaign start.
    user_id:
        The moving user.
    workstation_id:
        The user's assigned workstation (``None`` for visitors).
    exit_time:
        For departures: when the user crossed the door and left the room.
    label:
        The RE class label of the event (``w0`` for entries, the
        workstation id for departures, ``None`` for internal moves, which
        the paper does not label).
    """

    kind: EventKind
    time: float
    user_id: str
    workstation_id: Optional[str] = None
    exit_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.exit_time is not None and self.exit_time < self.time:
            raise ValueError("exit_time cannot precede the event time")

    @property
    def label(self) -> Optional[str]:
        if self.kind is EventKind.ENTRY:
            return ENTRY_LABEL
        if self.kind is EventKind.DEPARTURE:
            return self.workstation_id
        return None


class EventLog:
    """An ordered collection of ground-truth events."""

    def __init__(self, events: Sequence[GroundTruthEvent] = ()) -> None:
        self._events: List[GroundTruthEvent] = sorted(events, key=lambda e: e.time)

    def add(self, event: GroundTruthEvent) -> None:
        """Insert an event keeping chronological order."""
        self._events.append(event)
        self._events.sort(key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, idx: int) -> GroundTruthEvent:
        return self._events[idx]

    @property
    def events(self) -> List[GroundTruthEvent]:
        return list(self._events)

    def departures(self) -> List[GroundTruthEvent]:
        """All departure events (the attack-relevant ones)."""
        return [e for e in self._events if e.kind is EventKind.DEPARTURE]

    def entries(self) -> List[GroundTruthEvent]:
        """All office-entry events."""
        return [e for e in self._events if e.kind is EventKind.ENTRY]

    def labelled(self) -> List[GroundTruthEvent]:
        """Events that carry an RE label (departures and entries)."""
        return [e for e in self._events if e.label is not None]

    def label_counts(self) -> dict:
        """Histogram of labels, the content of the paper's Table II."""
        counts: dict = {}
        for e in self.labelled():
            counts[e.label] = counts.get(e.label, 0) + 1
        return counts
