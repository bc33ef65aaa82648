"""Checkpoint serialisation: JSON round-trips that preserve every bit.

The streaming kernel's ``snapshot()`` dicts are plain JSON values, and
python's ``json`` encodes every float64 with ``repr``'s shortest
round-trip representation (NaN/Infinity as bare tokens) and decodes it
back to the identical bit pattern.  :func:`dumps_snapshot` /
:func:`loads_snapshot` are therefore *bit-preserving*: a detector
restored from the decoded dict continues its stream exactly as the
original would have — the property the reliability test suite locks with
hypothesis-random cut points.
"""

from __future__ import annotations

import json
from typing import Any, Dict

__all__ = ["dumps_snapshot", "loads_snapshot"]


def dumps_snapshot(state: Dict[str, Any]) -> str:
    """Serialise a snapshot dict to JSON (floats bit-exact, NaN allowed)."""
    return json.dumps(state)


def loads_snapshot(text: str) -> Dict[str, Any]:
    """Decode a snapshot back to the bit-identical dict."""
    state = json.loads(text)
    if not isinstance(state, dict):
        raise ValueError(
            f"snapshot must decode to a dict, got {type(state).__name__}"
        )
    return state

