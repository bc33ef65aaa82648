"""Feature-extractor contract and registry.

A *feature extractor* is a frozen config dataclass with a class-level
``name`` and one method::

    day_block(day, layout) -> (times, matrix, columns)

where ``day`` is a :class:`~repro.simulation.collector.DayRecording`,
``layout`` the campaign's :class:`~repro.radio.office.OfficeLayout`,
``times`` a ``(n,)`` float array, ``matrix`` an ``(n, n_streams)`` float
matrix and ``columns`` the stream-id -> column mapping.  Because the
config is frozen and fully describes the derivation, two extractors with
equal fields produce equal blocks — which is what lets
:func:`repro.identity.digest` of an extractor stand in for object
identity in caches and sweep-store records.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..identity import Registry

__all__ = [
    "EXTRACTORS",
    "FeatureBlock",
    "register_extractor",
    "extractor_names",
    "get_extractor",
]

#: The cached unit a feature extractor produces for one recorded day:
#: ``(times, matrix, column_of_stream)``.
FeatureBlock = Tuple[np.ndarray, np.ndarray, Dict[str, int]]


#: The feature-extractor registry.
EXTRACTORS = Registry("extractor", ("day_block",))
register_extractor = EXTRACTORS.register
extractor_names = EXTRACTORS.names
get_extractor = EXTRACTORS.get
