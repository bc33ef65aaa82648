"""Persistent, resumable storage of scenario-sweep results.

PR 3's sweep engine made scenario grids cheap to *run*, but every
``ScenarioSweepRunner.run()`` started from zero: an interrupted 200-point
grid lost all completed work.  This module adds the persistence layer:
the :class:`SweepStore`, one JSON record per grid point, written
atomically (temp file + ``os.replace``), keyed by the scenario name
**and** a structured key carrying the sweep's root-seed fingerprint and
the scenario's configuration digest (:func:`repro.identity.digest`).  A
record whose key does not match the requested one is treated as stale
and never returned — a changed ``FadewichConfig`` (or root seed, or
behaviour scale...) can therefore never silently resurrect results
computed under the old definition.

The store deliberately deals in plain dicts: the scenario types serialise
themselves (``ScenarioResult.to_dict`` / ``from_dict`` in
:mod:`repro.analysis.scenarios`), which keeps this module free of circular
imports and makes records greppable JSON on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..core.config import FadewichConfig, MDConfig, REConfig
from ..identity import digest, encode, register_component
from ..radio.channel import ChannelConfig
from ..reliability.faults import (
    STORE_CORRUPT,
    STORE_FSYNC,
    STORE_READ,
    STORE_WRITE,
    as_injector,
)
from ..radio.fading import QuiescentNoise, SkewLaplace
from ..radio.geometry import Point
from ..radio.office import OfficeLayout, Sensor, Workstation
from ..radio.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from ..radio.shadowing import BodyShadowingModel
from ..zones.estimator import ZoneOccupancyEstimator
from ..zones.map import Zone, ZoneMap
from .campaign import CampaignScale

__all__ = [
    "name_slug",
    "result_checksum",
    "SweepStore",
    "StoreStats",
]

#: Version stamp written into every record; bumped when the record layout
#: changes incompatibly, so old files read as stale instead of crashing.
#: Format 2 added the mandatory ``checksum`` field (SHA-256 of the result
#: payload, verified on read).
RECORD_FORMAT = 2

#: The configuration dataclasses a scenario is made of, registered with
#: the :mod:`repro.identity` codec so stored specs decode back into
#: value-equal objects.  Detectors and feature extractors join the codec
#: through their own registries.
for _component in (
    FadewichConfig,
    MDConfig,
    REConfig,
    ChannelConfig,
    LogDistancePathLoss,
    FreeSpacePathLoss,
    QuiescentNoise,
    SkewLaplace,
    BodyShadowingModel,
    CampaignScale,
    OfficeLayout,
    Sensor,
    Workstation,
    Point,
    Zone,
    ZoneMap,
    ZoneOccupancyEstimator,
):
    register_component(_component)


#: Longest sanitised-name prefix kept in an on-disk filename.  The hash
#: suffix carries the identity; the slug is only for greppability, and an
#: unbounded one would overflow common 255-byte filename limits (a grid
#: path name concatenates every axis name).
_MAX_SLUG_CHARS = 80


def name_slug(name: str) -> str:
    """A filesystem-safe, collision-free slug of an arbitrary name.

    ``<sanitised prefix>-<10 hex chars of SHA-256(name)>``: the sanitised
    prefix keeps store directories greppable, while the hash suffix makes
    distinct names — path-separator tricks (``a/b`` vs ``a_b``), dot
    segments, case-colliding variants on case-insensitive filesystems,
    over-long names sharing a truncated prefix — map to distinct slugs.
    The result is always a single path component: separators are replaced
    before truncation and the output is verified to contain none.

    Raises ``ValueError`` for non-string or empty names and for names
    containing NUL (which the OS would reject much less legibly).
    """
    if not isinstance(name, str):
        raise TypeError(f"name must be a str, got {type(name).__name__}")
    if not name:
        raise ValueError("name must be non-empty")
    if "\x00" in name:
        raise ValueError("name must not contain NUL")
    # Stripping dots at the edges keeps slugs from starting with "." (a
    # hidden file, or a dot segment for all-dot names like "..").
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_.")[:_MAX_SLUG_CHARS]
    if not slug:
        slug = "scenario"
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:10]
    filename = f"{slug}-{digest}"
    # Defence in depth: whatever the sanitiser missed must never escape
    # the store directory as a path component.
    if os.sep in filename or (os.altsep and os.altsep in filename):
        raise ValueError(f"unsafe name {name!r}: slug {filename!r}")
    return filename


#: The integrity stamp of a record's result payload: ``put`` computes it
#: over the payload and ``get`` over the parsed payload, so any bitrot,
#: torn write or hand-edit of the result block makes the two disagree and
#: the record is quarantined instead of trusted.
result_checksum = digest


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #

#: Read-failure sentinels returned by ``SweepStore._load_raw``; distinct
#: objects so ``None``-valued JSON can never masquerade as a failure.
_MISSING = object()
_IOERROR = object()
_UNPARSEABLE = object()


@dataclass
class StoreStats:
    """Counters of one store's lifetime (reset with :meth:`SweepStore.reset_stats`).

    ``stale`` counts records that existed under the requested name but
    could not be reused: a key (root seed, configuration content hash...)
    that did not match, an incompatible record ``format`` version, or a
    missing/mangled fingerprint or result block — the silent-reuse hazards
    the key scheme exists to catch.  ``corrupt`` counts records whose
    *bytes* betrayed them — unparseable JSON or a result block failing
    its checksum — which :meth:`SweepStore.get` quarantines to a
    ``.corrupt`` file instead of silently re-reading as a miss on every
    resume.  Every :meth:`SweepStore.get` lands in exactly one bucket, so
    ``hits + misses + stale + corrupt == lookups`` at all times.

    All mutation goes through the ``count_*`` methods under one lock: a
    :class:`SweepStore` shared by several worker threads (the cooperative
    sweep-queue mode) must not lose increments to the classic
    read-modify-write race of bare ``+=`` on ints.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    corrupt: int = 0
    writes: int = 0
    lookups: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_hit(self) -> None:
        with self._lock:
            self.lookups += 1
            self.hits += 1

    def count_miss(self) -> None:
        with self._lock:
            self.lookups += 1
            self.misses += 1

    def count_stale(self) -> None:
        with self._lock:
            self.lookups += 1
            self.stale += 1

    def count_corrupt(self) -> None:
        with self._lock:
            self.lookups += 1
            self.corrupt += 1

    def count_write(self) -> None:
        with self._lock:
            self.writes += 1

    def reclassify_hit_as_stale(self) -> None:
        """Atomically move one lookup from ``hits`` to ``stale``.

        Used when a key-matching record turns out to have an unusable
        payload only after decoding: the lookup was already counted as a
        hit, and the partition invariant must survive the correction.
        """
        with self._lock:
            self.hits -= 1
            self.stale += 1

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(
                hits=self.hits,
                misses=self.misses,
                stale=self.stale,
                corrupt=self.corrupt,
                writes=self.writes,
                lookups=self.lookups,
            )


class SweepStore:
    """One JSON record per completed grid point, atomically written.

    Parameters
    ----------
    path:
        Directory of the store; created on first use.  Each scenario gets
        one file named after a sanitised slug of its grid-path name plus a
        short name hash (so distinct names can never collide on disk).

    Records are looked up by ``(name, key)``: ``key`` is the structured
    staleness fingerprint the runner builds
    (:meth:`~repro.analysis.scenarios.ScenarioSweepRunner.store_key` —
    root-seed entropy and spawn key, the scenario's simulation-seed index,
    the analysis seed, the evaluated sensor counts and the configuration
    content hash).  A record with a non-matching key is *stale*: ``get``
    returns ``None`` and the record stays on disk untouched (re-running the
    old sweep would find it again); ``put`` simply overwrites it.

    Writes are atomic and durable — the record is serialised to a
    temporary file in the store directory, ``fsync``-ed, and
    ``os.replace``-d into place — so a killed sweep leaves either the old
    record or the new one, never a torn file.  Every record carries a
    SHA-256 checksum of its result payload (:func:`result_checksum`),
    verified on read: a record whose bytes fail to parse or whose payload
    fails its checksum is *quarantined* — atomically renamed to a
    ``.corrupt`` sibling for post-mortem inspection, counted in
    :attr:`StoreStats.corrupt` — instead of being silently re-read (and
    re-missed) on every resume.  Transient I/O errors, by contrast, read
    as plain misses with the file left untouched: an EIO must never
    destroy a good record.

    ``faults`` (a :class:`~repro.reliability.FaultPlan` or
    :class:`~repro.reliability.FaultInjector`) arms the reliability
    layer's injection points — ``store.read`` / ``store.write`` /
    ``store.fsync`` raise the ``OSError`` a failing disk would, and
    ``store.corrupt`` mangles the serialised bytes on their way to disk —
    all *inside* the production read/write paths, so what the chaos suite
    exercises is exactly the code a real fault would hit.
    """

    def __init__(self, path, *, faults=None) -> None:
        self._path = Path(path)
        self._path.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        self._faults = as_injector(faults)

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self._path

    @property
    def faults(self):
        """The armed :class:`~repro.reliability.FaultInjector` (or ``None``)."""
        return self._faults

    @faults.setter
    def faults(self, value) -> None:
        self._faults = as_injector(value)

    def reset_stats(self) -> None:
        self.stats = StoreStats()

    def record_path(self, name: str) -> Path:
        """The on-disk file of a scenario's record.

        Built from :func:`name_slug`, so hostile or merely awkward names
        (path separators, ``..`` segments, case collisions, over-long grid
        paths) can neither escape the store directory nor overwrite a
        sibling record.
        """
        return self._path / f"{name_slug(name)}.json"

    def lease_path(self, name: str) -> Path:
        """The on-disk lease file of a name (see :mod:`~repro.analysis.sweep_queue`).

        Leases share the record naming scheme but carry a ``.lease``
        suffix, so they are invisible to :meth:`names` (which globs
        ``*.json``) and can never collide with a record file.
        """
        return self._path / f"{name_slug(name)}.lease"

    @staticmethod
    def _valid_record(record) -> bool:
        """Whether parsed JSON has the shape of a record we wrote.

        Anything else — foreign files, mangled payloads — is invisible to
        :meth:`names`, never a crash.
        """
        return (
            isinstance(record, dict)
            and record.get("format") == RECORD_FORMAT
            and isinstance(record.get("name"), str)
            and isinstance(record.get("result"), dict)
        )

    def _load_raw(self, name: str):
        """The parsed JSON at a scenario's path, or a failure sentinel.

        Distinguishes the three ways a read can fail, because they demand
        different handling: ``_MISSING`` (no file), ``_IOERROR``
        (transient I/O failure — the file may be fine, leave it alone)
        and ``_UNPARSEABLE`` (the bytes themselves are bad — quarantine).
        """
        path = self.record_path(name)
        if self._faults is not None:
            spec = self._faults.fired(STORE_READ)
            if spec is not None:
                return _IOERROR
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return _MISSING
        except OSError:
            return _IOERROR
        try:
            return json.loads(text)
        except ValueError:
            return _UNPARSEABLE

    def quarantine_path(self, name: str) -> Path:
        """Where a scenario's record lands if it is found corrupt."""
        return self.record_path(name).with_suffix(".corrupt")

    def corrupt_files(self) -> List[Path]:
        """Quarantined record files currently in the store, sorted."""
        return sorted(self._path.glob("*.corrupt"))

    def _quarantine(self, name: str) -> None:
        """Atomically move a corrupt record out of the record namespace.

        The ``.corrupt`` sibling keeps the bytes for post-mortem while
        freeing the slot, so the scenario recollects cleanly (a fresh
        ``put`` just writes the record file anew).  Best-effort: if the
        rename itself fails the record is left in place and will be
        re-detected next read.
        """
        try:
            os.replace(self.record_path(name), self.quarantine_path(name))
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    def get(self, name: str, key: Mapping) -> Optional[Dict]:
        """The stored result payload of a scenario, or ``None``.

        ``None`` means no record, an untrustworthy one, or a corrupt one
        — the caller recomputes in all cases.  The counter taxonomy
        partitions every lookup:

        * **miss** — no file, a transient I/O error (the file is left
          untouched), or a file that is not one of *this scenario's*
          records (non-dict payload, name mismatch — a foreign file
          squatting on the slot);
        * **stale** — a record of the requested scenario that cannot be
          reused: written under a different key (root seed, configuration
          content hash...), an incompatible ``format`` version, or with a
          missing/mangled fingerprint or result block;
        * **corrupt** — the record's *bytes* are bad: unparseable JSON,
          or a result payload failing its SHA-256 checksum.  The file is
          quarantined to ``.corrupt`` so the slot recollects cleanly;
        * **hit** — format, name, key, result and checksum all check out.
        """
        record = self._load_raw(name)
        if record is _MISSING or record is _IOERROR:
            self.stats.count_miss()
            return None
        if record is _UNPARSEABLE:
            self._quarantine(name)
            self.stats.count_corrupt()
            return None
        if not isinstance(record, dict) or record.get("name") != name:
            self.stats.count_miss()
            return None
        if (
            record.get("format") != RECORD_FORMAT
            or not isinstance(record.get("result"), dict)
            or record.get("key") != encode(key)
        ):
            self.stats.count_stale()
            return None
        if record.get("checksum") != result_checksum(record["result"]):
            self._quarantine(name)
            self.stats.count_corrupt()
            return None
        self.stats.count_hit()
        return record["result"]

    def put(self, name: str, key: Mapping, result: Mapping) -> Path:
        """Atomically and durably persist one scenario's result payload.

        The record (with its payload checksum) is serialised to a temp
        file, flushed and ``fsync``-ed, then ``os.replace``-d into place:
        a crash at any instant leaves either the previous complete record
        or the new one, and the new one only after its bytes are durable.
        """
        record = {
            "format": RECORD_FORMAT,
            "name": name,
            # The key as it reads back from JSON (tuples to lists etc.).
            "key": encode(key),
            "result": result,
            "checksum": result_checksum(result),
        }
        path = self.record_path(name)
        if self._faults is not None:
            spec = self._faults.fired(STORE_WRITE)
            if spec is not None:
                raise OSError(f"injected fault at {STORE_WRITE!r}")
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        if self._faults is not None:
            spec = self._faults.fired(STORE_CORRUPT)
            if spec is not None:
                # Bitrot stand-in: publish only half the serialised bytes.
                text = text[: len(text) // 2]
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem + ".", suffix=".tmp", dir=self._path
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                if self._faults is not None:
                    spec = self._faults.fired(STORE_FSYNC)
                    if spec is not None:
                        raise OSError(f"injected fault at {STORE_FSYNC!r}")
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.count_write()
        return path

    def delete(self, name: str) -> bool:
        """Remove a scenario's record; ``True`` if one existed."""
        try:
            os.unlink(self.record_path(name))
            return True
        except FileNotFoundError:
            return False

    def names(self) -> List[str]:
        """Names of all readable records, sorted."""
        found = []
        for path in sorted(self._path.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, ValueError):
                continue
            if self._valid_record(record):
                found.append(record["name"])
        return sorted(found)

    def __len__(self) -> int:
        return len(self.names())

    def clear(self) -> int:
        """Delete every record; returns how many were removed.

        Lease files (``*.lease``, written by the cooperative sweep queue)
        are swept away too — a cleared store must not leave claims behind
        that would block the next fleet from ever collecting the names
        they squat on — but only records count toward the return value.
        """
        removed = 0
        for name in self.names():
            removed += bool(self.delete(name))
        for lease in self._path.glob("*.lease"):
            try:
                os.unlink(lease)
            except OSError:
                pass
        return removed
