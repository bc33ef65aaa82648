"""Sliding-window reductions that every batch split reproduces bit for bit.

FADEWICH's ``s_t`` (Algorithm 1) sums per-stream standard deviations over
the last ``d`` seconds; the detector zoo and the zone estimator reduce
rolling windows of the same kind.  Each runs offline over a whole column
and streaming over batches, and the two must agree bitwise.  Every such
reduction in :mod:`repro` runs here, EMA-MAD's long-window median and MAD
included, so no other module builds a window view (only the per-sample
scalar references in ``tests/oracles/`` keep their own buffers):

* :func:`sliding` reduces each position's window — the last ``w`` values,
  or the whole prefix while fewer exist (the *partial head*) — over every
  row of a ``(k, n)`` block at once: full windows are one ``(k, m, w)``
  view and one ``reduce(..., axis=-1)`` call, however many rows.
* :class:`Carry` keeps the last ``keep`` values of each stream as one row
  of a C-contiguous array, in arrival order, so ``[tail | batch column]``
  holds the values of the matching whole-column slice in the same layout,
  and every reduction sees identical input in identical order.  (A ring
  buffer would rotate the memory and change the pairwise summation.)

Offline callers pass a whole column with ``seen=0``, streaming callers what
:meth:`Carry.push` returns; multi-stream callers add rows with
:func:`sum_rows`.  The module imports nothing from :mod:`repro`, so every
layer may use it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
__all__ = ["Carry", "sample_count", "sliding", "sum_rows"]

# Window values per reduce call: a whole-day block (9,600 x 72, w = 8) in
# one call would build a ~44 MB temporary inside ``np.std``.
_CHUNK = 1 << 16


def sample_count(seconds: float, rate_hz: float) -> int:
    """Samples spanning ``seconds`` at ``rate_hz``: rounded, and at least 2."""
    return max(int(round(seconds * rate_hz)), 2)


def sliding(
    values: np.ndarray,
    w: int,
    reduce: Callable[..., Any],
    *,
    new: Optional[int] = None,
    seen: int = 0,
    first: int = 0,
    fill: float = np.nan,
) -> np.ndarray:
    """Reduce the window ending at each of the last ``new`` entries of ``values``.

    ``values`` is an ``(n,)`` stream or a ``(k, n)`` block of streams, and
    the result keeps its leading shape.  The ``new`` entries (all ``n`` by
    default) are stream positions ``seen, seen + 1, ...``; the entries
    before them must hold the ``min(seen, w - 1)`` values that precede them.
    Position ``g`` gets ``fill`` if ``g < first``, else ``reduce(...,
    axis=-1)`` over its last ``min(g + 1, w)`` values.
    """
    values = np.ascontiguousarray(values, dtype=float)
    n = values.shape[-1]
    new = n if new is None else new
    if not values.size:  # no streams, or nothing pushed yet
        return np.full(values.shape[:-1] + (new,), fill)
    tail = n - new
    lo = max(first - seen, 0)  # first output that is not ``fill``
    full = max(w - 1 - seen, lo)  # first output over a whole window
    per_call = max(_CHUNK // (w * (values.size // n)), 1)
    step = values.itemsize

    def windows(a: int, b: int) -> np.ndarray:
        # Positions a..b-1, built directly: numpy's window-view helper
        # costs more in argument handling than a batch's reduction.
        view = np.ndarray(
            values.shape[:-1] + (b - a, w),
            dtype=float,
            buffer=values,
            offset=(tail + a - w + 1) * step,
            strides=values.strides[:-1] + (step, step),
        )
        view.flags.writeable = False
        return view

    if full == 0 and new <= per_call:  # the steady state: one call
        return reduce(windows(0, new), axis=-1)
    out = np.full(values.shape[:-1] + (new,), fill)
    # Head positions exist only while seen < w - 1, when the leading
    # entries are the whole stream: each slice is the offline prefix.
    for j in range(lo, min(full, new)):
        out[..., j] = reduce(values[..., : tail + j + 1], axis=-1)
    for a in range(full, new, per_call):
        b = min(a + per_call, new)
        out[..., a:b] = reduce(windows(a, b), axis=-1)
    return out


def sum_rows(block: np.ndarray, rows: Optional[Sequence[int]] = None) -> np.ndarray:
    """Rows of a ``(k, m)`` block (all, or those ``rows`` lists, in order)
    added left to right, as a new array.

    Bit for bit ``((row_0 + row_1) + row_2) + ...`` (a numpy reduce adds
    pairwise).  ``np.add.accumulate`` loops once per column and wins on
    short batches; one vector add per row, copying no rows, on long blocks.
    """
    order = range(block.shape[0]) if rows is None else rows
    if block.shape[1] < len(order):
        return np.add.accumulate(block[order])[-1].copy()
    total = block[order[0]].copy()
    for r in order[1:]:
        total += block[r]
    return total


class Carry:
    """The last ``keep`` values of each stream, one row per stream.

    ``names`` labels the streams (one per batch column) in error messages.
    """

    def __init__(self, keep: int, names: Sequence[object]) -> None:
        self._keep = int(keep)
        self._names = list(names)
        self._count = 0
        self._tails = np.empty((len(self._names), 0))

    @property
    def count(self) -> int:
        """Values pushed per stream so far."""
        return self._count

    def push(self, batch: np.ndarray) -> Tuple[np.ndarray, int]:
        """Append an ``(m, n_streams)`` batch; return ``(ext, seen)``.

        ``ext`` is the C-contiguous ``(n_streams, held + m)`` block of each
        stream's tail followed by its batch column, and ``seen`` the count
        before the batch: :func:`sliding`'s arguments.
        """
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != len(self._names):
            raise ValueError(
                f"expected an (m, {len(self._names)}) sample batch, "
                f"got {batch.shape}"
            )
        # One C-ordered block filled by slice assignment, whatever the
        # batch layout: the window views read each stream's row in place.
        held = self._tails.shape[1]
        ext = np.empty((len(self._names), held + batch.shape[0]))
        ext[:, :held] = self._tails
        ext[:, held:] = batch.T
        seen = self._count
        self._count = seen + batch.shape[0]
        self._tails = ext[:, ext.shape[1] - min(self._count, self._keep) :].copy()
        return ext, seen

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: the count and one tail list per stream."""
        return {"count": self._count, "tails": self._tails.tolist()}

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite the state from a :meth:`snapshot` dict.

        A tail that does not hold exactly ``min(count, keep)`` values would
        shift every later window, so it raises a ``ValueError`` naming the
        stream.
        """
        count = int(state["count"])
        tails = [np.asarray(tail, dtype=float) for tail in state["tails"]]
        if count < 0 or len(tails) != len(self._names):
            raise ValueError(
                f"snapshot holds count {count} and {len(tails)} stream "
                f"tails, expected count >= 0 and {len(self._names)} tails"
            )
        expected = min(count, self._keep)
        for name, tail in zip(self._names, tails):
            if tail.shape != (expected,):
                raise ValueError(
                    f"snapshot tail of stream {name!r} holds {tail.size} "
                    f"values, expected min(count {count}, keep {self._keep})"
                    f" = {expected}"
                )
        self._count = count
        self._tails = np.array(tails, dtype=float).reshape(len(tails), expected)
