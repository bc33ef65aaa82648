"""Sliding-window reductions that every batch split reproduces bit for bit.

FADEWICH's ``s_t`` (Algorithm 1) sums per-stream standard deviations over
the last ``d`` seconds; the detector zoo and the zone estimator reduce
rolling windows of the same kind.  Each runs offline over a whole column
and streaming over batches, and the two must agree bitwise:

* :func:`sliding` reduces each position's window — the last ``w`` values,
  or the whole prefix while fewer exist (the *partial head*).  The head
  reduces one prefix at a time, full windows as ``sliding_window_view``
  rows.
* :class:`Carry` keeps the last ``keep`` values of each stream contiguous
  and in arrival order, so ``concat(tail, batch)`` holds the values of the
  matching whole-column slice in the same layout, and every reduction sees
  identical input in identical order.  (A ring buffer would rotate the
  memory and change the pairwise summation inside ``np.std``.)

Offline callers pass a whole column with ``seen=0``, streaming callers what
:meth:`Carry.push` returns; multi-stream callers sum streams left to right.
The module imports nothing from :mod:`repro`, so every layer may use it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
__all__ = ["Carry", "sample_count", "sliding"]


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

    Those entries (all of ``values`` by default) are stream positions
    ``seen, seen + 1, ...``; the entries before them must hold the
    ``min(seen, w - 1)`` values that precede them.  Position ``g`` gets
    ``fill`` if ``g < first``, else ``reduce`` over its last ``min(g + 1,
    w)`` values: ``reduce(prefix)`` in the head, ``reduce(rows, axis=1)``
    for the full windows.
    """
    values = np.ascontiguousarray(values, dtype=float)
    new = values.shape[0] if new is None else new
    tail = values.shape[0] - new
    lo = max(first - seen, 0)  # first output that is not ``fill``
    full = max(w - 1 - seen, lo)  # first output over a whole window
    if full < new:
        # The rows of ``sliding_window_view(values[tail + full - w + 1:], w)``,
        # built directly: streaming engines call this once per stream per
        # batch, where that helper's argument handling outweighed the reduce.
        step = values.itemsize
        windows = np.ndarray(
            (new - full, w),
            dtype=float,
            buffer=values,
            offset=(tail + full - w + 1) * step,
            strides=(step, step),
        )
        windows.flags.writeable = False
        rows = reduce(windows, axis=1)
        if full == 0:  # the steady state: nothing but full windows
            return rows
    out = np.full(new, fill)
    # Head positions exist only while seen < w - 1, when the leading
    # entries are the whole stream: each slice is the offline prefix.
    for j in range(lo, min(full, new)):
        out[j] = reduce(values[: tail + j + 1])
    if full < new:
        out[full:] = rows
    return out


class Carry:
    """The last ``keep`` values of each stream, contiguous, in arrival order.

    ``names`` labels the streams (one per batch column) in error messages.
    """

    def __init__(self, keep: int, names: Sequence[object]) -> None:
        self._keep = int(keep)
        self._names = list(names)
        self._count = 0
        self._tails: List[np.ndarray] = [np.empty(0) for _ in self._names]

    @property
    def count(self) -> int:
        """Values pushed per stream so far."""
        return self._count

    def push(self, batch: np.ndarray) -> Tuple[List[np.ndarray], int]:
        """Append an ``(m, n_streams)`` batch; return ``(exts, seen)``.

        ``exts[j]`` is stream ``j``'s tail followed by its batch column and
        ``seen`` the count before the batch: :func:`sliding`'s arguments.
        """
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != len(self._names):
            raise ValueError(
                f"expected an (m, {len(self._names)}) sample batch, "
                f"got {batch.shape}"
            )
        exts = [
            np.concatenate((tail, batch[:, j]))
            for j, tail in enumerate(self._tails)
        ]
        seen = self._count
        self._count = seen + batch.shape[0]
        n_keep = min(self._count, self._keep)
        self._tails = [ext[ext.shape[0] - n_keep :] for ext in exts]
        return exts, seen

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: the count and one tail list per stream."""
        return {
            "count": self._count,
            "tails": [tail.tolist() for tail in self._tails],
        }

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
        self._tails = tails
