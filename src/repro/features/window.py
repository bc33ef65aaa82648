"""The RE window statistics, one reduction over a block of windows.

FADEWICH's RE module describes every variation window by three
statistics per RSSI stream over ``[t1, t1 + t_delta]`` (paper Section
IV-D1): the variance, the Shannon entropy of the values' histogram and
the autocorrelation at a fixed lag.  :func:`window_statistics` computes
all three for every row of a ``(rows, n)`` block at once, so a day's
windows over all streams cost a handful of array operations instead of
one ``np.histogram`` call per (window, stream) pair.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_statistics"]


def window_statistics(
    block: np.ndarray, *, entropy_bins: int, ac_lag: int
) -> np.ndarray:
    """``(variance, entropy, autocorrelation)`` of every row of a block.

    Each row of the ``(rows, n)`` block is one stream's window.  Column 0
    is the population variance ``sum (r - mu)^2 / n``; column 1 the
    entropy (nats) of the row's ``entropy_bins``-bin histogram over
    ``[min, max]``; column 2 the paper's autocorrelation

    .. math:: R(k) = \\frac{1}{(n - k)\\sigma^2}\\sum_j (r_j - \\mu)(r_{j+k} - \\mu)

    at lag ``k = ac_lag``.

    Every value equals, bit for bit, what ``np.var``, ``np.histogram``
    and the centred product sum give one row at a time: the histogram's
    uniform-bin arithmetic (edges, bin indices and their +-1 edge
    corrections) is numpy's, and each entropy sum runs over the row's
    occupied bins only, grouped by their number, so numpy's pairwise
    summation sees the same terms in the same order.  The edge rows:

    * a constant row has entropy ``-0.0`` (one occupied bin) at any
      magnitude;
    * a row whose variance is at most ``1e-15`` (a constant row at
      ordinary magnitudes) has autocorrelation ``1.0``: a constant signal
      is perfectly self-similar;
    * a row whose value range is positive but so narrow that
      ``entropy_bins / (max - min)`` overflows, or whose neighbouring
      bin edges round to the same number (where ``np.histogram`` raises
      "Too many bins"), has entropy ``+0.0``: no finite bins can split
      it, so it is constant for any practical purpose;
    * ``ac_lag >= n`` gives autocorrelation ``0.0``;
    * a row with a NaN or infinite value raises ``np.histogram``'s
      ``ValueError`` ("autodetected range of [min, max] is not
      finite"), and a finite row whose range ``max - min`` overflows
      raises its "Too many bins" ``ValueError`` at any bin count.  The
      first such row in block order names the error.
    """
    block = np.ascontiguousarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] == 0:
        raise ValueError("block must be a (rows, n) array with n >= 1")
    if entropy_bins < 1:
        raise ValueError("entropy_bins must be >= 1")
    if ac_lag < 0:
        raise ValueError("ac_lag must be non-negative")
    out = np.empty((block.shape[0], 3))
    # Entropy first: it raises for the rows np.histogram refuses, before the
    # variance of an infinite row warns.
    out[:, 1] = _entropy(block, entropy_bins)
    out[:, 0] = np.var(block, axis=1)
    out[:, 2] = _autocorrelation(block, out[:, 0], ac_lag)
    return out


def _entropy(block: np.ndarray, bins: int) -> np.ndarray:
    """Histogram entropy per row; raises for non-finite rows and finite rows
    whose range overflows before anything else is computed."""
    rows, n = block.shape
    lo = block.min(axis=1)
    hi = block.max(axis=1)
    finite = np.isfinite(lo) & np.isfinite(hi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        spread = hi - lo
        narrow = (spread > 0.0) & ~np.isfinite(np.float64(bins) / spread)
    overflow = finite & np.isinf(spread)
    general = np.flatnonzero(finite & (spread > 0.0) & ~narrow & ~overflow)

    bad = np.flatnonzero(~finite | overflow)
    if bad.size:
        r = bad[0]
        if not finite[r]:
            raise ValueError(
                f"autodetected range of [{lo[r]}, {hi[r]}] is not finite"
            )
        raise ValueError(
            f"Too many bins for data range. Cannot create {bins} "
            f"finite-sized bins."
        )

    # np.linspace(lo, hi, bins + 1) per row: its step is never zero here,
    # since a step that underflows makes bins / spread overflow.
    first = lo[general, None]
    step = spread[general] / bins
    edges = np.arange(bins + 1.0) * step[:, None] + first
    edges[:, -1] = hi[general]
    entropy = np.full(rows, -0.0)
    entropy[narrow] = 0.0
    # A row whose neighbouring edges round together is as unsplittable as
    # a narrow one (np.histogram refuses it: "Too many bins").
    collide = np.any(edges[:, :-1] >= edges[:, 1:], axis=1)
    entropy[general[collide]] = 0.0
    general, first, edges = general[~collide], first[~collide], edges[~collide]
    # np.histogram's bin of each value, with its +-1 corrections for values
    # within rounding of an edge.
    values = block[general]
    index = (((values - first) / spread[general, None]) * bins).astype(np.intp)
    index[index == bins] -= 1
    index[values < np.take_along_axis(edges, index, axis=1)] -= 1
    index[
        (values >= np.take_along_axis(edges, index + 1, axis=1))
        & (index != bins - 1)
    ] += 1
    offsets = np.arange(general.size)[:, None] * bins
    counts = np.bincount(
        (index + offsets).ravel(), minlength=general.size * bins
    ).reshape(general.size, bins)
    # Sum each row over its occupied bins only: zero terms would regroup
    # numpy's pairwise summation and move bits.
    occupied = counts > 0
    n_occupied = occupied.sum(axis=1)
    for k in np.unique(n_occupied):
        group = np.flatnonzero(n_occupied == k)
        p = counts[group][occupied[group]].reshape(group.size, k) / n
        entropy[general[group]] = -(p * np.log(p)).sum(axis=1)
    return entropy


def _autocorrelation(block: np.ndarray, var: np.ndarray, lag: int) -> np.ndarray:
    """Lag-``lag`` autocorrelation per row, given each row's variance."""
    rows, n = block.shape
    if lag >= n:
        return np.zeros(rows)
    centred = block - block.mean(axis=1)[:, None]
    num = (centred[:, : n - lag] * centred[:, lag:]).sum(axis=1)
    return np.divide(num, (n - lag) * var, out=np.ones(rows), where=var > 1e-15)
