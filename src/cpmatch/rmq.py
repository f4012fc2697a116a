"""Range-minimum queries, threshold scans, and interval partitioning.

All structures here operate on frozen 1-based integer arrays (slot 0 is
padding).  :func:`pack` gives the index's base arrays and the sparse-table
rows their one representation: a packed ``array('i')`` of 4-byte integers,
``'q'`` only when n >= 2**31.  The sparse table keeps, for every
power-of-two width, one packed row of positions and reads values through
the base array, about 4 * n * log2(n) bytes in all.  It answers
range minima in O(1); each threshold scan is one walk down its levels, in
O(log n).  The table is built level by level from contiguous slices of the
previous level's positions and minima, in O(n log n) array work.
"""

from __future__ import annotations

from array import array as packed_array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyArrayError, InvalidPositionError, InvalidRangeError


def pack(values: np.ndarray, n: int) -> packed_array:
    """``values``, each in ``0..n``, as one packed array.

    4-byte integers (``'i'``), or 8-byte (``'q'``) when n >= 2**31.  Indexing
    it reads like a list; ``np.asarray`` of it is a zero-copy view.  It
    compares equal to another array, not to a list: compare ``list(...)``.
    """
    # Repeating one item allocates the exact size; filling it through a
    # view is one copy, with no bytes object in between.
    out = packed_array("i" if n < 2**31 else "q", [0]) * len(values)
    np.asarray(out)[:] = values
    return out


@dataclass
class QueryStats:
    """Per-query instrumentation counters.

    Each query owns its own instance; structures never share one, so
    concurrent read-only queries stay independent.
    """

    rmq_calls: int = 0
    psv_calls: int = 0
    nsv_calls: int = 0
    sa_accesses: int = 0

    def reset(self) -> None:
        self.rmq_calls = 0
        self.psv_calls = 0
        self.nsv_calls = 0
        self.sa_accesses = 0

    @property
    def structure_calls(self) -> int:
        """Total counted calls into the range structures."""
        return self.rmq_calls + self.psv_calls + self.nsv_calls


class RmqStructure:
    """Sparse-table range minimum over a frozen 1-based integer array.

    Row ``k`` holds, for every start ``s``, the position of the leftmost
    minimum of ``array[s..s + 2**k - 1]``, packed as 4-byte integers (8-byte
    when n >= 2**31).  Values are read through ``array`` itself, which is
    kept by reference and must not change afterwards.  Ties resolve to the
    leftmost position so every answer is deterministic.
    """

    def __init__(self, array: Sequence[int]):
        """Build the rows in O(n log n) array work.

        Row ``k`` comes from row ``k - 1`` and the minima at its positions,
        which are kept beside it: two contiguous slices of each, one compare
        and two ``np.where``, with no value gathered through ``array``.
        The minima start as a zero-copy view of a packed ``array``.
        Transient memory is three rows' worth of positions and minima.
        """
        n = len(array) - 1
        if n < 1:
            raise EmptyArrayError("range-minimum structure needs n >= 1")
        self.array = array
        self.n = n
        minima = np.asarray(array)[1:]
        rows = [pack(np.arange(1, n + 1), n)]
        row = np.asarray(rows[0])
        width = 2
        while width <= n:
            half = width // 2
            span = n - width + 1
            left = minima[:span]
            right = minima[half:half + span]
            # Ties keep the left half, so every answer stays leftmost.
            take_right = right < left
            row = np.where(take_right, row[half:half + span], row[:span])
            minima = np.where(take_right, right, left)
            rows.append(pack(row, n))
            width *= 2
        self._pos = rows

    def range_minima(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Minimum of ``array[lo[x]..hi[x]]`` for every ``x``, uncounted.

        Every range must satisfy ``1 <= lo <= hi <= n``.
        """
        values = np.asarray(self.array)
        level = np.frexp(hi - lo + 1)[1] - 1
        out = np.empty(len(lo), dtype=values.dtype)
        for k in range(int(level.max(initial=0)) + 1):
            sel = np.flatnonzero(level == k)
            row = np.asarray(self._pos[k])
            out[sel] = np.minimum(
                values[row[lo[sel] - 1]], values[row[hi[sel] - (1 << k)]]
            )
        return out

    def rmq(self, i: int, j: int, stats: QueryStats | None = None) -> int:
        """Leftmost position of the minimum value in ``array[i..j]``."""
        if not 1 <= i <= j <= self.n:
            raise InvalidRangeError(f"rmq range [{i}..{j}] outside 1..{self.n}")
        if stats is not None:
            stats.rmq_calls += 1
        # Two overlapping power-of-two blocks; the left block's answer wins
        # ties, which keeps the result leftmost.
        k = (j - i + 1).bit_length() - 1
        row = self._pos[k]
        pa = row[i - 1]
        pb = row[j - (1 << k)]
        array = self.array
        return pb if array[pb] < array[pa] else pa

    def psv(self, p: int, d: int, stats: QueryStats | None = None) -> int:
        """Largest ``q < p`` with ``array[q] < d``, or 0 when none exists.

        One walk down the rows, O(log n): at each level ``k`` it skips the
        ``2**k`` positions left of ``q`` when their minimum is at least
        ``d``, so the skipped widths spell out the gap in binary.
        """
        if not 1 <= p <= self.n + 1:
            raise InvalidPositionError(f"psv position {p} outside 1..{self.n + 1}")
        if stats is not None:
            stats.psv_calls += 1
        array = self.array
        rows = self._pos
        q = p - 1
        for k in range(q.bit_length() - 1, -1, -1):
            width = 1 << k
            if width <= q and array[rows[k][q - width]] >= d:
                q -= width
        return q

    def nsv(self, p: int, d: int, stats: QueryStats | None = None) -> int:
        """Smallest ``q > p`` with ``array[q] < d``, or ``n + 1`` when none.

        The mirror of :meth:`psv`: one walk down the rows that skips the
        ``2**k`` positions from ``q`` on when their minimum is at least
        ``d``.
        """
        if not 0 <= p <= self.n:
            raise InvalidPositionError(f"nsv position {p} outside 0..{self.n}")
        if stats is not None:
            stats.nsv_calls += 1
        array = self.array
        rows = self._pos
        end = self.n + 1
        q = p + 1
        for k in range((end - q).bit_length() - 1, -1, -1):
            width = 1 << k
            if q + width <= end and array[rows[k][q - 1]] >= d:
                q += width
        return q


def partition_interval(
    struct: RmqStructure,
    lo: int,
    hi: int,
    threshold: int,
    stats: QueryStats | None = None,
) -> list[tuple[int, int]]:
    """Split ``[lo..hi]`` at every interior position with value < threshold.

    Returns maximal consecutive subintervals covering the range, in order:
    the first starts at ``lo`` and each further start is a position in
    ``(lo..hi]`` whose array value falls below the threshold.  A one-rank
    range returns at once, with no rmq call.  Otherwise it runs O(k) counted
    rmq calls for k returned parts (at most 2k - 1), walking the splits in
    order from one stack, so no sort is needed.
    """
    if threshold < 1 or not 1 <= lo <= hi <= struct.n:
        raise InvalidRangeError(
            f"partition range [{lo}..{hi}] at depth {threshold} is invalid"
        )
    if lo == hi:
        return [(lo, hi)]
    array = struct.array
    rmq = struct.rmq
    parts = []
    start = lo
    # A range ``(s, e)`` is still to be searched; ``(p, None)`` is a split
    # at ``p``, popped only after every split left of it.
    pending: list[tuple[int, int | None]] = [(lo + 1, hi)]
    while pending:
        s, e = pending.pop()
        if e is None:
            parts.append((start, s - 1))
            start = s
        elif s <= e:
            p = rmq(s, e, stats)
            if array[p] < threshold:
                pending.append((p + 1, e))
                pending.append((p, None))
                pending.append((s, p - 1))
    parts.append((start, hi))
    return parts
