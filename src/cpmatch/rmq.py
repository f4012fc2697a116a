"""Range-minimum queries, threshold scans, and interval partitioning.

All structures here operate on frozen 1-based integer arrays (slot 0 is
padding).  :func:`pack` gives the index's base arrays and each block's
leftmost-minimum position their one representation: a packed
``array('i')`` of 4-byte integers, ``'q'`` only when n >= 2**31.

The range-minimum structure is one kind of table at every level (after
Bender & Farach-Colton, LATIN 2000).  For windows narrower than
:data:`BLOCK` it keeps one row of 1-byte offsets per power-of-two width
from 2 to 128, about 7 bytes per element in all.  Above them it keeps the
position of the leftmost minimum of every ``BLOCK``-wide block and the same
structure again over those blocks' minima, 8-byte values, until a level
has fewer than ``BLOCK`` entries: ``ceil(log_256 n)`` levels, at most 4 for
n < 2**32, and about 7.07 bytes per element in all.  Values are read
through the base array.  A range minimum reads at most four window-row
answers per level, so it costs O(log_256 n) steps, a constant for any n
below 2**32.  Previous- and next-smaller-value queries are one threshold
scan in two directions: it gallops outward from its anchor over windows of
doubling width and halves back, one range minimum per step, so an answer
``gap`` positions away costs O(log gap) steps at every distance.  The
window rows are built row by row from contiguous slices of the previous
row's answers and minima, in O(n) array work, with each answer selected by
arithmetic rather than by ``np.where``, which costs 10-30x an element-wise
op on a data-dependent mask.

Interval partitioning splits a range at every value below a threshold in
one in-order walk.  Before it searches a range it probes the range's first
position, which the walk reaches only once every split left of it is
taken: a value below the threshold there is the next split, taken with
that one read.  Otherwise it reads the range's minimum itself, from the
window rows as :meth:`RmqStructure.rmq` does or across blocks for a range
of ``BLOCK`` or more, and a split found there sends the walk on past the
failed left end.  It counts ``len(parts) - 1 + sum(a < b for a, b in
parts)`` rmq calls, one per split and one per stretch between splits, as
if a search had found every split; its own reads may be fewer.
"""

from __future__ import annotations

from array import array as packed_array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyArrayError, InvalidPositionError, InvalidRangeError


def pack(values: np.ndarray, n: int, pad: int = 0) -> packed_array:
    """``values``, each in ``0..n``, after ``pad`` zeros, as one packed array.

    4-byte integers (``'i'``), or 8-byte (``'q'``) when n >= 2**31.  Indexing
    it reads like a list; ``np.asarray`` of it is a zero-copy view.  It
    compares equal to another array, not to a list: compare ``list(...)``.
    """
    return _filled("i" if n < 2**31 else "q", values, pad)


def _filled(typecode: str, values: np.ndarray, pad: int = 0) -> packed_array:
    """``values`` after ``pad`` zeros as a packed array of ``typecode``.

    Repeating one item allocates the exact size, where growing an array
    would add a sixteenth; filling it through a view is one copy, with no
    bytes object in between.
    """
    out = packed_array(typecode, [0]) * (pad + len(values))
    np.asarray(out)[pad:] = values
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


#: Width of a block, and the widest window a 1-byte offset can address.
#: The structure's arithmetic spells it as ``>> 8`` and ``& 255``.
BLOCK = 1 << 8

#: Window rows 1..7 cover widths 2..128, so two of them cover any range
#: narrower than ``BLOCK``.
_WINDOW_LEVELS = 7

#: Per window width 2**k, for a scan to the left and one to the right: the
#: offset from the scan's position to the window's low end, and from that
#: low end to the scan's next position, just past the window.
_LEFT = (tuple(1 - (1 << k) for k in range(64)), (-1,) * 64)
_RIGHT = ((0,) * 64, tuple(1 << k for k in range(64)))


def _doubling(row: np.ndarray, minima: np.ndarray, levels: int):
    """Yield window rows 1..``levels`` of a leftmost-minimum sparse table.

    ``row`` is row 0, all zeros, the offset of each single entry of
    ``minima`` from itself.  Row ``k`` holds each answer as its distance
    from the window's start, and comes from row ``k - 1`` and the minima at
    its answers, which are kept beside it: two contiguous slices of each,
    with no value gathered through the base array.  Answers taken from the
    right half gain the half's width.

    Each answer is selected by arithmetic, ``base + take_right * (shifted -
    base)``, in place on the one new row, and each minimum by
    ``np.minimum``.  A select through ``np.where`` on a mask this close to
    random measured 10-30x the time of one element-wise op at n = 2*10^5.
    The arithmetic is exact: a row's entries at level ``k - 1`` are below
    ``half``, so ``shifted - base`` lies in ``1..2**k - 1`` and never wraps
    a byte.  The stored rows equal those of a select, byte for byte.
    """
    for k in range(1, levels + 1):
        half = 1 << (k - 1)
        span = len(minima) - half
        left = minima[:span]
        right = minima[half:]
        # Ties keep the left half, so every answer stays leftmost.
        take_right = right < left
        base = row[:span]
        row = row[half:] + half
        row -= base
        row *= take_right
        row += base
        minima = np.minimum(left, right)
        yield row


class RmqStructure:
    """Range minimum over a frozen 1-based integer array, one level of many.

    Window row ``k`` (1..7) holds at index ``s`` the offset, from ``s``, of
    the leftmost minimum of ``array[s..s + 2**k - 1]``, one byte each; row 0
    would be all zeros and is not stored.  Block ``b`` covers positions
    ``256 * b + 1 .. 256 * (b + 1)`` (the last block may be shorter), and
    ``_heads[b + 1]`` holds the position of its leftmost minimum, packed as
    4-byte integers (8-byte when n >= 2**31).  From one whole block on,
    ``_top`` is the same structure over the blocks' minimum values, packed
    as 8-byte integers at its positions ``b + 1``; below that it is None.
    So ``ceil(log_256 n)`` levels hold the whole structure.  Values are read
    through ``array`` itself, which is kept by reference and must not change
    afterwards.  Ties resolve to the leftmost position so every answer is
    deterministic.
    """

    def __init__(self, array: Sequence[int]):
        """Build every level in O(n) array work.

        The window rows are built over the values with the padding slot
        included, so that a row's index is its window's start.  Each block's
        minimum is one ``argmin`` over a reshaped view, and the next level
        is built over ``n / 256`` of them.  Over 4-byte values at
        n = 200,001 the build keeps 7.09 bytes per entry (7.07 in the
        tables' buffers) and peaks 10.9 above that while a window row of
        the first level is made: two 4-byte minima arrays, the one-byte
        ``take_right`` mask and two one-byte row copies.
        """
        n = len(array) - 1
        if n < 1:
            raise EmptyArrayError("range-minimum structure needs n >= 1")
        self.array = array
        self.n = n
        values = np.asarray(array)
        levels = min(_WINDOW_LEVELS, n.bit_length() - 1)
        rows = _doubling(np.zeros(n + 1, np.uint8), values, levels)
        self._rows = [None, *(_filled("B", row) for row in rows)]
        full = n >> 8
        heads = np.arange(1, n + 1, BLOCK)
        heads[:full] += values[1:(full << 8) + 1].reshape(full, BLOCK).argmin(axis=1)
        if full < len(heads):
            heads[full] += values[heads[full]:].argmin()
        self._heads = pack(heads, n, pad=1)
        self._top = RmqStructure(_filled("q", values[heads], pad=1)) if full else None

    def range_minima(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Minimum of ``array[lo[x]..hi[x]]`` for every ``x``, uncounted.

        Every range must satisfy ``1 <= lo <= hi <= n``.  Its first 255
        positions, and for a wider range its last 255 and the whole blocks
        between, cover it.  The whole blocks of every range that has any
        are read by one ``range_minima`` of the next level.  Each row is
        read in place, with no copy.
        """
        values = np.asarray(self.array)
        out = self._window_minima(values, lo, np.minimum(hi, lo + (BLOCK - 2)))
        wide = np.flatnonzero(hi - lo >= BLOCK - 1)
        if wide.size:
            a = lo[wide]
            b = hi[wide]
            out[wide] = np.minimum(
                out[wide], self._window_minima(values, b - (BLOCK - 2), b)
            )
            first = (a + (BLOCK - 2)) >> 8
            last = (b >> 8) - 1
            inner = np.flatnonzero(first <= last)
            if inner.size:
                middle = self._top.range_minima(first[inner] + 1, last[inner] + 1)
                wide = wide[inner]
                out[wide] = np.minimum(out[wide], middle)
        return out

    def _window_minima(
        self, values: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """``range_minima`` for ranges narrower than ``BLOCK``."""
        level = np.frexp(hi - lo + 1)[1] - 1
        out = values[lo]
        for k in range(1, len(self._rows)):
            sel = np.flatnonzero(level == k)
            a = lo[sel]
            b = hi[sel] + 1 - (1 << k)
            row = np.asarray(self._rows[k])
            out[sel] = np.minimum(values[a + row[a]], values[b + row[b]])
        return out

    def rmq(self, i: int, j: int, stats: QueryStats | None = None) -> int:
        """Leftmost position of the minimum value in ``array[i..j]``."""
        if not 1 <= i <= j <= self.n:
            raise InvalidRangeError(f"rmq range [{i}..{j}] outside 1..{self.n}")
        if stats is not None:
            stats.rmq_calls += 1
        if i == j:
            return i
        k = (j - i + 1).bit_length() - 1
        if k > 7:  # j - i + 1 >= BLOCK
            return self._across_blocks(i, j)
        # Two overlapping windows of one row, the left one winning ties.
        row = self._rows[k]
        pa = i + row[i]
        b = j + 1 - (1 << k)
        pb = b + row[b]
        array = self.array
        return pb if array[pb] < array[pa] else pa

    def _across_blocks(self, i: int, j: int) -> int:
        """``rmq`` of a range of ``BLOCK`` or more positions, uncounted.

        The split of :meth:`range_minima`: the range's first and last
        ``BLOCK - 1`` positions, each read by an uncounted :meth:`rmq`, and
        the whole blocks between them by an uncounted :meth:`rmq` of the
        next level, whose leftmost minimal block leads to its head.  The
        three answers are compared left to right with a strict ``<``, so
        that ties go left.  Each level down holds 256 times fewer entries,
        so a range reads at most ``ceil(log_256 n)`` levels.
        """
        array = self.array
        best = self.rmq(i, i + (BLOCK - 2))
        first = (i + (BLOCK - 2)) >> 8
        last = (j >> 8) - 1
        if first <= last:
            middle = self._heads[self._top.rmq(first + 1, last + 1)]
            if array[middle] < array[best]:
                best = middle
        right = self.rmq(j - (BLOCK - 2), j)
        return right if array[right] < array[best] else best

    def psv(self, p: int, d: int, stats: QueryStats | None = None) -> int:
        """Largest ``q < p`` with ``array[q] < d``, or 0 when none exists.

        One leftward :meth:`_scan` from ``p - 1`` over the ``p - 1``
        positions down to 1, in O(log (p - q)) steps.
        """
        if not 1 <= p <= self.n + 1:
            raise InvalidPositionError(f"psv position {p} outside 1..{self.n + 1}")
        if stats is not None:
            stats.psv_calls += 1
        return self._scan(p - 1, d, -1, p - 1)

    def nsv(self, p: int, d: int, stats: QueryStats | None = None) -> int:
        """Smallest ``q > p`` with ``array[q] < d``, or ``n + 1`` when none.

        One rightward :meth:`_scan` from ``p + 1`` over the ``n - p``
        positions up to n, in O(log (q - p)) steps.
        """
        if not 0 <= p <= self.n:
            raise InvalidPositionError(f"nsv position {p} outside 0..{self.n}")
        if stats is not None:
            stats.nsv_calls += 1
        return self._scan(p + 1, d, 1, self.n - p)

    def _scan(self, q: int, d: int, step: int, room: int) -> int:
        """First position from ``q`` on, by ``step``, whose value is below ``d``.

        ``step`` is -1 to scan left and 1 to scan right, and ``room`` counts
        the positions from ``q`` to the array's end that way (position 1 or
        n).  When none of them holds a value below ``d``, the answer is the
        position one past that end, 0 or ``n + 1``.  After ``q`` itself the
        scan gallops over the windows of width 2, 4, 8, ..., each just past
        the last in the scan's direction, until one holds a value below
        ``d`` or would leave the room.  It then halves back inside that
        window, or inside what is left of the room: at each width from half
        the window's down it skips the window that starts at ``q`` in the
        scan's direction when that window fits the room and its minimum is
        at least ``d``, so the skipped widths spell out the rest of the gap.
        Each window's minimum is one read of a window row, or one uncounted
        :meth:`_across_blocks` from width ``BLOCK`` on, so an answer ``g``
        positions away costs O(log g) steps at any distance.  The direction
        is looked up once, as the ``_LEFT`` or ``_RIGHT`` offsets that place
        each window beside ``q`` and step past it, so no step branches on it.
        """
        array = self.array
        if not room or array[q] < d:
            return q
        rows = self._rows
        low, past = _LEFT if step < 0 else _RIGHT
        q += step
        room -= 1
        k = 1
        w = 2
        while w <= room:
            lo = q + low[k]
            # A window of BLOCK or more positions is read across blocks.
            m = lo + rows[k][lo] if k < 8 else self._across_blocks(lo, lo + w - 1)
            if array[m] < d:
                room = w
                break
            q = lo + past[k]
            room -= w
            k += 1
            w += w
        for k in range(k - 1, 0, -1):
            w = 1 << k
            if w <= room:
                lo = q + low[k]
                m = lo + rows[k][lo] if k < 8 else self._across_blocks(lo, lo + w - 1)
                if array[m] >= d:
                    q = lo + past[k]
                    room -= w
        return q + step if room and array[q] >= d else q


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
    range returns at once, with no rmq call.  Otherwise one in-order walk
    makes O(k) rmq calls for k returned parts (at most 2k - 1).  It first
    probes the left end of the range ``s..e`` still to split.  Every split
    left of ``s`` is taken by then, so a value below the threshold at ``s``
    is the next split: the walk closes the current part there and goes on
    with ``s + 1..e``, reading no window row.  When the probe fails, a
    range wider than one position is searched: its leftmost minimum is read
    in place, as :meth:`RmqStructure.rmq` reads it, from two window-row
    answers, ties going left, below ``BLOCK`` and through
    :meth:`RmqStructure._across_blocks` from there on.  A split ``p`` found
    is stacked with ``e`` while its left side is walked from ``s + 1``, as
    ``s`` has just failed its probe, and popping it closes the current part
    and opens its right side, so no sort is needed.

    ``stats.rmq_calls`` gains ``len(parts) - 1 + sum(a < b for a, b in
    parts)``, once: the count of a search that finds each split with one
    call and spends one more on each nonempty stretch between splits.  The
    walk's own reads may be fewer, as a probe takes a split with one read
    and no probe repeats.  A failed probe is one read before a search, so
    the probes add at most one read per counted call and the O(k) bound
    holds: a range with no split costs one read more than a search of it.
    """
    if threshold < 1 or not 1 <= lo <= hi <= struct.n:
        raise InvalidRangeError(
            f"partition range [{lo}..{hi}] at depth {threshold} is invalid"
        )
    if lo == hi:
        return [(lo, hi)]
    array = struct.array
    rows = struct._rows
    across = struct._across_blocks
    parts = []
    start = lo
    s = lo + 1
    e = hi
    # ``(p, e)``: a split at ``p`` whose right side ``p + 1 .. e`` is still
    # to be walked once every split left of it has been taken.
    splits: list[tuple[int, int]] = []
    while True:
        if s <= e:
            if array[s] < threshold:
                # Every split left of s is taken, so s is the next one.
                parts.append((start, s - 1))
                start = s
                s += 1
                continue
            # A one-position range is answered by the failed probe alone.
            if s < e:
                w = e - s + 1
                if w < BLOCK:
                    k = w.bit_length() - 1
                    row = rows[k]
                    p = s + row[s]
                    b = e + 1 - (1 << k)
                    q = b + row[b]
                    if array[q] < array[p]:
                        p = q
                else:
                    p = across(s, e)
                if array[p] < threshold:
                    splits.append((p, e))
                    # s has just failed its probe, so p's left side starts past it.
                    s += 1
                    e = p - 1
                    continue
        if not splits:
            break
        p, e = splits.pop()
        parts.append((start, p - 1))
        start = p
        s = p + 1
    parts.append((start, hi))
    if stats is not None:
        stats.rmq_calls += len(parts) - 1 + sum([a < b for a, b in parts])
    return parts
