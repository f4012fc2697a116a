"""Suffix array, inverse, LCP array, pattern-range search, BWT run counts.

Arrays are 1-based, with a padding zero in slot 0, covering the suffix
start positions ``1..n`` of a remapped text; the suffix of the leading
terminator at position 0 is deliberately excluded.  Each is a packed
``array('i')`` (``'q'`` when n >= 2**31) made by :func:`~cpmatch.rmq.pack`.

The builders are whole-array numpy passes: prefix doubling that re-sorts
only unresolved suffixes, an LCP array read off per-level prefix classes,
and one scatter for the inverse.  They read their input arrays through
``np.asarray``, a zero-copy view of a packed array, and pack their result
once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import SENTINEL, Text
from .errors import EmptyPatternError, SentinelInPatternError
from .rmq import QueryStats, pack


@dataclass(frozen=True)
class SuffixEnsemble:
    """Suffix array and LCP array for one text.

    Both are packed 1-based arrays (see :func:`~cpmatch.rmq.pack`).
    """

    sa: array
    lcp: array
    text: Text


def _codes(t: Text) -> np.ndarray:
    """The text's symbol codes, terminators included: a uint8 view, no copy."""
    return np.frombuffer(t.symbols, dtype=np.uint8)


def build_suffix_array(t: Text) -> array:
    """Start positions ``1..n`` sorted by suffix, via prefix doubling.

    The first sort orders the suffixes by their first ``k`` symbols, packed
    into one 63-bit key (``k`` = 21 for four symbols, 7 for 255), with
    terminators past the text end.  The suffixes sharing a prefix fill a
    run of slots, their group, and a suffix's rank is its group's first
    slot.  Each round then re-sorts only the suffixes in groups of two or
    more, by (rank, rank ``k`` positions on), splits those groups and
    doubles ``k`` (Larsson & Sadakane, TCS 2007); a suffix alone in its
    group is never touched again.  The trailing terminator is the unique
    smallest symbol, so all suffixes are distinct, a tied suffix never
    reaches the text end within ``k`` symbols, and the rounds end once
    ``k`` exceeds the longest common prefix ``L``.  Work is O(n log n) for
    the first sort plus O(u log u) per round for its ``u`` unresolved
    suffixes: O(n log n log(L / k)) at worst (one repeated symbol), far
    less when most suffixes resolve early.  Transient memory is about 40
    bytes per suffix in the first sort and per unresolved suffix after it,
    beside the 4-byte rank and slot arrays.
    """
    n = t.n
    codes = _codes(t)
    bits = t.sigma.bit_length()
    k = min(63 // bits, n)
    key = np.zeros(n, dtype=np.int64)
    for j in range(k):
        key <<= bits
        key[:n - j] |= codes[1 + j:]
    order = np.argsort(key)
    key = key[order]
    # 4 bytes while the sum of two positions still fits.
    dtype = np.int32 if n < 2**30 else np.int64
    sa = np.zeros(n + 1, dtype=dtype)
    sa[1:] = order + 1
    rank = np.zeros(n + 1, dtype=dtype)
    slots = np.arange(1, n + 1, dtype=dtype)
    pos = sa[1:]
    while True:
        # ``key`` is sorted: a group starts wherever it changes.
        head = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=head[1:])
        first = np.maximum.accumulate(np.where(head, slots, 0))
        rank[pos] = first
        tied = ~head
        tied[:-1] |= ~head[1:]
        if not tied.any():
            break
        slots = slots[tied]
        pos = pos[tied]
        key = first[tied].astype(np.int64) * (n + 1) + rank[pos + k]
        # Within a group the previous order often sorts the new keys
        # already, and a stable sort runs through such stretches in O(u).
        order = np.argsort(key, kind="stable")
        key = key[order]
        pos = pos[order]
        sa[slots] = pos
        k <<= 1
    return pack(sa, n)


def build_inverse(sa: Sequence[int]) -> array:
    """Inverse permutation: ``isa[sa[i]] = i``, by one scatter."""
    values = np.asarray(sa)
    isa = np.zeros(len(values), dtype=values.dtype)
    isa[values[1:]] = np.arange(1, len(values), dtype=values.dtype)
    return pack(isa, len(values) - 1)


def build_lcp(t: Text, sa: Sequence[int]) -> array:
    """Longest-common-prefix lengths of rank-adjacent suffixes.

    Level ``j`` gives every position the class of its ``2**j``-symbol
    prefix, numbered in suffix order, so that equal classes mean equal
    prefixes (Manber & Myers, SICOMP 1993).  Level 0 is the symbols.  Since
    ``sa`` is sorted, two rank-adjacent suffixes share ``2**(j + 1)``
    symbols exactly when they share ``2**j`` symbols and so do the suffixes
    ``2**j`` further on: one gather of level ``j`` in suffix order, one
    cumulative sum and one scatter give level ``j + 1``, with no sort.
    Levels stop once no adjacent pair shares a prefix of the level's
    length.  One descent from the top level then extends the common prefix
    of every adjacent pair at once, by ``2**j`` wherever the classes at the
    current offsets agree.
    Work is O(n log L) for the longest common prefix ``L``; transient
    memory is one 4-byte class array per level, about
    ``4 * n * ceil(log2(L + 1))`` bytes.
    """
    n = t.n
    dtype = np.int32 if n < 2**30 else np.int64  # positions plus offsets fit
    order = np.asarray(sa, dtype=dtype)[1:]
    codes = _codes(t)
    first = codes[order]
    differ = first[1:] != first[:-1]
    ranks = np.zeros(n, dtype=dtype)
    levels = []
    classes = codes
    while not differ.all():
        if levels:
            np.cumsum(differ, out=ranks[1:])
            classes = np.empty(n + 1, dtype=dtype)
            classes[order] = ranks
        levels.append(classes)
        # Only a suffix holding the terminator within its first 2**j
        # symbols can run past n, and its pairs already differ.
        after = classes.take(order + (1 << (len(levels) - 1)), mode="clip")
        differ |= after[1:] != after[:-1]
    a = order[:-1]
    b = order[1:]
    common = np.zeros(n - 1, dtype=dtype)
    for j in reversed(range(len(levels))):
        classes = levels[j]
        agree = classes[a + common] == classes[b + common]
        common += agree.astype(dtype) << j
    lcp = np.zeros(n + 1, dtype=dtype)
    lcp[2:] = common
    return pack(lcp, n)


def build_ensemble(t: Text) -> SuffixEnsemble:
    sa = build_suffix_array(t)
    return SuffixEnsemble(sa=sa, lcp=build_lcp(t, sa), text=t)


def find_pattern_range(
    e: SuffixEnsemble,
    q: Sequence[int],
    stats: QueryStats | None = None,
) -> tuple[int, int] | None:
    """Maximal rank interval whose suffixes start with ``q``, or None.

    Two :mod:`bisect` searches over the suffix array, keyed by each
    suffix's first ``m`` symbols: O(m log n) symbol comparisons.  A window
    cut short by the text end holds the terminator at ``n``, and the
    pattern has none, so the two differ before the window ends.  A code
    that no byte holds occurs nowhere: None.
    """
    codes = list(q)
    if not codes:
        raise EmptyPatternError("pattern must be nonempty")
    if SENTINEL in codes:
        raise SentinelInPatternError("pattern contains the terminator symbol")
    try:
        pattern = bytes(codes)
    except ValueError:
        return None
    n = e.text.n
    m = len(pattern)
    symbols = e.text.symbols
    sa = e.sa

    def window(pos: int) -> bytes:
        if stats is not None:
            stats.sa_accesses += 1
        return symbols[pos:pos + m]

    first = bisect_left(sa, pattern, 1, n + 1, key=window)
    if first > n or window(sa[first]) != pattern:
        return None
    return first, bisect_right(sa, pattern, first, n + 1, key=window) - 1


def compute_bwt_runs(e: SuffixEnsemble) -> int:
    """Number of maximal equal-symbol runs in ``symbols[sa[i] - 1]``."""
    bwt = _codes(e.text)[np.asarray(e.sa)[1:] - 1]
    return 1 + int(np.count_nonzero(bwt[1:] != bwt[:-1]))
