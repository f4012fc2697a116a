"""Suffix array, inverse, LCP array, pattern-range search, BWT run counts.

Arrays are 1-based lists with a padding zero in slot 0, covering the suffix
start positions ``1..n`` of a remapped text; the suffix of the leading
terminator at position 0 is deliberately excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import SENTINEL, Text
from .errors import EmptyPatternError, SentinelInPatternError
from .rmq import QueryStats


@dataclass(frozen=True)
class SuffixEnsemble:
    """Suffix array, its inverse, and the LCP array for one text."""

    sa: list[int]
    isa: list[int]
    lcp: list[int]
    text: Text


def build_suffix_array(t: Text) -> list[int]:
    """Start positions ``1..n`` sorted by suffix, via prefix doubling.

    The trailing terminator is the unique smallest symbol, so all suffixes
    are distinct and the doubling loop always terminates with dense ranks.
    """
    n = t.n
    rank = np.asarray(t.symbols[1:], dtype=np.int64)
    k = 1
    while True:
        # One key per suffix orders it by (rank, rank k further on), with
        # suffixes that end before then first; ranks stay below n.
        key = rank * (n + 1)
        if k < n:
            key[:-k] += rank[k:] + 1
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
        if rank[order[-1]] == n - 1:
            break
        k <<= 1
    return np.concatenate(([0], order + 1)).tolist()


def build_inverse(sa: list[int]) -> list[int]:
    """Inverse permutation: ``isa[sa[i]] = i``."""
    isa = np.zeros(len(sa), dtype=np.int64)
    isa[np.asarray(sa, dtype=np.int64)[1:]] = np.arange(1, len(sa))
    return isa.tolist()


def build_lcp(t: Text, sa: list[int], isa: list[int]) -> list[int]:
    """Longest-common-prefix lengths of rank-adjacent suffixes, in O(n).

    Scans text positions in order and reuses the previous match length, so
    the total number of symbol comparisons is linear.
    """
    n = t.n
    symbols = t.symbols
    lcp = [0] * (n + 1)
    k = 0
    for j in range(1, n + 1):
        i = isa[j]
        if i == 1:
            k = 0
            continue
        prev = sa[i - 1]
        while j + k <= n and prev + k <= n and symbols[j + k] == symbols[prev + k]:
            k += 1
        lcp[i] = k
        if k:
            k -= 1
    return lcp


def build_ensemble(t: Text) -> SuffixEnsemble:
    sa = build_suffix_array(t)
    isa = build_inverse(sa)
    lcp = build_lcp(t, sa, isa)
    return SuffixEnsemble(sa=sa, isa=isa, lcp=lcp, text=t)


def find_pattern_range(
    e: SuffixEnsemble,
    q: Sequence[int],
    stats: QueryStats | None = None,
) -> tuple[int, int] | None:
    """Maximal rank interval whose suffixes start with ``q``, or None.

    Two binary searches over the suffix array, O(m log n) symbol
    comparisons.
    """
    pattern = list(q)
    if not pattern:
        raise EmptyPatternError("pattern must be nonempty")
    if SENTINEL in pattern:
        raise SentinelInPatternError("pattern contains the terminator symbol")
    n = e.text.n
    m = len(pattern)
    symbols = e.text.symbols
    sa = e.sa

    def compare(rank: int) -> int:
        # -1: suffix < q, 0: q is a prefix of the suffix, 1: suffix > q.
        # A window cut short by the text end holds the terminator at n, and
        # the pattern has none, so the two lists differ before it ends.
        if stats is not None:
            stats.sa_accesses += 1
        pos = sa[rank]
        window = symbols[pos:pos + m]
        if window == pattern:
            return 0
        return -1 if window < pattern else 1

    lo, hi = 1, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if compare(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    first = lo
    if first > n or compare(first) != 0:
        return None
    lo, hi = first, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if compare(mid) <= 0:
            lo = mid + 1
        else:
            hi = mid
    return first, lo - 1


def compute_bwt_runs(e: SuffixEnsemble) -> int:
    """Number of maximal equal-symbol runs in ``symbols[sa[i] - 1]``."""
    symbols = e.text.symbols
    runs = 0
    prev = -1
    for i in range(1, e.text.n + 1):
        c = symbols[e.sa[i] - 1]
        if c != prev:
            runs += 1
            prev = c
    return runs
