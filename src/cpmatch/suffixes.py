"""Suffix array, inverse, LCP array, pattern-range search, BWT run counts.

Arrays are 1-based, with a padding zero in slot 0, covering the suffix
start positions ``1..n`` of a remapped text; the suffix of the leading
terminator at position 0 is deliberately excluded.  Each is a packed
``array('i')`` (``'q'`` when n >= 2**31) made by :func:`~cpmatch.rmq.pack`.

The builders are whole-array numpy passes: one prefix-doubling pass that
re-sorts only unresolved suffixes and keeps each round's prefix classes, an
LCP array read off those classes, and one scatter for the inverse.  The
first sort's keys are packed by doubling their width, in about log2 k0
passes; each round finds its group starts by a running maximum and
selects its tied suffixes through one index.  An adjacent pair whose
first-sort keys differ takes its LCP from their XOR; only the other pairs
descend the classes.  The kept classes are transient: 4n bytes per kept
round plus the 8n-byte key of the first sort, freed as the descent uses
them.  One direction's build peaks at about 54 bytes of heap per text byte
on repetitive text and 29 on random text (n = 2**16).  The builders read
their input arrays through ``np.asarray``, a zero-copy view of a packed
array, and pack their result once.
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


def _key_width(t: Text) -> tuple[int, int]:
    """Bits per symbol and symbols per 63-bit key: ``(bits, k0)``."""
    bits = t.sigma.bit_length()
    return bits, min(63 // bits, t.n)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each non-negative int64, exact up to 2**63.

    A float's exponent is the bit length of the integer it holds, except
    that above 2**53 rounding may add one; it never falls short.  The top
    37 bits, ``x >> 26``, convert exactly, so 26 plus their length is exact
    when they are nonzero; when they are zero it is 26, and ``x``, then
    below 2**26, converts exactly.  The smaller of the two is the length
    either way.
    """
    length = np.frexp(x >> 26)[1]
    length += 26
    return np.minimum(length, np.frexp(x)[1], out=length)


def _packed_keys(t: Text) -> np.ndarray:
    """Each position's first ``k0`` symbols packed into one int64, slot 0 zero.

    Doubling the packed width, ``W_2w[i] = W_w[i] << bits*w | W_w[i + w]``,
    and appending one symbol per set bit of ``k0`` below its top bit,
    reaches ``k0`` symbols in ``floor(log2 k0)`` doublings plus at most as
    many appends, Horner-style: six shift-or passes for ``k0`` = 21.
    Windows that run past the text end read the terminator code 0.
    """
    bits, k0 = _key_width(t)
    codes = _codes(t)
    key = codes.astype(np.int64)
    width = 1
    for bit in bin(k0)[3:]:
        doubled = key << (bits * width)
        doubled[:-width] |= key[width:]
        key = doubled
        width *= 2
        if bit == "1":
            key <<= bits
            key[:-width] |= codes[width:]
            width += 1
    key[0] = 0
    return key


def build_suffix_array(t: Text) -> tuple[array, list[np.ndarray]]:
    """Start positions ``1..n`` sorted by suffix, and the rounds' classes.

    The first sort orders the suffixes by their first ``k0`` symbols,
    packed into one 63-bit key (``k0`` = 21 for four symbols, 7 for 255),
    with terminators past the text end.  The suffixes sharing a prefix fill
    a run of slots, their group, and a suffix's rank is its group's first
    slot.  Each round then re-sorts only the suffixes in groups of two or
    more, by (rank, rank ``k`` positions on), splits those groups and
    doubles ``k`` (Larsson & Sadakane, TCS 2007); a suffix alone in its
    group is never touched again.  The trailing terminator is the unique
    smallest symbol, so all suffixes are distinct, a tied suffix never
    reaches the text end within ``k`` symbols, and the rounds end once
    ``k`` exceeds the longest common prefix ``L``.  Work is O(n log n) for
    the first sort plus O(u log u) per round for its ``u`` unresolved
    suffixes: O(n log n log(L / k0)) at worst (one repeated symbol), far
    less when most suffixes resolve early.

    One prefix-doubling pass gives both: the round classes are the LCP
    levels that :func:`build_lcp` descends (Manber & Myers, SICOMP 1993),
    so no second pass recomputes them.
    ``levels[0]`` is the first sort's int64 key of every position ``1..n``;
    ``levels[j]`` is the rank array right after round ``j``: the class of
    every position's ``k0 * 2**j``-symbol prefix, equal exactly when the
    prefixes are.  The last round's all-distinct ranks are not kept.

    Passes: the packing takes about log2 k0 shift-or passes (see
    :func:`_packed_keys`).  A round compares neighbouring keys once for its
    group heads, finds their starts as ``slots * head`` and one running
    maximum, then selects its tied slots, positions and starts through one
    index and builds the next keys in one int64 array.  Transient memory is
    about 16 bytes per suffix in the first sort (its int64 order and the
    sorted keys) and about 32 per unresolved suffix in a round (keys, their
    order and sorted copy, slots and positions), beside the 4-byte rank
    and slot arrays; the returned levels take the 8n-byte key plus 4n bytes
    per kept round.
    """
    n = t.n
    _, k0 = _key_width(t)
    key = _packed_keys(t)
    levels = [key]
    # Positions and ranks take 4 bytes each below n = 2**30.
    dtype = np.int32 if n < 2**30 else np.int64
    order = np.argsort(key[1:])
    sa = np.zeros(n + 1, dtype=dtype)
    np.add(order, 1, out=sa[1:], casting="unsafe")
    key = key[1:][order]
    del order
    pos = sa[1:]
    rank = np.zeros(n + 1, dtype=dtype)
    slots = np.arange(1, n + 1, dtype=dtype)
    k = k0
    while True:
        # ``key`` is sorted: a group starts wherever it changes.
        head = np.empty(len(key), dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        # Each array goes once used: the round's heap peak is what is left.
        del key
        alone = head.copy()
        alone[:-1] &= head[1:]
        if alone.all():
            break
        first = slots * head
        np.maximum.accumulate(first, out=first)
        rank[pos] = first
        if k > k0:
            levels.append(rank.copy())
        tied = np.flatnonzero(~alone)
        del alone
        slots = slots[tied]
        pos = pos[tied]
        key = np.multiply(first[tied], n + 1, dtype=np.int64)
        del first, tied
        key += rank[k:][pos]
        # Within a group the previous order often sorts the new keys
        # already, and a stable sort runs through such stretches in O(u).
        order = np.argsort(key, kind="stable")
        key = key[order]
        pos = pos[order]
        del order
        sa[slots] = pos
        k <<= 1
    return pack(sa, n), levels


def build_inverse(sa: Sequence[int]) -> array:
    """Inverse permutation: ``isa[sa[i]] = i``, by one scatter."""
    values = np.asarray(sa)
    isa = np.zeros(len(values), dtype=values.dtype)
    isa[values[1:]] = np.arange(1, len(values), dtype=values.dtype)
    return pack(isa, len(values) - 1)


#: Adjacent pairs per step of :func:`build_lcp`: each step's temporaries
#: take a few dozen bytes a pair, so 2**13 pairs stay below half a MB.
_LCP_CHUNK = 1 << 13


def _tail(x: np.ndarray, bits: int, k0: int) -> np.ndarray:
    """Equal leading symbols of two ``k0``-symbol keys, from their XOR."""
    return (k0 * bits - _bit_length(x)) // bits


def build_lcp(t: Text, sa: Sequence[int], levels: list[np.ndarray]) -> array:
    """Longest-common-prefix lengths of rank-adjacent suffixes.

    ``levels`` are the prefix classes of :func:`build_suffix_array`'s one
    doubling pass: level ``j`` is equal at two positions exactly when they
    share ``k0 * 2**j`` symbols, and the last round's all-distinct classes
    bound every common prefix below ``k0 * 2**len(levels)``.  Fewer than
    ``k0`` equal symbols are read off the level-0 keys: the leading zero
    bits of the two keys' XOR, over ``bits`` per symbol.  One gather of the
    keys in suffix order gives that XOR for every adjacent pair, and a pair
    whose keys differ is done.  Only the tied pairs, equal on their first
    ``k0`` symbols, descend: from the top level, a pair's common prefix
    grows by ``k0 * 2**j`` wherever the classes at its current offsets
    agree, each level is dropped from ``levels`` once used, and the keys'
    XOR at the final offsets gives the rest.  No pair descends on random
    text; on repetitive text most do.  Work is one pass over the pairs plus
    O(t) per level for the ``t`` tied ones; transient memory beyond the
    levels is the 4n-byte result, 16 bytes per tied pair, and one
    ``_LCP_CHUNK`` of pairs' temporaries.
    """
    n = t.n
    bits, k0 = _key_width(t)
    dtype = np.int32 if n < 2**30 else np.int64  # positions plus offsets fit
    order = np.asarray(sa, dtype=dtype)[1:]
    key = levels[0]
    lcp = np.zeros(n + 1, dtype=dtype)
    found = []
    for lo in range(0, n - 1, _LCP_CHUNK):
        ends = key[order[lo:lo + _LCP_CHUNK + 1]]
        x = ends[1:] ^ ends[:-1]
        lcp[2 + lo:2 + lo + len(x)] = _tail(x, bits, k0)
        found.append(np.flatnonzero(x == 0).astype(dtype) + lo)
    tied = np.concatenate(found)
    del found
    a = order[tied]
    b = order[tied + 1]
    common = np.zeros(len(tied), dtype=dtype)
    spans = [slice(lo, lo + _LCP_CHUNK)
             for lo in range(0, len(tied), _LCP_CHUNK)]
    for j in reversed(range(len(levels))):
        classes = levels.pop()
        for span in spans:
            c = common[span]
            agree = classes[a[span] + c] == classes[b[span] + c]
            c += agree.astype(dtype) * (k0 << j)
    for span in spans:
        c = common[span]
        x = key[a[span] + c] ^ key[b[span] + c]
        lcp[2 + tied[span]] = c + _tail(x, bits, k0)
    return pack(lcp, n)


def build_ensemble(t: Text) -> SuffixEnsemble:
    sa, levels = build_suffix_array(t)
    return SuffixEnsemble(sa=sa, lcp=build_lcp(t, sa, levels), text=t)


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
