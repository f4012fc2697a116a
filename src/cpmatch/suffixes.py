"""Suffix array, inverse, LCP array, pattern-range search, BWT run counts.

Arrays are 1-based, with a padding zero in slot 0, covering the suffix
start positions ``1..n`` of a remapped text; the suffix of the leading
terminator at position 0 is deliberately excluded.  Each is a packed
``array('i')`` (``'q'`` when n >= 2**31) made by :func:`~cpmatch.rmq.pack`.

The builders are whole-array numpy passes.  One in-place sort of packed
words orders the suffixes by their first ``ks`` symbols, and prefix
doubling re-sorts only the suffixes still tied.  Each key holds ``ks``
symbols in at most 53 bits, beside a position in one int64, so float64
holds the XOR of two keys exactly and its exponent is the XOR's bit
length: the XOR of adjacent sorted keys gives every LCP below ``ks``.  Of
the deeper pairs, only those at BWT-run boundaries are compared symbol by
symbol, and one running maximum in text order fills in the rest (the Phi
method).  One scatter gives the inverse.  One direction's build peaks at
about 39 bytes of heap per text byte on repetitive text, in its first
doubling round, and at 19 on random text (n = 2**16).  The builders read
their input arrays through ``np.asarray``, a zero-copy view of a packed
array, and pack their result once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _sort_width(t: Text) -> int:
    """Symbols per first-sort key, ``ks``, the one width the first sort uses.

    The key fits in 63 bits beside a position, and in float64's 53-bit
    mantissa, so that :func:`_tail` reads each key XOR's bit length
    exactly.  The 53-bit cap binds only below n = 512, where
    ``63 - n.bit_length()`` exceeds 53.
    """
    return min(min(63 - t.n.bit_length(), 53) // t.sigma.bit_length(), t.n)


def _packed_keys(t: Text) -> np.ndarray:
    """Each position's first ``ks`` symbols packed into one int64, slot 0 zero.

    Doubling the packed width, ``W_2w[i] = W_w[i] << bits*w | W_w[i + w]``,
    and appending one symbol per set bit of ``ks`` below its top bit,
    reaches ``ks`` symbols in ``floor(log2 ks)`` doublings plus at most as
    many appends, Horner-style.  Windows that run past the text end read
    the terminator code 0.
    """
    bits = t.sigma.bit_length()
    ks = _sort_width(t)
    codes = _codes(t)
    key = codes.astype(np.int64)
    spare = np.empty_like(key)
    width = 1
    for bit in bin(ks)[3:]:
        np.left_shift(key, bits * width, out=spare)
        spare[:-width] |= key[width:]
        key, spare = spare, key
        width *= 2
        if bit == "1":
            key <<= bits
            key[:-width] |= codes[width:]
            width += 1
    key[0] = 0
    return key


def build_suffix_array(t: Text) -> tuple[array, np.ndarray]:
    """Start positions ``1..n`` sorted by suffix, and the first sort's LCPs.

    The first sort orders the suffixes by their first ``ks`` symbols
    (:func:`_sort_width`: 15 for four symbols at n = 2·10^5), with
    terminators past the text end.  Each position's word is its packed key
    (:func:`_packed_keys`), at most 53 bits so that float64 holds the XOR
    of two keys exactly, with the position in the low ``n.bit_length()``
    bits; sorting that one int64 array in place gives the first order in
    its low bits and the sorted keys in its high bits, with no order array
    and no gather.  The XOR of adjacent sorted keys gives each rank pair's
    common prefix capped at ``ks``, the second value returned:
    ``shallow[i]`` for ranks ``i - 1`` and ``i``, one byte each, exact
    below ``ks``.  :func:`build_lcp` completes it.

    The suffixes sharing a prefix fill a run of slots, their group, and a
    suffix's rank is its group's first slot.  Each round then re-sorts only
    the suffixes in groups of two or more, by (rank, rank ``k`` positions
    on), splits those groups and doubles ``k`` (Larsson & Sadakane, TCS
    2007); a suffix alone in its group is never touched again.  The
    trailing terminator is the unique smallest symbol, so all suffixes are
    distinct, a tied suffix never reaches the text end within ``k``
    symbols, and the rounds end once ``k`` exceeds the longest common
    prefix ``L``.  Work is O(n log n) for the first sort plus O(u log u) per
    round for its ``u`` unresolved suffixes: O(n log n log(L / ks)) at
    worst (one repeated symbol), far less when most suffixes resolve early.

    Passes: the packing takes about log2 ks shift-or passes, and the words
    a shift and an OR.  A round finds its group starts as
    ``slots * head`` and one running maximum, selects its tied slots,
    positions and starts through one index, builds the next keys in one
    int64 array, and compares neighbouring keys once for the next heads.
    Transient memory is the 8n-byte words in the first sort and about 32
    bytes per unresolved suffix in a round (keys, their order and sorted
    copy, slots and positions), beside the 4-byte rank, slot and suffix
    arrays and the 1-byte shallow LCPs.
    """
    n = t.n
    bits = t.sigma.bit_length()
    ks = _sort_width(t)
    shift = n.bit_length()
    # Positions and ranks take 4 bytes each below n = 2**30.
    dtype = np.int32 if n < 2**30 else np.int64
    words = _packed_keys(t)[1:]
    words <<= shift
    words |= np.arange(1, n + 1, dtype=dtype)
    words.sort()
    sa = np.zeros(n + 1, dtype=dtype)
    np.bitwise_and(words, (1 << shift) - 1, out=sa[1:], casting="unsafe")
    words >>= shift
    shallow = np.zeros(n + 1, dtype=np.uint8)
    for lo in range(0, n - 1, _LCP_CHUNK):
        ends = words[lo:lo + _LCP_CHUNK + 1]
        shallow[2 + lo:1 + lo + len(ends)] = _tail(ends[1:] ^ ends[:-1], bits, ks)
    del words, ends
    # A group starts wherever the sorted keys differ.
    head = shallow[1:] < ks
    pos = sa[1:]
    rank = np.zeros(n + 1, dtype=dtype)
    slots = np.arange(1, n + 1, dtype=dtype)
    k = ks
    while True:
        alone = head.copy()
        alone[:-1] &= head[1:]
        if alone.all():
            break
        first = slots * head
        del head
        np.maximum.accumulate(first, out=first)
        rank[pos] = first
        tied = np.flatnonzero(~alone)
        del alone
        slots = slots.take(tied)
        pos = pos.take(tied)
        key = np.multiply(first.take(tied), n + 1, dtype=np.int64)
        del first, tied
        key += rank[k:].take(pos)
        # Within a group the previous order often sorts the new keys
        # already, and a stable sort runs through such stretches in O(u).
        order = np.argsort(key, kind="stable")
        key = key.take(order)
        pos = pos.take(order)
        del order
        sa[slots] = pos
        head = np.empty(len(key), dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        del key
        k <<= 1
    return pack(sa, n), shallow


def build_inverse(sa: Sequence[int]) -> array:
    """Inverse permutation: ``isa[sa[i]] = i``, by one scatter."""
    values = np.asarray(sa)
    isa = np.zeros(len(values), dtype=values.dtype)
    isa[values[1:]] = np.arange(1, len(values), dtype=values.dtype)
    return pack(isa, len(values) - 1)


#: Adjacent pairs per step of the first sort's LCP pass: each step's
#: temporaries take a few dozen bytes a pair, so 2**13 pairs stay below
#: half a MB.
_LCP_CHUNK = 1 << 13


def _tail(x: np.ndarray, bits: int, width: int) -> np.ndarray:
    """Equal leading symbols of two ``width``-symbol keys, from their XOR.

    ``np.frexp``'s exponent is each XOR's bit length: the XOR, at most 53
    bits wide (:func:`_sort_width`), converts to float64 exactly.
    """
    return (width * bits - np.frexp(x)[1]) // bits


#: Symbols compared per pair in each step of :func:`_extend`.  Wider steps
#: take fewer numpy calls on deep pairs and gather more bytes for shallow
#: ones; on repetitive text 128 ran a third faster than 64 and about as
#: fast as 256.
_STEP = 128


def _extend(codes: np.ndarray, a: np.ndarray, b: np.ndarray, common: int) -> np.ndarray:
    """LCPs of the suffix pairs ``(a[j], b[j])``, which share ``common`` symbols.

    Each step compares the next ``_STEP`` symbols of every pair still
    equal, as two rows of a zero-copy window view of the text, and drops
    the pairs that differ there.  The view runs over a copy of the codes
    padded with ``_STEP`` terminators, so no window is cut short.
    """
    padded = np.zeros(len(codes) + _STEP, dtype=np.uint8)
    padded[:len(codes)] = codes
    windows = sliding_window_view(padded, _STEP)
    out = np.empty(len(a), dtype=a.dtype)
    live = np.arange(len(a), dtype=a.dtype)
    while live.size:
        # Indexing gathers the rows; ``take`` would copy the whole view.
        differ = windows[a + common] != windows[b + common]
        done = differ.any(axis=1)
        out[live[done]] = common + differ[done].argmax(axis=1)
        equal = ~done
        live, a, b = live[equal], a[equal], b[equal]
        common += _STEP
    return out


def build_lcp(t: Text, sa: Sequence[int], shallow: np.ndarray) -> array:
    """Longest-common-prefix lengths of rank-adjacent suffixes.

    ``shallow`` is :func:`build_suffix_array`'s second value: each pair's
    LCP capped at the first sort's ``ks`` symbols.  Only the pairs tied at
    ``ks`` need more.  Write ``PLCP[p]`` for the LCP of suffix ``p`` with
    the suffix ranked just before it.  Where the symbols before the two
    suffixes are equal, ``PLCP[p - 1] = PLCP[p] + 1``: the pair one
    position back is rank-adjacent too.  So ``PLCP[p] + p`` never
    decreases in ``p``, and it changes only at a BWT-run boundary, where
    the symbols before differ (Kaerkkaeinen, Manzini & Puglisi, CPM 2009).
    Walking back in text order from a tied position, the LCP only grows
    until the nearest boundary, so that boundary is tied too.  Hence only
    the tied boundary pairs are compared (:func:`_extend`); their
    ``PLCP[p] + p`` go into a zeroed array, one running maximum in text
    order gives ``PLCP[p] + p`` at every tied position and no more than
    ``PLCP[p] + p`` anywhere, and each rank's LCP is the larger of its
    shallow LCP and that maximum minus its position.  No pair is tied on
    random text, which skips all of it.  Work is one pass over the pairs,
    plus ``_STEP`` symbols per step and tied boundary pair, for as many
    steps as the deepest of them needs; transient memory is the 4n-byte
    result, one 4n-byte array in text order and its gather in rank order
    (which ``take`` makes through an 8n-byte intp copy of ``sa``), and the
    padded n-byte text.
    """
    n = t.n
    ks = _sort_width(t)
    sa = np.asarray(sa)
    lcp = shallow.astype(sa.dtype)
    tied = shallow[2:] == ks
    if tied.any():
        codes = _codes(t)
        bwt = codes.take(np.subtract(sa[1:], 1, dtype=np.intp))
        tied &= bwt[1:] != bwt[:-1]
        del bwt
        ranks = np.flatnonzero(tied) + 2
        del tied
        b = sa.take(ranks)
        deep = _extend(codes, sa.take(ranks - 1), b, ks)
        plus = np.zeros(n + 1, dtype=lcp.dtype)
        plus[b] = deep + b
        del ranks, b, deep
        np.maximum.accumulate(plus, out=plus)
        fill = plus.take(sa)
        del plus
        fill -= sa
        np.maximum(lcp, fill, out=lcp)
    return pack(lcp, n)


def build_ensemble(t: Text) -> SuffixEnsemble:
    sa, shallow = build_suffix_array(t)
    return SuffixEnsemble(sa=sa, lcp=build_lcp(t, sa, shallow), text=t)


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
