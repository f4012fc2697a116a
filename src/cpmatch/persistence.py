"""Versioned binary serialization of the index base arrays.

Layout, all integers little-endian and fixed width:

    magic      4 bytes   b"CPMX"
    version    u32       currently 1
    n          u64
    sigma      u64
    table      8 entries of (offset u64, size u64), one per section
    sections   contiguous, no padding, in table order:
        0  alphabet   sigma values: input byte for code 1..sigma
        1  symbols    n + 1 values: the remapped text, terminators included
        2  fwd_sa     n values
        3  fwd_isa    n values
        4  fwd_lcp    n values
        5  rev_sa     n values
        6  rev_lcp    n values
        7  c_map      n values; the undefined entry is stored as 2**64 - 1

Every value is u64 regardless of n, trading bytes for format stability.
Acceleration tables are rebuilt on load, and ``fwd_isa`` and ``c_map`` are
derived again from the suffix arrays, which the stored copies must equal.
Output is a pure function of the index: saving twice yields identical bytes.

Both directions stream: every section size follows from n and sigma, so
the header goes first and the sections follow one at a time, in file
order, and neither side ever seeks.  Each holds at most one section's u64
bytes at a time: load compares the stored ``fwd_isa`` and ``c_map``
sections with the packed arrays it derives again, through one bool per
rank, and :func:`_read_exact` reads a section over ``_READ_PIECE`` bytes
(16 MiB, n above 2**21) in pieces into one array grown in place, never
joined into a second copy.  Load checks each section as it arrives, so of
two faults the first in file order is the one reported.

Verified load then checks each suffix array's order and each LCP array in
O(n) array work, with no suffix compared symbol by symbol: rank-adjacent
suffixes either differ in their first symbol or keep their order one
position on, and the LCP of a pair follows one LCP entry when the pair
stays adjacent one position on.  The other pairs sit at BWT-run
boundaries, and range minima run only for those that share 8 symbols or
more.  A pair that shares fewer is settled by one compare of the two
suffixes' first 8 symbols, read as one 8-byte window each.  Each
direction takes one of two complete checks, picked by the share of its
stored LCP entries below 8: at half or more, every pair compares windows
first and only equal windows follow the suffixes one position on; below
half, every pair follows them and only run-boundary pairs compare
windows.  An unverified LCP section thus steers only the speed of the
check, never its verdict.
"""

from __future__ import annotations

import struct
from array import array
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .corpus import SENTINEL, make_text, reverse_text
from .errors import (
    BadMagicError,
    CorruptSectionError,
    UnsupportedVersionError,
)
from .index import C_UNDEFINED, CpmIndex, assemble_index, translate_ranks
from .rmq import RmqStructure, pack
from .suffixes import SuffixEnsemble, build_inverse

MAGIC = b"CPMX"
VERSION = 1

_SECTION_COUNT = 8
_HEADER_SIZE = 4 + 4 + 8 + 8 + _SECTION_COUNT * 16
_UNDEF_ON_DISK = (1 << 64) - 1

#: Ranks per vectorised step of the load-time order and LCP checks, the
#: window check's as well as the psi check's, whose temporaries take up to
#: about 60 bytes per rank.  The deep run-boundary pairs are held and get
#: one range-minimum call once half as many (2**13) or more are held, and
#: after the last block, so one call answers at most 2**13 - 1 + 2**14
#: pairs.
_VERIFY_BLOCK = 1 << 14

#: Largest single read, so that memory grows only with the bytes present.
_READ_PIECE = 1 << 24

_NOT_PERMUTATION = "suffix array is not a permutation of 1..n"
_NOT_INVERSE = "inverse does not invert the suffix array"
_BAD_LCP = "LCP array inconsistent with the text"
_BAD_C_MAP = "rank-translation array inconsistent"


def save_index(ix: CpmIndex, sink: BinaryIO) -> int:
    """Write the index to ``sink``; returns the number of bytes written.

    The header goes first, then each section in file order, converted to
    u64 and written through the buffer protocol before the next one is
    made, so at most one section's u64 bytes are held at a time.
    """
    t = ix.text
    header = [MAGIC, struct.pack("<IQQ", VERSION, t.n, t.sigma)]
    offset = _HEADER_SIZE
    for size in _section_sizes(t.n, t.sigma):
        header.append(struct.pack("<QQ", offset, size))
        offset += size
    sink.write(b"".join(header))
    for body in _section_bodies(ix):
        sink.write(body)
        del body  # before the next section is made
    return offset


def _section_sizes(n: int, sigma: int) -> list[int]:
    """Byte size of each section, in file order."""
    return [8 * count for count in (sigma, n + 1, n, n, n, n, n, n)]


def _section_bodies(ix: CpmIndex) -> Iterator[np.ndarray]:
    """Each section's u64 values in file order, made only when asked for."""
    t = ix.text
    yield np.asarray(t.byte_for_code[1:], dtype="<u8")
    yield np.frombuffer(t.symbols, dtype=np.uint8).astype("<u8")
    for values in (ix.fwd.sa, ix.isa, ix.fwd.lcp, ix.rev.sa, ix.rev.lcp):
        yield np.asarray(values)[1:].astype("<u8")
    yield _c_map_section(ix.c_array)


def _c_map_section(c_array: Sequence[int]) -> np.ndarray:
    """The ``c_map`` section of ``c_array``: u64, undefined as 2**64 - 1."""
    c_map = np.asarray(c_array)[1:].astype("<u8")
    c_map[c_map == C_UNDEFINED] = _UNDEF_ON_DISK
    return c_map


def _c_map_matches(c_map: np.ndarray, c_array: Sequence[int], undefined: int) -> bool:
    """Whether the ``c_map`` section holds ``c_array``.

    ``undefined`` is the rank whose entry is undefined, the rank of the
    reverse text's suffix n; the section stores it as 2**64 - 1.  A u64
    and a packed int compare exactly: numpy 2 has a mixed-sign loop, and
    numpy 1's float64 is exact below 2**53, which no rank reaches.
    """
    same = c_map == np.asarray(c_array)[1:]
    same[undefined - 1] = c_map[undefined - 1] == _UNDEF_ON_DISK
    return bool(same.all())


def _read_exact(source: BinaryIO, size: int, what: str) -> np.ndarray:
    """``size`` bytes of ``source``, read at most ``_READ_PIECE`` at a time.

    Every section is read into one uninitialised byte array, so a section
    of one piece costs one copy out of ``source``, as a plain ``read`` does.
    A larger one grows that array in place by ``ndarray.resize`` before each
    later piece, so it is held once (1.0x a 17.6 MB section under
    tracemalloc).  A short read is followed by another until the stream
    ends.  No read asks for more than ``_READ_PIECE`` bytes, so memory grows
    only with the bytes present.

    The resize skips numpy's reference check, which refuses whenever a
    trace or profile hook is set: the hook's frame locals hold one more
    reference to ``data``.  Skipping it is safe, as no view of ``data``
    outlives its ``readinto``, and a hook holds only the array object,
    whose data pointer the resize updates.
    """
    data = np.empty(min(size, _READ_PIECE), np.uint8)
    got = 0
    while got < size:
        if got == len(data):
            data.resize(min(size, got + _READ_PIECE), refcheck=False)
        read = source.readinto(data[got:])
        if not read:
            raise CorruptSectionError(f"truncated stream while reading {what}")
        got += read
    return data


def load_index(source: BinaryIO, verify: bool = True) -> CpmIndex:
    """Reconstruct an index saved by :func:`save_index`.

    Every load range-checks the other sections, requires both suffix
    arrays to be permutations, derives ``fwd_isa`` and ``c_map`` as the
    build does and requires the stored copies to equal them, and rejects
    bytes past the last section.  ``verify`` (the default) adds the O(n)
    order and LCP checks of :func:`_check_ensemble`, one of two per
    direction.  Where fewer than half of the stored LCP entries are below
    8 (the benchmark's ``repetitive`` and ``long-context`` texts), one
    gather of ``psi`` per rank and one 8-symbol window compare per pair
    at a BWT-run boundary.  Elsewhere (``random-dense``), one 8-symbol
    window per rank and ``psi`` only for pairs whose windows are equal.
    Either way range minima run only for the boundary pairs whose suffixes
    share 8 symbols or more, and either check alone rejects every fault,
    so the unverified LCP section picks only the faster one.  Violations
    raise :class:`CorruptSectionError`.

    Sections are read, checked and packed one at a time in file order, and
    each one's u64 bytes are dropped once used.  The ``fwd_isa`` and
    ``c_map`` sections are compared with the packed arrays derived again,
    through one bool per rank and no u64 copy: at n = 2**16 the section
    phase peaks 9.0 bytes of heap per text byte above what is held when the
    tables are built.  Each section is read into one buffer, in pieces of
    at most ``_READ_PIECE`` bytes, and held once.  Of two faults, the first
    in file order is the one reported; the order and LCP checks come last.
    Those run block by block in rank order, forward direction first, and a
    held pair's LCP fault is raised at the next ``range_minima`` call, so a
    fault that any block checked before that call finds is reported
    instead.
    """
    magic = bytes(_read_exact(source, 4, "magic"))
    if magic != MAGIC:
        raise BadMagicError(f"expected {MAGIC!r}, found {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(source, 4, "version"))
    if version != VERSION:
        raise UnsupportedVersionError(f"cannot read format version {version}")
    n, sigma = struct.unpack("<QQ", _read_exact(source, 16, "dimensions"))
    if n < 2 or sigma < 1 or sigma > 255 or sigma > n - 1:
        raise CorruptSectionError(f"implausible dimensions n={n} sigma={sigma}")

    sizes = _section_sizes(n, sigma)
    offset = _HEADER_SIZE
    for idx, size in enumerate(sizes):
        off, stored = struct.unpack("<QQ", _read_exact(source, 16, "section table"))
        if off != offset or stored != size:
            raise CorruptSectionError(f"section {idx} has inconsistent extent")
        offset += size
    sections = (
        _read_exact(source, size, f"section {idx}").view("<u8")
        for idx, size in enumerate(sizes)
    )

    alphabet = next(sections)
    if _outside(alphabet, 1, 255) or (alphabet[1:] <= alphabet[:-1]).any():
        raise CorruptSectionError("alphabet section is not an ordered byte set")
    symbols = next(sections)
    if symbols[0] != SENTINEL or symbols[n] != SENTINEL:
        raise CorruptSectionError("text does not start and end with the terminator")
    if _outside(symbols[1:n], 1, sigma):
        raise CorruptSectionError("text symbol out of alphabet range")
    text = make_text(symbols.astype(np.uint8).tobytes(), alphabet.tolist())
    del symbols
    # The rank checks run even without verify: ranks index the other
    # arrays, and every value must fit the tables built below.
    sa, isa = _suffix_array(next(sections), n)
    # The stored copies are compared with the packed arrays themselves,
    # one bool per rank and no u64 copy.
    if not np.array_equal(next(sections), np.asarray(isa)[1:]):
        raise CorruptSectionError(_NOT_INVERSE)
    lcp = _rank_section(next(sections), 0, n, _BAD_LCP)
    sa_rev, isa_rev = _suffix_array(next(sections), n)
    lcp_rev = _rank_section(next(sections), 0, n, _BAD_LCP)
    c_array = translate_ranks(isa, sa_rev)
    if not _c_map_matches(next(sections), c_array, isa_rev[n]):
        raise CorruptSectionError(_BAD_C_MAP)
    if source.read(1):
        raise CorruptSectionError("stream holds bytes after the last section")

    fwd = SuffixEnsemble(sa=sa, lcp=lcp, text=text)
    rev = SuffixEnsemble(sa=sa_rev, lcp=lcp_rev, text=reverse_text(text))
    ix = assemble_index(text, fwd, rev, c_array, isa)
    if verify:
        _check_ensemble(fwd, isa, ix.rmq_fwd)
        _check_ensemble(rev, isa_rev, ix.rmq_rev)
    return ix


def _rank_section(values: np.ndarray, lo: int, n: int, message: str) -> array:
    """A section of n values in ``lo..n - 1 + lo`` as a 1-based packed array."""
    if _outside(values, lo, n - 1 + lo):
        raise CorruptSectionError(message)
    return pack(values, n, pad=1)


def _suffix_array(values: np.ndarray, n: int) -> tuple[array, array]:
    """A suffix-array section and its inverse, both 1-based and packed."""
    sa = _rank_section(values, 1, n, _NOT_PERMUTATION)
    # n ranks in 1..n fill every slot of their inverse, leaving no zero
    # there, exactly when they are a permutation.
    isa = build_inverse(sa)
    if not np.asarray(isa)[1:].all():
        raise CorruptSectionError(_NOT_PERMUTATION)
    return sa, isa


def _outside(values: np.ndarray, lo: int, hi: int) -> bool:
    return bool(values.min() < lo or values.max() > hi)


def _check_ensemble(e: SuffixEnsemble, isa: Sequence[int], rmq: RmqStructure) -> None:
    """Check that the permutation ``e.sa`` is sorted and ``rmq.array`` its LCP.

    Both checks are O(n) and need no symbol-by-symbol comparison.  Write
    ``psi(r)`` for the rank of ``sa[r] + 1``.  Order (Burkhardt &
    Kaerkkaeinen, CPM 2003): for ranks ``r - 1``, ``r``, either the first
    symbol of suffix ``sa[r - 1]`` is below that of ``sa[r]``, or they are
    equal and ``psi(r - 1) < psi(r)``.  LCP: ``lcp[1] = 0``, and ``lcp[r]``
    is 0 when the first symbols differ, else one more than the minimum of
    ``lcp`` over ``psi(r - 1) + 1 .. psi(r)``.  Once the order holds, the
    true LCP array is the only one meeting this.  Equal first symbols are
    never the terminator, which occurs only at n, so ``psi`` is read only
    at suffixes.

    Pinning some entries to their true LCP keeps the answer unique: by
    induction on k, every entry whose true LCP is below k is right, and no
    other entry is below k.  A pair's true LCP below 8 can be pinned from
    the two suffixes' 8-symbol windows (:func:`_windows`): their XOR is
    nonzero, and its count of trailing zero bytes is the LCP.  Padding
    never fakes equality, for two distinct suffixes differ at or before
    the first terminator, code 0 at n.  Where ``psi(r) = psi(r - 1) + 1``
    the minimum is ``lcp[psi(r)]`` alone.  The other pairs with equal first
    symbols are the r - sigma - 1 at BWT-run boundaries (the irreducible
    LCPs of Kaerkkaeinen, Manzini & Puglisi, CPM 2009).

    Each block of ranks takes one of two checks, which find the same
    faults and hold the same pairs.  :func:`_check_block` gathers ``psi``
    for every rank and reads windows only at run boundaries; it pays where
    most LCPs are 8 or more, since ``psi`` then decides most pairs.
    :func:`_check_windows` gathers every rank's window and ``psi`` only
    where two windows are equal; it pays where most LCPs are below 8.  The
    choice is made per direction, by :func:`_mostly_shallow`, from the
    share of stored LCP entries below 8: about 0.09 on the benchmark's
    ``repetitive`` text and 0.38 on ``long-context``, which take the
    ``psi`` check, and 1.00 on ``random-dense``, which takes the window
    check.  The stored LCP is not yet trusted when it steers that choice,
    but either check is complete on its own, so a forged one can only
    slow the load, never pass it.

    The deep run-boundary pairs, whose windows are equal, are held, and
    checked together by one ``range_minima`` call once
    ``_VERIFY_BLOCK // 2`` or more are held, and after the last block.
    """
    sa = np.asarray(e.sa)
    isa = np.asarray(isa)
    n = len(sa) - 1
    lcp = np.asarray(rmq.array)
    if lcp[1] != 0:
        raise CorruptSectionError(_BAD_LCP)
    codes = np.frombuffer(e.text.symbols, dtype=np.uint8)
    windows = _windows(codes)
    shallow = _mostly_shallow(lcp)
    held, held_count = [], 0
    for lo in range(1, n, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK, n)
        if shallow:
            deep = _check_windows(lo, sa[lo:hi + 1], isa, lcp, windows)
        else:
            deep = _check_block(lo, sa[lo:hi + 1], isa, lcp, codes, windows)
        held.append(deep)
        held_count += deep[0].size
        if held_count and (held_count >= _VERIFY_BLOCK // 2 or hi == n):
            # range_minima gathers about a quarter faster through intp
            # positions, which it need not convert first.
            ranks, starts, ends = (np.concatenate(p, dtype=np.intp) for p in zip(*held))
            held, held_count = [], 0
            if (lcp[ranks] != rmq.range_minima(starts, ends) + 1).any():
                raise CorruptSectionError(_BAD_LCP)


def _mostly_shallow(lcp: np.ndarray) -> bool:
    """Whether at least half of the entries ``lcp[1:]`` are below 8."""
    return 2 * np.count_nonzero(lcp[1:] < 8) >= len(lcp) - 1


def _check_windows(
    lo: int,
    suffixes: np.ndarray,
    isa: np.ndarray,
    lcp: np.ndarray,
    windows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the pairs of ranks of :func:`_check_block` from their windows.

    A pair whose windows differ is decided by them: its LCP is their
    shared bytes, and its order is that of the first symbol they differ
    in.  The windows are little-endian, so the XOR's lowest set bit finds
    that symbol but does not order it; read big-endian, each window is a
    number whose order is that of its 8 symbols, and equal windows compare
    equal.  A pair whose windows are equal shares 8 symbols, none of them
    the terminator, and follows ``psi`` as in :func:`_check_block`.
    """
    w = windows.take(suffixes)
    shared = _shared_bytes(w[:-1] ^ w[1:])
    tied = np.flatnonzero(shared < 0)
    psi_left = isa.take(suffixes.take(tied) + 1)
    psi_right = isa.take(suffixes.take(tied + 1) + 1)
    big_endian = w.view(">u8")
    if (big_endian[:-1] > big_endian[1:]).any() or (psi_left >= psi_right).any():
        raise CorruptSectionError("suffix array ranks out of order")
    observed = lcp[lo + 1:lo + len(suffixes)]
    expected = shared.astype(lcp.dtype, copy=False)
    tied_expected = lcp.take(psi_right)
    tied_expected += 1
    deep = np.flatnonzero(psi_right - psi_left != 1)
    tied_expected[deep] = observed[tied[deep]]
    expected[tied] = tied_expected
    if (observed != expected).any():
        raise CorruptSectionError(_BAD_LCP)
    return tied[deep] + (lo + 1), psi_left[deep] + 1, psi_right[deep]


def _check_block(
    lo: int,
    suffixes: np.ndarray,
    isa: np.ndarray,
    lcp: np.ndarray,
    codes: np.ndarray,
    windows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the pairs of ranks ``lo .. lo + len(suffixes) - 1``, ``sa[lo:]``.

    Raises at a fault of order or of LCP; returns the deep pairs as
    ``(ranks, starts, ends)``, for :func:`_check_ensemble` to hold.
    Blocks of ranks keep the temporaries small whatever n is, and they die
    at return.  ``take`` gathers through the packed ranks and positions as
    they are, where indexing with ``[]`` would first convert 4-byte ones,
    at about twice the cost.
    """
    first = codes.take(suffixes)
    # Suffix n has no successor; its clipped read is never used.
    psi = isa.take(suffixes + 1, mode="clip")
    same = first[:-1] == first[1:]
    step = np.diff(psi)
    if (first[:-1] > first[1:]).any() or (same & (step <= 0)).any():
        raise CorruptSectionError("suffix array ranks out of order")
    expected = lcp.take(psi[1:])
    expected += 1
    expected *= same
    boundary = np.flatnonzero(same & (step != 1))
    shared = _shared_bytes(
        windows.take(suffixes.take(boundary)) ^ windows.take(suffixes.take(boundary + 1))
    )
    expected[boundary] = shared
    deep = boundary[shared < 0]
    observed = lcp[lo + 1:lo + len(suffixes)]
    expected[deep] = observed[deep]
    if (observed != expected).any():
        raise CorruptSectionError(_BAD_LCP)
    return deep + (lo + 1), psi[deep] + 1, psi[deep + 1]


def _windows(codes: np.ndarray) -> np.ndarray:
    """Element ``p`` holds ``codes[p:p + 8]`` as one u64, code ``p`` lowest.

    Positions past the end read as 0.  An explicit little-endian unsigned
    view puts code ``p`` in the low byte on any host, with no sign to
    extend.  Gathers from an aligned copy run about 5x faster than from
    the stride-1 view itself, for 8 bytes per code while the check runs.
    """
    padded = np.zeros(len(codes) + 7, dtype=np.uint8)
    padded[:len(codes)] = codes
    return np.ndarray(len(codes), dtype="<u8", buffer=padded, strides=(1,)).copy()


def _shared_bytes(x: np.ndarray) -> np.ndarray:
    """Trailing zero bytes of each u64 in ``x``, or -1 where it is 0.

    ``x & -x`` keeps the lowest set bit, a power of two that ``np.frexp``
    takes exactly: its exponent is the bit's index plus one.
    """
    return (np.frexp(x & -x)[1] - 1) >> 3
