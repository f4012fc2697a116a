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
order, and neither side ever seeks.  At most one section's u64 bytes are
held at a time.  Load checks each section as it arrives, so of two faults
the first in file order is the one reported.
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

#: Ranks per vectorised step of the load-time order and LCP checks; the
#: held run-boundary pairs get one range-minimum call per half as many.
_VERIFY_BLOCK = 1 << 15

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


def _read_exact(source: BinaryIO, size: int, what: str) -> bytes:
    pieces = []
    while size:
        piece = source.read(min(size, _READ_PIECE))
        if not piece:
            raise CorruptSectionError(f"truncated stream while reading {what}")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def load_index(source: BinaryIO, verify: bool = True) -> CpmIndex:
    """Reconstruct an index saved by :func:`save_index`.

    Every load range-checks the other sections, requires both suffix
    arrays to be permutations, derives ``fwd_isa`` and ``c_map`` as the
    build does and requires the stored copies to equal them, and rejects
    bytes past the last section.  ``verify`` (the default) adds the O(n)
    order and LCP checks of :func:`_check_ensemble`: one gather of ``psi``
    per rank, and range minima only for the r - sigma - 1 pairs per
    direction at BWT-run boundaries.  Violations raise
    :class:`CorruptSectionError`.

    Sections are read, checked and packed one at a time in file order, and
    each one's u64 bytes are dropped once used, so at most one section's
    u64 bytes are held at a time.  Of two faults, the first in file order
    is the one reported; the order and LCP checks come last.
    """
    magic = _read_exact(source, 4, "magic")
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
        np.frombuffer(_read_exact(source, size, f"section {idx}"), dtype="<u8")
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
    if not np.array_equal(next(sections), np.asarray(isa)[1:].astype("<u8")):
        raise CorruptSectionError(_NOT_INVERSE)
    lcp = _rank_section(next(sections), 0, n, _BAD_LCP)
    sa_rev, isa_rev = _suffix_array(next(sections), n)
    lcp_rev = _rank_section(next(sections), 0, n, _BAD_LCP)
    c_array = translate_ranks(isa, sa_rev)
    if not np.array_equal(next(sections), _c_map_section(c_array)):
        raise CorruptSectionError(_BAD_C_MAP)
    if source.read(1):
        raise CorruptSectionError("stream holds bytes after the last section")

    fwd = SuffixEnsemble(sa=sa, lcp=lcp, text=text)
    rev = SuffixEnsemble(sa=sa_rev, lcp=lcp_rev, text=reverse_text(text))
    ix = assemble_index(text, fwd, rev, c_array, isa)
    if verify:
        codes = np.frombuffer(text.symbols, dtype=np.uint8)
        _check_ensemble(fwd, isa, codes, ix.rmq_fwd)
        _check_ensemble(rev, isa_rev, codes[::-1], ix.rmq_rev)
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


def _check_ensemble(
    e: SuffixEnsemble, isa: Sequence[int], codes: np.ndarray, rmq: RmqStructure
) -> None:
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

    One gather of ``psi`` per block of ranks serves both checks.  Where
    ``psi(r) = psi(r - 1) + 1`` the minimum is ``lcp[psi(r)]`` alone.  The
    other pairs with equal first symbols are the r - sigma - 1 at BWT-run
    boundaries (the irreducible LCPs of Kaerkkaeinen, Manzini & Puglisi,
    CPM 2009).  They are held, and checked together by one
    ``range_minima`` call per ``_VERIFY_BLOCK // 2`` of them.  Held pairs
    are checked before a later block's fault is raised, so faults are
    reported as if each block were checked in full before the next.
    """
    sa = np.asarray(e.sa)
    isa = np.asarray(isa)
    n = len(sa) - 1
    lcp = np.asarray(rmq.array)
    if lcp[1] != 0:
        raise CorruptSectionError(_BAD_LCP)
    held: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    held_count = 0
    # Blocks of ranks keep the temporaries small whatever n is.
    for lo in range(1, n, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK, n)
        suffixes = sa[lo:hi + 1]
        first = codes[suffixes]
        # Suffix n has no successor; its clipped read is never used.
        psi = isa.take(suffixes + 1, mode="clip")
        same = first[:-1] == first[1:]
        step = np.diff(psi)
        if (first[:-1] > first[1:]).any() or (same & (step <= 0)).any():
            _check_held(held, rmq)
            raise CorruptSectionError("suffix array ranks out of order")
        observed = lcp[lo + 1:hi + 1]
        expected = lcp[psi[1:]] + 1
        expected *= same
        boundary = np.flatnonzero(same & (step != 1))
        expected[boundary] = observed[boundary]
        if (observed != expected).any():
            _check_held(held, rmq)
            raise CorruptSectionError(_BAD_LCP)
        if boundary.size:
            held.append((boundary + (lo + 1), psi[boundary] + 1, psi[boundary + 1]))
            held_count += boundary.size
        if held_count >= _VERIFY_BLOCK // 2:
            _check_held(held, rmq)
            held_count = 0
    _check_held(held, rmq)


def _check_held(
    held: list[tuple[np.ndarray, np.ndarray, np.ndarray]], rmq: RmqStructure
) -> None:
    """Check held run-boundary pairs ``(ranks, starts, ends)``, then drop them.

    Each ``rmq.array[rank]`` must be one more than the minimum over
    ``starts..ends``; one ``range_minima`` call answers them all.
    """
    if not held:
        return
    ranks, starts, ends = (np.concatenate(part) for part in zip(*held))
    held.clear()
    if (np.asarray(rmq.array)[ranks] != rmq.range_minima(starts, ends) + 1).any():
        raise CorruptSectionError(_BAD_LCP)
