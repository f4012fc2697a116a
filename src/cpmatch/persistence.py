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
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Sequence

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

#: Ranks per vectorised step of the load-time order and LCP checks.
_VERIFY_BLOCK = 1 << 15

#: Largest single read, so that memory grows only with the bytes present.
_READ_PIECE = 1 << 24

_NOT_PERMUTATION = "suffix array is not a permutation of 1..n"
_NOT_INVERSE = "inverse does not invert the suffix array"
_BAD_LCP = "LCP array inconsistent with the text"
_BAD_C_MAP = "rank-translation array inconsistent"


def save_index(ix: CpmIndex, sink: BinaryIO) -> int:
    """Write the index to ``sink``; returns the number of bytes written."""
    t = ix.text
    sections = [
        np.asarray(values, dtype="<u8").tobytes()
        for values in (
            t.byte_for_code[1:],
            t.symbols,
            np.asarray(ix.fwd.sa)[1:],
            np.asarray(ix.fwd.isa)[1:],
            np.asarray(ix.fwd.lcp)[1:],
            np.asarray(ix.rev.sa)[1:],
            np.asarray(ix.rev.lcp)[1:],
            _c_map_section(ix.c_array),
        )
    ]
    header = [MAGIC, struct.pack("<I", VERSION), struct.pack("<QQ", t.n, t.sigma)]
    offset = _HEADER_SIZE
    for body in sections:
        header.append(struct.pack("<QQ", offset, len(body)))
        offset += len(body)
    total = 0
    for chunk in (*header, *sections):
        sink.write(chunk)
        total += len(chunk)
    return total


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

    Every load range-checks the other sections, derives ``fwd_isa`` and
    ``c_map`` as the build does and requires the stored copies to equal
    them, and rejects bytes past the last section.  ``verify`` (the
    default) adds the O(n) permutation, order and LCP checks.  Violations
    raise :class:`CorruptSectionError`.
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

    expected_counts = [sigma, n + 1, n, n, n, n, n, n]
    table = []
    offset = _HEADER_SIZE
    for idx in range(_SECTION_COUNT):
        off, size = struct.unpack("<QQ", _read_exact(source, 16, "section table"))
        if off != offset or size != expected_counts[idx] * 8:
            raise CorruptSectionError(f"section {idx} has inconsistent extent")
        table.append((off, size))
        offset += size

    sections = [
        np.frombuffer(_read_exact(source, size, f"section {idx}"), dtype="<u8")
        for idx, (_, size) in enumerate(table)
    ]
    alphabet, symbols, fwd_sa, fwd_isa, fwd_lcp, rev_sa, rev_lcp, c_map = sections
    if source.read(1):
        raise CorruptSectionError("stream holds bytes after the last section")

    if _outside(alphabet, 1, 255) or (alphabet[1:] <= alphabet[:-1]).any():
        raise CorruptSectionError("alphabet section is not an ordered byte set")
    if symbols[0] != SENTINEL or symbols[n] != SENTINEL:
        raise CorruptSectionError("text does not start and end with the terminator")
    if _outside(symbols[1:n], 1, sigma):
        raise CorruptSectionError("text symbol out of alphabet range")
    # Range checks run even without verify: ranks index the other arrays,
    # and every value must fit the tables built below.
    for sa in (fwd_sa, rev_sa):
        if _outside(sa, 1, n) or verify and (
            np.bincount(sa.astype(np.intp), minlength=n + 1)[1:] != 1
        ).any():
            raise CorruptSectionError(_NOT_PERMUTATION)
    if _outside(fwd_lcp, 0, n - 1) or _outside(rev_lcp, 0, n - 1):
        raise CorruptSectionError(_BAD_LCP)

    text = make_text(symbols.tolist(), alphabet.tolist())
    # Each rank section becomes a 1-based array after a padding zero.
    sa, lcp, sa_rev, lcp_rev = (
        pack(np.insert(values, 0, 0), n)
        for values in (fwd_sa, fwd_lcp, rev_sa, rev_lcp)
    )
    fwd = SuffixEnsemble(sa=sa, isa=build_inverse(sa), lcp=lcp, text=text)
    rev = SuffixEnsemble(
        sa=sa_rev, isa=build_inverse(sa_rev), lcp=lcp_rev, text=reverse_text(text)
    )
    c_array = translate_ranks(fwd, rev)
    if not np.array_equal(fwd_isa, np.asarray(fwd.isa)[1:].astype("<u8")):
        raise CorruptSectionError(_NOT_INVERSE)
    if not np.array_equal(c_map, _c_map_section(c_array)):
        raise CorruptSectionError(_BAD_C_MAP)
    ix = assemble_index(text, fwd, rev, c_array)
    if verify:
        codes = symbols.astype(np.uint8)
        _check_ensemble(fwd, codes, ix.rmq_fwd)
        _check_ensemble(rev, codes[::-1], ix.rmq_rev)
    return ix


def _outside(values: np.ndarray, lo: int, hi: int) -> bool:
    return bool(values.min() < lo or values.max() > hi)


def _check_ensemble(
    e: SuffixEnsemble, codes: np.ndarray, rmq: RmqStructure
) -> None:
    """Check that the permutation ``e.sa`` is sorted and ``rmq.array`` its LCP.

    Both checks are O(n) and need no symbol-by-symbol comparison.  Order
    (Burkhardt & Kaerkkaeinen, CPM 2003): for rank-adjacent suffixes ``a``,
    ``b``, either ``codes[a] < codes[b]``, or the first symbols are equal
    and ``a + 1`` ranks below ``b + 1``.  LCP: ``lcp[1] = 0``, and
    ``lcp[r]`` is 0 when the first symbols differ, else one more than the
    minimum of ``lcp`` over the ranks after ``a + 1`` up to ``b + 1``.  Once
    the order holds, the true LCP array is the only one meeting this.
    Equal first symbols are never the terminator, which occurs only at n,
    so ``a + 1`` and ``b + 1`` are suffixes, ranked by ``e.isa``.
    """
    sa = np.asarray(e.sa)
    isa = np.asarray(e.isa)
    n = len(sa) - 1
    lcp = np.asarray(rmq.array)
    if lcp[1] != 0:
        raise CorruptSectionError(_BAD_LCP)
    # Blocks of ranks keep the temporaries small whatever n is.
    for lo in range(1, n, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK, n)
        a = sa[lo:hi]
        b = sa[lo + 1:hi + 1]
        first_a = codes[a]
        first_b = codes[b]
        same = first_a == first_b
        next_a = isa[a[same] + 1]
        next_b = isa[b[same] + 1]
        if (first_a > first_b).any() or (next_a >= next_b).any():
            raise CorruptSectionError("suffix array ranks out of order")
        expected = np.zeros(hi - lo, dtype=isa.dtype)
        expected[same] = rmq.range_minima(next_a + 1, next_b) + 1
        if (lcp[lo + 1:hi + 1] != expected).any():
            raise CorruptSectionError(_BAD_LCP)
