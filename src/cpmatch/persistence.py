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
Acceleration tables and the reverse inverse array are rebuilt on load, so
the format stays independent of those implementation choices.  Output is a
pure function of the index: saving twice yields identical bytes.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .corpus import SENTINEL, Text, reverse_text
from .errors import (
    BadMagicError,
    CorruptSectionError,
    UnsupportedVersionError,
)
from .index import C_UNDEFINED, CpmIndex, assemble_index
from .rmq import RmqStructure, pack
from .suffixes import SuffixEnsemble, build_inverse

MAGIC = b"CPMX"
VERSION = 1

_SECTION_COUNT = 8
_HEADER_SIZE = 4 + 4 + 8 + 8 + _SECTION_COUNT * 16
_UNDEF_ON_DISK = (1 << 64) - 1

#: Ranks per vectorised step of the load-time order and LCP checks.
_VERIFY_BLOCK = 1 << 15

_NOT_PERMUTATION = "suffix array is not a permutation of 1..n"
_NOT_INVERSE = "inverse does not invert the suffix array"
_BAD_LCP = "LCP array inconsistent with the text"
_BAD_C_MAP = "rank-translation array inconsistent"


def save_index(ix: CpmIndex, sink: BinaryIO) -> int:
    """Write the index to ``sink``; returns the number of bytes written."""
    t = ix.text
    c_map = np.asarray(ix.c_array)[1:].astype("<u8")
    c_map[c_map == C_UNDEFINED] = _UNDEF_ON_DISK
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
            c_map,
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


def _read_exact(source: BinaryIO, size: int, what: str) -> bytes:
    blob = source.read(size)
    if len(blob) != size:
        raise CorruptSectionError(f"truncated stream while reading {what}")
    return blob


def load_index(source: BinaryIO, verify: bool = True) -> CpmIndex:
    """Reconstruct an index saved by :func:`save_index`.

    Acceleration tables are rebuilt from the loaded arrays.  Every section
    is range-checked; with ``verify`` (the default) every structural
    invariant of the loaded arrays is checked too, in O(n).  Violations
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
    alphabet, symbols, fwd_sa, fwd_isa, fwd_lcp, rev_sa, rev_lcp, c_disk = sections

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
    if _outside(fwd_isa, 1, n):
        raise CorruptSectionError(_NOT_INVERSE)
    if _outside(fwd_lcp, 0, n - 1) or _outside(rev_lcp, 0, n - 1):
        raise CorruptSectionError(_BAD_LCP)
    if ((c_disk < 1) | ((c_disk > n) & (c_disk != _UNDEF_ON_DISK))).any():
        raise CorruptSectionError(_BAD_C_MAP)

    byte_values = alphabet.tolist()
    text = Text(
        symbols=symbols.tolist(),
        n=n,
        sigma=sigma,
        code_for_byte={b: c for c, b in enumerate(byte_values, start=1)},
        byte_for_code=(0, *byte_values),
    )
    # Each rank section becomes a 1-based array after a padding zero.
    c_map = np.where(c_disk == _UNDEF_ON_DISK, C_UNDEFINED, c_disk)
    sa, isa, lcp, sa_rev, lcp_rev, c_array = (
        pack(np.insert(values, 0, 0), n)
        for values in (fwd_sa, fwd_isa, fwd_lcp, rev_sa, rev_lcp, c_map)
    )
    fwd = SuffixEnsemble(sa=sa, isa=isa, lcp=lcp, text=text)
    rev = SuffixEnsemble(
        sa=sa_rev, isa=build_inverse(sa_rev), lcp=lcp_rev, text=reverse_text(text)
    )
    ix = assemble_index(text, fwd, rev, c_array)
    if verify:
        _verify_arrays(ix, sections)
    return ix


def _outside(values: np.ndarray, lo: int, hi: int) -> bool:
    return bool(values.min() < lo or values.max() > hi)


def _verify_arrays(ix: CpmIndex, sections: list[np.ndarray]) -> None:
    # Runs on the on-disk arrays, after the range checks and both
    # permutation checks; the LCP sparse tables of ``ix`` are already built.
    _, symbols, fwd_sa, fwd_isa, _, rev_sa, _, c_disk = sections
    n = ix.text.n
    codes = symbols.astype(np.uint8)
    isa = _check_ensemble(fwd_sa, codes, ix.rmq_fwd)
    _check_ensemble(rev_sa, codes[::-1], ix.rmq_rev)
    for lo in range(0, n, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK, n)
        if (fwd_isa[lo:hi] != isa[lo + 1:hi + 1]).any():
            raise CorruptSectionError(_NOT_INVERSE)
        start = rev_sa[lo:hi].astype(isa.dtype)
        expected = isa[n - start].astype(np.uint64)
        expected[start == n] = _UNDEF_ON_DISK
        if (c_disk[lo:hi] != expected).any():
            raise CorruptSectionError(_BAD_C_MAP)


def _check_ensemble(
    sa: np.ndarray, codes: np.ndarray, rmq: RmqStructure
) -> np.ndarray:
    """Check that a permutation ``sa`` is sorted and ``rmq.array`` its LCP.

    Both checks are O(n) and need no symbol-by-symbol comparison.  Order
    (Burkhardt & Kaerkkaeinen, CPM 2003): for rank-adjacent suffixes ``a``,
    ``b``, either ``codes[a] < codes[b]``, or the first symbols are equal
    and ``a + 1`` ranks below ``b + 1``.  LCP: ``lcp[1] = 0``, and
    ``lcp[r]`` is 0 when the first symbols differ, else one more than the
    minimum of ``lcp`` over the ranks after ``a + 1`` up to ``b + 1``.  Once
    the order holds, the true LCP array is the only one meeting this.
    Equal first symbols are never the terminator, which occurs only at n,
    so ``a + 1`` and ``b + 1`` are suffixes.  Returns the inverse of ``sa``
    indexed by position, with zeros at 0 and ``n + 1``.
    """
    n = len(sa)
    dtype = np.int32 if n + 2 < 2**31 else np.int64
    isa = np.zeros(n + 2, dtype=dtype)
    isa[sa.astype(dtype)] = np.arange(1, n + 1, dtype=dtype)
    lcp = np.asarray(rmq.array)
    if lcp[1] != 0:
        raise CorruptSectionError(_BAD_LCP)
    # Blocks of ranks keep the temporaries small whatever n is.
    for lo in range(1, n, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK, n)
        a = sa[lo - 1:hi - 1].astype(dtype)
        b = sa[lo:hi].astype(dtype)
        first_a = codes[a]
        first_b = codes[b]
        same = first_a == first_b
        next_a = isa[a[same] + 1]
        next_b = isa[b[same] + 1]
        if (first_a > first_b).any() or (next_a >= next_b).any():
            raise CorruptSectionError("suffix array ranks out of order")
        expected = np.zeros(hi - lo, dtype=dtype)
        expected[same] = rmq.range_minima(next_a + 1, next_b) + 1
        if (lcp[lo + 1:hi + 1] != expected).any():
            raise CorruptSectionError(_BAD_LCP)
    return isa
