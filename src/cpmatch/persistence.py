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
from .suffixes import SuffixEnsemble, build_inverse, build_lcp

MAGIC = b"CPMX"
VERSION = 1

_SECTION_COUNT = 8
_HEADER_SIZE = 4 + 4 + 8 + 8 + _SECTION_COUNT * 16
_UNDEF_ON_DISK = (1 << 64) - 1


def _pack(values: list[int]) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def save_index(ix: CpmIndex, sink: BinaryIO) -> int:
    """Write the index to ``sink``; returns the number of bytes written."""
    t = ix.text
    c_on_disk = [
        _UNDEF_ON_DISK if v == C_UNDEFINED else v for v in ix.c_array[1:]
    ]
    sections = [
        _pack(list(t.byte_for_code[1:])),
        _pack(t.symbols),
        _pack(ix.fwd.sa[1:]),
        _pack(ix.fwd.isa[1:]),
        _pack(ix.fwd.lcp[1:]),
        _pack(ix.rev.sa[1:]),
        _pack(ix.rev.lcp[1:]),
        _pack(c_on_disk),
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

    Acceleration tables are rebuilt from the loaded arrays.  With ``verify``
    (the default) every structural invariant of the loaded arrays is checked
    and violations raise :class:`CorruptSectionError`.
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
    if verify:
        # Suffix array entries index the other arrays from here on.
        for sa in (fwd_sa, rev_sa):
            _check_permutation(sa, n)

    byte_values = alphabet.tolist()
    text = Text(
        symbols=symbols.tolist(),
        n=n,
        sigma=sigma,
        code_for_byte={b: c for c, b in enumerate(byte_values, start=1)},
        byte_for_code=(0, *byte_values),
    )
    fwd = SuffixEnsemble(
        sa=_padded(fwd_sa), isa=_padded(fwd_isa), lcp=_padded(fwd_lcp), text=text
    )
    rev_sa_full = _padded(rev_sa)
    rev = SuffixEnsemble(
        sa=rev_sa_full,
        isa=build_inverse(rev_sa_full),
        lcp=_padded(rev_lcp),
        text=reverse_text(text),
    )
    c_array = _padded(np.where(c_disk == _UNDEF_ON_DISK, C_UNDEFINED, c_disk))

    if verify:
        _verify_arrays(fwd, rev, sections)
    return assemble_index(text, fwd, rev, c_array)


def _padded(values: np.ndarray) -> list[int]:
    """A 1-based list: the values after a padding zero in slot 0."""
    out = values.tolist()
    out.insert(0, 0)
    return out


def _outside(values: np.ndarray, lo: int, hi: int) -> bool:
    return bool(values.min() < lo or values.max() > hi)


def _check_permutation(sa: np.ndarray, n: int) -> None:
    if _outside(sa, 1, n) or (
        np.bincount(sa.astype(np.intp), minlength=n + 1)[1:] != 1
    ).any():
        raise CorruptSectionError("suffix array is not a permutation of 1..n")


def _verify_arrays(
    fwd: SuffixEnsemble, rev: SuffixEnsemble, sections: list[np.ndarray]
) -> None:
    # Runs on the on-disk arrays, after both suffix arrays passed
    # _check_permutation; the reverse inverse was derived on load.
    _, symbols, fwd_sa, fwd_isa, fwd_lcp, rev_sa, rev_lcp, c_disk = sections
    n = fwd.text.n
    ranks = np.arange(1, n + 1, dtype=np.uint64)
    if (fwd_isa[fwd_sa.astype(np.intp) - 1] != ranks).any():
        raise CorruptSectionError("inverse does not invert the suffix array")
    for ensemble, sa, lcp, codes in (
        (fwd, fwd_sa, fwd_lcp, symbols),
        (rev, rev_sa, rev_lcp, symbols[::-1]),
    ):
        if ensemble.lcp != build_lcp(ensemble.text, ensemble.sa, ensemble.isa):
            raise CorruptSectionError("LCP array inconsistent with the text")
        _check_sorted(sa, lcp, codes)
    start = rev_sa.astype(np.intp)
    expected = np.where(start == n, _UNDEF_ON_DISK, fwd_isa[n - start - 1])
    if (c_disk != expected).any():
        raise CorruptSectionError("rank-translation array inconsistent")


def _check_sorted(sa: np.ndarray, lcp: np.ndarray, codes: np.ndarray) -> None:
    # Adjacent suffixes must differ right after their common prefix, with the
    # earlier-ranked one smaller; with verified LCP values this is O(n).
    # Positions past the text end read as -1.
    n = len(sa)
    padded = np.append(codes.astype(np.int64), -1)
    left = padded[np.minimum(sa[:-1] + lcp[1:], n + 1).astype(np.intp)]
    right = padded[np.minimum(sa[1:] + lcp[1:], n + 1).astype(np.intp)]
    if (left >= right).any():
        raise CorruptSectionError("suffix array ranks out of order")
