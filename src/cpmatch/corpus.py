"""Byte-level text handling: alphabet remapping, reversal, padded access."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, SentinelByteError

#: Symbol code reserved for the terminator; sorts below every other code.
SENTINEL = 0

#: Byte value reserved to encode the terminator in raw inputs and patterns.
SENTINEL_BYTE = 0x00


@dataclass(frozen=True)
class Text:
    """A remapped string with a terminator at both ends.

    ``symbols`` holds ``n + 1`` codes, one byte each.  Positions 0 and ``n``
    carry the terminator code 0 and every position in ``1..n-1`` carries a
    code in ``1..sigma``.  Codes are assigned to the distinct input bytes in
    increasing byte order, so comparing remapped strings is the same as
    comparing the original byte strings.  ``byte_for_code`` is the one
    alphabet map: code ``c`` is the byte ``byte_for_code[c]``, and entry 0
    is the terminator byte 0x00.  ``encode_pattern`` goes the other way,
    through the ``bytes.translate`` table derived from it when the text is
    made.  Instances are never mutated after construction.
    """

    symbols: bytes
    n: int
    sigma: int
    byte_for_code: tuple[int, ...]
    _to_codes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_to_codes", _code_table(self.byte_for_code[1:]))


def _code_table(alphabet: Sequence[int]) -> bytes:
    """``bytes.translate`` table that sends byte ``alphabet[c - 1]`` to code ``c``.

    ``alphabet`` holds distinct nonzero bytes; every byte outside it, 0x00
    included, maps to the terminator code 0.
    """
    table = np.zeros(256, dtype=np.uint8)
    table[np.asarray(alphabet, dtype=np.intp)] = np.arange(1, len(alphabet) + 1)
    return table.tobytes()


def load_text(raw: bytes) -> Text:
    """Remap ``raw`` onto codes ``1..sigma`` and wrap it in terminators.

    One ``np.bincount`` over a zero-copy ``uint8`` view of ``raw`` gives
    both the alphabet and the 0x00 check; it counts through an 8-byte copy
    of each byte, the step's transient peak.  One ``bytes.translate``
    through ``_code_table``, the table the text keeps for
    ``encode_pattern``, then writes the codes.
    """
    if not raw:
        raise EmptyInputError("cannot index an empty input")
    counts = np.bincount(np.frombuffer(raw, dtype=np.uint8), minlength=256)
    if counts[SENTINEL_BYTE]:
        raise SentinelByteError(
            "input contains the reserved terminator byte 0x00"
        )
    distinct = np.flatnonzero(counts).tolist()
    symbols = b"\0" + raw.translate(_code_table(distinct)) + b"\0"
    return make_text(symbols, distinct)


def make_text(symbols: bytes, alphabet: Sequence[int]) -> Text:
    """Text of terminated ``symbols``; code ``c`` is the byte ``alphabet[c - 1]``."""
    return Text(
        symbols=symbols,
        n=len(symbols) - 1,
        sigma=len(alphabet),
        byte_for_code=(SENTINEL_BYTE, *alphabet),
    )


def reverse_text(t: Text) -> Text:
    """The same alphabet read back to front; terminators stay in place."""
    return replace(t, symbols=t.symbols[::-1])


def padded_symbol(t: Text, i: int) -> int:
    """Symbol at position ``i``, with terminators repeated beyond both ends.

    Any signed ``i`` is accepted; positions outside ``0..n`` read as the
    terminator, which is how contexts that overhang the text are compared.
    """
    if 0 <= i <= t.n:
        return t.symbols[i]
    return SENTINEL


def encode_pattern(t: Text, raw: bytes) -> list[int] | None:
    """Translate pattern bytes into symbol codes.

    Returns None when some byte is not part of the indexed alphabet, 0x00
    included; such a pattern cannot occur in the text, so callers treat None
    as "no matches" rather than an error.  One translate through the
    text's ``_code_table`` gives the codes, and an absent byte becomes the
    terminator code, which no pattern symbol can have.
    """
    codes = raw.translate(t._to_codes)
    if SENTINEL in codes:
        return None
    return list(codes)
