"""Byte-level text handling: alphabet remapping, reversal, padded access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyInputError, SentinelByteError

#: Symbol code reserved for the terminator; sorts below every other code.
SENTINEL = 0

#: Byte value reserved to encode the terminator in raw inputs and patterns.
SENTINEL_BYTE = 0x00


@dataclass(frozen=True)
class Text:
    """A remapped string with a terminator at both ends.

    ``symbols`` holds ``n + 1`` integer codes.  Positions 0 and ``n`` carry
    the terminator code 0 and every position in ``1..n-1`` carries a code in
    ``1..sigma``.  Codes are assigned to the distinct input bytes in
    increasing byte order, so comparing remapped strings is the same as
    comparing the original byte strings.  Instances are never mutated after
    construction.
    """

    symbols: list[int]
    n: int
    sigma: int
    code_for_byte: dict[int, int]
    byte_for_code: tuple[int, ...]

    def decode(self, codes: Iterable[int]) -> bytes:
        """Original bytes for a run of non-terminator symbol codes."""
        return bytes(self.byte_for_code[c] for c in codes)


def load_text(raw: bytes) -> Text:
    """Remap ``raw`` onto codes ``1..sigma`` and wrap it in terminators."""
    if not raw:
        raise EmptyInputError("cannot index an empty input")
    if SENTINEL_BYTE in raw:
        raise SentinelByteError(
            "input contains the reserved terminator byte 0x00"
        )
    distinct = sorted(set(raw))
    table = bytes.maketrans(bytes(distinct), bytes(range(1, len(distinct) + 1)))
    symbols = [SENTINEL]
    symbols.extend(raw.translate(table))
    symbols.append(SENTINEL)
    return make_text(symbols, distinct)


def make_text(symbols: list[int], alphabet: Sequence[int]) -> Text:
    """Text of terminated ``symbols``; code ``c`` is the byte ``alphabet[c - 1]``."""
    return Text(
        symbols=symbols,
        n=len(symbols) - 1,
        sigma=len(alphabet),
        code_for_byte={b: c for c, b in enumerate(alphabet, start=1)},
        byte_for_code=(SENTINEL_BYTE, *alphabet),
    )


def reverse_text(t: Text) -> Text:
    """The same alphabet read back to front; terminators stay in place."""
    return Text(
        symbols=t.symbols[::-1],
        n=t.n,
        sigma=t.sigma,
        code_for_byte=t.code_for_byte,
        byte_for_code=t.byte_for_code,
    )


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

    Returns None when some byte is not part of the indexed alphabet; such a
    pattern cannot occur in the text, so callers treat None as "no matches"
    rather than an error.
    """
    codes = []
    for b in raw:
        code = t.code_for_byte.get(b)
        if code is None:
            return None
        codes.append(code)
    return codes
