"""Brute-force reference for contextual queries, used as ground truth.

Deliberately quadratic and index-free: it shares nothing with the query
path beyond the text representation, which is what makes it a trustworthy
oracle in property tests.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import Text, padded_symbol


def oracle_contexts(
    t: Text, p: Sequence[int], ell: int
) -> dict[tuple[int, ...], list[int]]:
    """Map each distinct padded context to its sorted occurrence positions.

    Scans every text position for an occurrence of ``p`` by direct
    comparison and groups occurrences by their ``m + 2*ell`` surrounding
    symbols.  A code that no byte holds occurs nowhere.
    """
    try:
        pattern = bytes(p)
    except ValueError:
        return {}
    m = len(pattern)
    out: dict[tuple[int, ...], list[int]] = {}
    for i in range(1, t.n):
        if t.symbols[i:i + m] == pattern:
            ctx = tuple(padded_symbol(t, j) for j in range(i - ell, i + m + ell))
            out.setdefault(ctx, []).append(i)
    return out
