"""Contextual pattern matching over a text and its reverse.

A query ``(P, ell)`` asks for one answer per distinct string ``X P Y`` with
``|X| = |Y| = ell`` occurring in the text, where contexts that overhang an
end are padded with terminators.  The index answers it in five moves:

1. locate the rank interval of the reversed pattern in the reverse text's
   suffix array;
2. split that interval into runs of suffixes agreeing on the first
   ``m + ell`` symbols, one run per distinct left context ``X``;
3. map each run onto the forward suffix array interval of suffixes starting
   with ``X P``, either by anchoring one suffix and extending it with
   threshold scans over the LCP array (skipped on a side whose neighbouring
   LCP entry already falls below ``m + ell``, so a singleton context costs
   no scan), or by a range minimum over a precomputed rank-translation
   array;
4. split each forward interval at depth ``m + 2*ell``, one piece per
   distinct right context ``Y``;
5. report every piece with its count and a representative occurrence.

Runs whose left context crosses the text start are singletons (the
terminator occurs at exactly one position) and are emitted directly between
steps 2 and 3.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import SENTINEL, Text, reverse_text
from .errors import BoundaryPartError, NonSingletonBoundaryError
from .rmq import QueryStats, RmqStructure, pack, partition_interval
from .suffixes import SuffixEnsemble, build_ensemble, find_pattern_range

#: In-memory marker for the one undefined rank-translation entry.
C_UNDEFINED = 0


class MappingStrategy(Enum):
    """How step 3 translates reverse-text intervals to forward intervals."""

    PSV_NSV = "psv-nsv"
    CMIN = "cmin"


@dataclass(frozen=True)
class CpmIndex:
    """Queryable artifact: both suffix ensembles plus acceleration tables.

    ``c_array[i]`` is the forward rank of the suffix starting where the
    reverse suffix of rank ``i`` ends, ``fwd.isa[n - rev.sa[i]]``; the single
    entry with ``rev.sa[i] = n`` is undefined and stored as ``C_UNDEFINED``.
    Like the suffix, inverse and LCP arrays of both ensembles, it is a
    packed 1-based array (see :func:`~cpmatch.rmq.pack`).  Immutable after
    construction; queries never mutate it.
    """

    text: Text
    fwd: SuffixEnsemble
    rev: SuffixEnsemble
    c_array: array
    rmq_fwd: RmqStructure
    rmq_rev: RmqStructure
    rmq_c: RmqStructure


@dataclass(frozen=True, slots=True)
class ContextMatch:
    """One distinct padded context, as a rank range plus bookkeeping.

    ``ds..de`` is a forward suffix array interval; for interior contexts its
    suffixes start at the context (``p_offset == ell``), for contexts whose
    left side crosses the text start it is the singleton rank of the suffix
    starting at the pattern occurrence itself (``p_offset == 0``).  A frozen,
    slotted dataclass: fields cannot be assigned, and equal matches hash
    alike.
    """

    context: tuple[int, ...]
    ds: int
    de: int
    count: int
    rep_position: int
    p_offset: int


_new_object = object.__new__
_set_context = ContextMatch.context.__set__
_set_ds = ContextMatch.ds.__set__
_set_de = ContextMatch.de.__set__
_set_count = ContextMatch.count.__set__
_set_rep_position = ContextMatch.rep_position.__set__
_set_p_offset = ContextMatch.p_offset.__set__


def _match(context, ds, de, count, rep_position, p_offset) -> ContextMatch:
    """``ContextMatch(...)`` without the frozen ``__init__``.

    That ``__init__`` routes each field through ``object.__setattr__``;
    filling the six slots through their descriptors takes about half as
    long, which the query path pays once per reported context.
    """
    match = _new_object(ContextMatch)
    _set_context(match, context)
    _set_ds(match, ds)
    _set_de(match, de)
    _set_count(match, count)
    _set_rep_position(match, rep_position)
    _set_p_offset(match, p_offset)
    return match


@dataclass
class QueryTrace:
    """Optional capture of intermediate query state, for inspection."""

    rev_range: tuple[int, int] | None = None
    part_starts: list[int] = field(default_factory=list)
    mapped_ranges: list[tuple[int, int]] = field(default_factory=list)


def build_index(t: Text) -> CpmIndex:
    """Build both ensembles, the rank-translation array, and rmq tables."""
    fwd = build_ensemble(t)
    rev = build_ensemble(reverse_text(t))
    return assemble_index(t, fwd, rev, translate_ranks(fwd, rev))


def translate_ranks(fwd: SuffixEnsemble, rev: SuffixEnsemble) -> array:
    """The rank-translation array, ``fwd.isa[n - rev.sa[i]]`` at rank ``i``.

    The entry with ``rev.sa[i] = n`` reads the padding ``fwd.isa[0]``,
    C_UNDEFINED.
    """
    n = fwd.text.n
    c_array = np.asarray(fwd.isa)[n - np.asarray(rev.sa)]
    c_array[0] = C_UNDEFINED
    return pack(c_array, n)


def assemble_index(
    t: Text,
    fwd: SuffixEnsemble,
    rev: SuffixEnsemble,
    c_array: array,
) -> CpmIndex:
    """Attach fresh acceleration tables to already-built base arrays."""
    return CpmIndex(
        text=t,
        fwd=fwd,
        rev=rev,
        c_array=c_array,
        rmq_fwd=RmqStructure(fwd.lcp),
        rmq_rev=RmqStructure(rev.lcp),
        rmq_c=RmqStructure(c_array),
    )


def _context_start(ix: CpmIndex, rev_rank: int, m: int, ell: int,
                   stats: QueryStats | None) -> int:
    """Text position where the left context of this run would begin.

    Zero or negative means the context crosses the left text end.
    """
    if stats is not None:
        stats.sa_accesses += 1
    return ix.text.n - ix.rev.sa[rev_rank] - (m + ell - 1)


def map_via_psv_nsv(
    ix: CpmIndex,
    part: tuple[int, int],
    m: int,
    ell: int,
    stats: QueryStats | None = None,
) -> tuple[int, int]:
    """Map a step-2 run to its forward interval by anchor and extension.

    Anchors the forward suffix starting at the run's left context, then
    widens to every suffix sharing its first ``m + ell`` symbols using
    threshold scans over the forward LCP array.  A side is scanned only
    when the LCP entry next to the anchor reaches ``m + ell``; otherwise the
    anchor is that end of the interval, read in O(1).
    """
    t = m + ell
    j = _context_start(ix, part[0], m, ell, stats)
    if j <= 0:
        raise BoundaryPartError("run crosses the left text end")
    if stats is not None:
        stats.sa_accesses += 1
    p = ix.fwd.isa[j]
    lcp = ix.fwd.lcp
    ds = p if lcp[p] < t else ix.rmq_fwd.psv(p, t, stats)
    if p == ix.text.n or lcp[p + 1] < t:
        de = p
    else:
        de = ix.rmq_fwd.nsv(p, t, stats) - 1
    return ds, de


def map_via_cmin(
    ix: CpmIndex,
    part: tuple[int, int],
    m: int,
    ell: int,
    stats: QueryStats | None = None,
) -> tuple[int, int]:
    """Map a step-2 run to its forward interval via the translation array.

    The run element minimizing ``c_array`` owns the lexicographically
    smallest forward suffix of the interval, so one range minimum plus one
    inverse lookup yields the start; the size carries over unchanged.
    """
    if _context_start(ix, part[0], m, ell, stats) <= 0:
        raise BoundaryPartError("run crosses the left text end")
    i_min = ix.rmq_c.rmq(part[0], part[1], stats)
    if stats is not None:
        stats.sa_accesses += 2
    j = ix.text.n - ix.rev.sa[i_min] - (m + ell - 1)
    ds = ix.fwd.isa[j]
    return ds, ds + (part[1] - part[0])


def emit_boundary_context(
    ix: CpmIndex,
    part: tuple[int, int],
    m: int,
    ell: int,
    stats: QueryStats | None = None,
) -> ContextMatch:
    """Emit the single match for a run whose left context crosses the start.

    Such a run is necessarily a singleton, and its answer is the rank of
    the suffix beginning at the pattern occurrence itself.
    """
    if part[0] != part[1]:
        raise NonSingletonBoundaryError(
            f"boundary run [{part[0]}..{part[1]}] holds more than one suffix"
        )
    if stats is not None:
        stats.sa_accesses += 2
    pos = ix.text.n - ix.rev.sa[part[0]] - m + 1
    rank = ix.fwd.isa[pos]
    return _match(extract_context(ix, pos, m, ell), rank, rank, 1, pos, 0)


def query(
    ix: CpmIndex,
    pattern,
    ell: int,
    strategy: MappingStrategy = MappingStrategy.PSV_NSV,
    stats: QueryStats | None = None,
    trace: QueryTrace | None = None,
) -> list[ContextMatch]:
    """All distinct padded contexts of ``pattern`` with context length ``ell``.

    Both strategies return identical results; ``trace``, when given, records
    the reverse rank interval, the step-2 part starts, and the mapped
    forward ranges.
    """
    p = list(pattern)
    if ell < 0:
        raise ValueError("context length must be >= 0")
    m = len(p)
    mapper = map_via_cmin if strategy is MappingStrategy.CMIN else map_via_psv_nsv

    rev_range = find_pattern_range(ix.rev, p[::-1], stats)
    if trace is not None:
        trace.rev_range = rev_range
    if rev_range is None:
        return []

    parts = partition_interval(ix.rmq_rev, rev_range[0], rev_range[1], m + ell, stats)
    if trace is not None:
        trace.part_starts = [s for s, _ in parts]

    out: list[ContextMatch] = []
    depth = m + 2 * ell
    fwd_sa = ix.fwd.sa
    rmq_fwd = ix.rmq_fwd
    for part in parts:
        try:
            ds, de = mapper(ix, part, m, ell, stats)
        except BoundaryPartError:
            # The mapper found that the left context crosses the text start.
            match = emit_boundary_context(ix, part, m, ell, stats)
            if trace is not None:
                trace.mapped_ranges.append((match.ds, match.de))
            out.append(match)
            continue
        if trace is not None:
            trace.mapped_ranges.append((ds, de))
        for sub_lo, sub_hi in partition_interval(rmq_fwd, ds, de, depth, stats):
            if stats is not None:
                stats.sa_accesses += 1
            pos = fwd_sa[sub_lo] + ell
            out.append(_match(extract_context(ix, pos, m, ell), sub_lo, sub_hi,
                              sub_hi - sub_lo + 1, pos, ell))
    return out


def enumerate_occurrences(ix: CpmIndex, match: ContextMatch) -> list[int]:
    """Start positions of every occurrence behind one match, in rank order."""
    return [ix.fwd.sa[r] + match.p_offset for r in range(match.ds, match.de + 1)]


def extract_context(ix: CpmIndex, pos: int, m: int, ell: int) -> tuple[int, ...]:
    """The ``m + 2*ell`` padded symbols around an occurrence at ``pos``.

    One slice of the text; positions outside ``0..n`` read as the
    terminator, as :func:`~cpmatch.corpus.padded_symbol` reads them.
    """
    symbols = ix.text.symbols
    lo, hi = pos - ell, pos + m + ell
    size = len(symbols)
    if lo >= 0 and hi <= size:
        return tuple(symbols[lo:hi])
    before = max(0, min(hi, 0) - lo)
    after = max(0, hi - max(lo, size))
    inner = symbols[max(lo, 0):min(hi, size)] if hi > 0 and lo < size else ()
    return (SENTINEL,) * before + tuple(inner) + (SENTINEL,) * after
