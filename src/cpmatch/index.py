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
   LCP entry already falls below ``m + ell``), or by a range minimum over a
   precomputed rank-translation array; under either strategy a one-rank
   run maps straight to the rank of the suffix starting at its context,
   with no scan and no range minimum;
4. split each forward interval at depth ``m + 2*ell``, one piece per
   distinct right context ``Y`` (a one-rank interval is its own piece and
   is not split);
5. report every piece with its count and a representative occurrence,
   building every match at one site once steps 3 and 4 have listed all
   pieces.

A run whose left context crosses the text start is a singleton (the
terminator occurs at exactly one position).  :func:`query` reads each
run's context start once and maps such a run itself, not through step 3's
mappers, to the rank of the suffix starting at the pattern occurrence
itself, with offset 0 instead of ``ell``; steps 4 and 5 treat it like any
other run.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .corpus import SENTINEL, Text, reverse_text
from .errors import NonSingletonBoundaryError
from .rmq import QueryStats, RmqStructure, pack, partition_interval
from .suffixes import SuffixEnsemble, build_ensemble, build_inverse, find_pattern_range

#: In-memory marker for the one undefined rank-translation entry.
C_UNDEFINED = 0


class MappingStrategy(Enum):
    """How step 3 translates reverse-text intervals to forward intervals."""

    PSV_NSV = "psv-nsv"
    CMIN = "cmin"


@dataclass(frozen=True)
class CpmIndex:
    """Queryable artifact: both suffix ensembles plus acceleration tables.

    ``isa`` inverts the forward suffix array: ``isa[fwd.sa[i]] = i``.
    ``c_array[i]`` is the forward rank of the suffix starting where the
    reverse suffix of rank ``i`` ends, ``isa[n - rev.sa[i]]``; the single
    entry with ``rev.sa[i] = n`` is undefined and stored as ``C_UNDEFINED``.
    Like the suffix and LCP arrays of both ensembles, both are packed
    1-based arrays (see :func:`~cpmatch.rmq.pack`).  Immutable after
    construction; queries never mutate it.
    """

    text: Text
    fwd: SuffixEnsemble
    rev: SuffixEnsemble
    isa: array
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


# ``query`` builds each match without the frozen ``__init__``, which routes
# every field through ``object.__setattr__``: filling the six slots through
# their descriptors takes about half as long, once per reported context.
_new_object = object.__new__
_set_context = ContextMatch.context.__set__
_set_ds = ContextMatch.ds.__set__
_set_de = ContextMatch.de.__set__
_set_count = ContextMatch.count.__set__
_set_rep_position = ContextMatch.rep_position.__set__
_set_p_offset = ContextMatch.p_offset.__set__


@dataclass
class QueryTrace:
    """Optional capture of intermediate query state, for inspection."""

    rev_range: tuple[int, int] | None = None
    part_starts: list[int] = field(default_factory=list)
    mapped_ranges: list[tuple[int, int]] = field(default_factory=list)


def build_index(t: Text) -> CpmIndex:
    """Build both ensembles, the inverse, the rank translation, rmq tables."""
    fwd = build_ensemble(t)
    rev = build_ensemble(reverse_text(t))
    isa = build_inverse(fwd.sa)
    return assemble_index(t, fwd, rev, translate_ranks(isa, rev.sa), isa)


def translate_ranks(isa: array, rev_sa: array) -> array:
    """The rank-translation array, ``isa[n - rev_sa[i]]`` at rank ``i``.

    The entry with ``rev_sa[i] = n`` reads the padding ``isa[0]``,
    C_UNDEFINED.
    """
    n = len(isa) - 1
    # ``take`` would first copy 4-byte indices to intp; make them so.
    c_array = np.asarray(isa).take(np.subtract(n, rev_sa, dtype=np.intp))
    c_array[0] = C_UNDEFINED
    return pack(c_array, n)


def assemble_index(
    t: Text,
    fwd: SuffixEnsemble,
    rev: SuffixEnsemble,
    c_array: array,
    isa: array,
) -> CpmIndex:
    """Attach fresh acceleration tables to already-built base arrays."""
    return CpmIndex(
        text=t,
        fwd=fwd,
        rev=rev,
        isa=isa,
        c_array=c_array,
        rmq_fwd=RmqStructure(fwd.lcp),
        rmq_rev=RmqStructure(rev.lcp),
        rmq_c=RmqStructure(c_array),
    )


def map_via_psv_nsv(
    ix: CpmIndex,
    part: tuple[int, int],
    start: int,
    t: int,
    stats: QueryStats | None = None,
) -> tuple[int, int]:
    """Map an interior step-2 run to its forward interval by anchoring.

    ``start >= 1`` is where the run's left context begins and ``t`` is
    ``m + ell``.  Anchors the forward suffix starting at ``start``, then
    widens to every suffix sharing its first ``t`` symbols using threshold
    scans over the forward LCP array.  A side is scanned only when the LCP
    entry next to the anchor reaches ``t``; otherwise the anchor is that end
    of the interval, read in O(1).  A one-rank run is the anchor alone, and
    reads no LCP entry.  Returns the interval ``(ds, de)``.
    """
    if stats is not None:
        stats.sa_accesses += 1
    p = ix.isa[start]
    if part[0] == part[1]:
        return p, p
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
    start: int,
    t: int,
    stats: QueryStats | None = None,
) -> tuple[int, int]:
    """Map an interior step-2 run to its forward interval via ``c_array``.

    Takes the arguments of :func:`map_via_psv_nsv`, ``start >= 1``
    included, but reads the context start of the run element minimizing
    ``c_array`` instead: that element owns the lexicographically smallest
    forward suffix of the interval, so one range minimum plus one inverse
    lookup yields the start; the size carries over unchanged.  A one-rank
    run is its own minimum: it maps to ``isa[start]`` without a search,
    but counts the range minimum and the two reads that the search makes.
    """
    lo, hi = part
    if lo == hi:
        if stats is not None:
            stats.rmq_calls += 1
            stats.sa_accesses += 2
        ds = ix.isa[start]
        return ds, ds
    i_min = ix.rmq_c.rmq(lo, hi, stats)
    if stats is not None:
        stats.sa_accesses += 2
    ds = ix.isa[ix.text.n - ix.rev.sa[i_min] - t + 1]
    return ds, ds + (hi - lo)


def emit_boundary_context(
    ix: CpmIndex,
    part: tuple[int, int],
    pos: int,
    stats: QueryStats | None = None,
) -> tuple[int, int, int]:
    """Map a run whose left context crosses the text start, in step 3's place.

    Such a run is necessarily a singleton; the pattern occurrence starts at
    ``pos``, and the run maps to the rank of that suffix with offset 0:
    ``(rank, rank, 0)``.  :func:`query` calls it through this module's
    global, under the name the benchmark's tracer patches.
    """
    if part[0] != part[1]:
        raise NonSingletonBoundaryError(
            f"boundary run [{part[0]}..{part[1]}] holds more than one suffix"
        )
    if stats is not None:
        stats.sa_accesses += 1
    rank = ix.isa[pos]
    return rank, rank, 0


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
    forward ranges of this query alone, replacing what it held before.
    """
    p = list(pattern)
    if ell < 0:
        raise ValueError("context length must be >= 0")
    m = len(p)
    mapper = map_via_cmin if strategy is MappingStrategy.CMIN else map_via_psv_nsv

    rev_range = find_pattern_range(ix.rev, p[::-1], stats)
    if trace is not None:
        trace.rev_range = rev_range
        trace.part_starts = []
        trace.mapped_ranges = []
    if rev_range is None:
        return []

    t = m + ell
    parts = partition_interval(ix.rmq_rev, rev_range[0], rev_range[1], t, stats)
    if trace is not None:
        trace.part_starts = [s for s, _ in parts]

    depth = m + 2 * ell
    n = ix.text.n
    rev_sa = ix.rev.sa
    rmq_fwd = ix.rmq_fwd
    # Steps 3 and 4: every piece as (lo, hi, p_offset), in answer order.
    pieces: list[tuple[int, int, int]] = []
    add_piece = pieces.append
    for part in parts:
        # Where the run's left context begins; at 0 or below it crosses the
        # text start and comes from padding.
        start = n - rev_sa[part[0]] - t + 1
        if start <= 0:
            ds, de, p_offset = emit_boundary_context(ix, part, start + ell, stats)
        else:
            ds, de = mapper(ix, part, start, t, stats)
            p_offset = ell
        if trace is not None:
            trace.mapped_ranges.append((ds, de))
        if ds == de:
            # One rank is one piece; splitting it would make no counted call.
            add_piece((ds, de, p_offset))
        else:
            for lo, hi in partition_interval(rmq_fwd, ds, de, depth, stats):
                add_piece((lo, hi, p_offset))

    # Step 5: one match per piece.
    out: list[ContextMatch] = []
    add = out.append
    fwd_sa = ix.fwd.sa
    for lo, hi, p_offset in pieces:
        pos = fwd_sa[lo] + p_offset
        match = _new_object(ContextMatch)
        _set_context(match, extract_context(ix, pos, m, ell))
        _set_ds(match, lo)
        _set_de(match, hi)
        _set_count(match, hi - lo + 1)
        _set_rep_position(match, pos)
        _set_p_offset(match, p_offset)
        add(match)
    if stats is not None:
        # One suffix-array read per part, for its left context's start, and
        # one per context, for its representative position.
        stats.sa_accesses += len(parts) + len(out)
    return out


def enumerate_occurrences(ix: CpmIndex, match: ContextMatch) -> list[int]:
    """Start positions of every occurrence behind one match, in rank order."""
    return [pos + match.p_offset for pos in ix.fwd.sa[match.ds:match.de + 1]]


#: ``unpack_from`` of ``width`` bytes as ints, by width, for at most
#: :data:`_UNPACKER_WIDTHS` widths at a time.
_unpackers: dict[int, Callable] = {}
_UNPACKER_WIDTHS = 256


def _compile_unpacker(width: int) -> Callable:
    """Compile and keep the unpacker of a width not seen lately."""
    if len(_unpackers) >= _UNPACKER_WIDTHS:
        _unpackers.clear()
    unpack = _unpackers[width] = struct.Struct(f"{width}B").unpack_from
    return unpack


def extract_context(ix: CpmIndex, pos: int, m: int, ell: int) -> tuple[int, ...]:
    """The ``m + 2*ell`` padded symbols around an occurrence at ``pos``.

    One unpack of the text's bytes by a ``Struct`` kept per width (a format
    built per call cost a third more than a list slice); positions outside
    ``0..n`` read as the terminator, as :func:`~cpmatch.corpus.padded_symbol` does.
    """
    symbols = ix.text.symbols
    lo, hi = pos - ell, pos + m + ell
    size = len(symbols)
    if lo >= 0 and hi <= size:
        unpack = _unpackers.get(hi - lo) or _compile_unpacker(hi - lo)
        return unpack(symbols, lo)
    before = max(0, min(hi, 0) - lo)
    after = max(0, hi - max(lo, size))
    inner = symbols[max(lo, 0):min(hi, size)] if hi > 0 and lo < size else ()
    return (SENTINEL,) * before + tuple(inner) + (SENTINEL,) * after
