import dataclasses
import itertools
import random
import tracemalloc

import pytest

from cpmatch.corpus import load_text, padded_symbol
from cpmatch.errors import (
    EmptyPatternError,
    NonSingletonBoundaryError,
    SentinelInPatternError,
)
from cpmatch import index
from cpmatch.generate import generate_repetitive
from cpmatch.index import (
    C_UNDEFINED,
    ContextMatch,
    MappingStrategy,
    QueryTrace,
    build_index,
    emit_boundary_context,
    enumerate_occurrences,
    extract_context,
    map_via_cmin,
    map_via_psv_nsv,
    query,
)
from cpmatch.oracle import oracle_contexts
from cpmatch.rmq import BLOCK, QueryStats, RmqStructure
from cpmatch.suffixes import find_pattern_range

import alabar_data
import naive

A = [alabar_data.CODE["a"]]


def test_alabar_c_array(alabar_index):
    assert alabar_index.c_array[1] == C_UNDEFINED
    assert list(alabar_index.c_array) == alabar_data.C_MAP


def test_minimal_index():
    ix = build_index(load_text(b"a"))
    assert ix.text.n == 2
    assert list(ix.fwd.sa) == [0, 2, 1]


def test_c_array_matches_definition_on_random_texts():
    rng = random.Random(3)
    for _ in range(20):
        t = load_text(naive.random_raw(rng, rng.randint(1, 120), 4))
        ix = build_index(t)
        for i in range(1, t.n + 1):
            if ix.rev.sa[i] == t.n:
                assert ix.c_array[i] == C_UNDEFINED
            else:
                assert ix.c_array[i] == ix.isa[t.n - ix.rev.sa[i]]


def test_index_memory_is_packed():
    # Bounds retained memory only: 4 bytes per base-array entry fits, a
    # boxed Python int per entry (about 190 bytes per text byte) does not.
    n = 1 << 16
    rng = random.Random(11)
    t = load_text(naive.random_raw(rng, n - 1, 4))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = build_index(t)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Seven 1-byte window offsets per entry, and a 4-byte position per
    # 256-wide block and level of the block table.
    tables = 3 * (7 * n + 4 * (n >> 8) * n.bit_length())
    base = 7 * 4 * n  # sa, isa and lcp of both ensembles, and c_array
    reversed_text = n + 1  # one byte per symbol, terminators included
    assert retained <= tables + base + reversed_text
    assert ix.text.n == n


def expected_a_ell1():
    return [
        (alabar_data.ctx(c), ds, de, count, rep)
        for c, ds, de, count, rep in alabar_data.A_ELL1_MATCHES
    ]


@pytest.mark.parametrize("strategy", list(MappingStrategy))
def test_query_a_ell1(alabar_index, strategy):
    matches = query(alabar_index, A, 1, strategy=strategy)
    got = [(m.context, m.ds, m.de, m.count, m.rep_position) for m in matches]
    assert got == expected_a_ell1()


def test_query_a_ell1_trace(alabar_index):
    trace = QueryTrace()
    query(alabar_index, A, 1, trace=trace)
    assert trace.rev_range == alabar_data.A_ELL1_REV_RANGE
    assert trace.part_starts == alabar_data.A_ELL1_PART_STARTS
    assert trace.mapped_ranges == alabar_data.A_ELL1_MAPPED


def test_reused_trace_holds_only_the_last_query(alabar_index):
    # The last query is absent, so its trace must come out empty.
    reused = QueryTrace()
    for word in ("a", "bar", "aa"):
        codes = [alabar_data.CODE[c] for c in word]
        fresh = QueryTrace()
        query(alabar_index, codes, 1, trace=fresh)
        query(alabar_index, codes, 1, trace=reused)
        assert reused == fresh, word
    assert reused == QueryTrace()


def test_query_a_ell0(alabar_index):
    matches = query(alabar_index, A, 0)
    assert len(matches) == 1
    m = matches[0]
    assert (m.ds, m.de, m.count) == (2, 9, 8)
    assert m.context == tuple(A)


def test_context_match_contract(alabar_index):
    # Matches of interior runs and of the run crossing the text start ($al)
    # are frozen dataclasses: they compare, hash, replace and print like one
    # built through the public constructor.
    matches = query(alabar_index, A, 1)
    assert {m.p_offset for m in matches} == {0, 1}
    for match in matches:
        fields = {f.name: getattr(match, f.name) for f in dataclasses.fields(match)}
        built = ContextMatch(**fields)
        assert type(match) is ContextMatch
        assert match == built and hash(match) == hash(built)
        assert repr(match) == repr(built) == (
            "ContextMatch(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            match.ds = 99
        moved = dataclasses.replace(match, ds=match.ds + 100)
        assert type(moved) is ContextMatch
        assert moved == ContextMatch(**{**fields, "ds": match.ds + 100})


def test_query_absent_pattern(alabar_index):
    assert query(alabar_index, [6, 6], 3) == []
    assert query(alabar_index, [1, 1], 2) == []


def test_query_abab(abab_index):
    ab = [1, 2]
    matches = query(abab_index, ab, 1)
    got = {m.context: (m.count, sorted(enumerate_occurrences(abab_index, m)))
           for m in matches}
    assert got == {
        (0, 1, 2, 1): (1, [1]),
        (2, 1, 2, 0): (1, [3]),
    }


def test_query_validation(alabar_index):
    with pytest.raises(EmptyPatternError):
        query(alabar_index, [], 1)
    with pytest.raises(SentinelInPatternError):
        query(alabar_index, [1, 0, 1], 1)
    with pytest.raises(ValueError):
        query(alabar_index, A, -1)


def test_map_via_psv_nsv_examples(alabar_index):
    # Pattern "a", ell 1: the runs of "la" and "ba" start their left
    # contexts at positions 2 and 4; the anchor read is one counted access.
    # The run (2, 2) of "$a" crosses the text start and reaches no mapper:
    # test_emit_boundary_example and test_query_a_ell1 cover it.  The
    # one-rank run of "ra" is its own anchor: it reads no forward LCP entry.
    reads = []

    class CountingLcp:
        def __init__(self, values):
            self.values = values

        def __getitem__(self, i):
            reads.append(i)
            return self.values[i]

    ix = dataclasses.replace(
        alabar_index,
        fwd=dataclasses.replace(alabar_index.fwd, lcp=CountingLcp(alabar_index.fwd.lcp)),
    )
    stats = QueryStats()
    assert map_via_psv_nsv(ix, (6, 8), 2, 2, stats) == (13, 15)
    assert map_via_psv_nsv(ix, (3, 4), 4, 2, stats) == (10, 11)
    assert reads
    reads.clear()
    assert map_via_psv_nsv(ix, (9, 9), 6, 2, stats) == (16, 16)
    assert reads == []
    assert stats.sa_accesses == 3


def test_map_via_cmin_examples(alabar_index, monkeypatch):
    # The runs of "ba" and "ra"; each maps with two counted accesses and
    # one counted range minimum.  The one-rank run of "ra" is its own range
    # minimum and makes no rmq call.
    searched = []
    rmq = RmqStructure.rmq

    def spy(struct, i, j, stats=None):
        searched.append((i, j))
        return rmq(struct, i, j, stats)

    monkeypatch.setattr(RmqStructure, "rmq", spy)
    stats = QueryStats()
    assert map_via_cmin(alabar_index, (3, 4), 4, 2, stats) == (10, 11)
    assert map_via_cmin(alabar_index, (9, 9), 6, 2, stats) == (16, 16)
    assert searched == [(3, 4)]
    assert stats.rmq_calls == 2
    assert stats.sa_accesses == 4


def test_mapping_strategies_agree_on_random_parts():
    rng = random.Random(21)
    for _ in range(15):
        t = load_text(naive.random_raw(rng, rng.randint(2, 150), 2))
        ix = build_index(t)
        for _ in range(30):
            p = naive.sample_codes(rng, t)
            ell = rng.randint(0, 6)
            s1, s2 = QueryStats(), QueryStats()
            m1 = query(ix, p, ell, strategy=MappingStrategy.PSV_NSV, stats=s1)
            m2 = query(ix, p, ell, strategy=MappingStrategy.CMIN, stats=s2)
            assert m1 == m2


def test_emit_boundary_example(alabar_index):
    # The run of "$al" holds the occurrence at position 1, the suffix of
    # forward rank 5; reading that rank is the one counted access.
    stats = QueryStats()
    assert emit_boundary_context(alabar_index, (2, 2), 1, stats) == (5, 5, 0)
    assert stats.sa_accesses == 1
    assert (stats.rmq_calls, stats.psv_calls, stats.nsv_calls) == (0, 0, 0)


def test_only_query_decides_the_text_start(monkeypatch):
    # Mappers see interior runs only (start >= 1), and every boundary call
    # comes from a run whose left context starts at 0 or below.
    rng = random.Random(27)
    calls = {"mapper": 0, "boundary": 0}

    def spy_mapper(fn):
        def mapped(ix, part, start, t, stats=None):
            calls["mapper"] += 1
            assert start >= 1
            assert start == ix.text.n - ix.rev.sa[part[0]] - t + 1
            return fn(ix, part, start, t, stats)
        return mapped

    boundary = index.emit_boundary_context

    def spy_boundary(ix, part, pos, stats=None):
        # ``pattern`` and ``ell`` are those of the query being answered.
        calls["boundary"] += 1
        m = len(pattern)
        start = ix.text.n - ix.rev.sa[part[0]] - (m + ell) + 1
        assert start <= 0 and pos == start + ell
        return boundary(ix, part, pos, stats)

    monkeypatch.setattr(index, "map_via_psv_nsv", spy_mapper(map_via_psv_nsv))
    monkeypatch.setattr(index, "map_via_cmin", spy_mapper(map_via_cmin))
    monkeypatch.setattr(index, "emit_boundary_context", spy_boundary)
    for _ in range(10):
        t = load_text(naive.random_raw(rng, rng.randint(2, 80), 2))
        ix = build_index(t)
        for _ in range(20):
            pattern = naive.sample_codes(rng, t)
            ell = rng.randint(0, 12)
            for strategy in MappingStrategy:
                query(ix, pattern, ell, strategy=strategy)
    assert calls["mapper"] and calls["boundary"]


def test_emit_boundary_deep_padding(alabar_index):
    matches = query(alabar_index, [alabar_data.CODE[c] for c in "al"], 2)
    crossing = [m for m in matches if m.context[0] == 0]
    assert len(crossing) == 1
    m = crossing[0]
    assert (m.ds, m.de, m.count) == (5, 5, 1)
    assert m.context == alabar_data.ctx("$$alab")


def test_emit_boundary_rejects_wide_parts(alabar_index):
    with pytest.raises(NonSingletonBoundaryError):
        emit_boundary_context(alabar_index, (2, 3), 1)


@pytest.mark.parametrize("pattern, ell, psv_nsv, cmin", [
    ("a", 1, (9, 0, 2, 26), (13, 0, 0, 30)),
    ("al", 2, (2, 0, 0, 17), (4, 0, 0, 19)),
    ("a", 17, (7, 0, 0, 34), (7, 0, 0, 34)),
])
def test_boundary_query_counts(alabar_index, pattern, ell, psv_nsv, cmin):
    # (rmq, psv, nsv, sa_accesses) of queries with runs crossing the text
    # start: each such run costs three counted reads (its context start,
    # its forward rank and the step-5 suffix read) and no rmq, psv or nsv
    # call.
    codes = [alabar_data.CODE[c] for c in pattern]
    for strategy, counts in ((MappingStrategy.PSV_NSV, psv_nsv),
                             (MappingStrategy.CMIN, cmin)):
        stats = QueryStats()
        matches = query(alabar_index, codes, ell, strategy=strategy, stats=stats)
        assert any(m.p_offset == 0 for m in matches)
        assert (stats.rmq_calls, stats.psv_calls, stats.nsv_calls,
                stats.sa_accesses) == counts


def test_cross_block_query_counts(monkeypatch):
    # (rmq, psv, nsv, sa_accesses) totals of every pattern of 1-3 symbols
    # with ell 0-4 on a 10^4-symbol text, where short patterns span
    # thousands of ranks: a wide range searched by a partition walk is read
    # across blocks yet counts once.
    ix = build_index(load_text(generate_repetitive(2000, 4, 0.02, 1)))
    widths = []
    walking = []
    across = RmqStructure._across_blocks
    partition = index.partition_interval

    def recorded(self, i, j):
        if walking:
            widths.append(j - i + 1)
        return across(self, i, j)

    def walk(*args):
        walking.append(True)
        try:
            return partition(*args)
        finally:
            walking.pop()

    monkeypatch.setattr(RmqStructure, "_across_blocks", recorded)
    monkeypatch.setattr(index, "partition_interval", walk)
    totals = {}
    for strategy in MappingStrategy:
        stats = QueryStats()
        for m in (1, 2, 3):
            for pattern in itertools.product(range(1, 5), repeat=m):
                for ell in range(5):
                    query(ix, pattern, ell, strategy=strategy, stats=stats)
        totals[strategy] = (stats.rmq_calls, stats.psv_calls, stats.nsv_calls,
                            stats.sa_accesses)
    assert totals == {
        MappingStrategy.PSV_NSV: (51454, 6671, 7333, 57232),
        MappingStrategy.CMIN: (61999, 0, 0, 67777),
    }
    assert widths and min(widths) >= BLOCK


def test_one_rank_intervals_are_not_partitioned(monkeypatch):
    # On a uniform sigma = 26 text nearly every forward interval is one
    # rank.  Those are reported without a partition call, a one-rank run
    # maps without a range minimum over c_array, and the totals of every
    # pattern of 1-2 symbols with ell 0-3 are the ones counted when every
    # forward interval went through partition_interval and every cmin run
    # through RmqStructure.rmq.
    ix = build_index(load_text(generate_repetitive(5000, 0, 0.0, 1, sigma=26)))
    forward = []
    partition = index.partition_interval
    searched = []
    rmq = RmqStructure.rmq
    runs = []
    cmin = index.map_via_cmin

    def recorded(struct, lo, hi, threshold, stats=None):
        if struct is ix.rmq_fwd:
            forward.append((lo, hi))
        return partition(struct, lo, hi, threshold, stats)

    def spy(struct, i, j, stats=None):
        if struct is ix.rmq_c:
            searched.append((i, j))
        return rmq(struct, i, j, stats)

    def mapped(mapped_ix, part, start, t, stats=None):
        runs.append(part)
        return cmin(mapped_ix, part, start, t, stats)

    monkeypatch.setattr(index, "partition_interval", recorded)
    monkeypatch.setattr(RmqStructure, "rmq", spy)
    monkeypatch.setattr(index, "map_via_cmin", mapped)
    totals = {}
    for strategy in MappingStrategy:
        stats = QueryStats()
        for m in (1, 2):
            for pattern in itertools.product(range(1, 27), repeat=m):
                for ell in range(4):
                    query(ix, pattern, ell, strategy=strategy, stats=stats)
        totals[strategy] = (stats.rmq_calls, stats.psv_calls, stats.nsv_calls,
                            stats.sa_accesses)
    assert totals == {
        MappingStrategy.PSV_NSV: (31170, 1847, 1802, 148191),
        MappingStrategy.CMIN: (56123, 0, 0, 173144),
    }
    assert forward and all(lo < hi for lo, hi in forward)
    assert searched == [(lo, hi) for lo, hi in runs if lo < hi]
    assert len(searched) < len(runs)


def test_enumerate_occurrences_examples(alabar_index):
    matches = query(alabar_index, A, 1)
    by_ctx = {m.context: m for m in matches}
    lab = by_ctx[alabar_data.ctx("lab")]
    assert sorted(enumerate_occurrences(alabar_index, lab)) == [3, 11]
    bound = by_ctx[alabar_data.ctx("$al")]
    assert enumerate_occurrences(alabar_index, bound) == [1]
    for m in matches:
        positions = enumerate_occurrences(alabar_index, m)
        assert len(positions) == m.count
        assert m.rep_position in positions


def test_extract_context_examples(alabar_index):
    assert extract_context(alabar_index, 16, 1, 1) == alabar_data.ctx("da$")
    assert extract_context(alabar_index, 5, 3, 0) == tuple(
        alabar_data.CODE[c] for c in "ara"
    )
    assert extract_context(alabar_index, 1, 1, 2) == alabar_data.ctx("$$ala")


def test_extract_context_matches_padded_symbols():
    # Every window position, including ones overhanging either end or lying
    # wholly outside the text, against the per-symbol construction.
    rng = random.Random(11)
    for size in (1, 2, 3, 5, 17, 40):
        ix = build_index(load_text(naive.random_raw(rng, size, 4)))
        n = ix.text.n
        for ell in (0, 1, 2, 7, n + 10):
            for m in range(1, 5):
                for pos in range(-3, n + 4):
                    expected = tuple(
                        padded_symbol(ix.text, j) for j in range(pos - ell, pos + m + ell)
                    )
                    assert extract_context(ix, pos, m, ell) == expected


def test_extract_context_cache_holds_at_most_its_widths():
    # More distinct in-range widths than the per-width cache holds, so it
    # is emptied along the way and must still give every answer.
    rng = random.Random(13)
    ix = build_index(load_text(naive.random_raw(rng, 1000, 4)))
    index._unpackers.clear()
    for width in range(1, 2 * index._UNPACKER_WIDTHS):
        ell = width // 3
        m = width - 2 * ell
        # The window lies within the text's n + 1 symbols.
        pos = rng.randint(ell, ix.text.n + 1 - m - ell)
        expected = tuple(
            padded_symbol(ix.text, j) for j in range(pos - ell, pos + m + ell)
        )
        assert extract_context(ix, pos, m, ell) == expected
        assert width in index._unpackers
        assert len(index._unpackers) <= index._UNPACKER_WIDTHS


def test_singleton_contexts_need_no_threshold_scans():
    rng = random.Random(12)
    ix = build_index(load_text(naive.random_raw(rng, 300, 4)))
    p = ix.text.symbols[100:103]
    stats = QueryStats()
    matches = query(ix, p, 20, strategy=MappingStrategy.PSV_NSV, stats=stats)
    assert any(m.p_offset == 20 for m in matches)  # some runs were mapped
    assert all(m.count == 1 for m in matches)
    assert (stats.psv_calls, stats.nsv_calls) == (0, 0)


def test_huge_ell_pads_every_context(alabar_index):
    ell = 40  # longer than the text: all contexts touch both terminators
    matches = query(alabar_index, A, ell)
    expected = naive.naive_occurrence_count(alabar_index.text, A)
    assert sum(m.count for m in matches) == expected
    assert all(m.count == 1 for m in matches)
    for m in matches:
        assert len(m.context) == 1 + 2 * ell


@pytest.mark.parametrize("raw", [
    *(b"a" * size for size in (1, 2, 3, 5, 16, 33, 100, 20_000)),
    bytes(range(1, 256)) * 3,
], ids=lambda raw: f"{raw[:1].hex()}x{len(raw)}")
def test_extreme_texts_match_oracle(raw):
    # On a one-symbol text the LCP array climbs by one per rank, so the
    # threshold scans walk across every level; on all 255 byte values
    # nearly every context is a singleton.  Codes 256 and -1 fit no byte:
    # no index or oracle path may raise on them, and none finds them.
    t = load_text(raw)
    ix = build_index(t)
    rng = random.Random(len(raw))
    ells = [0, 1, 2, rng.randint(3, 9)]
    if t.n <= 800:
        ells += [t.n - 1, t.n, t.n + 10]
    unheld = [[256], [-1]]
    sampled = [naive.sample_codes(rng, t, max_len=12) for _ in range(5)]
    for p in sampled + unheld:
        for ell in ells:
            expected = oracle_contexts(t, p, ell)
            for strategy in MappingStrategy:
                assert naive.answered_contexts(ix, p, ell, strategy) == expected
    for p in unheld:
        assert find_pattern_range(ix.fwd, p) is None
        assert find_pattern_range(ix.rev, p) is None
        assert oracle_contexts(t, p, 1) == {}
        assert query(ix, p, 1) == []
    lcp = ix.fwd.lcp
    for _ in range(20):
        p, d = rng.randint(1, t.n), rng.randint(0, t.n)
        assert ix.rmq_fwd.psv(p, d) == naive.scan_psv(lcp, p, d)
        assert ix.rmq_fwd.nsv(p, d) == naive.scan_nsv(lcp, t.n, p, d)
