import math
import random
import tracemalloc
from array import array as packed_array

import numpy as np
import pytest

from cpmatch.errors import EmptyArrayError, InvalidPositionError, InvalidRangeError
from cpmatch.rmq import BLOCK, QueryStats, RmqStructure, pack, partition_interval

import alabar_data
import naive


@pytest.fixture(scope="module")
def lcp_struct():
    return RmqStructure(alabar_data.LCP)


@pytest.fixture(scope="module")
def lcp_rev_struct():
    return RmqStructure(alabar_data.LCP_REV)


def test_empty_array_rejected():
    with pytest.raises(EmptyArrayError):
        RmqStructure([0])


def test_rmq_fixed_values(lcp_struct, lcp_rev_struct):
    assert lcp_struct.rmq(6, 9) == 8
    assert lcp_struct.rmq(2, 9) == 2
    assert lcp_rev_struct.rmq(3, 9) == 3  # ties at 5, 6, 9; leftmost wins
    assert lcp_struct.rmq(11, 11) == 11


def test_rmq_singleton_array():
    s = RmqStructure([0, 42])
    assert s.rmq(1, 1) == 1


def test_rmq_range_validation(lcp_struct):
    with pytest.raises(InvalidRangeError):
        lcp_struct.rmq(0, 3)
    with pytest.raises(InvalidRangeError):
        lcp_struct.rmq(5, 4)
    with pytest.raises(InvalidRangeError):
        lcp_struct.rmq(1, 18)


def test_psv_nsv_fixed_values(lcp_struct):
    assert lcp_struct.psv(14, 2) == 13
    assert lcp_struct.psv(1, 5) == 0
    assert lcp_struct.nsv(13, 2) == 16
    assert lcp_struct.nsv(17, 1) == 18


def test_psv_nsv_position_validation(lcp_struct):
    with pytest.raises(InvalidPositionError):
        lcp_struct.psv(0, 1)
    with pytest.raises(InvalidPositionError):
        lcp_struct.psv(19, 1)
    with pytest.raises(InvalidPositionError):
        lcp_struct.nsv(-1, 1)
    with pytest.raises(InvalidPositionError):
        lcp_struct.nsv(18, 1)


def test_exhaustive_small_arrays_match_scans():
    rng = random.Random(7)
    for n in list(range(1, 20)) + [31, 32, 33, 64]:
        array = [0] + [rng.randint(0, 6) for _ in range(n)]
        s = RmqStructure(array)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert s.rmq(i, j) == naive.scan_rmq(array, i, j), (array, i, j)
        for d in range(0, 8):
            for p in range(1, n + 2):
                assert s.psv(p, d) == naive.scan_psv(array, p, d)
            for p in range(0, n + 1):
                assert s.nsv(p, d) == naive.scan_nsv(array, n, p, d)


def test_large_random_arrays_match_scans():
    rng = random.Random(8)
    for _ in range(6):
        n = rng.randint(200, 500)
        array = [0] + [rng.randint(0, 30) for _ in range(n)]
        s = RmqStructure(array)
        for _ in range(300):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            assert s.rmq(i, j) == naive.scan_rmq(array, i, j)
            d = rng.randint(0, 31)
            p = rng.randint(1, n + 1)
            assert s.psv(p, d) == naive.scan_psv(array, p, d)
            p = rng.randint(0, n)
            assert s.nsv(p, d) == naive.scan_nsv(array, n, p, d)


def test_tie_heavy_arrays_match_scans():
    # All-equal and two-valued arrays at and around powers of two: nearly
    # every range minimum is a tie, so answers must be the leftmost one.
    rng = random.Random(9)
    for k in range(1, 11):
        for n in (2**k - 1, 2**k, 2**k + 1):
            for array in ([0] + [3] * n, [0] + [rng.choice((2, 5)) for _ in range(n)]):
                s = RmqStructure(array)
                if n <= 65:
                    starts = range(1, n + 1)
                else:
                    starts = {1, 2, n // 2, n - 1, n, *rng.sample(range(1, n + 1), 12)}
                for i in starts:
                    best = i
                    for j in range(i, n + 1):
                        if array[j] < array[best]:
                            best = j
                        assert s.rmq(i, j) == best, (array, i, j)
                for d in range(2, 7):
                    below = 0
                    for p in range(1, n + 2):
                        assert s.psv(p, d) == below, (array, p, d)
                        if p <= n and array[p] < d:
                            below = p
                    below = n + 1
                    for p in range(n, -1, -1):
                        assert s.nsv(p, d) == below, (array, p, d)
                        if p >= 1 and array[p] < d:
                            below = p


def test_table_memory_is_packed_positions():
    # Bounds retained memory only: seven 1-byte window offsets per element
    # plus a block table of 4-byte positions fit; a 4-byte position per
    # element and level (about 68 bytes here) does not.
    n = 1 << 16
    rng = random.Random(10)
    array = [0] + [rng.randint(0, 1 << 20) for _ in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = RmqStructure(array)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 10 * n
    assert s.rmq(1, n) == naive.scan_rmq(array, 1, n)


@pytest.mark.parametrize("n", [255, 256, 257, 511, 513, 769, 5000])
def test_multi_block_arrays_match_scans(n):
    # Ranges that cross no, one and many 256-wide block edges, and
    # thresholds whose nearest smaller value lies blocks away or nowhere.
    # The two-valued, all-equal and sparse arrays tie almost everywhere, so
    # any answer that is not the leftmost shows.  The sparse array's only
    # small values end one block and start another, where only the right
    # piece of a range, or only its whole blocks, can reach them.
    rng = random.Random(n)
    sparse = [0] + [5] * n
    for q in (256, 513):
        if q <= n:
            sparse[q] = 2
    arrays = [
        [0] + [rng.randint(0, 50) for _ in range(n)],
        [0] + [rng.choice((2, 5)) for _ in range(n)],
        [0] + [3] * n,
        sparse,
    ]
    edges = {e + step for e in range(0, n + 1, 256) for step in (-1, 0, 1, 2)}
    ends = {q for q in edges | set(rng.sample(range(1, n + 1), 8)) if 1 <= q <= n}
    for array in arrays:
        s = RmqStructure(array)
        pairs = []
        for i in sorted(ends):
            best = i
            for j in range(i, n + 1):
                if array[j] < array[best]:
                    best = j
                if n < 1000 or j in ends or j - i < 3:
                    assert s.rmq(i, j) == best, (array[:3], i, j)
                    pairs.append((i, j))
        low, high = min(array[1:]), max(array[1:])
        for d in (low, low + 1, high + 1):
            below = 0
            for p in range(1, n + 2):
                assert s.psv(p, d) == below, (array[:3], p, d)
                if p <= n and array[p] < d:
                    below = p
            below = n + 1
            for p in range(n, -1, -1):
                assert s.nsv(p, d) == below, (array[:3], p, d)
                if p >= 1 and array[p] < d:
                    below = p
        lo, hi = np.array(pairs, np.int32).T
        expected = [min(array[i:j + 1]) for i, j in zip(lo, hi)]
        assert s.range_minima(lo, hi).tolist() == expected


def test_psv_nsv_every_gap_near_block_edges():
    # One value below the threshold, at every gap 1..600 left and right of
    # anchors on both sides of each block edge and of random anchors: the
    # gallop stops at every window width and halves back to every offset.
    # Then on 66 blocks, answers 1 to 64 blocks away, at 2**j blocks and one
    # position either side and at random gaps, from values at block edges
    # and random ones: windows of BLOCK and more read across blocks.
    def check(n, q, anchors):
        array = [0] + [5] * n
        array[q] = 2
        s = RmqStructure(array)
        for p in anchors:
            # The scans find nothing on the side away from q.
            if p > q:
                assert s.psv(p, 3) == naive.scan_psv(array, p, 3) == q, (p, q)
                assert p > n or s.nsv(p, 3) == n + 1
            elif p < q:
                assert s.nsv(p, 3) == naive.scan_nsv(array, n, p, 3) == q, (p, q)
                assert p < 1 or s.psv(p, 3) == 0

    rng = random.Random(22)
    n = 1500
    anchors = {e + side for e in range(BLOCK, n, BLOCK) for side in (0, 1)}
    anchors |= set(rng.sample(range(1, n + 1), 20))
    for q in range(1, n + 1):
        check(n, q, [p for p in anchors if 1 <= abs(p - q) <= 600])
    n = 66 * BLOCK
    gaps = {(BLOCK << j) + side for j in range(7) for side in (-1, 0, 1)}
    gaps |= set(rng.sample(range(1, 64 * BLOCK), 12))
    for q in (1, BLOCK, BLOCK + 1, n // 2, n - BLOCK, n, *rng.sample(range(1, n), 2)):
        check(n, q, [p for g in gaps for p in (q - g, q + g) if 0 <= p <= n + 1])


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_psv_nsv_reads_grow_with_the_gap_not_n():
    # On 2**12 blocks, with values below the threshold at the last position
    # of one block and the first of the next, answers g = 1 to 64 blocks
    # away take at most 12 * (log2 g + 1) array reads: a window narrower
    # than BLOCK costs one read, a wider one eleven.  A walk over the block
    # table reads the array once per level, 12 here, whatever the gap, so it
    # cannot answer across the block edge at g = 1 in 12 reads.
    n = 1 << 20
    mid = n // 2
    array = CountingList([5] * (n + 1))
    array[0] = 0
    array[mid] = array[mid + 1] = 2
    s = RmqStructure(array)
    rng = random.Random(23)
    gaps = {(BLOCK << j) + side for j in range(7) for side in (-1, 0, 1)}
    gaps |= {*range(1, 17), *rng.sample(range(1, 64 * BLOCK), 40)}
    cases = [(s.psv, mid + 1, mid), (s.nsv, mid, mid + 1)]
    cases += [(s.psv, mid + 1 + g, mid + 1) for g in gaps]
    cases += [(s.nsv, mid - g, mid) for g in gaps]
    for scan, p, q in cases:
        array.reads = 0
        assert scan(p, 3) == q, (scan.__name__, p)
        reads, g = array.reads, abs(p - q)
        assert reads <= 12 * (math.log2(g) + 1), (scan.__name__, g, reads)


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 255, 256, 257, 5000, 70000])
def test_table_rows_match_where_reference(n):
    # Every stored row equals the np.where build's, byte for byte.  The
    # decreasing array puts each window offset at its largest, 2**k - 1;
    # the all-equal and two-valued ones make ties that must go left.
    rng = random.Random(n)
    shapes = {
        "decreasing": list(range(n, 0, -1)),
        "increasing": list(range(1, n + 1)),
        "all-equal": [7] * n,
        "two-valued": [rng.choice((2, 5)) for _ in range(n)],
        "random": [rng.randint(0, 2**31 - 1) for _ in range(n)],
    }
    for shape, body in shapes.items():
        for typecode in (None, "i", "q"):
            array = [0, *body]
            if typecode:
                array = packed_array(typecode, array)
            s = RmqStructure(array)
            values = np.asarray(array)
            levels = min(7, n.bit_length() - 1)
            rows = naive.where_doubling_reference(
                np.zeros(n + 1, np.uint8), values, levels, relative=True
            )
            want = [row.tobytes() for row in rows]
            assert [row.tobytes() for row in s._rows[1:]] == want, shape
            assert all(row.typecode == "B" for row in s._rows[1:])
            heads = np.array(
                [b + np.argmin(values[b:b + 256]) for b in range(1, n + 1, 256)]
            )
            levels = len(heads).bit_length() - 1
            rows = naive.where_doubling_reference(
                heads, values[heads], levels, relative=False
            )
            want = [row.astype(np.int32).tobytes() for row in [heads, *rows]]
            assert [row.tobytes() for row in s._blocks] == want, shape
            assert all(row.typecode == "i" for row in s._blocks)


def test_pack_widens_only_past_four_bytes():
    narrow = pack(np.array([0, 7, 5]), 7)
    assert narrow.itemsize == 4 and list(narrow) == [0, 7, 5]
    wide = pack(np.array([0, 2**31, 5]), 2**31)
    assert wide.itemsize == 8 and list(wide) == [0, 2**31, 5]


def test_stats_count_only_public_calls(lcp_struct):
    stats = QueryStats()
    lcp_struct.rmq(2, 9, stats)
    lcp_struct.psv(14, 2, stats)
    lcp_struct.nsv(13, 2, stats)
    assert (stats.rmq_calls, stats.psv_calls, stats.nsv_calls) == (1, 1, 1)
    # Answers four blocks away: the scans read windows across blocks through
    # uncounted rmq calls.
    far = [0] + [5] * (10 * BLOCK)
    far[BLOCK] = far[9 * BLOCK] = 2
    s = RmqStructure(far)
    stats = QueryStats()
    assert s.rmq(1, 10 * BLOCK, stats) == BLOCK
    assert s.psv(5 * BLOCK, 3, stats) == BLOCK
    assert s.nsv(5 * BLOCK, 3, stats) == 9 * BLOCK
    assert (stats.rmq_calls, stats.psv_calls, stats.nsv_calls) == (1, 1, 1)


def test_partition_rev_interval(lcp_rev_struct):
    parts = partition_interval(lcp_rev_struct, 2, 9, 2)
    assert [p[0] for p in parts] == alabar_data.A_ELL1_PART_STARTS
    assert parts == [(2, 2), (3, 4), (5, 5), (6, 8), (9, 9)]


def test_partition_forward_interval(lcp_struct):
    assert partition_interval(lcp_struct, 13, 15, 3) == [(13, 14), (15, 15)]


def test_partition_singleton(lcp_struct):
    assert partition_interval(lcp_struct, 9, 9, 4) == [(9, 9)]


def test_partition_matches_sorted_reference():
    # Same parts, same order, same rmq calls as the sort-based reference,
    # for every range of random, tie-heavy and two-valued arrays.  The two
    # long arrays compare with the count that needs no range minimum.
    rng = random.Random(16)
    cases = []
    for n in (1, 2, 3, 7, 16, 33, 64):
        for array in ([0] + [rng.randint(0, 9) for _ in range(n)],
                      [0] + [3] * n,
                      [0] + [rng.choice((2, 5)) for _ in range(n)]):
            cases.append((array, (1, 3, 5, 6)))
    cases.append(([0] + [rng.choice((2, 5)) for _ in range(300)], (3,)))
    cases.append(([0] + [rng.randint(0, 4) for _ in range(150)], (2,)))
    for array, thresholds in cases:
        n = len(array) - 1
        s = RmqStructure(array)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                for threshold in thresholds:
                    got_stats = QueryStats()
                    got = partition_interval(s, lo, hi, threshold, got_stats)
                    if n <= 64:
                        ref_stats = QueryStats()
                        ref = naive.sorted_partition_reference(
                            s, lo, hi, threshold, ref_stats
                        )
                        ref_calls = ref_stats.rmq_calls
                    else:
                        ref, ref_calls = naive.counted_partition_reference(
                            array, lo, hi, threshold
                        )
                    assert got == ref, (array, lo, hi, threshold)
                    assert got_stats.rmq_calls == ref_calls
                    if lo == hi:
                        assert got_stats.rmq_calls == 0


def test_partition_across_many_blocks():
    # On 66 blocks, ranges that start and end at a block edge or one
    # position either side and span 1 to 64 blocks, at thresholds that
    # split no position, about one in 500 (so the ranges between splits
    # are mostly wider than BLOCK) and about 90% of them: the same parts
    # and rmq count as the reference, whether the walk searches ranges
    # narrower than BLOCK or reads wider ones across blocks.  Half of the
    # rare low values sit where a range ends or just after one starts, so
    # that wide searched ranges hold their only one at their first or last
    # position.
    rng = random.Random(28)
    n = 66 * BLOCK
    array = [0] + [1 if rng.random() < 0.001 else rng.randint(2, 100)
                   for _ in range(n)]
    firsts = (0, 1, 2, *rng.sample(range(3, 33), 2))
    for first in firsts[1:]:
        array[first * BLOCK + rng.randint(1, 3)] = 1
    for edge in rng.sample(range(4, 66), 12):
        array[edge * BLOCK + rng.randint(-1, 1)] = 1
    s = RmqStructure(array)
    spans = {1, 2, 3, 4, 8, 16, 32, 63, 64, *rng.sample(range(5, 63), 3)}
    for first in firsts:
        for span in spans:
            if first + span > 66:
                continue
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    lo = max(first * BLOCK + 1 + a, 1)
                    hi = min((first + span) * BLOCK + b, n)
                    for threshold in (1, 2, 91):
                        stats = QueryStats()
                        got = partition_interval(s, lo, hi, threshold, stats)
                        ref, calls = naive.counted_partition_reference(
                            array, lo, hi, threshold
                        )
                        assert got == ref, (lo, hi, threshold)
                        assert stats.rmq_calls == calls, (lo, hi, threshold)


def test_partition_takes_each_left_end_split_with_one_read():
    # Where every interior value is below the threshold, each split is the
    # left end of the range still to walk, and the walk takes it with one
    # array read and no window-row search: 199 reads at width 200, where a
    # search per split reads three.  Where none is, the walk reads the
    # range's left end once beyond one search of it, whose reads are those
    # of RmqStructure.rmq and one more to compare the minimum.  Both give
    # the reference's parts and rmq count.
    rng = random.Random(31)
    n = 3 * BLOCK + 5
    below = CountingList([0] + [rng.randint(0, 2) for _ in range(n)])
    above = CountingList([0] + [rng.randint(3, 9) for _ in range(n)])
    widths = (1, 2, 3, 200, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, n)
    for array in (below, above):
        s = RmqStructure(array)
        for width in widths:
            for lo in {1, 2, BLOCK - 3, n + 1 - width}:
                hi = lo + width - 1
                if not 1 <= lo <= hi <= n:
                    continue
                stats = QueryStats()
                array.reads = 0
                got = partition_interval(s, lo, hi, 3, stats)
                reads = array.reads
                ref, calls = naive.counted_partition_reference(array, lo, hi, 3)
                assert got == ref, (lo, hi)
                assert stats.rmq_calls == calls, (lo, hi)
                if array is below or lo == hi:
                    assert reads == width - 1, (lo, hi, reads)
                else:
                    array.reads = 0
                    s.rmq(lo + 1, hi)
                    search = array.reads + 1
                    assert reads <= search + 1, (lo, hi, reads, search)


@pytest.mark.parametrize("period, n, reads", [(3, 180, 299), (2, 120, 237)])
def test_partition_probes_no_position_twice(period, n, reads):
    # Values below the threshold at every multiple of the period.  Each
    # split but the first is found by a search of a range whose left end
    # has just failed its probe: one read for the probe, and three for the
    # search, the values at its two window-row answers and the minimum's
    # once more.  The walk then goes on past that left end, so it probes
    # the period - 2 positions left of the split once each and the failed
    # left end never again: 5 reads per split at period 3 and 4 at period 2,
    # 4 + 59 * 5 and 1 + 59 * 4 with the first split (a walk that probes
    # the failed left end again reads 477 and 296).
    array = CountingList([0] + [1 if i % period == 0 else 9 for i in range(1, n + 1)])
    s = RmqStructure(array)
    stats = QueryStats()
    array.reads = 0
    got = partition_interval(s, 1, n, 3, stats)
    assert array.reads == reads
    ref, calls = naive.counted_partition_reference(array, 1, n, 3)
    assert len(got) == n // period + 1
    assert got == ref
    assert stats.rmq_calls == calls


def test_partition_validation(lcp_struct):
    with pytest.raises(InvalidRangeError):
        partition_interval(lcp_struct, 5, 4, 2)
    with pytest.raises(InvalidRangeError):
        partition_interval(lcp_struct, 1, 17, 0)
    with pytest.raises(InvalidRangeError):
        partition_interval(lcp_struct, 0, 4, 2)


def test_partition_properties_random():
    # Parts tile the range; every later start holds a value below the
    # threshold; no interior position of any part does.
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 120)
        array = [0] + [rng.randint(0, 9) for _ in range(n)]
        s = RmqStructure(array)
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        threshold = rng.randint(1, 10)
        stats = QueryStats()
        parts = partition_interval(s, lo, hi, threshold, stats)
        assert parts[0][0] == lo and parts[-1][1] == hi
        for (a, b), (c, _) in zip(parts, parts[1:]):
            assert b + 1 == c
        for a, b in parts:
            assert a <= b
            if a != lo:
                assert array[a] < threshold
            for q in range(a + 1, b + 1):
                assert array[q] >= threshold
        assert stats.rmq_calls <= 2 * len(parts) - 1
