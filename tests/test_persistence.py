import hashlib
import io
import random
import struct
import tracemalloc
from array import array

import pytest

from cpmatch.corpus import load_text
from cpmatch.errors import (
    BadMagicError,
    CorruptSectionError,
    IndexFormatError,
    UnsupportedVersionError,
)
from cpmatch.generate import generate_repetitive
from cpmatch.index import MappingStrategy, build_index, query, translate_ranks
from cpmatch.oracle import oracle_contexts
from cpmatch import cli, persistence
from cpmatch.persistence import load_index, save_index
from cpmatch.rmq import RmqStructure
from cpmatch.suffixes import build_inverse, compute_bwt_runs

import alabar_data
import naive

UNDEF = (1 << 64) - 1


def save_bytes(ix) -> bytes:
    sink = io.BytesIO()
    written = save_index(ix, sink)
    blob = sink.getvalue()
    assert written == len(blob)
    return blob


def test_header_fields(alabar_index):
    blob = save_bytes(alabar_index)
    assert blob[:4] == b"CPMX"
    version, n, sigma = struct.unpack_from("<IQQ", blob, 4)
    assert (version, n, sigma) == (1, 17, 5)


def test_c_map_section_contents(alabar_index):
    blob = save_bytes(alabar_index)
    table = struct.unpack_from("<16Q", blob, 24)
    off, size = table[14], table[15]
    stored = list(struct.unpack_from(f"<{size // 8}Q", blob, off))
    assert stored == [UNDEF, *alabar_data.C_MAP[2:]]
    assert stored[1:] == [5, 8, 9, 2, 3, 4, 6, 7] + list(range(10, 18))


def test_save_is_deterministic(alabar_index):
    blob = save_bytes(alabar_index)
    assert save_bytes(alabar_index) == blob
    reloaded = load_index(io.BytesIO(blob))
    assert save_bytes(reloaded) == blob


@pytest.mark.parametrize("raw, digest", [
    (alabar_data.RAW,
     "5822a0053b9c41b758d8290394c6d86a592144997724068dfc08e782513cc600"),
    (generate_repetitive(200, 3, 0.05, 1),
     "d35784e50add7483d6a4a44b6571c1dec2eaacb41bc82d61dd00ef8aff39e7ea"),
])
def test_format_bytes_are_pinned(raw, digest):
    # Digests of format version 1 saves; any change to a section's bytes
    # shows here, where repeated saves by the same code cannot show it.
    blob = save_bytes(build_index(load_text(raw)))
    assert hashlib.sha256(blob).hexdigest() == digest


class Unseekable(io.BytesIO):
    """A stream that can only be read or written in order."""

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def test_round_trip_never_seeks(alabar_index):
    blob = save_bytes(alabar_index)
    sink = Unseekable()
    assert save_index(alabar_index, sink) == len(blob)
    assert sink.getvalue() == blob
    loaded = load_index(Unseekable(blob))
    assert save_bytes(loaded) == blob


class Discard:
    def write(self, data):
        pass


@pytest.fixture(scope="module")
def index_2_16():
    n = 1 << 16
    return build_index(load_text(naive.random_raw(random.Random(11), n - 1, 4)))


def traced_peak(call):
    """Run ``call``; return its result, its peak heap and what it retains."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, retained - before


def test_save_holds_one_section_at_a_time(index_2_16):
    # Eight u64 sections take 64 bytes per text byte; one of them, 8.
    n = index_2_16.text.n
    _, peak, _ = traced_peak(lambda: save_index(index_2_16, Discard()))
    assert peak <= 10 * n


def test_load_holds_one_section_at_a_time(index_2_16):
    # All eight u64 sections at once would take 64 bytes per text byte
    # above what the loaded index keeps.
    n = index_2_16.text.n
    blob = save_bytes(index_2_16)
    ix, peak, retained = traced_peak(lambda: load_index(io.BytesIO(blob)))
    assert ix.fwd.sa == index_2_16.fwd.sa
    assert peak - retained <= 32 * n


def test_base_arrays_are_packed(alabar_index):
    loaded = load_index(io.BytesIO(save_bytes(alabar_index)))
    for ix in (alabar_index, loaded):
        for values in (ix.fwd.sa, ix.isa, ix.fwd.lcp,
                       ix.rev.sa, ix.rev.lcp, ix.c_array):
            assert isinstance(values, array) and values.itemsize == 4


def test_round_trip_arrays_and_queries(alabar_index):
    blob = save_bytes(alabar_index)
    ix = load_index(io.BytesIO(blob))
    assert ix.text == alabar_index.text
    assert ix.fwd.sa == alabar_index.fwd.sa
    assert ix.isa == alabar_index.isa
    assert ix.fwd.lcp == alabar_index.fwd.lcp
    assert ix.rev.sa == alabar_index.rev.sa
    assert not hasattr(ix.rev, "isa")  # no query reads a reverse inverse
    assert ix.rev.lcp == alabar_index.rev.lcp
    assert ix.c_array == alabar_index.c_array
    a = [alabar_data.CODE["a"]]
    assert query(ix, a, 1) == query(alabar_index, a, 1)


def test_round_trip_random_texts():
    rng = random.Random(40)
    for _ in range(10):
        t = load_text(naive.random_raw(rng, rng.randint(1, 200), 4))
        ix = build_index(t)
        loaded = load_index(io.BytesIO(save_bytes(ix)))
        for _ in range(5):
            p = naive.sample_codes(rng, t)
            ell = rng.randint(0, 5)
            for strategy in MappingStrategy:
                assert query(loaded, p, ell, strategy=strategy) == query(
                    ix, p, ell, strategy=strategy
                )


def test_bad_magic(alabar_index):
    blob = bytearray(save_bytes(alabar_index))
    blob[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        load_index(io.BytesIO(bytes(blob)))


def test_unsupported_version(alabar_index):
    blob = bytearray(save_bytes(alabar_index))
    struct.pack_into("<I", blob, 4, 2)
    with pytest.raises(UnsupportedVersionError):
        load_index(io.BytesIO(bytes(blob)))


def test_truncations(alabar_index):
    blob = save_bytes(alabar_index)
    for cut in (0, 3, 7, 20, 151, len(blob) - 1):
        with pytest.raises(CorruptSectionError):
            load_index(io.BytesIO(blob[:cut]))


def test_implausible_dimensions(alabar_index):
    blob = bytearray(save_bytes(alabar_index))
    struct.pack_into("<Q", blob, 8, 1)  # n = 1
    with pytest.raises(CorruptSectionError):
        load_index(io.BytesIO(bytes(blob)))


def test_inconsistent_section_table(alabar_index):
    blob = bytearray(save_bytes(alabar_index))
    struct.pack_into("<Q", blob, 24, 153)  # first section offset off by one
    with pytest.raises(CorruptSectionError):
        load_index(io.BytesIO(bytes(blob)))


def test_corrupt_payload_caught_by_verify(alabar_index):
    # Out-of-range ranks must surface as CorruptSectionError, never as an
    # IndexError, ValueError or OverflowError from indexing with them.
    blob = save_bytes(alabar_index)
    n = alabar_index.text.n
    table = struct.unpack_from("<16Q", blob, 24)
    mutants = []
    for section in range(2, 8):  # fwd_sa, fwd_isa, fwd_lcp, rev_sa, rev_lcp, c_map
        off, size = table[2 * section], table[2 * section + 1]
        for slot in (off, off + size - 8):
            for value in (0, n + 1, 9999, UNDEF):
                broken = bytearray(blob)
                struct.pack_into("<Q", broken, slot, value)
                if broken != blob:  # lcp[1] is 0 and c_map[1] is UNDEF already
                    mutants.append(broken)
    off = table[4]  # fwd_sa: swap ranks 1 and 2
    swapped = bytearray(blob)
    swapped[off:off + 16] = blob[off + 8:off + 16] + blob[off:off + 8]
    mutants.append(swapped)
    for broken in mutants:
        with pytest.raises(CorruptSectionError):
            load_index(io.BytesIO(bytes(broken)))


def section_extent(blob: bytes, section: int) -> tuple[int, int]:
    table = struct.unpack_from("<16Q", blob, 24)
    return table[2 * section], table[2 * section + 1] // 8


def test_in_range_isa_and_c_map_edits_rejected_without_verify(alabar_index):
    # Load derives fwd_isa and c_map from the suffix arrays, so a stored
    # copy edited within its value range is rejected even without verify.
    blob = save_bytes(alabar_index)
    n = alabar_index.text.n
    cases = ((3, "inverse", ()), (7, "rank-translation", (UNDEF,)))
    for section, message, extra in cases:
        off, count = section_extent(blob, section)
        mutants = []
        for slot in (1, count - 1):
            old = struct.unpack_from("<Q", blob, off + 8 * slot)[0]
            for value in (old % n + 1, *extra):
                broken = bytearray(blob)
                struct.pack_into("<Q", broken, off + 8 * slot, value)
                mutants.append(broken)
        swapped = bytearray(blob)
        swap_slots(swapped, blob, off, 1, 2)
        mutants.append(swapped)
        for broken in mutants:
            assert broken != blob
            with pytest.raises(CorruptSectionError, match=message):
                load_index(io.BytesIO(bytes(broken)), verify=False)


def test_non_permutation_rejected_without_verify(alabar_index):
    # Rank 5 repeats rank 6's suffix in either suffix array, and fwd_isa
    # and c_map hold what load derives from the suffix arrays, so only the
    # permutation test can tell.  Its derived inverse would hold rank 0 at
    # the missing suffix.
    blob = save_bytes(alabar_index)
    for section in (2, 5):  # fwd_sa, rev_sa
        fwd_sa = array("i", alabar_index.fwd.sa)
        rev_sa = array("i", alabar_index.rev.sa)
        sa = fwd_sa if section == 2 else rev_sa
        sa[5] = sa[6]
        isa = build_inverse(fwd_sa)
        c_map = persistence._c_map_section(translate_ranks(isa, rev_sa))
        broken = bytearray(blob)
        for patched, values in ((section, sa[1:]), (3, isa[1:]), (7, c_map.tolist())):
            off, count = section_extent(blob, patched)
            struct.pack_into(f"<{count}Q", broken, off, *values)
        for verify in (False, True):
            with pytest.raises(CorruptSectionError, match="not a permutation"):
                load_index(io.BytesIO(bytes(broken)), verify=verify)


def swap_slots(broken: bytearray, blob: bytes, off: int, i: int, j: int) -> None:
    broken[off + 8 * i:off + 8 * i + 8] = blob[off + 8 * j:off + 8 * j + 8]
    broken[off + 8 * j:off + 8 * j + 8] = blob[off + 8 * i:off + 8 * i + 8]


def swap_ranks_consistently(broken: bytearray, blob: bytes, reverse: bool,
                            i: int, j: int) -> None:
    # Swaps two suffix-array entries and patches fwd_isa and c_map to match,
    # so that only the suffix-order and LCP checks can tell.
    sa_off, _ = section_extent(blob, 5 if reverse else 2)
    c_off, count = section_extent(blob, 7)
    swap_slots(broken, blob, sa_off, i, j)
    if reverse:
        swap_slots(broken, blob, c_off, i, j)
        return
    isa_off, _ = section_extent(blob, 3)
    p = struct.unpack_from("<Q", blob, sa_off + 8 * i)[0]
    q = struct.unpack_from("<Q", blob, sa_off + 8 * j)[0]
    swap_slots(broken, blob, isa_off, p - 1, q - 1)
    for slot in range(count):
        rank = struct.unpack_from("<Q", blob, c_off + 8 * slot)[0]
        if rank in (i + 1, j + 1):
            struct.pack_into("<Q", broken, c_off + 8 * slot, i + j + 2 - rank)


@pytest.mark.parametrize("block", [None, 7])
def test_mutated_ranks_and_lcps_caught_by_verify(monkeypatch, block):
    # The sa, isa, lcp and c_map sections each have exactly one valid
    # content, so every in-range edit that changes a byte must be rejected;
    # an edit of the derived isa or c_map even without verify.
    if block is not None:
        monkeypatch.setattr(persistence, "_VERIFY_BLOCK", block)
    rng = random.Random(41)
    for _ in range(12):
        t = load_text(naive.random_raw(rng, rng.randint(1, 60), rng.choice([1, 2, 4])))
        blob = save_bytes(build_index(t))
        n = t.n
        for _ in range(50):
            section = rng.choice([2, 3, 4, 5, 6, 7])  # fwd_sa .. c_map
            off, count = section_extent(blob, section)
            lo, hi = (0, n - 1) if section in (4, 6) else (1, n)
            i, j = rng.randrange(count), rng.randrange(count)
            old = struct.unpack_from("<Q", blob, off + 8 * i)[0]
            broken = bytearray(blob)
            kind = rng.randrange(3)
            if kind == 0:
                struct.pack_into("<Q", broken, off + 8 * i, rng.randint(lo, hi))
            elif kind == 1:
                swap_slots(broken, blob, off, i, j)
            elif section in (4, 6, 7):
                delta = rng.choice([-1, 1])
                if lo <= old + delta <= hi:
                    struct.pack_into("<Q", broken, off + 8 * i, old + delta)
            elif section != 3:
                swap_ranks_consistently(broken, blob, section == 5, i, j)
            if broken == blob:
                continue
            with pytest.raises(CorruptSectionError):
                load_index(io.BytesIO(bytes(broken)))
            if section in (3, 7):
                with pytest.raises(CorruptSectionError):
                    load_index(io.BytesIO(bytes(broken)), verify=False)


@pytest.mark.parametrize("raw", [b"a" * 20_000, bytes(range(1, 256)) * 4])
def test_extreme_alphabets_load_verified(raw):
    ix = build_index(load_text(raw))
    loaded = load_index(io.BytesIO(save_bytes(ix)))
    assert loaded.fwd.sa == ix.fwd.sa
    assert loaded.rev.lcp == ix.rev.lcp


def test_out_of_range_values_rejected_without_verify(alabar_index):
    blob = save_bytes(alabar_index)
    n = alabar_index.text.n
    bad = {
        2: (0, n + 1, UNDEF - 1, UNDEF),  # fwd_sa
        3: (0, n + 1, UNDEF - 1, UNDEF),  # fwd_isa
        4: (n, UNDEF - 1, UNDEF),  # fwd_lcp
        5: (0, n + 1, UNDEF - 1, UNDEF),  # rev_sa
        6: (n, UNDEF - 1, UNDEF),  # rev_lcp
        7: (0, n + 1, UNDEF - 1),  # c_map
    }
    for section, values in bad.items():
        off, count = section_extent(blob, section)
        for slot in (1, count - 1):
            for value in values:
                broken = bytearray(blob)
                struct.pack_into("<Q", broken, off + 8 * slot, value)
                with pytest.raises(CorruptSectionError):
                    load_index(io.BytesIO(bytes(broken)), verify=False)


@pytest.mark.parametrize("verify", [True, False])
def test_trailing_bytes_rejected(alabar_index, verify):
    blob = save_bytes(alabar_index)
    for tail in (b"\x00", b"GARBAGE"):
        with pytest.raises(CorruptSectionError, match="after the last section"):
            load_index(io.BytesIO(blob + tail), verify=verify)


def test_forged_huge_n_fails_cleanly(tmp_path, capsys):
    # A consistent header claiming n = 2**40 over a 216-byte file.  A
    # buffered file allocates a read's whole size up front, which
    # io.BytesIO does not, so only a real file shows a huge read.
    n, sigma = 1 << 40, 8
    header = [b"CPMX", struct.pack("<IQQ", 1, n, sigma)]
    offset = 24 + 16 * 8
    for count in (sigma, n + 1, n, n, n, n, n, n):
        header.append(struct.pack("<QQ", offset, 8 * count))
        offset += 8 * count
    forged = tmp_path / "huge.idx"
    forged.write_bytes(b"".join(header) + struct.pack(f"<{sigma}Q", *b"abcdefgh"))
    assert forged.stat().st_size == 216
    with open(forged, "rb") as fh, pytest.raises(CorruptSectionError, match="truncated"):
        load_index(fh)
    assert cli.main(["query", str(forged), "--pattern", "a", "--context", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: truncated stream")


def test_swapped_symbol_buckets_caught_by_verify():
    # In "ab" the suffixes starting with a and with b are one each, so
    # swapping them leaves every LCP value right: only the first-symbol
    # order can tell.
    blob = save_bytes(build_index(load_text(b"ab")))
    for reverse in (False, True):
        broken = bytearray(blob)
        swap_ranks_consistently(broken, blob, reverse, 1, 2)
        with pytest.raises(CorruptSectionError, match="out of order"):
            load_index(io.BytesIO(bytes(broken)))


def test_range_minima_only_at_bwt_run_boundaries(monkeypatch):
    # A verified load needs a range minimum only for the rank pairs at
    # BWT-run boundaries, r - sigma - 1 per direction; every other pair
    # reads one LCP entry.
    ix = build_index(load_text(generate_repetitive(2000, 9, 0.01, 1)))
    blob = save_bytes(ix)
    ranges = []
    range_minima = RmqStructure.range_minima

    def counted(self, lo, hi):
        ranges.append(len(lo))
        return range_minima(self, lo, hi)

    monkeypatch.setattr(RmqStructure, "range_minima", counted)
    load_index(io.BytesIO(blob))
    sigma = ix.text.sigma
    r, r_rev = compute_bwt_runs(ix.fwd), compute_bwt_runs(ix.rev)
    assert sum(ranges) == (r - sigma - 1) + (r_rev - sigma - 1)


def test_lcp_edits_caught_at_both_kinds_of_pair(monkeypatch):
    # An LCP at a psi-adjacent pair is checked in its own block; one at a
    # run-boundary pair is held for a later range-minimum call.  Both
    # must be caught.
    block = 16
    monkeypatch.setattr(persistence, "_VERIFY_BLOCK", block)
    ix = build_index(load_text(generate_repetitive(200, 3, 0.05, 1)))
    blob = save_bytes(ix)
    # Each rank r >= 2 whose suffix shares its first symbol with rank
    # r - 1's, and whether psi(r) = psi(r - 1) + 1, psi(r) being the rank
    # of sa[r] + 1.
    symbols, sa, isa = ix.text.symbols, ix.fwd.sa, ix.isa
    pairs = [
        (r, isa[sa[r] + 1] == isa[sa[r - 1] + 1] + 1)
        for r in range(2, ix.text.n + 1)
        if symbols[sa[r]] == symbols[sa[r - 1]]
    ]
    adjacent = next(r for r, step in pairs if step)
    boundary = next(
        r for r, step in pairs if not step and (r - 2) // block > (adjacent - 2) // block
    )
    off, _ = section_extent(blob, 4)  # fwd_lcp, rank r at slot r - 1
    n = ix.text.n
    for r in (adjacent, boundary):
        old = ix.fwd.lcp[r]
        broken = bytearray(blob)
        struct.pack_into("<Q", broken, off + 8 * (r - 1), old + 1 if old < n - 1 else old - 1)
        with pytest.raises(CorruptSectionError, match="LCP array inconsistent"):
            load_index(io.BytesIO(bytes(broken)))


def test_fuzzed_saves_fail_cleanly_or_answer_right():
    # Seeded bit flips, byte writes and truncations of valid saves: each
    # mutant raises IndexFormatError or loads, verified, an index whose
    # answers match the oracle on the text it holds.
    rng = random.Random(91)
    raws = [
        alabar_data.RAW, b"ab", b"a" * 9,
        naive.random_raw(rng, 40, 4), naive.random_raw(rng, 25, 26),
    ]
    outcomes = {"rejected": 0, "loaded": 0}
    for raw in raws:
        blob = save_bytes(build_index(load_text(raw)))
        for trial in range(600):
            broken = bytearray(blob)
            kind = trial % 3
            if kind == 0:
                broken[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            elif kind == 1:
                broken[rng.randrange(len(blob))] = rng.randrange(256)
            else:
                del broken[rng.randrange(len(blob)):]
            try:
                ix = load_index(io.BytesIO(bytes(broken)))
            except IndexFormatError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            for _ in range(3):
                p = naive.sample_codes(rng, ix.text)
                ell = rng.randint(0, 4)
                expected = oracle_contexts(ix.text, p, ell)
                for strategy in MappingStrategy:
                    assert naive.answered_contexts(ix, p, ell, strategy) == expected
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0, outcomes
