import hashlib
import io
import itertools
import random
import struct
import sys
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
from cpmatch.suffixes import build_ensemble, build_inverse, compute_bwt_runs

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
    # Keys near the text end, several doubling rounds, many LCP chunks.
    pytest.param(
        generate_repetitive(7000, 19, 0.01, 1),
        "bc1a615ef2a0afe020e20b4a8553377cac2429097e72df112902b071897f7c62",
        id="repetitive-140001"),
    pytest.param(
        generate_repetitive(70_000, 0, 0.0, 1, sigma=26),
        "67ed50c2a85240365f03bdeb986f6c62aa08d3dcb9c5bfc9d64fac7f7fce8f18",
        id="random-70001"),
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


#: Per text byte, the most a load may peak over each section's interval,
#: from its read to the next section's (the last: to assemble_index), above
#: what was held when its read began, in file order: the most measured on
#: the three texts of the test below, in either verify mode, rounded up,
#: plus 3 B/B for numpy's temporaries, which may differ by version (the
#: figures are from numpy 2.4 on CPython 3.11).  An interval holds its u64
#: section beside what it makes and keeps: a suffix array's, its packed
#: array and inverse (21.07 B/B measured), an LCP's, its packed array
#: (12.01), and rev_lcp's, c_array too (16.01).  The fwd_isa and c_map
#: checks compare the section with the packed array through one bool per
#: rank (10.03 each), where a u64 copy of the derived array reads 17.02,
#: over the 14 allowed.
SECTION_BOUNDS = (4, 14, 25, 14, 16, 25, 20, 14)


def test_load_holds_one_section_at_a_time(index_2_16, monkeypatch):
    # Load reads, checks and packs the eight u64 sections one at a time
    # before it calls assemble_index.  At the fwd_isa and c_map checks it
    # compares the stored section with the packed array itself, through one
    # bool per rank, so that phase peaks 9.0 B/B above what is held at the
    # call at 2^16 (8.25 on the binary text at 2^18); a u64 copy of the
    # derived array would add 8.  The phase peaks below
    # the 47.5 B/B the loaded index retains, so only the peak recorded at
    # that call sees it.  Less is held at the earlier checks than at that
    # call, so a copy there shows only in its own section's interval: a
    # spy on _read_exact records what is held and the peak since the last
    # section read as each section is read, and resets the peak; each
    # interval is bounded by SECTION_BOUNDS.  The whole load's peak is the
    # highest of these and the final one.  The rest of the load peaks
    # higher: the table builds at 14.9 B/B above what is retained, and a
    # verified load also holds the verify temporaries, which grow with the
    # verify block and not with n.  The text over 26 letters has no LCP of
    # 8 or more, so its verified load gathers a window for every rank.  On
    # the binary text at n = 2^18 nearly every run-boundary pair shares 8
    # symbols and about half the pairs are such: its verified load reads
    # 17.3 B/B, and 49.6 if the held pairs were checked only at the end.  It
    # is not added at 2^16, where the verify block's temporaries, which do
    # not shrink with n, already read 32.9 B/B.
    sigma_26 = build_index(load_text(generate_repetitive((1 << 16) - 1, 0, 0.0, 1,
                                                         sigma=26)))
    binary = build_index(load_text(naive.random_raw(random.Random(11), 2**18 - 1, 2)))
    assemble = persistence.assemble_index
    read_exact = persistence._read_exact
    above_held = []
    # (held, peak since the previous mark) at each section read and at
    # assemble_index.
    marks = []

    def mark():
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    def recorded_read(source, size, what):
        if what.startswith("section ") and what != "section table":
            mark()
        return read_exact(source, size, what)

    def recorded(*args):
        mark()
        held = marks[-1][0]
        above_held.append(max(peak for _, peak in marks) - held)
        return assemble(*args)

    monkeypatch.setattr(persistence, "_read_exact", recorded_read)
    monkeypatch.setattr(persistence, "assemble_index", recorded)
    for built, verified_bound in ((index_2_16, 32), (sigma_26, 32), (binary, 24)):
        n = built.text.n
        blob = save_bytes(built)
        for verify, bound in ((True, verified_bound), (False, 16)):
            above_held.clear()
            marks.clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ix = load_index(io.BytesIO(blob), verify=verify)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peak = max(peak, *(p for _, p in marks)) - before
            retained -= before
            assert ix.fwd.sa == built.fwd.sa
            assert above_held[0] <= 10 * n, (n, verify)
            assert peak - retained <= bound * n, (n, verify)
            sections = [peak - held for (held, _), (_, peak) in zip(marks, marks[1:])]
            assert len(sections) == len(SECTION_BOUNDS)
            for idx, (above, limit) in enumerate(zip(sections, SECTION_BOUNDS)):
                assert above <= limit * n, (n, verify, idx, above / n)


@pytest.mark.parametrize("raw, bound", [
    # n = 65,532, deep common prefixes: 39.4 B/B measured.
    pytest.param(generate_repetitive(3449, 18, 0.01, 1), 42, id="repetitive"),
    # n = 65,537, sigma = 26, no two suffixes share the first sort's 9
    # symbols: 19.0 B/B.
    pytest.param(generate_repetitive(65_536, 0, 0.0, 1, sigma=26), 21,
                 id="random"),
])
def test_build_ensemble_heap_peak(raw, bound):
    t = load_text(raw)
    _, peak, _ = traced_peak(lambda: build_ensemble(t))
    assert peak <= bound * t.n


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


def force_block_check(monkeypatch, windows: bool) -> None:
    """Make verified loads take the window check, or the psi check."""
    monkeypatch.setattr(persistence, "_mostly_shallow", lambda lcp: windows)


@pytest.mark.parametrize("block", [None, 7])
def test_mutated_ranks_and_lcps_caught_by_verify(monkeypatch, block):
    # The sa, isa, lcp and c_map sections each have exactly one valid
    # content, so every in-range edit that changes a byte must be rejected;
    # an edit of the derived isa or c_map even without verify.  Either
    # block check alone must catch it.
    if block is not None:
        monkeypatch.setattr(persistence, "_VERIFY_BLOCK", block)
    for windows in (False, True):
        force_block_check(monkeypatch, windows)
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
            old = struct.unpack_from("<Q", blob, off + 8 * slot)[0]
            # Equal to the derived value in its low 4 bytes: a compare
            # through a 4-byte cast would miss it.
            wraps = (old + 2**32,) if section in (3, 7) and old != UNDEF else ()
            for value in (*values, *wraps):
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


def test_multi_piece_sections_are_held_once(index_2_16, monkeypatch, tmp_path):
    # With 4 KiB pieces each 512 KiB rank section of a 2^16 index takes 128
    # reads into one array, grown in place before each read after the
    # first.  With the 16 MiB pieces of a real load, sections take more
    # than one read only above n = 2^21, which no other test reaches.
    piece = 4096
    monkeypatch.setattr(persistence, "_READ_PIECE", piece)
    blob = save_bytes(index_2_16)
    path = tmp_path / "pieces.idx"
    path.write_bytes(blob)
    with open(path, "rb") as fh:
        ix = load_index(fh)
    for field in ("isa", "c_array"):
        assert getattr(ix, field) == getattr(index_2_16, field)
    for direction in ("fwd", "rev"):
        for field in ("sa", "lcp"):
            got = getattr(getattr(ix, direction), field)
            assert got == getattr(getattr(index_2_16, direction), field)
    assert ix.text.symbols == index_2_16.text.symbols
    assert save_bytes(ix) == blob
    # Cuts inside the first piece and inside a later one of fwd_sa, and of
    # the last section.
    fwd_sa = struct.unpack_from("<Q", blob, 24 + 2 * 16)[0]
    for cut in (fwd_sa + 100, fwd_sa + 5 * piece + 100, len(blob) - 1):
        for verify in (True, False):
            with pytest.raises(CorruptSectionError, match="truncated stream"):
                load_index(io.BytesIO(blob[:cut]), verify=verify)
    # The section is held once (1.0x measured); a join of the pieces held
    # 2.03x.
    size = 1 << 20
    source = io.BytesIO(bytes(range(256)) * (size // 256))
    data, peak, _ = traced_peak(lambda: persistence._read_exact(source, size, "x"))
    assert len(data) == size
    assert peak <= 1.25 * size


def test_multi_piece_load_under_a_profile_hook(index_2_16, monkeypatch):
    # A trace or profile hook, as cProfile, pdb and coverage set, holds one
    # more reference to the growing section buffer through its frame's
    # locals, which numpy's reference check on resize would refuse.  A
    # no-op hook is set unless one already is (cProfile's cannot be set
    # again through sys.setprofile).
    monkeypatch.setattr(persistence, "_READ_PIECE", 4096)
    blob = save_bytes(index_2_16)
    hooked = sys.getprofile() is not None
    if not hooked:
        sys.setprofile(lambda *args: None)
    try:
        ix = load_index(io.BytesIO(blob))
    finally:
        if not hooked:
            sys.setprofile(None)
    assert save_bytes(ix) == blob


class Trickle(io.BytesIO):
    """A stream whose reads return at most 1000 bytes each, as a pipe may."""

    def read(self, size=-1):
        return super().read(1000 if size < 0 else min(size, 1000))

    def readinto(self, buffer):
        with memoryview(buffer)[:1000] as view:
            return super().readinto(view)


def test_short_reads_are_read_on(index_2_16):
    # A short read is not the end of the stream: each section, of one piece
    # or more, is read on until it is whole or the stream ends.
    blob = save_bytes(index_2_16)
    assert save_bytes(load_index(Trickle(blob))) == blob
    with pytest.raises(CorruptSectionError, match="truncated stream"):
        load_index(Trickle(blob[:-1]))


def test_swapped_symbol_buckets_caught_by_verify(monkeypatch):
    # In "ab" the suffixes starting with a and with b are one each, so
    # swapping them leaves every LCP value right: only the first-symbol
    # order can tell, whichever block check runs.
    blob = save_bytes(build_index(load_text(b"ab")))
    for windows, reverse in itertools.product((False, True), repeat=2):
        force_block_check(monkeypatch, windows)
        broken = bytearray(blob)
        swap_ranks_consistently(broken, blob, reverse, 1, 2)
        with pytest.raises(CorruptSectionError, match="out of order"):
            load_index(io.BytesIO(bytes(broken)))
        # The order check runs after every section check, so a byte past
        # the last section is the fault reported.
        with pytest.raises(CorruptSectionError, match="after the last section"):
            load_index(io.BytesIO(bytes(broken) + b"\x00"), verify=True)


def pair_kinds(e, isa) -> dict[str, list[int]]:
    """Each rank r >= 2 whose suffix shares its first symbol with rank r - 1's.

    The pair is ``adjacent`` when psi(r) = psi(r - 1) + 1, psi(r) being
    the rank of sa[r] + 1.  The others sit at BWT-run boundaries: ``deep``
    when the stored LCP is 8 or more, else ``shallow``.
    """
    symbols, sa, lcp = e.text.symbols, e.sa, e.lcp
    kinds = {"adjacent": [], "shallow": [], "deep": []}
    for r in range(2, len(sa)):
        if symbols[sa[r]] != symbols[sa[r - 1]]:
            continue
        if isa[sa[r] + 1] == isa[sa[r - 1] + 1] + 1:
            kinds["adjacent"].append(r)
        else:
            kinds["shallow" if lcp[r] < 8 else "deep"].append(r)
    return kinds


def both_directions(ix):
    """``(ensemble, inverse, lcp section)`` of the forward and reverse arrays."""
    return ((ix.fwd, ix.isa, 4), (ix.rev, build_inverse(ix.rev.sa), 6))


def test_range_minima_only_at_bwt_run_boundaries(monkeypatch):
    # A verified load needs a range minimum only for the rank pairs at
    # BWT-run boundaries, r - sigma - 1 per direction, whose suffixes share
    # 8 symbols or more: the shallower ones are read from their 8-symbol
    # windows, and every other pair reads one LCP entry.  No two suffixes
    # of a random text over 26 letters share 8 symbols.
    ranges = []
    range_minima = RmqStructure.range_minima

    def counted(self, lo, hi):
        ranges.append(len(lo))
        return range_minima(self, lo, hi)

    monkeypatch.setattr(RmqStructure, "range_minima", counted)
    deep_counts = []
    for raw in (generate_repetitive(2000, 9, 0.01, 1),
                generate_repetitive(20_000, 0, 0.0, 1, sigma=26)):
        ix = build_index(load_text(raw))
        blob = save_bytes(ix)
        ranges.clear()
        load_index(io.BytesIO(blob))
        boundary = deep = 0
        for e, isa, _ in both_directions(ix):
            kinds = pair_kinds(e, isa)
            boundary += len(kinds["shallow"]) + len(kinds["deep"])
            deep += len(kinds["deep"])
        sigma = ix.text.sigma
        r, r_rev = compute_bwt_runs(ix.fwd), compute_bwt_runs(ix.rev)
        assert boundary == (r - sigma - 1) + (r_rev - sigma - 1)
        assert sum(ranges) == deep
        deep_counts.append(deep)
    assert deep_counts[0] > 0 and deep_counts[1] == 0


def test_block_check_follows_the_share_of_shallow_lcps(monkeypatch):
    # Each direction takes the window check when at least half its stored
    # LCPs are below 8, else the psi check, for every block.  Random text
    # over 26 letters has no LCP of 8; the repetitive text's are mostly
    # deeper.
    monkeypatch.setattr(persistence, "_VERIFY_BLOCK", 4096)
    calls = {}
    for name in ("_check_block", "_check_windows"):
        def spy(*args, check=getattr(persistence, name), name=name):
            calls[name] += 1
            return check(*args)
        monkeypatch.setattr(persistence, name, spy)
    for raw, taken, other in (
        (generate_repetitive(20_000, 0, 0.0, 1, sigma=26), "_check_windows", "_check_block"),
        (generate_repetitive(2000, 9, 0.01, 1), "_check_block", "_check_windows"),
    ):
        ix = build_index(load_text(raw))
        calls.update({taken: 0, other: 0})
        load_index(io.BytesIO(save_bytes(ix)))
        blocks = len(range(1, ix.text.n, 4096))
        assert calls == {taken: 2 * blocks, other: 0}


def random_255(seed: int, size: int, copies: int, rate: float) -> bytes:
    """A random base over bytes 1..255, then mutated copies of it."""
    rng = random.Random(seed)
    base = bytes(rng.choices(range(1, 256), k=size))
    return base + b"".join(
        bytes(rng.randrange(1, 256) if rng.random() < rate else b for b in base)
        for _ in range(copies)
    )


def test_lcp_edits_caught_at_both_kinds_of_pair(monkeypatch):
    # A pair's LCP is checked one of three ways: against one LCP entry in
    # its own block, against its two 8-symbol windows, or by a
    # range-minimum call after later blocks.  The psi check reads windows
    # only at shallow run-boundary pairs, the window check at every pair
    # below 8, so a psi-adjacent pair goes to one LCP entry there only when
    # it is 8 or deeper.  A +1 or -1 edit at each kind, in either
    # direction, must be caught by either block check.  One shallow pair
    # has a window that runs past n; on the text over 255 byte values,
    # another has codes of 0x80 and above in its windows.
    monkeypatch.setattr(persistence, "_VERIFY_BLOCK", 16)
    texts = (generate_repetitive(200, 3, 0.05, 1), random_255(1, 1000, 3, 0.05))
    for windows, raw in itertools.product((False, True), texts):
        force_block_check(monkeypatch, windows)
        ix = build_index(load_text(raw))
        blob = save_bytes(ix)
        n = ix.text.n
        for e, isa, section in both_directions(ix):
            kinds = pair_kinds(e, isa)
            shallow = kinds["shallow"]
            picks = [
                kinds["adjacent"][0],
                next(r for r in kinds["adjacent"] if e.lcp[r] >= 8),
                kinds["deep"][0],
                shallow[0],
                next(r for r in shallow if max(e.sa[r - 1], e.sa[r]) + 7 > n),
            ]
            if ix.text.sigma >= 0x80:
                picks.append(next(r for r in shallow if e.text.symbols[e.sa[r]] >= 0x80))
            off, _ = section_extent(blob, section)  # rank r at slot r - 1
            for r in picks:
                old = e.lcp[r]
                for new in (old - 1, old + 1):
                    if not 0 <= new <= n - 1:
                        continue
                    broken = bytearray(blob)
                    struct.pack_into("<Q", broken, off + 8 * (r - 1), new)
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
