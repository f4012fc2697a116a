import io
import random
import struct

import pytest

from cpmatch.corpus import load_text
from cpmatch.errors import (
    BadMagicError,
    CorruptSectionError,
    UnsupportedVersionError,
)
from cpmatch.index import MappingStrategy, build_index, query
from cpmatch.persistence import load_index, save_index

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


def test_round_trip_arrays_and_queries(alabar_index):
    blob = save_bytes(alabar_index)
    ix = load_index(io.BytesIO(blob))
    assert ix.text == alabar_index.text
    assert ix.fwd.sa == alabar_index.fwd.sa
    assert ix.fwd.isa == alabar_index.fwd.isa
    assert ix.fwd.lcp == alabar_index.fwd.lcp
    assert ix.rev.sa == alabar_index.rev.sa
    assert ix.rev.isa == alabar_index.rev.isa
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


def test_corrupt_c_map_slips_past_verify_false(alabar_index):
    blob = bytearray(save_bytes(alabar_index))
    table = struct.unpack_from("<16Q", blob, 24)
    struct.pack_into("<Q", blob, table[14] + 8, 3)
    ix = load_index(io.BytesIO(bytes(blob)), verify=False)
    assert ix.c_array[1:3] != alabar_index.c_array[1:3]
