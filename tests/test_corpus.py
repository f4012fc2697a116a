import random

import pytest

from cpmatch.corpus import (
    SENTINEL,
    encode_pattern,
    load_text,
    padded_symbol,
    reverse_text,
)
from cpmatch.errors import EmptyInputError, SentinelByteError

import alabar_data
import naive


def test_load_alabar_shape(alabar_text):
    t = alabar_text
    assert t.n == 17
    assert t.sigma == 5
    assert t.symbols[0] == SENTINEL
    assert t.symbols[17] == SENTINEL
    assert t.byte_for_code == (0, *b"abdlr")
    assert encode_pattern(t, alabar_data.RAW) == list(t.symbols[1:17])


def test_load_single_byte():
    t = load_text(b"a")
    assert t.n == 2
    assert t.symbols == bytes([0, 1, 0])


def test_codes_preserve_byte_order():
    t = load_text(b"ba")
    assert t.sigma == 2
    assert t.byte_for_code == (0, ord("a"), ord("b"))
    assert encode_pattern(t, b"ab") == [1, 2]
    assert t.symbols == bytes([0, 2, 1, 0])


def test_load_empty_rejected():
    with pytest.raises(EmptyInputError):
        load_text(b"")


def test_load_sentinel_byte_rejected():
    # Alone, first, in the middle and last.
    for raw in (b"\x00", b"\x00abc", b"ab\x00cd", b"abc\x00"):
        with pytest.raises(SentinelByteError) as caught:
            load_text(raw)
        assert str(caught.value) == (
            "input contains the reserved terminator byte 0x00"
        )


def test_load_matches_the_sorted_set_remap():
    # The codes that sorting the distinct bytes assigns, on alphabets drawn
    # from every nonzero byte value.
    rng = random.Random(100)
    for _ in range(300):
        alphabet = rng.sample(range(1, 256), rng.randint(1, 255))
        raw = bytes(rng.choices(alphabet, k=rng.randint(1, 300)))
        distinct = sorted(set(raw))
        codes = bytes.maketrans(bytes(distinct),
                                bytes(range(1, len(distinct) + 1)))
        t = load_text(raw)
        assert t.symbols == b"\0" + raw.translate(codes) + b"\0"
        assert t.sigma == len(distinct)
        assert t.byte_for_code == (0, *distinct)
        assert encode_pattern(t, bytes(distinct)) == list(range(1, len(distinct) + 1))
        assert encode_pattern(t, raw) == list(t.symbols[1:t.n])


def test_reverse_spelling(alabar_text):
    rev = reverse_text(alabar_text)
    assert rev.symbols == alabar_text.symbols[::-1]
    assert rev.symbols[0] == SENTINEL and rev.symbols[rev.n] == SENTINEL
    assert rev.byte_for_code == alabar_text.byte_for_code
    assert encode_pattern(rev, alabar_data.RAW[::-1]) == list(rev.symbols[1:rev.n])


def test_reverse_is_involution(alabar_text):
    assert reverse_text(reverse_text(alabar_text)) == alabar_text


def test_reverse_palindrome():
    t = load_text(b"a")
    assert reverse_text(t) == t


def test_padded_symbol(alabar_text):
    assert padded_symbol(alabar_text, -1) == 0
    assert padded_symbol(alabar_text, 0) == 0
    assert padded_symbol(alabar_text, 5) == alabar_data.CODE["a"]
    assert padded_symbol(alabar_text, 17) == 0
    assert padded_symbol(alabar_text, 18) == 0
    assert padded_symbol(alabar_text, 10 ** 9) == 0


def test_encode_pattern(alabar_text):
    assert encode_pattern(alabar_text, b"bar") == [2, 1, 5]
    assert encode_pattern(alabar_text, b"zz") is None
    assert encode_pattern(alabar_text, b"") == []


def test_encode_pattern_matches_the_dict():
    # Alphabets of every size, with patterns drawn from the alphabet, 0x00
    # and the bytes it lacks.
    rng = random.Random(101)
    for size in range(1, 256):
        alphabet = rng.sample(range(1, 256), size)
        t = load_text(bytes(alphabet))
        absent = sorted(set(range(256)) - set(alphabet))
        for _ in range(40):
            pool = alphabet if rng.random() < 0.5 else alphabet + absent
            raw = bytes(rng.choices(pool, k=rng.randint(0, 12)))
            assert encode_pattern(t, raw) == naive.encode_pattern_dict(t, raw)


def test_remap_preserves_substring_order():
    # Comparing code sequences must agree with comparing the raw bytes.
    rng = random.Random(99)
    for _ in range(50):
        raw = bytes(rng.choices(b"amz04", k=rng.randint(2, 40)))
        t = load_text(raw)
        i = rng.randint(0, len(raw) - 1)
        j = rng.randint(0, len(raw) - 1)
        a, b = raw[i:], raw[j:]
        ca, cb = t.symbols[i + 1: t.n], t.symbols[j + 1: t.n]
        assert (a < b) == (ca < cb)
        assert (a == b) == (ca == cb)
