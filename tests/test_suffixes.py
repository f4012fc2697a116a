import io
import random
from types import SimpleNamespace

import pytest

from cpmatch.corpus import load_text, reverse_text
from cpmatch.errors import EmptyPatternError, SentinelInPatternError
from cpmatch.generate import generate_repetitive
from cpmatch.index import build_index
from cpmatch.persistence import load_index, save_index
from cpmatch.rmq import QueryStats
from cpmatch import suffixes
from cpmatch.suffixes import (
    _STEP,
    _packed_keys,
    _sort_width,
    build_ensemble,
    build_inverse,
    build_lcp,
    build_suffix_array,
    compute_bwt_runs,
    find_pattern_range,
)

import alabar_data
import naive


def test_alabar_suffix_array(alabar_text):
    sa, shallow = build_suffix_array(alabar_text)
    assert list(sa) == alabar_data.SA
    assert list(build_lcp(alabar_text, sa, shallow)) == alabar_data.LCP


def test_alabar_reverse_suffix_array(alabar_text):
    t = reverse_text(alabar_text)
    sa, shallow = build_suffix_array(t)
    assert list(sa) == alabar_data.SA_REV
    assert list(build_lcp(t, sa, shallow)) == alabar_data.LCP_REV


def test_single_letter_suffix_array():
    t = load_text(b"a")
    sa, shallow = build_suffix_array(t)
    assert list(sa) == [0, 2, 1]
    assert list(build_lcp(t, sa, shallow)) == [0, 0, 0]


def test_alabar_lcp(alabar_text):
    e = build_ensemble(alabar_text)
    assert list(e.lcp) == alabar_data.LCP


def test_alabar_reverse_lcp(alabar_text):
    e = build_ensemble(reverse_text(alabar_text))
    assert list(e.lcp) == alabar_data.LCP_REV


def test_alabar_inverse_spots(alabar_text):
    isa = build_inverse(alabar_data.SA)
    assert isa[1] == 5
    assert isa[2] == 13
    assert isa[4] == 10
    assert isa[alabar_data.SA[7]] == 7


def test_inverse_identity_and_involution():
    assert list(build_inverse([0, 1])) == [0, 1]
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 60)
        perm = [0, *rng.sample(range(1, n + 1), n)]
        assert list(build_inverse(build_inverse(perm))) == perm


def test_ensemble_matches_naive_on_random_texts():
    rng = random.Random(31)
    for trial in range(40):
        sigma = rng.choice([1, 2, 4, 8])
        raw = naive.random_raw(rng, rng.randint(1, 200), sigma)
        t = load_text(raw)
        e = build_ensemble(t)
        assert list(e.sa) == naive.naive_suffix_array(t), raw
        assert list(e.lcp) == naive.naive_lcp(t, e.sa), raw
        isa = build_inverse(e.sa)
        assert [isa[e.sa[i]] for i in range(1, t.n + 1)] == list(
            range(1, t.n + 1)
        )


def _deep_texts():
    yield b"a" * 20_000
    yield b"ab" * 10_000
    yield bytes(range(1, 256)) * 3
    for seed in (1, 2, 3):
        yield generate_repetitive(1_000, 19, 0.01, seed)
    rng = random.Random(32)
    for _ in range(200):
        yield naive.random_raw(rng, rng.randint(1, 300), rng.choice([1, 2, 4, 8]))


def test_build_matches_references_on_deep_texts():
    # Periodic and near-duplicate texts keep many suffixes tied for many
    # doubling rounds and need many LCP levels.
    for raw in _deep_texts():
        ix = build_index(load_text(raw))
        for e in (ix.fwd, ix.rev):
            sa = naive.doubling_suffix_array(e.text)
            assert list(e.sa) == sa, raw[:20]
            assert list(e.lcp) == naive.kasai_lcp(e.text, sa), raw[:20]
        sink = io.BytesIO()
        save_index(ix, sink)
        load_index(io.BytesIO(sink.getvalue()), verify=True)


def _planted_repeats(rng, sigma, ks):
    """Pairs of equal blocks whose common prefix is exactly each length in
    ``m * ks + r`` (every residue r of the first-sort width ``ks``, m in 0,
    1, 3) and ``ks + m * _STEP`` (and one either side, m in 0..3), in both
    directions: each block is preceded by two different symbols and
    followed by two different symbols, so each pair is at a BWT-run
    boundary either way."""
    lengths = {m * ks + r for m in (0, 1, 3) for r in range(ks)}
    lengths |= {ks + m * _STEP + d for m in range(4) for d in (-1, 0, 1)}
    lengths.discard(0)
    symbols = range(1, sigma + 1)
    out = []
    for length in sorted(lengths):
        block = rng.choices(symbols, k=length)
        p, q = rng.sample(symbols, 2)
        c, d = rng.sample(symbols, 2)
        out += [p, *block, c, q, *block, d]
    return bytes(out + list(symbols)), lengths


def test_lcp_steps_and_tail_for_every_key_width():
    # One to eight bits per symbol, so the first sort, which keeps room for
    # a position beside its key, packs ks = 53 down to 6 symbols.  The
    # common prefixes land on every residue of ks, so the first sort's
    # tail reads every count of equal symbols, and on each side of the
    # first multiples of the LCP step past ks, where a step ends on a
    # whole window.
    rng = random.Random(41)
    widths = set()
    for sigma in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255):
        if sigma == 1:
            raw = b"a" * (4 * _STEP)
            lengths = set(range(len(raw)))
        else:
            # ks depends on n, which depends on the lengths planted.
            ks = 63 // sigma.bit_length()
            while True:
                raw, lengths = _planted_repeats(rng, sigma, ks)
                if _sort_width(load_text(raw)) == ks:
                    break
                ks = _sort_width(load_text(raw))
        text = load_text(raw)
        assert text.sigma == sigma
        widths.add(_sort_width(text))
        for t in (text, reverse_text(text)):
            sa, shallow = build_suffix_array(t)
            want = naive.doubling_suffix_array(t)
            assert list(sa) == want, sigma
            lcp = list(build_lcp(t, sa, shallow))
            assert lcp == naive.kasai_lcp(t, want), sigma
            assert lcp == naive.prefix_class_lcp(t, want), sigma
            assert lengths <= set(lcp), sigma
    assert widths == {53, 24, 16, 12, 10, 8, 7, 6}


def test_only_tied_run_boundaries_step(monkeypatch):
    # The LCP steps run only for pairs that share the first sort's ks
    # symbols and whose preceding symbols differ; every other tied pair
    # takes its LCP from the fill in text order.
    stepped = []

    def spy(codes, a, b, common):
        stepped.append(set(zip(a.tolist(), b.tolist())))
        return extend(codes, a, b, common)

    extend = suffixes._extend
    monkeypatch.setattr(suffixes, "_extend", spy)
    text = load_text(generate_repetitive(2000, 9, 0.01, 1))
    for t in (text, reverse_text(text)):
        stepped.clear()
        e = build_ensemble(t)
        sa = naive.naive_suffix_array(t)
        lcp = naive.kasai_lcp(t, sa)
        ks = _sort_width(t)
        before = [t.symbols[p - 1] for p in sa]
        tied = [i for i in range(2, t.n + 1) if lcp[i] >= ks]
        want = {(sa[i - 1], sa[i]) for i in tied if before[i - 1] != before[i]}
        assert list(e.lcp) == lcp
        assert stepped == [want]
        assert 0 < len(want) < len(tied) // 4, (len(want), len(tied))


def test_packed_keys_match_the_symbol_loop():
    # Every key width of the test above, on texts holding the whole
    # alphabet and on texts shorter than one key, where ks = n.  The last
    # ks positions' windows read the terminator at n and run past the end.
    rng = random.Random(42)
    for sigma in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255):
        widest = 53 // sigma.bit_length()
        symbols = list(range(1, sigma + 1))
        rng.shuffle(symbols)
        full = bytes(symbols + rng.choices(symbols, k=3 * widest + 5))
        short = [bytes(rng.choices(symbols, k=size)) for size in range(1, widest)]
        assert load_text(full).sigma == sigma
        for raw in (full, *short):
            t = load_text(raw)
            n, bits, ks = t.n, t.sigma.bit_length(), _sort_width(t)
            got = _packed_keys(t)
            assert got.tolist() == naive.packed_keys(t, ks).tolist(), raw
            # The last symbol's window holds it, then only terminators.
            assert got[n - 1] == t.symbols[n - 1] << bits * (ks - 1)
            assert got[n] == 0


def test_sort_width_fits_the_float_mantissa():
    # Rank-adjacent first-sort keys that differ in their first symbol XOR
    # to a number as wide as the key, and float64 reads its bit length
    # exactly only up to 53 bits.  Below n = 512 the 63 bits beside a
    # position would hold wider keys: 28 symbols of 2 bits at n = 56.
    for raw in (b"a" + b"b" * 27 + b"a" * 27,
                b"ab" * 3 + b"a" + b"b" * 40 + b"a" * 40):
        text = load_text(raw)
        for t in (text, reverse_text(text)):
            e = build_ensemble(t)
            assert list(e.sa) == naive.naive_suffix_array(t), raw
            assert list(e.lcp) == naive.naive_lcp(t, e.sa), raw
    # The width reads only n and sigma.
    lengths = [*range(1, 601), *(2**j for j in range(10, 21))]
    for sigma in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255):
        bits = sigma.bit_length()
        for n in lengths:
            ks = _sort_width(SimpleNamespace(n=n, sigma=sigma))
            assert 1 <= ks <= n
            assert ks * bits <= 53, (sigma, n)
            assert ks * bits + n.bit_length() <= 63, (sigma, n)


def test_pattern_range_rev_a(alabar_text):
    e = build_ensemble(reverse_text(alabar_text))
    assert find_pattern_range(e, [alabar_data.CODE["a"]]) == (2, 9)


def test_pattern_range_alabar(alabar_text):
    e = build_ensemble(alabar_text)
    q = [alabar_data.CODE[c] for c in "alabar"]
    assert find_pattern_range(e, q) == (5, 6)


def test_pattern_range_absent(alabar_text):
    e = build_ensemble(alabar_text)
    assert find_pattern_range(e, [6, 6]) is None
    assert find_pattern_range(e, [1, 1]) is None  # "aa" never occurs


def test_pattern_range_rejects_bad_patterns(alabar_text):
    e = build_ensemble(alabar_text)
    with pytest.raises(EmptyPatternError):
        find_pattern_range(e, [])
    with pytest.raises(SentinelInPatternError):
        find_pattern_range(e, [1, 0])


def test_pattern_range_matches_naive_scan():
    rng = random.Random(77)
    for _ in range(60):
        raw = naive.random_raw(rng, rng.randint(1, 120), rng.choice([2, 4]))
        t = load_text(raw)
        e = build_ensemble(t)
        q = naive.sample_codes(rng, t)
        assert find_pattern_range(e, q) == naive.naive_pattern_range(t, e.sa, q)


def test_pattern_range_at_the_text_end():
    # Patterns that reach position n - 1, and ones running one symbol past it,
    # compare against suffixes cut short by the terminator.
    rng = random.Random(78)
    for _ in range(20):
        raw = naive.random_raw(rng, rng.randint(1, 40), rng.choice([1, 2, 4]))
        t = load_text(raw)
        e = build_ensemble(t)
        for start in range(1, t.n):
            suffix = list(t.symbols[start:t.n])
            for q in (suffix, suffix + [rng.randint(1, t.sigma)]):
                assert find_pattern_range(e, q) == naive.naive_pattern_range(t, e.sa, q)


def test_pattern_range_matches_loop_reference():
    # Same ranges and the same number of suffix-array reads as the two
    # hand-written searches, on present, absent and overlong patterns.
    rng = random.Random(79)
    for sigma in (1, 2, 4):
        for _ in range(40):
            t = load_text(naive.random_raw(rng, rng.randint(1, 120), sigma))
            e = build_ensemble(t)
            for _ in range(10):
                start = rng.randint(1, t.n - 1)
                overlong = list(t.symbols[start:t.n]) + [
                    rng.randint(1, sigma) for _ in range(rng.randint(1, 3))
                ]
                for q in (naive.sample_codes(rng, t), overlong):
                    got, want = QueryStats(), QueryStats()
                    assert find_pattern_range(e, q, got) == (
                        naive.loop_pattern_range(e, q, want)
                    )
                    assert got.sa_accesses == want.sa_accesses


def test_bwt_runs_single_letter():
    assert compute_bwt_runs(build_ensemble(load_text(b"a"))) == 2


def test_bwt_runs_repeated_letter():
    # BWT of a$ blocks: symbols[sa-1] reads aaaa then the leading
    # terminator, giving exactly two runs.
    t = load_text(b"aaaa")
    e = build_ensemble(t)
    assert compute_bwt_runs(e) == naive.naive_bwt_runs(t, e.sa) == 2


def test_bwt_runs_alabar_matches_naive(alabar_text):
    e = build_ensemble(alabar_text)
    assert compute_bwt_runs(e) == naive.naive_bwt_runs(alabar_text, e.sa)


def test_bwt_runs_random_texts_match_naive():
    rng = random.Random(13)
    for _ in range(25):
        t = load_text(naive.random_raw(rng, rng.randint(1, 150), 4))
        e = build_ensemble(t)
        assert compute_bwt_runs(e) == naive.naive_bwt_runs(t, e.sa)
