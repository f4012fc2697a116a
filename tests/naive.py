"""Reference implementations used as test oracles.

Everything here is deliberately slow and obvious; none of it shares code
with the structures under test.  ``doubling_suffix_array``, ``kasai_lcp``
and ``prefix_class_lcp`` are the library's earlier builders, kept as
independent references that are fast enough for texts of 10^4 symbols;
``packed_keys`` is its earlier first-sort key packing, one pass per symbol;
``loop_pattern_range`` is its earlier pattern-range search, kept to pin
the number of suffix-array reads; ``where_doubling_reference`` is its
earlier level step of the range-minimum window rows, kept to pin every
stored row of every level byte for byte; ``sorted_partition_reference``
is its earlier sort-based interval partition, kept to pin the parts, their
order and the number of rmq calls; it is the one reference that calls a
structure under test, ``RmqStructure.rmq``, so that the calls can be
counted alike.
``counted_partition_reference`` gives the same parts and count with no
range minimum at all, fast enough for every range of a 300-entry array.
``parse_pattern_loop``, ``render_symbols_loop`` and
``encode_pattern_dict`` are the earlier pattern and context text
conversions, one symbol at a time, kept to pin the table-driven ones down
to their error messages.
"""

import random
import string

import numpy as np

from cpmatch.corpus import Text
from cpmatch.index import enumerate_occurrences, query
from cpmatch.rmq import QueryStats, RmqStructure
from cpmatch.suffixes import SuffixEnsemble


def naive_suffix_array(t: Text) -> list[int]:
    order = sorted(range(1, t.n + 1), key=lambda i: t.symbols[i:])
    return [0, *order]


def naive_lcp(t: Text, sa: list[int]) -> list[int]:
    out = [0] * (t.n + 1)
    for i in range(2, t.n + 1):
        a = t.symbols[sa[i - 1]:]
        b = t.symbols[sa[i]:]
        k = 0
        while k < len(a) and k < len(b) and a[k] == b[k]:
            k += 1
        out[i] = k
    return out


def doubling_suffix_array(t: Text) -> list[int]:
    """Prefix doubling that re-sorts every suffix in every round."""
    n = t.n
    rank = np.frombuffer(t.symbols[1:], dtype=np.uint8).astype(np.int64)
    k = 1
    while True:
        # One key per suffix orders it by (rank, rank k further on), with
        # suffixes that end before then first; ranks stay below n.
        key = rank * (n + 1)
        if k < n:
            key[:-k] += rank[k:] + 1
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
        if rank[order[-1]] == n - 1:
            break
        k <<= 1
    return np.concatenate(([0], order + 1)).tolist()


def kasai_lcp(t: Text, sa: list[int]) -> list[int]:
    """Kasai et al.'s linear-time LCP scan over text positions."""
    n = t.n
    symbols = t.symbols
    isa = [0] * (n + 1)
    for i in range(1, n + 1):
        isa[sa[i]] = i
    lcp = [0] * (n + 1)
    k = 0
    for j in range(1, n + 1):
        i = isa[j]
        if i == 1:
            k = 0
            continue
        prev = sa[i - 1]
        while j + k <= n and prev + k <= n and symbols[j + k] == symbols[prev + k]:
            k += 1
        lcp[i] = k
        if k:
            k -= 1
    return lcp


def packed_keys(t: Text, width: int) -> np.ndarray:
    """Each position's first ``width`` symbols as one int64, one pass a symbol.

    ``bits = sigma.bit_length()`` per symbol, the first symbol highest.
    Slot 0 holds 0, and a window that runs past the text end reads 0 there.
    """
    n = t.n
    bits = t.sigma.bit_length()
    codes = np.frombuffer(t.symbols, dtype=np.uint8)
    key = np.zeros(n + 1, dtype=np.int64)
    for j in range(width):
        key <<= bits
        key[1:n + 1 - j] |= codes[1 + j:]
    return key


def prefix_class_lcp(t: Text, sa: list[int]) -> list[int]:
    """Manber & Myers' LCP from prefix classes doubled level by level.

    Level ``j`` gives every position the class of its ``2**j``-symbol
    prefix, numbered in suffix order; level 0 is the symbols.  One gather,
    one cumulative sum and one scatter give level ``j + 1``, with no sort,
    until no adjacent pair shares a prefix of the level's length.  One
    descent from the top level then extends the common prefix of every
    adjacent pair by ``2**j`` wherever the classes at its offsets agree.
    """
    n = t.n
    order = np.asarray(sa, dtype=np.int64)[1:]
    codes = np.frombuffer(t.symbols, dtype=np.uint8)
    first = codes[order]
    differ = first[1:] != first[:-1]
    ranks = np.zeros(n, dtype=np.int64)
    levels = []
    classes = codes
    while not differ.all():
        if levels:
            np.cumsum(differ, out=ranks[1:])
            classes = np.empty(n + 1, dtype=np.int64)
            classes[order] = ranks
        levels.append(classes)
        # Only a suffix holding the terminator within its first 2**j
        # symbols can run past n, and its pairs already differ.
        after = classes.take(order + (1 << (len(levels) - 1)), mode="clip")
        differ |= after[1:] != after[:-1]
    a = order[:-1]
    b = order[1:]
    common = np.zeros(n - 1, dtype=np.int64)
    for j in reversed(range(len(levels))):
        classes = levels[j]
        agree = classes[a + common] == classes[b + common]
        common += agree.astype(np.int64) << j
    return [0, 0, *common.tolist()]


def scan_rmq(array: list[int], i: int, j: int) -> int:
    best = i
    for q in range(i + 1, j + 1):
        if array[q] < array[best]:
            best = q
    return best


def scan_psv(array: list[int], p: int, d: int) -> int:
    for q in range(p - 1, 0, -1):
        if array[q] < d:
            return q
    return 0


def scan_nsv(array: list[int], n: int, p: int, d: int) -> int:
    for q in range(p + 1, n + 1):
        if array[q] < d:
            return q
    return n + 1


def where_doubling_reference(row: np.ndarray, minima: np.ndarray, levels: int):
    """Window rows 1..``levels`` of a leftmost-minimum table, by ``np.where``.

    One compare and two selects per level; a row holds each answer as its
    distance from the window's start.
    """
    for k in range(1, levels + 1):
        half = 1 << (k - 1)
        span = len(minima) - half
        left = minima[:span]
        right = minima[half:]
        take_right = right < left
        row = np.where(take_right, row[half:] + half, row[:span])
        minima = np.where(take_right, right, left)
        yield row


def sorted_partition_reference(
    struct: RmqStructure,
    lo: int,
    hi: int,
    threshold: int,
    stats: QueryStats | None = None,
) -> list[tuple[int, int]]:
    """Collect every split from a stack of ranges, then sort them."""
    splits: list[int] = []
    pending = [(lo + 1, hi)]
    while pending:
        s, e = pending.pop()
        if s > e:
            continue
        p = struct.rmq(s, e, stats)
        if struct.array[p] < threshold:
            splits.append(p)
            pending.append((s, p - 1))
            pending.append((p + 1, e))
    splits.sort()
    starts = [lo, *splits]
    parts = []
    for idx, start in enumerate(starts):
        end = starts[idx + 1] - 1 if idx + 1 < len(starts) else hi
        parts.append((start, end))
    return parts


def counted_partition_reference(
    array: list[int], lo: int, hi: int, threshold: int
) -> tuple[list[tuple[int, int]], int]:
    """Parts of ``lo..hi`` and the rmq calls a splitting search pays for them.

    A part starts at ``lo`` and at every later position holding a value
    below ``threshold``.  The search finds each such split with one call,
    and spends one more on each nonempty stretch between splits that holds
    none: the rest of every part longer than one position.
    """
    starts = [lo, *(p for p in range(lo + 1, hi + 1) if array[p] < threshold)]
    parts = list(zip(starts, [s - 1 for s in starts[1:]] + [hi]))
    return parts, len(starts) - 1 + sum(1 for s, e in parts if e > s)


def naive_bwt_runs(t: Text, sa: list[int]) -> int:
    bwt = [t.symbols[sa[i] - 1] for i in range(1, t.n + 1)]
    return 1 + sum(1 for i in range(1, len(bwt)) if bwt[i] != bwt[i - 1])


def naive_pattern_range(
    t: Text, sa: list[int], q: list[int]
) -> tuple[int, int] | None:
    pattern = bytes(q)
    ranks = [
        i for i in range(1, t.n + 1) if t.symbols[sa[i]: sa[i] + len(q)] == pattern
    ]
    if not ranks:
        return None
    return ranks[0], ranks[-1]


def loop_pattern_range(
    e: SuffixEnsemble, pattern: list[int], stats: QueryStats | None = None
) -> tuple[int, int] | None:
    """Two hand-written binary searches, one suffix-array read per step."""
    n = e.text.n
    m = len(pattern)
    symbols = e.text.symbols
    sa = e.sa
    pattern = bytes(pattern)

    def compare(rank: int) -> int:
        # -1: suffix < q, 0: q is a prefix of the suffix, 1: suffix > q.
        if stats is not None:
            stats.sa_accesses += 1
        pos = sa[rank]
        window = symbols[pos:pos + m]
        if window == pattern:
            return 0
        return -1 if window < pattern else 1

    lo, hi = 1, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if compare(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    first = lo
    if first > n or compare(first) != 0:
        return None
    lo, hi = first, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if compare(mid) <= 0:
            lo = mid + 1
        else:
            hi = mid
    return first, lo - 1


def answered_contexts(ix, p: list[int], ell: int, strategy) -> dict:
    """A query's answer in :func:`~cpmatch.oracle.oracle_contexts` form."""
    matches = query(ix, p, ell, strategy=strategy)
    out = {m.context: sorted(enumerate_occurrences(ix, m)) for m in matches}
    assert len(out) == len(matches), "a context was reported twice"
    return out


def naive_occurrence_count(t: Text, q: list[int]) -> int:
    pattern = bytes(q)
    return sum(1 for i in range(1, t.n) if t.symbols[i: i + len(q)] == pattern)


ALPHABETS = {
    1: b"a",
    2: b"ab",
    4: b"abcd",
    8: b"abcdefgh",
    26: b"abcdefghijklmnopqrstuvwxyz",
}


def random_raw(rng: random.Random, size: int, sigma: int) -> bytes:
    return bytes(rng.choices(ALPHABETS[sigma], k=size))


def sample_codes(rng: random.Random, t: Text, max_len: int = 8) -> list[int]:
    """Mostly actual substrings, sometimes arbitrary (often absent) codes."""
    if rng.random() < 0.7:
        start = rng.randint(1, t.n - 1)
        length = rng.randint(1, min(max_len, t.n - start))
        return t.symbols[start: start + length]
    return [
        rng.randint(1, t.sigma + 1) for _ in range(rng.randint(1, 4))
    ]


def parse_pattern_loop(text: str) -> bytes:
    """Decode \\xNN and \\\\ escapes, one code point at a time."""
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if text[i + 1 : i + 2] == "\\":
                out.append(0x5C)
                i += 2
                continue
            digits = text[i + 2 : i + 4]
            is_hex = len(digits) == 2 and set(digits) <= set(string.hexdigits)
            if text[i + 1 : i + 2] == "x" and is_hex:
                out.append(int(digits, 16))
                i += 4
                continue
            window = text[i:i + 4].encode("latin-1", "backslashreplace")
            window = window.decode("utf-8", "backslashreplace")
            raise ValueError(f"bad escape at offset {i}: {window!r}")
        code = ord(ch)
        if code > 0xFF:
            raise ValueError(f"character {ch!r} is not a single byte")
        out.append(code)
        i += 1
    return bytes(out)


def render_symbols_loop(codes, byte_for_code) -> str:
    """Printable form of a code sequence, one branch chain per code."""
    parts = []
    for code in codes:
        if code == 0:
            parts.append("$")
            continue
        if code >= len(byte_for_code):
            parts.append(f"#{code}")
            continue
        b = byte_for_code[code]
        if b == 0x5C:
            parts.append("\\\\")
        elif b == 0x24:
            parts.append("\\x24")
        elif 0x20 <= b <= 0x7E:
            parts.append(chr(b))
        else:
            parts.append(f"\\x{b:02x}")
    return "".join(parts)


def encode_pattern_dict(t: Text, raw: bytes) -> list[int] | None:
    """Codes of ``raw`` looked up one byte at a time; None if one is absent."""
    code_for_byte = {b: c for c, b in enumerate(t.byte_for_code[1:], start=1)}
    codes = []
    for b in raw:
        code = code_for_byte.get(b)
        if code is None:
            return None
        codes.append(code)
    return codes
