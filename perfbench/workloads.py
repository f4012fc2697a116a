"""Workload recipes: the text each workload indexes and the queries it asks.

Everything here is a pure function of the seed.  The library sees only the
generated bytes and, for queries, code lists made by ``encode_pattern``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from cpmatch import Text, encode_pattern, generate_repetitive


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    base_size: int
    copies: int
    mutation_rate: float
    sigma: int
    m_range: tuple[int, int]
    ell_range: tuple[int, int]

    def text(self, seed: int, shrink: int = 1) -> bytes:
        """The workload's raw bytes; ``shrink`` divides the size (self-test)."""
        return generate_repetitive(
            max(self.base_size // shrink, 1), self.copies, self.mutation_rate,
            seed, sigma=self.sigma,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="repetitive",
            recipe="generate_repetitive(10_000, 19, 0.01, seed): n=2e5, sigma=4; "
                   "queries: substrings m 4..12, ell 0..8",
            base_size=10_000, copies=19, mutation_rate=0.01, sigma=4,
            m_range=(4, 12), ell_range=(0, 8),
        ),
        Workload(
            name="random-dense",
            recipe="uniform random letters, generate_repetitive(50_000, 0, 0.0, "
                   "seed, sigma=26): n=5e4; queries: substrings m 2..3, ell 1..8",
            base_size=50_000, copies=0, mutation_rate=0.0, sigma=26,
            m_range=(2, 3), ell_range=(1, 8),
        ),
        Workload(
            name="long-context",
            recipe="generate_repetitive(2_500, 19, 0.1, seed): n=5e4, sigma=4; "
                   "queries: substrings m 4..12, ell 16..64",
            base_size=2_500, copies=19, mutation_rate=0.1, sigma=4,
            m_range=(4, 12), ell_range=(16, 64),
        ),
    )
}

#: Largest number of ell strata per round; wider ranges are drawn per stratum.
_ELL_STRATA = 9


@dataclass(frozen=True)
class Query:
    raw: bytes
    codes: list[int]
    ell: int
    present: bool


def _absent_pattern(rng: random.Random, raw: bytes, alphabet: bytes, m: int) -> bytes:
    # Random patterns over the text's own alphabet, lengthened until one is
    # found that does not occur; short patterns over small alphabets all occur.
    while True:
        for _ in range(50):
            p = bytes(rng.choices(alphabet, k=m))
            if raw.find(p) < 0:
                return p
        m += 1


def query_rounds(w: Workload, raw: bytes, text: Text, seed: int) -> Iterator[list[Query]]:
    """Endless seeded stream of query rounds, each covering the whole mix.

    A round asks one text substring for every pattern length and every ell
    stratum, plus one absent pattern per nine present ones, in shuffled
    order; running whole rounds keeps the mix the same in every run.
    """
    rng = random.Random(f"{w.name}:{seed}:queries")
    alphabet = bytes(sorted(set(raw)))
    lo, hi = w.ell_range
    width = hi - lo + 1
    strata = min(_ELL_STRATA, width)
    bounds = [(lo + width * s // strata, lo + width * (s + 1) // strata - 1)
              for s in range(strata)]
    while True:
        batch = []
        for m in range(w.m_range[0], w.m_range[1] + 1):
            for a, b in bounds:
                start = rng.randrange(len(raw) - m + 1)
                batch.append((raw[start:start + m], rng.randint(a, b), True))
        for _ in range(-(-len(batch) // 9)):
            m = rng.randint(*w.m_range)
            ell = rng.randint(lo, hi)
            batch.append((_absent_pattern(rng, raw, alphabet, m), ell, False))
        rng.shuffle(batch)
        yield [Query(p, encode_pattern(text, p), ell, present) for p, ell, present in batch]
