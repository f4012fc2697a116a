"""End-to-end acceptance suite.

Nine checks: the worked example (arrays and query trace), four properties
over a shared fuzz corpus (oracle equivalence, strategy invariance,
conservation, instrumentation bounds), structure oracles, persistence
round-trips, and the boundary-singleton claim.  Each test emits one
PASS/FAIL line directly to the terminal.
"""

import io
import random
import time

import pytest

from cpmatch.corpus import Text, load_text, reverse_text
from cpmatch.generate import generate_repetitive
from cpmatch.index import (
    C_UNDEFINED,
    MappingStrategy,
    QueryTrace,
    build_index,
    enumerate_occurrences,
    query,
)
from cpmatch.oracle import oracle_contexts
from cpmatch.persistence import load_index, save_index
from cpmatch.rmq import QueryStats, RmqStructure, partition_interval
from cpmatch.suffixes import build_ensemble, find_pattern_range

import alabar_data
import naive

STRATEGIES = (MappingStrategy.PSV_NSV, MappingStrategy.CMIN)


def report(capsys, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def text_suite() -> list[tuple[str, Text]]:
    rng = random.Random(2024)
    entries: list[tuple[str, bytes]] = []
    for sigma in (2, 4, 26):
        for size in (1, 2, 3, 5, 9, 17, 33, 64, 150, 400, 1000, 1999):
            entries.append(
                (f"random-s{sigma}-n{size}", naive.random_raw(rng, size, sigma))
            )
    entries.append(("rep-clean", generate_repetitive(120, 9, 0.0, seed=5)))
    entries.append(("rep-mut", generate_repetitive(120, 9, 0.03, seed=6)))
    entries.append(("rep-b2", generate_repetitive(60, 15, 0.01, seed=7, sigma=2)))
    entries.append(("rep-deep", generate_repetitive(15, 40, 0.05, seed=8)))
    entries.append(("worked-example", alabar_data.RAW))
    entries.append(("single-letter", b"a"))
    entries.append(("two-runs", b"aaaaaaaaaaaaaaaabbbbbbbbaaaa"))
    return [(label, load_text(raw)) for label, raw in entries]


def pick_query(rng: random.Random, t: Text, huge_ell: bool) -> tuple[list[int], int]:
    if rng.random() < 0.1:
        p = [t.sigma + 1] * rng.randint(1, 3)  # guaranteed absent
    else:
        p = naive.sample_codes(rng, t, max_len=12)
    if huge_ell:
        ell = t.n + rng.randint(1, 10)
    else:
        ell = rng.choice([0, 1, rng.randint(0, 10), rng.randint(0, 10)])
    return p, ell


def boundary_part_sizes(ix, p: list[int], ell: int) -> list[int]:
    m = len(p)
    rev_range = find_pattern_range(ix.rev, p[::-1])
    if rev_range is None:
        return []
    parts = partition_interval(ix.rmq_rev, rev_range[0], rev_range[1], m + ell)
    n = ix.text.n
    sizes = []
    for lo, hi in parts:
        if any(n - ix.rev.sa[q] - (m + ell - 1) <= 0 for q in range(lo, hi + 1)):
            sizes.append(hi - lo + 1)
    return sizes


@pytest.fixture(scope="module")
def fuzz():
    t0 = time.perf_counter()
    records = []
    saves_identical = True
    for label, t in text_suite():
        ix = build_index(t)
        sink = io.BytesIO()
        save_index(ix, sink)
        blob = sink.getvalue()
        again = io.BytesIO()
        save_index(ix, again)
        saves_identical &= again.getvalue() == blob
        loaded = load_index(io.BytesIO(blob))
        rng = random.Random(f"fuzz-{label}")
        plan = [False] * 25 + ([True] * 3 if t.n <= 64 else [])
        for huge_ell in plan:
            p, ell = pick_query(rng, t, huge_ell)
            expected = {
                ctx: (len(v), tuple(v))
                for ctx, v in oracle_contexts(t, p, ell).items()
            }
            by_strategy = {}
            stats_by_strategy = {}
            loaded_equal = True
            for strategy in STRATEGIES:
                stats = QueryStats()
                matches = query(ix, p, ell, strategy=strategy, stats=stats)
                summary = tuple(
                    (
                        m.context,
                        m.ds,
                        m.de,
                        m.count,
                        m.rep_position,
                        tuple(sorted(enumerate_occurrences(ix, m))),
                    )
                    for m in matches
                )
                by_strategy[strategy] = summary
                stats_by_strategy[strategy] = (
                    stats.rmq_calls,
                    stats.psv_calls,
                    stats.nsv_calls,
                )
                loaded_equal &= query(loaded, p, ell, strategy=strategy) == matches
            records.append(
                {
                    "label": label,
                    "p": p,
                    "ell": ell,
                    "n": t.n,
                    "expected": expected,
                    "by_strategy": by_strategy,
                    "stats": stats_by_strategy,
                    "loaded_equal": loaded_equal,
                    "boundary_sizes": boundary_part_sizes(ix, p, ell),
                    "naive_occ": naive.naive_occurrence_count(t, p),
                }
            )
    return {
        "records": records,
        "saves_identical": saves_identical,
        "elapsed": time.perf_counter() - t0,
    }


def case_id(rec) -> str:
    return f"{rec['label']} p={rec['p']} ell={rec['ell']}"


def test_worked_example_arrays(capsys):
    t0 = time.perf_counter()
    t = load_text(alabar_data.RAW)
    ix = build_index(t)
    elapsed = time.perf_counter() - t0
    ok = (
        list(ix.fwd.sa) == alabar_data.SA
        and list(ix.fwd.lcp) == alabar_data.LCP
        and list(ix.rev.sa) == alabar_data.SA_REV
        and list(ix.rev.lcp) == alabar_data.LCP_REV
        and list(ix.c_array) == alabar_data.C_MAP
        and ix.c_array[1] == C_UNDEFINED
        and elapsed < 1.0
    )
    report(capsys, "worked-example arrays", ok, f"{elapsed * 1000:.0f} ms")


def test_worked_example_query(capsys):
    ix = build_index(load_text(alabar_data.RAW))
    failures = []
    expected = [
        (alabar_data.ctx(c), ds, de, count, rep)
        for c, ds, de, count, rep in alabar_data.A_ELL1_MATCHES
    ]
    for strategy in STRATEGIES:
        trace = QueryTrace()
        matches = query(ix, [alabar_data.CODE["a"]], 1, strategy=strategy,
                        trace=trace)
        got = [(m.context, m.ds, m.de, m.count, m.rep_position) for m in matches]
        if got != expected:
            failures.append(f"{strategy.value}: matches {got}")
        if trace.rev_range != alabar_data.A_ELL1_REV_RANGE:
            failures.append(f"{strategy.value}: rev range {trace.rev_range}")
        if trace.part_starts != alabar_data.A_ELL1_PART_STARTS:
            failures.append(f"{strategy.value}: part starts {trace.part_starts}")
        if trace.mapped_ranges != alabar_data.A_ELL1_MAPPED:
            failures.append(f"{strategy.value}: mapped {trace.mapped_ranges}")
    report(capsys, "worked-example query", not failures, "; ".join(failures))


def test_fuzz_oracle_equivalence(fuzz, capsys):
    records = fuzz["records"]
    bad = []
    absent = 0
    huge = 0
    for rec in records:
        if not rec["expected"]:
            absent += 1
        if rec["ell"] > rec["n"]:
            huge += 1
        for strategy in STRATEGIES:
            got = {
                ctx: (count, positions)
                for ctx, _, _, count, _, positions in rec["by_strategy"][strategy]
            }
            if got != rec["expected"]:
                bad.append(f"{case_id(rec)} [{strategy.value}]")
    ok = (
        not bad
        and len(records) >= 1000
        and absent > 0
        and huge > 0
        and fuzz["elapsed"] < 60.0
    )
    detail = (
        f"{len(records)} cases, {absent} absent-pattern, {huge} over-length ell, "
        f"{fuzz['elapsed']:.1f} s"
    )
    if bad:
        detail += "; first failures: " + "; ".join(bad[:3])
    report(capsys, "fuzz oracle equivalence", ok, detail)


def test_fuzz_strategy_invariance(fuzz, capsys):
    bad = [
        case_id(rec)
        for rec in fuzz["records"]
        if rec["by_strategy"][MappingStrategy.PSV_NSV]
        != rec["by_strategy"][MappingStrategy.CMIN]
    ]
    report(
        capsys,
        "strategy invariance",
        not bad,
        f"{len(fuzz['records'])} cases" + ("; " + bad[0] if bad else ""),
    )


def test_fuzz_conservation(fuzz, capsys):
    bad = []
    for rec in fuzz["records"]:
        for strategy in STRATEGIES:
            total = sum(row[3] for row in rec["by_strategy"][strategy])
            if total != rec["naive_occ"]:
                bad.append(case_id(rec))
    report(
        capsys,
        "occurrence conservation",
        not bad,
        f"{len(fuzz['records'])} cases" + ("; " + bad[0] if bad else ""),
    )


def test_fuzz_instrumentation_bound(fuzz, capsys):
    violations = []
    max_slack = None
    max_ratio = None
    for rec in fuzz["records"]:
        for strategy in STRATEGIES:
            c = len(rec["by_strategy"][strategy])
            total = sum(rec["stats"][strategy])
            if total > 6 * c + 8:
                violations.append(f"{case_id(rec)}: {total} > 6*{c}+8")
            slack = total - 6 * c
            max_slack = slack if max_slack is None else max(max_slack, slack)
            if c > 0:
                ratio = (total - 8) / c
                max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
    detail = (
        f"calls <= 6c+8 held; tightest fit: calls <= 6c + {max_slack}, "
        f"calls <= {max_ratio:.2f}c + 8"
    )
    if violations:
        detail = "; ".join(violations[:3])
    report(capsys, "instrumentation bound", not violations, detail)


def test_structure_oracles(capsys):
    rng = random.Random(4096)
    checked_rmq = 0
    failures = []

    def check_text(t: Text) -> None:
        nonlocal checked_rmq
        for text in (t, reverse_text(t)):
            e = build_ensemble(text)
            if list(e.sa) != naive.naive_suffix_array(text):
                failures.append(f"sa n={text.n}")
            if list(e.lcp) != naive.naive_lcp(text, e.sa):
                failures.append(f"lcp n={text.n}")
        e = build_ensemble(t)
        s = RmqStructure(e.lcp)
        n = t.n
        exhaustive = n <= 64
        thresholds = sorted(set(e.lcp[1:]) | {0, max(e.lcp) + 1})
        if exhaustive:
            ranges = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            psv_positions = range(1, n + 2)
            nsv_positions = range(0, n + 1)
        else:
            ranges = []
            for _ in range(400):
                i = rng.randint(1, n)
                ranges.append((i, rng.randint(i, n)))
            psv_positions = [rng.randint(1, n + 1) for _ in range(200)]
            nsv_positions = [rng.randint(0, n) for _ in range(200)]
            thresholds = rng.sample(thresholds, min(4, len(thresholds)))
        for i, j in ranges:
            checked_rmq += 1
            if s.rmq(i, j) != naive.scan_rmq(e.lcp, i, j):
                failures.append(f"rmq n={n} [{i},{j}]")
        for d in thresholds:
            for p in psv_positions:
                if s.psv(p, d) != naive.scan_psv(e.lcp, p, d):
                    failures.append(f"psv n={n} p={p} d={d}")
            for p in nsv_positions:
                if s.nsv(p, d) != naive.scan_nsv(e.lcp, n, p, d):
                    failures.append(f"nsv n={n} p={p} d={d}")

    for size in range(1, 65):
        sigma = rng.choice([1, 2, 4, 26])
        check_text(load_text(naive.random_raw(rng, size, sigma)))
    for size in (200, 350, 500):
        check_text(load_text(naive.random_raw(rng, size, rng.choice([2, 4]))))
    detail = f"sizes 1..64 exhaustive + 3 sampled, {checked_rmq} rmq ranges"
    if failures:
        detail = "; ".join(failures[:5])
    report(capsys, "structure oracles", not failures, detail)


def test_persistence_round_trip(fuzz, capsys):
    bad = [case_id(rec) for rec in fuzz["records"] if not rec["loaded_equal"]]
    ok = not bad and fuzz["saves_identical"]
    detail = f"{len(fuzz['records'])} cases, repeated saves byte-identical"
    if bad:
        detail = bad[0]
    elif not fuzz["saves_identical"]:
        detail = "repeated saves differ"
    report(capsys, "persistence round-trip", ok, detail)


def test_boundary_runs_are_singletons(fuzz, capsys):
    seen = 0
    bad = []
    for rec in fuzz["records"]:
        for size in rec["boundary_sizes"]:
            seen += 1
            if size != 1:
                bad.append(f"{case_id(rec)}: size {size}")
    ok = not bad and seen > 0
    report(
        capsys,
        "boundary runs are singletons",
        ok,
        f"{seen} boundary runs observed" + ("; " + bad[0] if bad else ""),
    )
