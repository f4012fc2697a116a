"""cpmatch benchmark: build, load and query one workload, check every answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload repetitive --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
steps with spans recorded around the library's public functions and prints
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import struct
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run is split into ``CYCLES`` cycles.  Each builds and saves the index
#: once, loads it again and again until ``LOAD_SHARE`` of the cycle's time
#: is used (at least once), and then answers the query list in whole passes
#: until the cycle's share of ``--seconds`` is over.  The first pass after
#: the cycle's last load is a warm-up whose times are dropped.  ``setup_s`` and
#: ``load_s`` are the median set-up and load, both scaled as below: a load's
#: time swings by up to 1.5x within a run, and more loads spread over the
#: run steady their median.
CYCLES = 3
LOAD_SHARE = 0.25
#: A shared machine runs at a speed that drifts by up to 1.5x from one
#: minute to the next, and every timing of a run moves with it.  So the
#: benchmark times a fixed yardstick loop (see ``Yardstick``) after every
#: ``YARD_EVERY`` queries of a pass and scales each query time in the pass by
#: ``YARD_REFERENCE_S`` over the pass's mean yardstick time: query figures are
#: in microseconds of a host on which the yardstick takes
#: ``YARD_REFERENCE_S``.  A query's time is the median of its scaled times.
#: Set-up and load times are scaled by the median yardstick of the run's
#: timed passes: right after those steps allocate and free hundreds of MB,
#: a yardstick reads the host's speed wrongly.
YARD_EVERY = 25
YARD_REFERENCE_S = 2.5e-3
#: Set-ups, and loads with and without verification, in the traced run.
TRACED_REPEATS = 3
#: p99 needs at least ten samples beyond it.
MIN_QUERIES = 1000
#: Queries per run that are also checked against the brute-force oracle.
ORACLE_SAMPLE = 4
#: Text bytes built under tracemalloc for the heap split (the full text would
#: need several GB of allocation records).
HEAP_PREFIX = 50_000
#: Share of ``--seconds`` the traced run spends on untraced queries, before
#: one traced pass over the query list.
TRACED_UNTRACED_SHARE = 0.4

STRATEGIES = ("psv-nsv", "cmin")
STRUCTURES = ("text", "fwd", "rev", "c_array", "rmq_fwd", "rmq_rev", "rmq_c")
SECTIONS = ("alphabet", "symbols", "fwd_sa", "fwd_isa", "fwd_lcp", "rev_sa",
            "rev_lcp", "c_map")

END_TO_END_UNITS = {
    "setup_s": "s",
    "load_s": "s",
    "peak_rss_mb": "MB",
    "index_file_bytes_per_text_byte": "B/B",
    **{f"query_p50_us.{s}": "us" for s in STRATEGIES},
    **{f"query_p99_us.{s}": "us" for s in STRATEGIES},
    **{f"contexts_per_s.{s}": "1/s" for s in STRATEGIES},
    "ok_ops_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "corpus.load_text_s": "s",
    "corpus.reverse_text_s": "s",
    "suffixes.build_suffix_array_s": "s",
    "suffixes.build_inverse_s": "s",
    "suffixes.build_lcp_s": "s",
    "suffixes.find_pattern_range_us": "us",
    "suffixes.find_pattern_range.sa_accesses_per_query": "count",
    "suffixes.find_pattern_range.hit_ratio": "ratio",
    "index.c_array_s": "s",
    "index.map_psv_nsv_us": "us",
    "index.map_cmin_us": "us",
    "index.extract_context_us": "us",
    "index.query_self_us": "us",
    "index.emit_boundary_context_calls": "count",
    "index.contexts_per_query": "count",
    "index.occurrences_per_context": "count",
    **{f"index.heap_bytes_per_text_byte.{s}": "B/B" for s in STRUCTURES},
    **{f"rmq.build_s.{s}": "s" for s in ("fwd", "rev", "c")},
    "rmq.psv_us": "us",
    "rmq.nsv_us": "us",
    "rmq.psv_calls_per_context": "count",
    "rmq.nsv_calls_per_context": "count",
    "rmq.rmq_us": "us",
    "rmq.rmq_calls_per_context": "count",
    "rmq.partition_rev_us": "us",
    "rmq.partition_fwd_us": "us",
    "rmq.partition.parts_per_rmq_call": "ratio",
    "persistence.save_s": "s",
    "persistence.load_parse_s": "s",
    "persistence.load_verify_s": "s",
    **{f"persistence.section_bytes.{s}": "B" for s in SECTIONS},
    "trace_overhead_ratio": "ratio",
}


def load_library():
    """Import cpmatch from this checkout's ``src/``; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "cpmatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cpmatch sources under {src}")
    sys.path.insert(0, str(src))
    import cpmatch

    if Path(cpmatch.__file__).resolve().parent != (src / "cpmatch").resolve():
        raise SystemExit(f"perfbench: imported cpmatch from {cpmatch.__file__}")
    return cpmatch


@dataclass
class Ops:
    """Operations attempted and failed; a failure is an exception or a check."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


#: Marks a query whose answers have not been checked yet.
_UNCHECKED = object()


class Yardstick:
    """A fixed interpreted loop that measures how fast the host runs now.

    It reads a 64 MB array at seeded random positions from interpreted code,
    as cpmatch's queries read their tables, but runs none of cpmatch's code,
    so a change to the library never moves it.  The array is larger than a
    core's cache, so the loop slows, as the queries do, when other work on
    the host takes the shared cache and memory bandwidth.
    """

    SIZE = 8_000_000
    READS = 3_000

    def __init__(self):
        import numpy

        self._table = numpy.random.default_rng(20101).permutation(self.SIZE)
        rng = random.Random("perfbench-yardstick")
        self._reads = [rng.randrange(self.SIZE) for _ in range(self.READS)]

    def measure(self) -> float:
        """Seconds one pass of the loop takes."""
        table, total = self._table, 0
        t0 = time.perf_counter()
        for i in self._reads:
            j = int(table[i])
            total += j if j & 1 else -int(table[j])
        return time.perf_counter() - t0


@dataclass
class QueryRun:
    """Answers to a list of ``size`` queries, asked in whole passes."""

    size: int
    passes: int = 0
    timed_passes: int = 0
    scaled: dict = field(init=False)  # strategy -> per query, its scaled times, s
    seconds: dict = field(init=False)  # strategy -> wall time of every answer, s
    yard: list = field(default_factory=list)  # each timed pass's mean yardstick, s
    pass_seconds: list = field(default_factory=list)  # each timed pass's scaled total, s
    contexts: dict = field(init=False)  # strategy -> one answer per query
    occurrences: int = 0  # one answer per query
    counts: dict = field(init=False)

    def __post_init__(self):
        self.scaled = {s: [[] for _ in range(self.size)] for s in STRATEGIES}
        self.seconds = dict.fromkeys(STRATEGIES, 0.0)
        self.contexts = dict.fromkeys(STRATEGIES, 0)
        self.counts = {s: dict.fromkeys(("rmq_calls", "psv_calls", "nsv_calls"), 0)
                       for s in STRATEGIES}

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def times(self, strategy: str) -> list[float]:
        """Each query's median scaled time under ``strategy``, s."""
        return [statistics.median(t) for t in self.scaled[strategy]]


class Bench:
    """One workload run: set-up, loads and queries, with every check."""

    def __init__(self, cpmatch, workload, seed: int, shrink: int = 1):
        from workloads import query_rounds

        self.cp = cpmatch
        self.w = workload
        self.seed = seed
        self.shrink = shrink
        self.raw = workload.text(seed, shrink)
        self.ops = Ops()
        self._rounds = query_rounds
        self.tracer = None
        self.yardstick = Yardstick()
        self.ix = None
        self.blob = b""
        self._verified = None  # per query: its checked answer, None if it failed

    # -- timed phases -----------------------------------------------------

    def _traced(self, on: bool):
        if self.tracer is not None:
            self.tracer.recording = on

    def setup(self, reps: int) -> list[float]:
        """``load_text`` + ``build_index`` + ``save_index``, ``reps`` times."""
        cp = self.cp
        times = []
        self.ix = None  # never two indexes alive at once
        for rep in range(reps):
            self._traced(True)
            t0 = time.perf_counter()
            text = cp.load_text(self.raw)
            ix = cp.build_index(text)
            sink = io.BytesIO()
            cp.save_index(ix, sink)
            times.append(time.perf_counter() - t0)
            self._traced(False)
            del ix, text
            blob = sink.getvalue()
            self.ops.record(not self.blob or blob == self.blob,
                            f"setup {rep}: save differs from the first")
            self.blob = self.blob or blob
        return times

    def load(self, reps: int, verify: bool = True) -> list[float]:
        """``load_index`` of the saved bytes; keeps the last index loaded."""
        times = []
        for rep in range(reps):
            self.ix = None  # never two indexes alive at once
            self._traced(True)
            t0 = time.perf_counter()
            self.ix = self.cp.load_index(io.BytesIO(self.blob), verify=verify)
            times.append(time.perf_counter() - t0)
            self._traced(False)
            again = io.BytesIO()
            self.cp.save_index(self.ix, again)
            self.ops.record(again.getvalue() == self.blob,
                            f"load {rep}: re-saved bytes differ")
        return times

    def query_list(self, min_queries: int) -> list:
        """The fewest whole query rounds holding at least ``min_queries``."""
        rounds = self._rounds(self.w, self.raw, self.ix.text, self.seed)
        queries = []
        while not queries or len(queries) < min_queries:
            queries += next(rounds)
        self._verified = [_UNCHECKED] * len(queries)
        return queries

    def answer(self, queries: list, run: QueryRun, until: float,
               timed: bool = True, count: bool = False) -> None:
        """Answer ``queries`` in whole passes, at least one, until ``until``.

        A query's first answers are checked against independent paths; every
        later answer must equal the one those checks passed.  The times of a
        ``timed`` pass are scaled by the yardstick and kept in ``run``.
        """
        self._pass(queries, run, timed, count)
        while time.perf_counter() < until:
            self._pass(queries, run, timed, count)

    def _pass(self, queries: list, run: QueryRun, timed: bool, count: bool) -> None:
        took = {s: [0.0] * run.size for s in STRATEGIES}
        yard = []
        for qi, q in enumerate(queries):
            results = self._answer(qi, q, run, took, count)
            if self._verified[qi] is _UNCHECKED:
                self._check(qi, q, results)
            else:
                self._recheck(qi, q, results)
            if qi % YARD_EVERY == YARD_EVERY - 1:
                yard.append(self.yardstick.measure())
        run.passes += 1
        if not timed:
            return
        mean_yard = statistics.fmean(yard or [self.yardstick.measure()])
        scale = YARD_REFERENCE_S / mean_yard
        for name, pass_times in took.items():
            for samples, t in zip(run.scaled[name], pass_times):
                samples.append(t * scale)
        run.pass_seconds.append(sum(map(sum, took.values())) * scale)
        run.yard.append(mean_yard)
        run.timed_passes += 1

    def _answer(self, qi: int, q, run: QueryRun, took: dict, count: bool) -> dict:
        cp = self.cp
        order = STRATEGIES if qi % 2 == 0 else STRATEGIES[::-1]
        results = {}
        for name in order:
            strategy = cp.MappingStrategy(name)
            stats = cp.QueryStats() if count else None
            if self.tracer is not None:
                self.tracer.query_id = qi
            self._traced(True)
            t0 = time.perf_counter()
            try:
                results[name] = cp.query(self.ix, q.codes, q.ell, strategy, stats)
            except Exception as exc:  # a raising query is a failed operation
                results[name] = exc
            took[name][qi] = time.perf_counter() - t0
            run.seconds[name] += took[name][qi]
            self._traced(False)
            if self.tracer is not None:
                self.tracer.query_id = -1
            if count:
                for key, total in run.counts[name].items():
                    run.counts[name][key] = total + getattr(stats, key)
        if run.passes == 0:  # the query's first answers in this run
            for name, got in results.items():
                if not isinstance(got, Exception):
                    run.contexts[name] += len(got)
            got = results[STRATEGIES[0]]
            if not isinstance(got, Exception):
                run.occurrences += sum(m.count for m in got)
        return results

    # -- checks (outside every timed region) --------------------------------

    def _check(self, qi: int, q, results: dict) -> None:
        cp = self.cp
        fwd_range = cp.find_pattern_range(self.ix.fwd, q.codes)
        expected = 0 if fwd_range is None else fwd_range[1] - fwd_range[0] + 1
        oracle = None
        if qi < ORACLE_SAMPLE:
            oracle = cp.oracle_contexts(self.ix.text, q.codes, q.ell)
        a, b = results.values()
        answered = not isinstance(a, Exception) and not isinstance(b, Exception)
        # Disagreeing strategies both fail: which one is wrong is unknown.
        agree = not answered or a == b
        all_ok = answered
        for name, got in results.items():
            what = f"query {qi} {name} P={q.raw!r} ell={q.ell}"
            if isinstance(got, Exception):
                self.ops.record(False, f"{what}: raised {got!r}")
                continue
            ok = agree and sum(m.count for m in got) == expected
            if oracle is not None:
                found = {m.context: cp.enumerate_occurrences(self.ix, m) for m in got}
                ok = ok and len(found) == len(got) and {
                    k: sorted(v) for k, v in found.items()} == oracle
            self.ops.record(ok, f"{what}: wrong answer")
            all_ok = all_ok and ok
        self._verified[qi] = a if all_ok else None

    def _recheck(self, qi: int, q, results: dict) -> None:
        verified = self._verified[qi]
        for name, got in results.items():
            what = f"query {qi} {name} P={q.raw!r} ell={q.ell}"
            if isinstance(got, Exception):
                self.ops.record(False, f"{what}: raised {got!r}")
                continue
            self.ops.record(verified is not None and got == verified,
                            f"{what}: differs from the verified answer")

    # -- descriptors ------------------------------------------------------

    def descriptor(self, queries: list, run: QueryRun) -> dict:
        import numpy

        cp = self.cp
        return {
            "workload": self.w.name,
            "recipe": self.w.recipe,
            "seed": self.seed,
            "n": self.ix.text.n,
            "sigma": self.ix.text.sigma,
            "r": cp.compute_bwt_runs(self.ix.fwd),
            "r_rev": cp.compute_bwt_runs(self.ix.rev),
            "queries_per_strategy": len(queries),
            "passes": run.passes,
            "timed_passes": run.timed_passes,
            "absent_queries": sum(not q.present for q in queries),
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "failed_ops_ratio": self.ops.failed / self.ops.attempted,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        }


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def section_sizes(blob: bytes) -> dict[str, int]:
    """Section sizes from a version-1 ``CPMX`` header."""
    if blob[:4] != b"CPMX" or struct.unpack_from("<I", blob, 4)[0] != 1:
        raise ValueError("not a version-1 CPMX index")
    table = struct.unpack_from(f"<{2 * len(SECTIONS)}Q", blob, 24)
    return {name: table[2 * i + 1] for i, name in enumerate(SECTIONS)}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    setup, load, run, queries = [], [], None, None
    for cycle in range(CYCLES):
        setup += bench.setup(1)
        load += bench.load(1)
        while time.perf_counter() < start + seconds * (cycle + LOAD_SHARE) / CYCLES:
            load += bench.load(1)
        if queries is None:
            queries = bench.query_list(MIN_QUERIES)
            run = QueryRun(len(queries))
        bench.answer(queries, run, until=0.0, timed=False)  # warm-up
        bench.answer(queries, run, until=start + seconds * (cycle + 1) / CYCLES)
    ops = bench.ops
    scale = YARD_REFERENCE_S / statistics.median(run.yard)
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "load_s": statistics.median(load) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "index_file_bytes_per_text_byte": len(bench.blob) / bench.ix.text.n,
    }
    times = {s: run.times(s) for s in STRATEGIES}
    for s in STRATEGIES:
        metrics[f"query_p50_us.{s}"] = _percentile(times[s], 0.50) * 1e6
        metrics[f"query_p99_us.{s}"] = _percentile(times[s], 0.99) * 1e6
    for s in STRATEGIES:
        metrics[f"contexts_per_s.{s}"] = run.contexts[s] / sum(times[s])
    metrics["ok_ops_ratio"] = (ops.attempted - ops.failed) / ops.attempted
    descriptor = bench.descriptor(queries, run)
    descriptor["setup_s_each"] = setup
    descriptor["load_s_each"] = load
    descriptor["timed_pass_s"] = run.pass_seconds
    descriptor["yardstick_s"] = {"median": statistics.median(run.yard),
                                 "min": min(run.yard), "max": max(run.yard)}
    descriptor["elapsed_s"] = time.perf_counter() - start
    return metrics, descriptor


def measure_heap(cp, raw: bytes) -> dict[str, float]:
    """Retained tracemalloc bytes per text byte of each index structure."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        tracer.recording = True
        tracemalloc.start()
        try:
            text = cp.load_text(raw)
            ix = cp.build_index(text)
        finally:
            tracemalloc.stop()
            tracer.recording = False
    n = ix.text.n
    del ix, text
    cols = tracer.spans()

    def total(name: str, key: str = "bytes") -> float:
        if name not in tracer.names:
            return 0.0
        return float(cols[key][cols["name"] == tracer.names.index(name)].sum())

    retained = {
        "text": total("corpus.load_text"),
        "fwd": total("suffixes.build_ensemble.fwd"),
        "rev": total("corpus.reverse_text") + total("suffixes.build_ensemble.rev"),
        "c_array": total("index.build_index", "self_bytes"),
        "rmq_fwd": total("rmq.build.fwd"),
        "rmq_rev": total("rmq.build.rev"),
        "rmq_c": total("rmq.build.c"),
    }
    return {f"index.heap_bytes_per_text_byte.{k}": v / n for k, v in retained.items()}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer

    cp = bench.cp
    heap = measure_heap(cp, bench.raw[:HEAP_PREFIX])
    tracer = Tracer()
    bench.tracer = tracer
    with tracer:
        bench.setup(TRACED_REPEATS)
        parse = bench.load(TRACED_REPEATS, verify=False)
        verify = bench.load(TRACED_REPEATS, verify=True)
    bench.tracer = None
    queries = bench.query_list(MIN_QUERIES)
    nq = len(queries)
    plain = QueryRun(nq)
    bench.answer(queries, plain, until=time.perf_counter() + seconds * TRACED_UNTRACED_SHARE)
    bench.tracer = tracer
    with tracer:
        traced = QueryRun(nq)
        bench.answer(queries, traced, until=0.0, count=True)
    bench.tracer = None

    cols = tracer.spans()
    in_query = cols["qid"] >= 0

    def mask(name: str):
        if name not in tracer.names:
            return None
        return cols["name"] == tracer.names.index(name)

    def mean_self(name: str) -> float:
        m = mask(name)
        return float(cols["self"][m].mean()) if m is not None and m.any() else 0.0

    def self_us_per_query(name: str, queries: int) -> float:
        m = mask(name)
        if m is None:
            return 0.0
        return float(cols["self"][m & in_query].sum()) / queries * 1e6

    def calls(name: str) -> int:
        m = mask(name)
        return 0 if m is None else int((m & in_query).sum())

    ctx_all = sum(traced.contexts.values())
    ctx_psv = traced.contexts["psv-nsv"]
    counters = tracer.counters
    metrics = {
        "corpus.load_text_s": mean_self("corpus.load_text"),
        "corpus.reverse_text_s": mean_self("corpus.reverse_text"),
        "suffixes.build_suffix_array_s": mean_self("suffixes.build_suffix_array"),
        "suffixes.build_inverse_s": mean_self("suffixes.build_inverse"),
        "suffixes.build_lcp_s": mean_self("suffixes.build_lcp"),
        "suffixes.find_pattern_range_us":
            self_us_per_query("suffixes.find_pattern_range", 2 * nq),
        "suffixes.find_pattern_range.sa_accesses_per_query":
            counters["find_pattern_range.sa_accesses"]
            / max(counters["find_pattern_range.calls"], 1),
        "suffixes.find_pattern_range.hit_ratio":
            counters["find_pattern_range.hits"]
            / max(counters["find_pattern_range.calls"], 1),
        "index.c_array_s": mean_self("index.build_index"),
        "index.map_psv_nsv_us": self_us_per_query("index.map_psv_nsv", nq),
        "index.map_cmin_us": self_us_per_query("index.map_cmin", nq),
        "index.extract_context_us": self_us_per_query("index.extract_context", 2 * nq),
        "index.query_self_us": self_us_per_query("index.query", 2 * nq),
        "index.emit_boundary_context_calls":
            calls("index.emit_boundary_context") / (2 * nq),
        "index.contexts_per_query": ctx_all / (2 * nq),
        "index.occurrences_per_context": 2 * traced.occurrences / max(ctx_all, 1),
        **heap,
        **{f"rmq.build_s.{s}": mean_self(f"rmq.build.{s}") for s in ("fwd", "rev", "c")},
        "rmq.psv_us": self_us_per_query("rmq.psv", nq),
        "rmq.nsv_us": self_us_per_query("rmq.nsv", nq),
        "rmq.psv_calls_per_context":
            traced.counts["psv-nsv"]["psv_calls"] / max(ctx_psv, 1),
        "rmq.nsv_calls_per_context":
            traced.counts["psv-nsv"]["nsv_calls"] / max(ctx_psv, 1),
        "rmq.rmq_us": self_us_per_query("rmq.rmq", 2 * nq),
        "rmq.rmq_calls_per_context":
            sum(c["rmq_calls"] for c in traced.counts.values()) / max(ctx_all, 1),
        "rmq.partition_rev_us": self_us_per_query("rmq.partition_rev", 2 * nq),
        "rmq.partition_fwd_us": self_us_per_query("rmq.partition_fwd", 2 * nq),
        "rmq.partition.parts_per_rmq_call":
            counters["partition.parts"] / max(counters["partition.rmq_calls"], 1),
        "persistence.save_s": mean_self("persistence.save_index"),
        "persistence.load_parse_s": min(parse),
        "persistence.load_verify_s": min(verify) - min(parse),
        **{f"persistence.section_bytes.{k}": v
           for k, v in section_sizes(bench.blob).items()},
        # Traced over untraced time of one pass over the query list.
        "trace_overhead_ratio": traced.wall / (plain.wall / plain.passes),
    }
    # A shrunk text (the self-test's) never overwrites a full-size trace.
    shrunk = f"-shrink{bench.shrink}" if bench.shrink != 1 else ""
    trace_file = HERE / "traces" / f"{bench.w.name}-seed{bench.seed}{shrunk}.npz"
    tracer.write(trace_file)
    descriptor = bench.descriptor(queries, traced)
    descriptor["trace_file"] = str(trace_file.relative_to(ROOT))
    descriptor["spans"] = len(cols["name"])
    return metrics, descriptor


def run(workload: str, seed: int, seconds: float, trace: bool, shrink: int = 1) -> dict:
    """Run one workload; returns the result object the last line prints."""
    cp = load_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    bench = Bench(cp, WORKLOADS[workload], seed, shrink)
    metrics, descriptor = (per_layer if trace else end_to_end)(bench, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "descriptor": descriptor,
        "failures": bench.ops.notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("repetitive", "random-dense", "long-context"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("descriptor " + json.dumps(result.pop("descriptor"), sort_keys=True))
    for note in result.pop("failures"):
        print("FAILED " + note)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
