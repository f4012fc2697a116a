"""Self-test of the benchmark on tiny corpora; asserts no timing.

    python3 perfbench/selftest.py

Runs every workload's code path, traced and untraced, on a text 25 times
smaller than the real one, and checks that every metric named in
``BENCHMARK.json`` is reported with its unit and a value above 0.  Then it
corrupts results on purpose (a dropped match, a wrong context, a raising
query, a damaged loaded index) and checks that each is counted as a failed
operation, and that the tracer refuses a library missing a traced name.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SHRINK = 25
SECONDS = 0.05
#: Metrics that can be 0 on a tiny corpus without anything being wrong.
MAY_BE_ZERO = {"index.emit_boundary_context_calls"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


@contextlib.contextmanager
def replaced(module, name: str, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    names = [m["name"] for m in declared]
    expect(list(result["metrics"]) == names,
           f"{label}: metrics {sorted(set(names) ^ set(result['metrics']))} differ")
    for m in declared:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{label}: {m['name']} value {got['value']!r}")
        # A 0 means a layer was not traced (or a metric not measured), except
        # for descriptors that tiny corpora can leave at 0.
        expect(got["value"] > 0 or m["name"] in MAY_BE_ZERO,
               f"{label}: {m['name']} is {got['value']!r}, not above 0")


def corrupted(cp, workload: str, make, module_name: str = "query") -> dict:
    with replaced(cp, module_name, make):
        return run.run(workload, seed=1, seconds=SECONDS, trace=False, shrink=SHRINK)


def drop_last_cmin_match(query):
    def bad(ix, pattern, ell, strategy=None, stats=None, **kw):
        out = query(ix, pattern, ell, strategy, stats, **kw)
        return out[:-1] if strategy.value == "cmin" and len(out) > 1 else out
    return bad


def wrong_context_everywhere(query):
    # Identical in both strategies and count-preserving, so only the oracle
    # sample can see it.
    def bad(ix, pattern, ell, strategy=None, stats=None, **kw):
        out = query(ix, pattern, ell, strategy, stats, **kw)
        if out:
            first = out[0]
            out[0] = dataclasses.replace(first, context=first.context[::-1] + (255,))
        return out
    return bad


def raise_on_third_call(query):
    calls = []

    def bad(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return query(*args, **kwargs)
    return bad


def damage_loaded_lcp(load_index):
    def bad(source, verify=True):
        ix = load_index(source, verify)
        ix.fwd.lcp[2] += 1
        return ix
    return bad


def check_missing_name_refused() -> None:
    from tracer import Tracer
    import cpmatch.index as index

    original = index.extract_context
    del index.extract_context
    try:
        with Tracer():
            pass
    except LookupError:
        pass
    else:
        raise AssertionError("tracer installed without cpmatch.index.extract_context")
    finally:
        index.extract_context = original
    import cpmatch.rmq as rmq
    expect(not hasattr(rmq.RmqStructure.rmq, "__wrapped__")
           and not hasattr(rmq.partition_interval, "__wrapped__"),
           "tracer left patches behind after refusing to install")
    print("[selftest] missing traced name refused", flush=True)


def main() -> int:
    cp = run.load_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expect(workloads == ["repetitive", "random-dense", "long-context"],
           f"unexpected workloads {workloads}")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end disagrees with run.END_TO_END_UNITS")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer disagrees with run.PER_LAYER_UNITS")

    for name in workloads:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            label = f"{name} trace={int(trace)}"
            result = run.run(name, seed=1, seconds=SECONDS, trace=trace, shrink=SHRINK)
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: clean run failed: {result['failures']}")
            expect(result["attempted"] >= 2 * run.MIN_QUERIES or trace,
                   f"{label}: only {result['attempted']} operations")
            check_metrics(result, declared, label)
            expect(trace or result["descriptor"]["timed_passes"] >= run.CYCLES,
                   f"{label}: fewer timed passes than cycles")
            if not trace:
                expect(result["metrics"]["ok_ops_ratio"]["value"] == 1.0,
                       f"{label}: ok_ops_ratio below 1 on a clean run")
            print(f"[selftest] {label}: {len(declared)} metrics present", flush=True)

    for what, make, attr in (
        ("dropped cmin match", drop_last_cmin_match, "query"),
        ("wrong context in both strategies", wrong_context_everywhere, "query"),
        ("raising query", raise_on_third_call, "query"),
        ("damaged loaded index", damage_loaded_lcp, "load_index"),
    ):
        result = corrupted(cp, "repetitive", make, attr)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{what}: not counted as failed")
        ok = result["metrics"]["ok_ops_ratio"]["value"]
        expect(ok == (result["attempted"] - result["failed"]) / result["attempted"] < 1,
               f"{what}: ok_ops_ratio {ok} does not reflect the failures")
        print(f"[selftest] {what}: {result['failed']} of {result['attempted']} "
              "operations counted as failed", flush=True)
    check_missing_name_refused()
    print("[selftest] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
