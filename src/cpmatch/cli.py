"""Command-line front end: build, query, verify, bench, gen-corpus."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import random
import re
import sys
import time
from dataclasses import asdict, astuple, fields

from .corpus import Text, encode_pattern, load_text
from .errors import CpmatchError
from .generate import generate_repetitive
from .index import (
    CpmIndex,
    ContextMatch,
    MappingStrategy,
    build_index,
    enumerate_occurrences,
    query,
)
from .oracle import oracle_contexts
from .persistence import load_index, save_index
from .rmq import QueryStats
from .suffixes import compute_bwt_runs


#: A \\ or \xNN escape (group 1), a backslash that starts neither, or a
#: code point that is not one byte.
_ESCAPE = re.compile(r"\\(\\|x[0-9A-Fa-f]{2})?|[^\x00-\xff]")

#: How ``render_symbols`` shows each byte value: printable ASCII as itself,
#: but the backslash doubled and '$', which shows a terminator, as \x24;
#: every other byte as \xNN.  ``parse_pattern`` reads each form back.
_SHOWN = tuple(
    "\\\\" if b == 0x5C
    else chr(b) if 0x20 <= b <= 0x7E and b != 0x24
    else f"\\x{b:02x}"
    for b in range(256)
)


class UsageError(Exception):
    """A bad argument or input line: ``main`` prints ``WHERE: reason``, exits 2."""

    #: ``error`` for a command-line argument, ``FILE:LINE`` for a line of a
    #: pattern file.
    where = "error"


def parse_pattern(text: str) -> bytes:
    """Decode a command-line pattern, honouring \\xNN and \\\\ escapes.

    One ``_ESCAPE`` substitution replaces every escape by its byte.  Raises
    ValueError for the first malformed escape or character above U+00FF.
    """

    def unescape(token: re.Match) -> str:
        escape = token.group(1)
        if escape == "\\":
            return "\\"
        if escape:
            return chr(int(escape[1:], 16))
        if token.group() != "\\":
            raise ValueError(f"character {token.group()!r} is not a single byte")
        # Each code point is one byte given; quote them as UTF-8.
        i = token.start()
        window = text[i:i + 4].encode("latin-1", "backslashreplace")
        window = window.decode("utf-8", "backslashreplace")
        raise ValueError(f"bad escape at offset {i}: {window!r}")

    return _ESCAPE.sub(unescape, text).encode("latin-1")


def render_symbols(codes, byte_for_code) -> str:
    """Printable form of a code sequence, one ``_SHOWN`` entry per byte.

    Terminators show as '$' and a code past the alphabet as ``#code``.
    """
    sigma = len(byte_for_code) - 1
    return "".join(
        "$" if c == 0 else f"#{c}" if c > sigma else _SHOWN[byte_for_code[c]]
        for c in codes
    )


def _load_text_file(path: str) -> Text:
    with open(path, "rb") as fh:
        return load_text(fh.read())


def _run_counts(ix: CpmIndex) -> tuple[int, int, int]:
    r = compute_bwt_runs(ix.fwd)
    r_rev = compute_bwt_runs(ix.rev)
    return r, r_rev, max(r, r_rev)


def _log_line(record: dict) -> None:
    """Print ``record`` as one JSON line on stderr."""
    print(json.dumps(record), file=sys.stderr)


def cmd_build(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    t = _load_text_file(args.text)
    t1 = time.perf_counter()
    ix = build_index(t)
    t2 = time.perf_counter()
    _save_atomically(ix, args.output)
    t3 = time.perf_counter()
    r, r_rev, r_max = _run_counts(ix)
    t4 = time.perf_counter()
    print(f"n={t.n} sigma={t.sigma} r={r} r_rev={r_rev} r_max={r_max}")
    if args.verbose:
        _log_line({
            "load_text_s": t1 - t0,
            "build_index_s": t2 - t1,
            "save_index_s": t3 - t2,
            "bwt_runs_s": t4 - t3,
        })
    return 0


def _save_atomically(ix: CpmIndex, output: str) -> None:
    """Save ``ix`` to ``output`` so that a failed save leaves it as it was.

    The index goes to a new temporary file in the same directory, which
    replaces ``output`` only once complete and is removed on any failure;
    a temporary file that another build left behind is not touched.
    An existing target that is not a regular file, such as a device or a
    pipe, is written in place.
    """
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "wb") as fh:
            save_index(ix, fh)
        return
    target = os.path.realpath(output)  # replace a link's target, not the link
    partial = f"{target}.{os.getpid()}.tmp"
    for attempt in itertools.count(1):
        try:
            fh = open(partial, "xb")
            break
        except FileExistsError:  # left by a killed build that had our pid
            partial = f"{target}.{os.getpid()}.{attempt}.tmp"
        except OSError as exc:  # name INDEX, not the temporary file
            raise OSError(exc.errno, exc.strerror, output) from None
    try:
        with fh:
            save_index(ix, fh)
        os.replace(partial, target)
    except BaseException:
        os.remove(partial)
        raise


def _emit_match(args: argparse.Namespace, ix: CpmIndex, match: ContextMatch) -> None:
    """Print ``match`` as one TSV row or JSON object, per ``--format``."""
    record = {
        "context": render_symbols(match.context, ix.text.byte_for_code),
        "ds": match.ds,
        "de": match.de,
        "count": match.count,
        "rep_position": match.rep_position,
    }
    if args.enumerate:
        record["positions"] = enumerate_occurrences(ix, match)
    if args.format == "json":
        print(json.dumps(record))
        return
    if args.enumerate:
        record["positions"] = ",".join(map(str, record["positions"]))
    print("\t".join(map(str, record.values())))


def _checked_query(pattern_text: str, ell: int) -> bytes:
    """The pattern of a query, after checking it and its context length ell.

    ``pattern_text`` holds one code point per byte of the pattern as given,
    with ``\\xNN`` and ``\\\\`` escapes.  Raises UsageError for a negative
    ell, a bad escape or an empty pattern; ``_check_ell_fits`` checks ell
    against the text once its length is known.
    """
    if ell < 0:
        raise UsageError("context length must be >= 0")
    try:
        pattern = parse_pattern(pattern_text)
    except ValueError as exc:
        raise UsageError(exc) from None
    if not pattern:
        raise UsageError("pattern must be nonempty")
    return pattern


def _check_ell_fits(ell: int, n: int) -> None:
    """Raise UsageError if ``ell`` is longer than the text of length n."""
    if ell > n:
        raise UsageError(f"context length {ell} exceeds the text length {n}")


def _timed_load(path: str) -> tuple[CpmIndex, float]:
    """The index saved at ``path`` and the seconds its verified load took."""
    t0 = time.perf_counter()
    with open(path, "rb") as fh:
        ix = load_index(fh)
    return ix, time.perf_counter() - t0


def cmd_query(args: argparse.Namespace) -> int:
    # The argument's own bytes: UTF-8 text matches as UTF-8.
    pattern_text = os.fsencode(args.pattern).decode("latin-1")
    pattern = _checked_query(pattern_text, args.context)
    ix, load_s = _timed_load(args.index)
    _check_ell_fits(args.context, ix.text.n)
    codes = encode_pattern(ix.text, pattern)
    strategy = MappingStrategy(args.strategy)
    stats = QueryStats() if args.stats else None
    t0 = time.perf_counter()
    # A byte outside the index alphabet cannot occur: no matches.
    matches = [] if codes is None else query(
        ix, codes, args.context, strategy=strategy, stats=stats
    )
    wall_s = time.perf_counter() - t0
    for match in matches:
        _emit_match(args, ix, match)
    if stats is not None:
        _log_line({
            **asdict(stats), "contexts": len(matches), "wall_s": wall_s, "load_s": load_s,
        })
    return 0


def _sample_pattern(rng: random.Random, t: Text) -> bytes | list[int]:
    """Mostly substrings of the text, sometimes arbitrary code strings."""
    if rng.random() < 0.7:
        start = rng.randint(1, t.n - 1)
        length = rng.randint(1, min(8, t.n - start))
        return t.symbols[start : start + length]
    length = rng.randint(1, 4)
    return [rng.randint(1, t.sigma + 1) for _ in range(length)]


def _excerpt(t: Text) -> str:
    head = render_symbols(t.symbols[1 : min(t.n, 80) + 1], t.byte_for_code)
    return head + ("..." if t.n > 80 else "")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.queries < 0 or args.max_ell < 0:
        raise UsageError("--queries and --max-ell must be >= 0")
    t = _load_text_file(args.text)
    _check_ell_fits(args.max_ell, t.n)
    ix = build_index(t)
    rng = random.Random(args.seed)
    for _ in range(args.queries):
        p = _sample_pattern(rng, t)
        ell = rng.randint(0, args.max_ell)
        expected = oracle_contexts(t, p, ell)
        got_by_strategy = {
            strategy: {
                m.context: sorted(enumerate_occurrences(ix, m))
                for m in query(ix, p, ell, strategy=strategy)
            }
            for strategy in MappingStrategy
        }
        if any(got != expected for got in got_by_strategy.values()):
            rendered_p = render_symbols(p, t.byte_for_code)
            print("mismatch:", file=sys.stderr)
            print(f"  text   {_excerpt(t)}", file=sys.stderr)
            print(f"  P      {rendered_p}  ell={ell}", file=sys.stderr)
            print(f"  expect {sorted(expected.items())}", file=sys.stderr)
            for strategy, got in got_by_strategy.items():
                print(f"  {strategy.value:7} {sorted(got.items())}", file=sys.stderr)
            return 1
    print(f"verified {args.queries} queries, seed {args.seed}: OK")
    return 0


def _read_pattern_file(path: str, t: Text) -> list[tuple[list[int], int]]:
    """(codes, ell) queries on text t from a file of PATTERN<TAB>ELL lines.

    A pattern is the line's own bytes, as for ``query --pattern``.  Blank
    lines and lines starting with '#' are skipped, and so are patterns with
    a byte the text lacks, which cannot occur.  A malformed line, or one
    whose ell exceeds the text length, raises UsageError located at
    ``path:line``.
    """
    queries = []
    with open(path, "rb") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.decode("latin-1").rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            try:
                pattern_text, tab, ell_text = line.rpartition("\t")
                if not tab:
                    raise UsageError("expected PATTERN<TAB>ELL")
                try:
                    ell = int(ell_text)
                except ValueError:
                    raise UsageError(f"context length {ell_text!r} is not an integer")
                pattern = _checked_query(pattern_text, ell)
                _check_ell_fits(ell, t.n)
            except UsageError as exc:
                exc.where = f"{path}:{lineno}"
                raise
            codes = encode_pattern(t, pattern)
            if codes is not None:
                queries.append((codes, ell))
    return queries


def cmd_bench(args: argparse.Namespace) -> int:
    if args.random is not None and args.random < 0:
        raise UsageError("--random must be >= 0")
    ix, load_s = _timed_load(args.index)
    if args.patterns is not None:
        queries = _read_pattern_file(args.patterns, ix.text)
    else:
        rng = random.Random(args.seed)
        queries = (
            (_sample_pattern(rng, ix.text), rng.randint(0, 8))
            for _ in range(args.random)
        )
    strategy = MappingStrategy(args.strategy)
    r, r_rev, r_max = _run_counts(ix)
    n = ix.text.n
    counters = [f.name for f in fields(QueryStats)]
    with open(args.csv, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(
            ["m", "ell", "c", "occ", "wall_s", *counters, "r", "r_rev", "r_max", "n",
             "load_s"]
        )
        for codes, ell in queries:
            stats = QueryStats()
            t0 = time.perf_counter()
            matches = query(ix, codes, ell, strategy=strategy, stats=stats)
            dt = time.perf_counter() - t0
            writer.writerow(
                [
                    len(codes), ell, len(matches),
                    sum(m.count for m in matches), f"{dt:.6f}",
                    *astuple(stats),
                    r, r_rev, r_max, n, f"{load_s:.6f}",
                ]
            )
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    try:
        blob = generate_repetitive(args.base, args.copies, args.mut_rate, args.seed)
    except ValueError as exc:
        raise UsageError(exc) from None
    with open(args.output, "wb") as fh:
        fh.write(blob)
    return 0


def _add_strategy_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy", choices=[s.value for s in MappingStrategy],
        default=MappingStrategy.PSV_NSV.value, help="interval mapping variant",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmatch",
        description="Contextual pattern matching over suffix arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="index a text file")
    p_build.add_argument("text", help="input text (binary, no 0x00 bytes)")
    p_build.add_argument("-o", "--output", required=True, help="index file to write")
    p_build.add_argument(
        "--verbose", action="store_true",
        help="log each phase's wall time as one JSON line on stderr",
    )
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="report distinct pattern contexts")
    p_query.add_argument("index", help="index file from build")
    p_query.add_argument("--pattern", required=True, help="pattern (\\xNN escapes)")
    p_query.add_argument("--context", required=True, type=int, help="context length")
    p_query.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_query.add_argument(
        "--enumerate", action="store_true", help="list every occurrence position"
    )
    p_query.add_argument(
        "--stats", action="store_true",
        help="log the query's counters and wall time as one JSON line on stderr",
    )
    _add_strategy_option(p_query)
    p_query.set_defaults(func=cmd_query)

    p_verify = sub.add_parser("verify", help="compare queries against a scan oracle")
    p_verify.add_argument("text", help="text to index and cross-check")
    p_verify.add_argument("--queries", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-ell", type=int, default=8)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time queries, write CSV")
    p_bench.add_argument("index", help="index file from build")
    source = p_bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--patterns", help="file of PATTERN<TAB>ELL lines")
    source.add_argument("--random", type=int, help="sample this many queries")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", required=True, help="output CSV path")
    _add_strategy_option(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen-corpus", help="emit a repetitive test text")
    p_gen.add_argument("--base", type=int, required=True, help="base string length")
    p_gen.add_argument("--copies", type=int, required=True)
    p_gen.add_argument("--mut-rate", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{exc.where}: {exc}", file=sys.stderr)
        return 2
    except (CpmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
