import csv
import json
import logging
import os
import random
import subprocess
import sys
import threading

import pytest

from cpmatch import cli
from cpmatch.corpus import encode_pattern, load_text
from cpmatch.persistence import load_index
from cpmatch.suffixes import compute_bwt_runs

import alabar_data
import naive


@pytest.fixture()
def alabar_files(tmp_path):
    text = tmp_path / "alabar.txt"
    text.write_bytes(alabar_data.RAW)
    idx = tmp_path / "alabar.idx"
    assert cli.main(["build", str(text), "-o", str(idx)]) == 0
    return text, idx


@pytest.fixture()
def cafe_index(tmp_path):
    # The UTF-8 text holds "é" as the two bytes C3 A9, twice.
    text = tmp_path / "cafe.txt"
    text.write_bytes("café au lait, café noir".encode("utf-8"))
    idx = tmp_path / "cafe.idx"
    assert cli.main(["build", str(text), "-o", str(idx)]) == 0
    return idx


def test_parse_pattern_escapes():
    assert cli.parse_pattern("abc") == b"abc"
    assert cli.parse_pattern(r"a\x62c") == b"abc"
    assert cli.parse_pattern(r"\x00\xff") == b"\x00\xff"
    assert cli.parse_pattern(r"\\") == b"\\"
    for bad in (r"\q", r"\x1", r"\xzz", r"\x+1", "ā"):
        with pytest.raises(ValueError):
            cli.parse_pattern(bad)


def test_render_symbols_round_trip():
    t = load_text(b"a\x5c\x24\x01")
    rendered = cli.render_symbols([4, 3, 2, 1, 0], t.byte_for_code)
    assert rendered == "a" + "\\\\" + "\\x24" + "\\x01" + "$"


def outcome(convert, *args):
    """What ``convert(*args)`` returns, or the text of its ValueError."""
    try:
        return convert(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_parse_pattern_matches_the_loop():
    # Well-formed and malformed escapes, a lone backslash, code points
    # above U+00FF and plain bytes, in seeded mixes.
    tokens = ["\\", "\\\\", "\\x4", "\\x41", "\\xg1", "\\X41", "\\xff",
              "é", "Ā", "a", "x", "4", "f", "\x00", "\xff"]
    rng = random.Random(19)
    for _ in range(20_000):
        parts = rng.choices(tokens, k=rng.randint(0, 8))
        parts += [chr(rng.randrange(256)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
        text = "".join(parts)
        assert outcome(cli.parse_pattern, text) == outcome(naive.parse_pattern_loop, text)


def test_render_symbols_matches_the_loop():
    # Alphabets of every size, with terminators and codes past the alphabet.
    rng = random.Random(20)
    for size in range(1, 256):
        byte_for_code = (0, *sorted(rng.sample(range(1, 256), size)))
        for _ in range(20):
            codes = [rng.randint(0, size + 2) for _ in range(rng.randint(0, 16))]
            assert cli.render_symbols(codes, byte_for_code) == (
                naive.render_symbols_loop(codes, byte_for_code)
            )


def test_rendered_bytes_parse_back():
    raw = bytes(range(1, 256))
    t = load_text(raw)
    for b in raw:
        codes = encode_pattern(t, bytes([b]))
        assert cli.parse_pattern(cli.render_symbols(codes, t.byte_for_code)) == bytes([b])
    rendered = cli.render_symbols(t.symbols[1:t.n], t.byte_for_code)
    assert cli.parse_pattern(rendered) == raw


def test_import_leaves_cli_unloaded():
    # The library, and the benchmark that imports it, never run CLI code.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cpmatch; assert 'cpmatch.cli' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_build_output_line(alabar_files, capsys, alabar_index):
    text, idx = alabar_files
    capsys.readouterr()
    assert cli.main(["build", str(text), "-o", str(idx)]) == 0
    out = capsys.readouterr().out
    r = compute_bwt_runs(alabar_index.fwd)
    r_rev = compute_bwt_runs(alabar_index.rev)
    expected = f"n=17 sigma=5 r={r} r_rev={r_rev} r_max={max(r, r_rev)}\n"
    assert out == expected


def test_failed_build_leaves_old_index(alabar_files, capsys, monkeypatch):
    # A save that fails part-way (a full disk, say) must neither truncate
    # the index already at INDEX nor leave its partial file behind.
    text, idx = alabar_files
    good = idx.read_bytes()
    listing = sorted(idx.parent.iterdir())

    def failing_save(ix, sink):
        sink.write(b"CPMX partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "save_index", failing_save)
    capsys.readouterr()
    assert cli.main(["build", str(text), "-o", str(idx)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert idx.read_bytes() == good
    assert sorted(idx.parent.iterdir()) == listing


def test_stale_temporary_file_does_not_block_build(alabar_files):
    # A killed build leaves INDEX.<pid>.tmp, and a later build can get the
    # same pid; it must write the index and leave that file alone.
    text, idx = alabar_files
    good = idx.read_bytes()
    idx.unlink()
    stale = f"{os.path.realpath(idx)}.{os.getpid()}.tmp"
    with open(stale, "wb") as fh:
        fh.write(b"CPMX from a killed build")
    listing = sorted(idx.parent.iterdir())
    assert cli.main(["build", str(text), "-o", str(idx)]) == 0
    assert idx.read_bytes() == good
    with open(idx, "rb") as fh:
        assert load_index(fh).text.n == 17
    with open(stale, "rb") as fh:
        assert fh.read() == b"CPMX from a killed build"
    assert sorted(idx.parent.iterdir()) == sorted([*listing, idx])


def test_build_writes_through_links_and_pipes(alabar_files, tmp_path):
    # The temporary file replaces a link's target, not the link; a pipe
    # cannot be replaced, so it is written in place.
    text, idx = alabar_files
    good = idx.read_bytes()
    target = tmp_path / "target.idx"
    target.write_bytes(b"old")
    link = tmp_path / "link.idx"
    link.symlink_to(target)
    assert cli.main(["build", str(text), "-o", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == good

    fifo = tmp_path / "pipe.idx"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True
    )
    reader.start()
    assert cli.main(["build", str(text), "-o", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [good]


def test_build_verbose(alabar_files, capsys):
    text, idx = alabar_files
    capsys.readouterr()
    args = ["build", str(text), "-o", str(idx)]
    assert cli.main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert cli.main(args + ["--verbose"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == [
        "load_text_s", "build_index_s", "save_index_s", "bwt_runs_s",
    ]


def test_build_is_deterministic(alabar_files, tmp_path):
    text, idx = alabar_files
    second = tmp_path / "again.idx"
    assert cli.main(["build", str(text), "-o", str(second)]) == 0
    assert idx.read_bytes() == second.read_bytes()


def test_build_failures(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    assert cli.main(["build", str(empty), "-o", str(tmp_path / "x.idx")]) == 3
    missing = tmp_path / "missing.txt"
    assert cli.main(["build", str(missing), "-o", str(tmp_path / "y.idx")]) == 3
    assert "error:" in capsys.readouterr().err
    # The temporary file cannot be made: the message names INDEX.
    text = tmp_path / "text.txt"
    text.write_bytes(b"abracadabra")
    index = tmp_path / "missing-dir" / "x.idx"
    assert cli.main(["build", str(text), "-o", str(index)]) == 3
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{index}'\n")


@pytest.mark.parametrize("command, failing", [
    ("build", "build_index"),
    ("build", "save_index"),
    ("query", "load_index"),
    ("bench", "load_index"),
    ("verify", "build_index"),
])
def test_out_of_memory_is_exit_3(alabar_files, tmp_path, capsys, monkeypatch,
                                 command, failing):
    # numpy reports a failed allocation as a MemoryError.  It is one line on
    # stderr with exit 3, not a traceback with exit 1, which means a
    # mismatch; a build leaves neither INDEX nor its temporary file.
    text, idx = alabar_files

    def out_of_memory(*args):
        for sink in args[1:]:  # save_index(ix, fh) fails part-way
            sink.write(b"CPMX partial")
        raise MemoryError

    monkeypatch.setattr(cli, failing, out_of_memory)
    args = {
        "build": ["build", str(text), "-o", str(tmp_path / "new.idx")],
        "query": ["query", str(idx), "--pattern", "a", "--context", "1"],
        "bench": ["bench", str(idx), "--random", "3", "--csv",
                  str(tmp_path / "bench.csv")],
        "verify": ["verify", str(text), "--queries", "3"],
    }[command]
    listing = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert cli.main(args) == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert sorted(tmp_path.iterdir()) == listing


def expected_tsv_rows(enumerate_positions=False):
    rows = []
    for c, ds, de, count, rep in alabar_data.A_ELL1_MATCHES:
        fields = [c, str(ds), str(de), str(count), str(rep)]
        if enumerate_positions:
            fields.append(
                ",".join(str(p) for p in alabar_data.A_ELL1_POSITIONS[c])
            )
        rows.append("\t".join(fields))
    return rows


def test_query_tsv(alabar_files, cafe_index, capsys):
    _, idx = alabar_files
    capsys.readouterr()
    assert cli.main(["query", str(idx), "--pattern", "a", "--context", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == expected_tsv_rows()
    # A pattern is the argument's bytes: "é" is C3 A9, not the byte E9.
    args = ["query", str(cafe_index), "--pattern", "é", "--context", "1"]
    assert cli.main(args) == 0
    assert capsys.readouterr() == ("f\\xc3\\xa9 \t13\t14\t2\t4\n", "")


def test_query_tsv_enumerate(alabar_files, capsys):
    _, idx = alabar_files
    capsys.readouterr()
    args = ["query", str(idx), "--pattern", "a", "--context", "1", "--enumerate"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == expected_tsv_rows(enumerate_positions=True)


def test_query_context_zero(alabar_files, capsys):
    _, idx = alabar_files
    capsys.readouterr()
    assert cli.main(["query", str(idx), "--pattern", "a", "--context", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1
    assert rows[0].split("\t")[:4] == ["a", "2", "9", "8"]


def test_query_json(alabar_files, capsys):
    _, idx = alabar_files
    capsys.readouterr()
    args = [
        "query", str(idx), "--pattern", "a", "--context", "1",
        "--format", "json", "--enumerate",
    ]
    assert cli.main(args) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records == [
        {
            "context": c, "ds": ds, "de": de, "count": count,
            "rep_position": rep,
            "positions": alabar_data.A_ELL1_POSITIONS[c],
        }
        for c, ds, de, count, rep in alabar_data.A_ELL1_MATCHES
    ]


def test_query_absent_pattern(alabar_files, capsys):
    _, idx = alabar_files
    capsys.readouterr()
    assert cli.main(["query", str(idx), "--pattern", "zz", "--context", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_query_stats(alabar_files, capsys):
    _, idx = alabar_files
    capsys.readouterr()
    args = ["query", str(idx), "--pattern", "a", "--context", "1"]
    assert cli.main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    for pattern in ("a", "zz"):
        args[3] = pattern
        assert cli.main(args + ["--stats"]) == 0
        captured = capsys.readouterr()
        if pattern == "a":
            assert captured.out == plain.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert list(record) == [
            "rmq_calls", "psv_calls", "nsv_calls", "sa_accesses", "contexts", "wall_s",
            "load_s",
        ]
        assert record["load_s"] > 0
        if pattern == "a":  # the README's example
            del record["wall_s"], record["load_s"]
            assert record == {
                "rmq_calls": 9, "psv_calls": 0, "nsv_calls": 2, "sa_accesses": 26,
                "contexts": 6,
            }


def test_json_lines_once_with_root_logging(alabar_files, capsys):
    # An embedding program that configured the root logger still gets one
    # line from each command, not a second copy through the root handler.
    text, idx = alabar_files
    root = logging.getLogger()
    saved = root.handlers[:]
    root.handlers.clear()
    try:
        logging.basicConfig()
        capsys.readouterr()
        for args in (
            ["query", str(idx), "--pattern", "a", "--context", "1", "--stats"],
            ["build", str(text), "-o", str(idx), "--verbose"],
        ):
            assert cli.main(args) == 0
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            json.loads(lines[0])
    finally:
        root.handlers[:] = saved


def test_json_lines_survive_disabled_logging(alabar_files, capsys):
    # An embedding program that silenced logging still gets the documented
    # stderr line from each command.
    text, idx = alabar_files
    logging.disable(logging.INFO)
    try:
        capsys.readouterr()
        for args in (
            ["query", str(idx), "--pattern", "a", "--context", "1", "--stats"],
            ["build", str(text), "-o", str(idx), "--verbose"],
        ):
            assert cli.main(args) == 0
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            json.loads(lines[0])
    finally:
        logging.disable(logging.NOTSET)


def test_query_strategies_identical_bytes(alabar_files, capsys):
    _, idx = alabar_files
    outputs = []
    for strategy in ("psv-nsv", "cmin"):
        capsys.readouterr()
        args = [
            "query", str(idx), "--pattern", "la", "--context", "2",
            "--enumerate", "--strategy", strategy,
        ]
        assert cli.main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_query_usage_errors(alabar_files, capsys):
    _, idx = alabar_files
    base = ["query", str(idx)]
    capsys.readouterr()
    for pattern, ell, message in (
        ("a", "-1", "context length must be >= 0"),
        (r"\q", "1", r"bad escape at offset 0: '\\q'"),
        # The bytes after a bad escape are quoted as the UTF-8 they are.
        ("\\q\u00e9", "1", r"bad escape at offset 0: '\\qé'"),
        ("", "1", "pattern must be nonempty"),
    ):
        assert cli.main(base + ["--pattern", pattern, "--context", ell]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_context_longer_than_text_is_usage_error(alabar_files, capsys):
    # The README reserves exit 1 for a verification mismatch; a huge ell
    # must not end in an OverflowError traceback or build huge contexts.
    _, idx = alabar_files
    base = ["query", str(idx), "--pattern", "a", "--context"]
    for ell in ("18", "99999999999999999999"):
        capsys.readouterr()
        assert cli.main(base + [ell]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: context length {ell} exceeds the text length 17\n"
        )
        assert captured.out == ""
    assert cli.main(base + ["17"]) == 0
    # At ell = n every occurrence of "a" has a context of its own.
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_query_io_errors(tmp_path, capsys):
    bogus = tmp_path / "bogus.idx"
    bogus.write_bytes(b"not an index at all")
    assert cli.main(["query", str(bogus), "--pattern", "a", "--context", "1"]) == 3
    gone = tmp_path / "gone.idx"
    assert cli.main(["query", str(gone), "--pattern", "a", "--context", "1"]) == 3
    capsys.readouterr()


def test_verify_ok(alabar_files, capsys):
    text, _ = alabar_files
    args = ["verify", str(text), "--queries", "100", "--seed", "42"]
    assert cli.main(args) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_huge_ell(alabar_files, capsys):
    # ell = n = 17, the largest accepted, runs contexts past both text ends.
    text, _ = alabar_files
    args = [
        "verify", str(text), "--queries", "40", "--seed", "7",
        "--max-ell", "17",
    ]
    assert cli.main(args) == 0
    capsys.readouterr()


def test_verify_max_ell_longer_than_text_is_usage_error(alabar_files, capsys):
    # A huge --max-ell would sample contexts of 2 * ell symbols and never
    # end; it is refused before the index is built.
    text, _ = alabar_files
    base = ["verify", str(text), "--queries", "20", "--max-ell"]
    for ell in ("18", "99999999999999999999"):
        assert cli.main(base + [ell]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: context length {ell} exceeds the text length 17\n"
        )
        assert "verified" not in captured.out


def test_verify_catches_broken_oracle(alabar_files, capsys, monkeypatch):
    # Forced failure path: a deliberately wrong ground truth must trip the
    # mismatch report, proving verify can actually fail.
    text, _ = alabar_files
    monkeypatch.setattr(cli, "oracle_contexts", lambda t, p, ell: {})
    args = ["verify", str(text), "--queries", "50", "--seed", "42"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "mismatch" in err
    assert "ell=" in err


def test_bench_random(alabar_files, tmp_path, capsys):
    _, idx = alabar_files
    out_csv = tmp_path / "bench.csv"
    args = [
        "bench", str(idx), "--random", "30", "--seed", "5",
        "--csv", str(out_csv),
    ]
    assert cli.main(args) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "m", "ell", "c", "occ", "wall_s",
        "rmq_calls", "psv_calls", "nsv_calls", "sa_accesses",
        "r", "r_rev", "r_max", "n", "load_s",
    ]
    assert len(rows) == 31
    for row in rows[1:]:
        assert len(row) == 14
        assert float(row[13]) > 0 and row[13] == rows[1][13]
        m, ell, c, occ = map(int, row[:4])
        rmq, psv, nsv, sa_accesses = map(int, row[5:9])
        assert occ >= c >= 0
        assert rmq <= 6 * c + 8
        assert rmq + psv + nsv <= 6 * c + 8
        assert sa_accesses >= 1
        assert int(row[12]) == 17
    capsys.readouterr()


def test_bench_strategy(alabar_files, tmp_path, capsys):
    _, idx = alabar_files
    rows = {}
    for strategy in ("psv-nsv", "cmin"):
        out_csv = tmp_path / f"{strategy}.csv"
        args = [
            "bench", str(idx), "--random", "30", "--seed", "5",
            "--strategy", strategy, "--csv", str(out_csv),
        ]
        assert cli.main(args) == 0
        with open(out_csv, newline="") as fh:
            rows[strategy] = list(csv.reader(fh))[1:]
    # Same queries and answers; only cmin skips the threshold scans.
    assert [r[:4] for r in rows["cmin"]] == [r[:4] for r in rows["psv-nsv"]]
    assert all(r[6:8] == ["0", "0"] for r in rows["cmin"])
    assert any(r[7] != "0" for r in rows["psv-nsv"])
    capsys.readouterr()


def test_bench_pattern_file(alabar_files, cafe_index, tmp_path, capsys):
    _, idx = alabar_files
    pats = tmp_path / "patterns.txt"
    pats.write_bytes(b"# comment\nala\t2\nbar\t0\nzz\t1\n# tab\tcomment\nlab\t1\r\n")
    out_csv = tmp_path / "bench.csv"
    args = ["bench", str(idx), "--patterns", str(pats), "--csv", str(out_csv)]
    assert cli.main(args) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == ["3", "3", "3"]  # zz has no codes
    assert [row[1] for row in rows[1:]] == ["2", "0", "1"]
    # A pattern is the line's bytes: UTF-8 "é" is C3 A9, and a line that
    # is not UTF-8 is a pattern too (the byte E9, absent from the text).
    pats.write_bytes("é\t1\n".encode("utf-8") + b"\xe9\t1\n")
    args[1] = str(cafe_index)
    assert cli.main(args) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:4] for row in rows[1:]] == [["2", "1", "1", "2"]]
    # An empty --patterns path names no file; it is not --random.
    out_csv.unlink()
    capsys.readouterr()
    assert cli.main(args[:2] + ["--patterns", ""] + args[4:]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_csv.exists()
    # A bad escape is quoted as the UTF-8 bytes the line holds.
    pats.write_bytes("\\q\u00e9\t1\n".encode("utf-8"))
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"{pats}:1: bad escape at offset 0: '\\\\qé'\n"


@pytest.mark.parametrize(
    "bad_line",
    [
        "ala\\x4\t2",  # truncated escape
        "ala\\xzz\t2",  # non-hex escape
        "ala\t-1",  # negative ell
        "ala\ttwo",  # ell not an integer
        "ala 2",  # no tab
        "\t2",  # empty pattern
        "ala\t18",  # ell longer than the text
        "ala\t99999999999999999999",
    ],
)
def test_bench_pattern_file_errors(alabar_files, tmp_path, capsys, bad_line):
    _, idx = alabar_files
    pats = tmp_path / "patterns.txt"
    pats.write_text(f"# comment\nala\t2\n{bad_line}\nbar\t0\n")
    out_csv = tmp_path / "bench.csv"
    capsys.readouterr()
    args = ["bench", str(idx), "--patterns", str(pats), "--csv", str(out_csv)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{pats}:3: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("command", [
    ["verify", "TEXT", "--max-ell", "-1"],
    ["verify", "TEXT", "--queries", "-3"],
    ["bench", "INDEX", "--random", "-2", "--csv", "OUT"],
])
def test_negative_counts_are_usage_errors(alabar_files, tmp_path, capsys, command):
    text, idx = alabar_files
    out_csv = tmp_path / "out.csv"
    paths = {"TEXT": str(text), "INDEX": str(idx), "OUT": str(out_csv)}
    message = {
        "verify": "--queries and --max-ell must be >= 0",
        "bench": "--random must be >= 0",
    }[command[0]]
    capsys.readouterr()
    assert cli.main([paths.get(arg, arg) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_csv.exists()


def test_gen_corpus_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    base_args = ["gen-corpus", "--base", "64", "--copies", "3",
                 "--mut-rate", "0.05", "--seed", "11"]
    assert cli.main(base_args + ["-o", str(a)]) == 0
    assert cli.main(base_args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) == 64 * 4
    capsys.readouterr()


def test_gen_corpus_validation(tmp_path, capsys):
    args = ["gen-corpus", "--base", "10", "--copies", "1",
            "--mut-rate", "1.5", "--seed", "1", "-o", str(tmp_path / "x")]
    assert cli.main(args) == 2
    assert capsys.readouterr() == ("", "error: mutation rate must lie in [0, 1]\n")


def test_gen_corpus_roundtrip_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    idx = tmp_path / "corpus.idx"
    assert cli.main(["gen-corpus", "--base", "60", "--copies", "4",
                     "--mut-rate", "0.1", "--seed", "3", "-o", str(corpus)]) == 0
    assert cli.main(["build", str(corpus), "-o", str(idx)]) == 0
    assert cli.main(["verify", str(corpus), "--queries", "40",
                     "--seed", "2", "--max-ell", "10"]) == 0
    capsys.readouterr()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abracadabra")
    idx = tmp_path / "t.idx"
    proc = subprocess.run(
        [sys.executable, "-m", "cpmatch", "build", str(text), "-o", str(idx)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n=12 ")
