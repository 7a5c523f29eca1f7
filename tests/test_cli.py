import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from heckechar.cli import main
from heckechar.characters import (
    ALGORITHMS, char_table, clear_caches, dumps_table, load_table,
    loads_table,
)
from heckechar.laurent import ONE
from heckechar.partitions import format_partition
from heckechar.verify import run_suites

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_plain(capsys):
    code, out, _ = run(capsys, "char", "--lambda", "4,2", "--mu", "3,2,1",
                       "--algorithm", "two_row", "--format", "plain")
    assert code == 0
    assert out.strip() == "q + -3*q^2 + 2*q^3"


def test_char_latex(capsys):
    code, out, _ = run(capsys, "char", "--lambda", "4,2", "--mu", "3,2,1",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == "2q^{3}-3q^{2}+q"


def test_char_json(capsys):
    code, out, _ = run(capsys, "char", "--lambda", "3,2,1", "--mu", "2,2,1,1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"lambda": [3, 2, 1], "mu": [2, 2, 1, 1],
                   "algorithm": "mn", "poly": [[0, "4"], [1, "-8"], [2, "4"]]}


def test_char_empty_partition(capsys):
    code, out, _ = run(capsys, "char", "--lambda", "-", "--mu", "-")
    assert code == 0
    assert out.strip() == "1"


def test_char_weight_mismatch_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "--lambda", "2", "--mu", "1,1,1"])
    assert exc.value.code == 2
    assert "weight mismatch" in capsys.readouterr().err


def test_char_bad_partition_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "--lambda", "1,2", "--mu", "2,1"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    for argv in (["char", "--lambda", "2", "--mu", "2", "--frobnicate"],
                 ["table", "--n", "3", "--jobs", "2"],
                 ["verify", "--n-max", "0"],
                 ["verify", "--n-max", "-3"],
                 ["bench", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "json")
    assert code == 0
    table = loads_table(out)
    assert dumps_table(table) == out
    assert table.n == 3
    assert len(table.entries) == 9


def test_table_cache_file_reads_back_byte_for_byte(capsys, tmp_path):
    # the file writer and the file reader at n = 12, where the default
    # table holds 77 * 77 entries
    path = tmp_path / "t12.json"
    code, _, _ = run(capsys, "table", "--n", "12", "--cache", str(path))
    assert code == 0
    assert dumps_table(load_table(path)).encode() == path.read_bytes()


def test_table_plain(capsys):
    code, out, _ = run(capsys, "table", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["2\t2\tq", "2\t1,1\t1", "1,1\t2\t-1", "1,1\t1,1\t1"]


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--format", "latex")
    assert code == 0
    assert "\\chi^{(2)}_{(2)}(q) = q" in out


def test_table_cache_flag(tmp_path, capsys):
    path = tmp_path / "t3.json"
    code, out, err = run(capsys, "table", "--n", "3", "--cache", str(path))
    assert code == 0
    assert out == ""
    assert re.fullmatch(rf"wrote 9 entries to {re.escape(str(path))} "
                        r"\(fill \d+\.\d{3} s, write \d+\.\d{3} s\)\n", err)
    assert path.read_text() == dumps_table(char_table(3))


def test_table_ignores_cache_env(tmp_path, capsys, monkeypatch):
    # the file is written only where --cache names it
    env_path = tmp_path / "env.json"
    monkeypatch.setenv("HECKECHAR_CACHE", str(env_path))
    code, out, _ = run(capsys, "table", "--n", "2", "--format", "json")
    assert code == 0
    assert out == dumps_table(char_table(2))
    assert not env_path.exists()


@pytest.mark.parametrize("where", ["missing/t.json", ".", None],
                         ids=["missing-directory", "a-directory", "empty"])
def test_table_cache_path_checked_before_fill(tmp_path, capsys, monkeypatch,
                                              where):
    # a cache path that cannot be written is a usage error, caught before
    # the row generator is even called
    filled = []
    monkeypatch.setattr("heckechar.cli.table_rows",
                        lambda *args: filled.append(args) or iter(()))
    path = "" if where is None else str(tmp_path / where)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "14", "--cache", path])
    assert exc.value.code == 2
    assert filled == []
    out = capsys.readouterr()
    assert out.out == ""
    assert "cache path" in out.err


@pytest.mark.parametrize("fmt", ["plain", "latex"])
def test_table_cache_refuses_a_text_format(tmp_path, capsys, monkeypatch,
                                           fmt):
    # --cache writes JSON: another --format is a usage error, caught
    # before the row generator is even called, and no file is written
    filled = []
    monkeypatch.setattr("heckechar.cli.table_rows",
                        lambda *args: filled.append(args) or iter(()))
    path = tmp_path / "t.json"
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "3", "--format", fmt, "--cache", str(path)])
    assert exc.value.code == 2
    assert filled == []
    assert list(tmp_path.iterdir()) == []
    # the patched name is the one the command calls
    run(capsys, "table", "--n", "3", "--format", "json")
    assert filled == [(3, "mn")]
    monkeypatch.undo()
    # --format json names the format --cache writes, byte for byte
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "json",
                       "--cache", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == dumps_table(char_table(3))


STREAMED_ROUTES = ("auto", "mn", "strips", "det", "iterative", "oracle",
                   "gen_sn", "gen_newton")


@pytest.mark.parametrize("algorithm, n", [
    (algorithm, n) for algorithm in STREAMED_ROUTES for n in range(8)] + [
    ("mn", 12)])
def test_streamed_table_is_the_filled_table(tmp_path, capsys, algorithm, n):
    # the CLI writes each row as it comes, never a CharTable; the file
    # and stdout are the bytes of the filled table all the same
    want = dumps_table(char_table(n, algorithm))
    path = tmp_path / "t.json"
    code, out, _ = run(capsys, "table", "--n", str(n), "--algorithm",
                       algorithm, "--cache", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == want
    code, out, _ = run(capsys, "table", "--n", str(n), "--algorithm",
                       algorithm, "--format", "json")
    assert code == 0 and out == want


@pytest.mark.parametrize("n", [0, 1, 5, 7])
def test_streamed_text_lines_are_the_entries(capsys, n):
    # plain and latex print one line per entry of char_table(n), in order
    entries = char_table(n).entries.items()
    code, out, _ = run(capsys, "table", "--n", str(n))
    assert code == 0
    assert out.splitlines() == [
        f"{format_partition(lam)}\t{format_partition(mu)}\t{poly.format('q')}"
        for (lam, mu), poly in entries]
    code, out, _ = run(capsys, "table", "--n", str(n), "--format", "latex")
    assert code == 0
    assert out.splitlines() == [
        f"\\chi^{{({format_partition(lam)})}}"
        f"_{{({format_partition(mu)})}}(q) = {poly.latex('q')}"
        for (lam, mu), poly in entries]


BROKEN_SEAM = """
import sys
from heckechar import characters
from heckechar.cli import console_main

right = characters._mn_rows

def broken(n, bits):
    packed = right(n, bits)
    # one more at q^0 of mu = (4,), the last slot, in the row of (3, 1),
    # which is mirrored into (2, 1, 1), the fourth of the five rows
    return lambda lam: packed(lam) + (
        1 << bits * n * 4 if lam == (3, 1) else 0)

characters._mn_rows = broken
sys.argv = ["heckechar"] + sys.argv[1:]
console_main()
"""


def test_mirror_failure_mid_stream_keeps_the_old_file(tmp_path):
    # three rows are written before the probe at (2, 1, 1) fails; the
    # process exits non-zero and the file it was to replace is untouched
    path = tmp_path / "t4.json"
    path.write_bytes(b"old bytes")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", BROKEN_SEAM, "table", "--n", "4", "--cache",
         str(path)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "ExactnessError" in done.stderr
    assert "lambda=(2, 1, 1), mu=(4,)" in done.stderr
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["t4.json"]


def test_bitrace_command(capsys):
    code, out, _ = run(capsys, "bitrace", "--lambda", "2", "--mu", "1,1")
    assert code == 0
    assert out.strip() == "-1 + q"
    code, out, _ = run(capsys, "bitrace", "--lambda", "2", "--mu", "2",
                       "--method", "char_sum")
    assert code == 0
    assert out.strip() == "1 + q^2"


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--suites", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["golden: pass", "cross: pass", "classical: pass",
                     "apps: pass", "tables: pass"]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--suites", "golden")
    assert code == 0
    assert out.strip() == "golden: pass"


def test_verify_unknown_suite_exits_2(capsys):
    # an empty selection would run nothing and pass
    for suites in ("bogus", "", " , "):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suites", suites])
        assert exc.value.code == 2, suites


@pytest.fixture
def broken_strips_route(monkeypatch):
    """Make the "strips" route off by one, with no stale memo either side."""
    original = ALGORITHMS["strips"]
    monkeypatch.setitem(ALGORITHMS, "strips",
                        lambda lam, mu: original(lam, mu) + ONE)
    clear_caches()
    yield
    monkeypatch.undo()
    clear_caches()


def test_verify_reports_counterexample(capsys, broken_strips_route):
    failures = run_suites(("cross",), 2)["cross"]
    assert {"check": "algorithm_agreement", "lam": [2], "mu": [1, 1],
            "algorithm": "strips", "got": "2", "expected": "1"} in failures
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--suites",
                       "golden,cross")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "golden: pass"
    assert lines[1].startswith("cross: FAIL")
    report = json.loads(lines[2])
    assert report["ok"] is False and report["n_max"] == 2
    assert report["suites"]["golden"] == []
    assert report["suites"]["cross"] == failures

