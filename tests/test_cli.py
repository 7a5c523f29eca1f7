import json

import pytest

from heckechar.cli import main
from heckechar.characters import (
    ALGORITHMS, char_table, clear_caches, dumps_table, loads_table,
)
from heckechar.laurent import ONE
from heckechar.verify import suite_cross


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
                 ["bench", "--n", "-1"],
                 ["bench", "--n", "3", "--algorithms", ","],
                 ["bench", "--n", "3", "--repetitions", "-5"]):
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
    assert "9 entries" in err
    table = loads_table(path.read_text())
    assert table.entries == char_table(3).entries


def test_table_cache_env(tmp_path, capsys, monkeypatch):
    env_path = tmp_path / "env.json"
    flag_path = tmp_path / "flag.json"
    monkeypatch.setenv("HECKECHAR_CACHE", str(env_path))
    code, _, _ = run(capsys, "table", "--n", "2")
    assert code == 0 and env_path.exists()
    # the explicit flag wins over the environment
    code, _, _ = run(capsys, "table", "--n", "2", "--cache", str(flag_path))
    assert code == 0 and flag_path.exists()
    assert flag_path.read_text() == env_path.read_text()


@pytest.mark.parametrize("where", ["missing/t.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_table_cache_path_checked_before_fill(tmp_path, capsys, monkeypatch,
                                              where):
    # a cache path that cannot be written is a usage error, caught before
    # the table is filled
    filled = []
    monkeypatch.setattr("heckechar.cli.char_table",
                        lambda *args, **kwargs: filled.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "14", "--cache", str(tmp_path / where)])
    assert exc.value.code == 2
    assert filled == []
    assert "cache path" in capsys.readouterr().err


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
                     "apps: pass"]


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
    failures = suite_cross(2)
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


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--n", "2",
                       "--algorithms", "mn,strips", "--repetitions", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("mn\t") and lines[0].endswith("s")
    assert lines[1].startswith("strips\t")
