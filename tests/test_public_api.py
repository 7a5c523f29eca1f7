"""The public boundary: ``heckechar.__all__`` holds the documented API,
and every callable in it raises ValueError for malformed input, also
right after a good call has filled its memos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckechar
from heckechar.characters import CharTable

PUBLIC = sorted("""
    ALGORITHM_NAMES ExactnessError LaurentPoly bitrace bitrace_via_gram
    char_table character classical_character clear_caches conjugate
    dumps_table format_partition hook_weights load_table loads_table
    memo_stats newton_coeffs pairing_polynomial parse_composition parse_partition
    partitions_of save_table strip_removals supercharacter_hooks
    supercharacter_hooks_explicit supercharacter_two_rows
    supercharacter_two_rows_explicit two_row_cumulative two_row_weights
""".split())

# malformed values of each kind of argument; a file path is not varied,
# it keeps the operating system's own errors
BAD = {
    # bytes, a mapping and a set are iterable, but only a tuple or a list
    # is read as parts
    "partition": [True, 1.0, None, "3", (2, 3), (1.0,), (True,), (0,),
                  (-1,), [[1]], b"\x02\x01", {2: "a", 1: "b"}, {1}],
    "composition": [True, 1.0, None, "3", (1.0,), (True, 2), (-1,),
                    ((1,),), b"\x01\x02", {1: None, 2: None}, {1, 2}],
    "degree": [True, 1.0, None, "3", -1],
    "strip size": [True, 1.0, None, "3"],
    "terms": [None, True, 1.0, "3", [(0, 1)], {None: 1}, {1.0: 1},
              {True: 1}, {0: 1.0}, {0: True}, {0: "1"}, {0: None}],
    "text": [None, True, 1.0, 3, ("3",), "x", "1.0", "-1", "1,,2"],
    # CharTable(n=2) is a table object whose entries miss every pair; the
    # two of degree 1 hold an int value and an int tag
    "table": [None, True, 1.0, "3", {}, {"n": 1, "entries": {}},
              CharTable(n=2), CharTable(1, {((1,), (1,)): 5}),
              CharTable(1, {((1,), (1,)): heckechar.LaurentPoly({0: 1})},
                        7)],
    "name": [None, True, 1.0, "3", "MN", ("mn",)],
}


def _signatures(tmp_path):
    """Each public callable's good arguments, each with its kind.  The
    degrees are 1 where a memo is keyed on them, so True and 1.0 would
    hit it if they got that far."""
    table = heckechar.char_table(2)
    path = str(tmp_path / "t2.json")
    heckechar.save_table(table, path)
    pair = [("composition", (2, 1)), ("composition", (1, 2))]
    index = [("partition", (2, 1)), ("composition", (1, 2))]
    return {
        "LaurentPoly": [("terms", {0: 1, -1: 2})],
        "bitrace": pair + [("name", "char_sum")],
        "bitrace_via_gram": pair,
        "char_table": [("degree", 1), ("name", "strips")],
        "character": index + [("name", "mn")],
        "classical_character": index,
        "clear_caches": [],
        "conjugate": [("partition", (2, 1))],
        "dumps_table": [("table", table)],
        "format_partition": [("composition", (2, 0, 1))],
        "hook_weights": [("composition", (1, 2))],
        "load_table": [("path", path)],
        "loads_table": [("text", heckechar.dumps_table(table))],
        "memo_stats": [],
        "newton_coeffs": [("degree", 1)],
        "pairing_polynomial": index + [("name", "det")],
        "parse_composition": [("text", "1,0,2")],
        "parse_partition": [("text", "2,1")],
        "partitions_of": [("degree", 1)],
        "save_table": [("table", table), ("path", path)],
        "strip_removals": [("partition", (2, 1)), ("strip size", 1)],
        "supercharacter_hooks": [("composition", (1, 2))],
        "supercharacter_hooks_explicit": [("composition", (1, 2))],
        "supercharacter_two_rows": [("composition", (1, 2))],
        "supercharacter_two_rows_explicit": [("composition", (1, 2))],
        "two_row_cumulative": [("composition", (1, 2))],
        "two_row_weights": [("composition", (1, 2))],
    }


def test_all_is_the_documented_boundary():
    assert sorted(heckechar.__all__) == PUBLIC
    namespace = {}
    exec("from heckechar import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_every_public_callable_rejects_malformed_input(tmp_path):
    signatures = _signatures(tmp_path)
    assert sorted(signatures) == [
        name for name in PUBLIC
        if callable(getattr(heckechar, name)) and name != "ExactnessError"]
    wrong = []
    for name, params in signatures.items():
        fn = getattr(heckechar, name)
        good = [value for _, value in params]
        fn(*good)
        for i, (kind, _) in enumerate(params):
            for bad in BAD.get(kind, ()):
                args = good[:i] + [bad] + good[i + 1:]
                try:
                    got = fn(*args)
                except ValueError:
                    continue
                except Exception as exc:  # the wrong error is a failure too
                    got = exc
                wrong.append(f"{name}{tuple(args)!r} -> {got!r}")
    assert not wrong, "\n".join(wrong)


def test_laurent_constants_are_ints():
    # int arithmetic on a polynomial makes its constant through const, and
    # a product scales by an int; a bool or a float is not an int there,
    # as in the constructor, so True is not read as 1 nor False as 0; a
    # divisor is an int or a polynomial, nothing else
    p = heckechar.LaurentPoly({0: 1, -1: 2})
    assert heckechar.LaurentPoly.const(3) == p - p + 3
    assert p * 3 == 3 * p == heckechar.LaurentPoly({0: 3, -1: 6})
    for bad in (True, False, 1.0, 0.0, None, "1", (1,)):
        with pytest.raises(ValueError):
            heckechar.LaurentPoly.const(bad)
    for op in (lambda: p + True, lambda: True + p, lambda: p - False,
               lambda: True - p, lambda: p.divexact(True),
               lambda: p * True, lambda: True * p, lambda: p * False,
               lambda: False * p, lambda: p.divexact(1.0),
               lambda: p.divexact(None), lambda: p.divexact("1")):
        with pytest.raises(ValueError):
            op()


def test_laurent_exponents_and_terms_are_ints():
    # a power, a shift, a monomial and a coefficient lookup take int
    # exponents and coefficients only: T ** False is not ONE,
    # T.shift(True) is not t^2, T.coeff(True) is not the coefficient of
    # t^1, and no bool is stored as a term
    T, ONE = heckechar.laurent.T, heckechar.laurent.ONE
    monomial = heckechar.laurent.monomial
    assert T ** 0 == ONE and T ** 2 == T.shift(1) == T * T == monomial(1, 2)
    assert T.shift(0) is T and monomial(0, 3).is_zero()
    assert T.coeff(1) == 1 and T.coeff(0) == 0
    for bad in (True, False, 1.0, None, "1"):
        for op in (lambda: T ** bad, lambda: T.shift(bad),
                   lambda: monomial(bad, 1), lambda: monomial(1, bad),
                   lambda: T.coeff(bad)):
            with pytest.raises(ValueError):
                op()


def test_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast and dis; a plain CharTable keeps
    # the package's cold start clear of them
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, heckechar; "
         "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & "
         "set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_char_table_compares_like_a_dataclass():
    # equal field by field, repr of the three fields, and no hash
    a = CharTable(2)
    assert a.entries == {} and a.algorithm == "unknown"
    assert CharTable(2).entries is not a.entries
    one = {((1,), (1,)): heckechar.LaurentPoly({0: 1})}
    b = CharTable(1, one, "mn")
    assert b == CharTable(n=1, entries=dict(one), algorithm="mn")
    assert b != CharTable(1, one) and b != CharTable(2, one, "mn")
    assert b != CharTable(1, {}, "mn")
    assert (b == (1, one, "mn")) is False
    assert b.__eq__((1, one, "mn")) is NotImplemented
    assert repr(a) == "CharTable(n=2, entries={}, algorithm='unknown')"
    assert repr(b) == ("CharTable(n=1, entries={((1,), (1,)): "
                       "LaurentPoly<1>}, algorithm='mn')")
    with pytest.raises(TypeError):
        hash(a)
    # the same values on another route make another table: the tag differs
    mn, strips = heckechar.char_table(3), heckechar.char_table(3, "strips")
    assert mn == heckechar.char_table(3) and mn.entries == strips.entries
    assert mn != strips
