"""Acceptance gate: every exit criterion, at its stated bound, exactly.

The identities live in one place, :mod:`heckechar.verify`; each criterion
runs its checks there at ``n_max=8`` and fails with the JSON failure
report, which names the check, the indices and the route.  Each test
prints one pass line (run ``pytest -s`` to see them).
"""

import json
import time

import pytest

from heckechar import applications, characters, schur, verify
from heckechar.characters import ALGORITHMS
from heckechar.laurent import ONE, T, ExactnessError, RationalFn
from heckechar.partitions import clear_caches, partitions_of

N_MAX = 8


def _gate(num, label, check, limit=None):
    start = time.perf_counter()
    failures = check(N_MAX)
    elapsed = time.perf_counter() - start
    assert not failures, "\n".join(json.dumps(f) for f in failures)
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s"
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_golden_paper_values():
    _gate(1, "golden paper values, exact, <1s", verify.suite_golden,
          limit=1.0)


def test_criterion_2_closed_form_laws():
    # the one-row and one-column laws are the closed forms criterion 5
    # compares with the recursion
    _gate(2, "columns 1^n and (n) in closed form, n <= 8",
          verify.check_special_columns)


def test_criterion_3_cross_algorithm_agreement():
    _gate(3, "seven algorithms agree n<=8, <60s",
          verify.check_agreement, limit=60.0)


def test_criterion_4_classical_specialization():
    _gate(4, "q=1 table equals the classical characters, whose columns "
          "are orthogonal, n <= 8",
          lambda n: (verify.check_q1(n)
                     + verify.check_classical_orthogonality(n)))


def test_criterion_5_hook_two_row_consistency():
    _gate(5, "one-row, one-column, hook and two-row closed forms and the "
          "two-row sum match the recursion, n <= 8",
          verify.check_closed_forms)


def test_criterion_6_supercharacter_identities():
    _gate(6, "supercharacter closed forms equal explicit sums, n <= 7",
          verify.check_supercharacters)


def test_criterion_7_bitrace():
    _gate(7, "bitrace methods agree, q=1 orthogonality, symmetry, <120s",
          verify.check_bitrace, limit=120.0)


def test_criterion_8_property_suites():
    _gate(8, "weight-sequence, border-strip and bracket identities",
          verify.check_identities)


def test_criterion_9_integrity_of_exact_conversions():
    # negative controls: the guards actually fire.  The det route and the
    # matrix bitraces convert exactly along the way, and the three
    # power-sum routes (oracle, gen_sn, gen_newton) sum over one
    # denominator fixed in advance and end in a single exact division;
    # they run under criteria 3 and 7, where any inexact step raises.
    # gen_sn and gen_newton form that sum as ints packed at q = 2^bits and
    # divide it once as an int, checked for a remainder and for a quotient
    # over chi's L1 bound, so a wrong packed constant or sum raises there
    # too (test_reduction_packed_constant_off_by_one_is_caught,
    # test_reduction_quotient_checks_fire).
    with pytest.raises(ExactnessError):
        RationalFn(ONE, ONE - T).to_laurent()
    with pytest.raises(ExactnessError):
        (T - ONE).divexact((T - ONE) * 2)
    print("criterion 9 (the exactness guards fire on inexact input): PASS")


def test_criterion_10_conjugation_duality():
    _gate(10, "chi^lam'_mu(q) = (-q)^(n-len(mu)) chi^lam_mu(1/q), n <= 8",
          verify.check_conjugation_duality)


def test_criterion_11_route_tables():
    _gate(11, "gen_newton, strips and gen_sn whole tables equal the "
          "default table, n <= 8", verify.check_tables)


def test_expect_reports_both_values_in_the_named_variable():
    # every check reports through _expect: a match appends nothing, and a
    # mismatch names the indices (tuples as lists) and both values, a
    # polynomial printed in the variable the check names
    failures = []
    assert verify._expect(failures, "same", ONE, ONE, mu=(2, 1))
    assert not verify._expect(failures, "poly", T, ONE, var="t", mu=(2, 1))
    assert not verify._expect(failures, "ints", 3, 2, rho=(1, 1))
    assert failures == [
        {"check": "poly", "mu": [2, 1], "got": "t", "expected": "1"},
        {"check": "ints", "rho": [1, 1], "got": 3, "expected": 2}]


def test_route_tables_name_a_broken_computed_value(monkeypatch):
    # negative control: one wrong value of the strips route in a row its
    # table computes, away from the column (4) where the mirror probe
    # fires, reaches that row and its mirror, and the check names both
    right = ALGORITHMS["strips"]

    def broken(lam, mu):
        value = right(lam, mu)
        return value + ONE if (lam, mu) == ((3, 1), (2, 2)) else value

    monkeypatch.setitem(ALGORITHMS, "strips", broken)
    failures = verify.check_tables(4)
    assert {(f["check"], tuple(f["lam"]), tuple(f["mu"]), f["algorithm"])
            for f in failures} == {
        ("whole_table", (3, 1), (2, 2), "strips"),
        ("whole_table", (2, 1, 1), (2, 2), "strips")}


def test_conjugation_duality_names_a_broken_entry(monkeypatch):
    # negative control: one wrong value of the mn route breaks the
    # duality at that row and at its conjugate, and the check names both
    mn = ALGORITHMS["mn"]

    def broken(lam, mu):
        value = mn(lam, mu)
        return value + ONE if (lam, mu) == ((3, 1), (2, 2)) else value

    monkeypatch.setitem(ALGORITHMS, "mn", broken)
    found = {(tuple(f["lam"]), tuple(f["mu"]))
             for f in verify.check_conjugation_duality(4)}
    assert found == {((3, 1), (2, 2)), ((2, 1, 1), (2, 2))}


def test_table_agreement_names_a_broken_row_value(monkeypatch):
    # negative control: one wrong value in a row the default table fills
    # a row at a time, away from the column (4) that the duality probe
    # checks, reaches that row and its mirror, and the check names both
    right = characters._mn_rows

    def broken(n, bits):
        packed = right(n, bits)

        def row(lam):
            v = packed(lam)
            if lam == (3, 1):
                # one more at q^0 of the packed row's slot for mu = (2, 2)
                parts = partitions_of(4)
                v += 1 << bits * 4 * (len(parts) - 1 - parts.index((2, 2)))
            return v
        return row

    monkeypatch.setattr(characters, "_mn_rows", broken)
    failures = verify.check_agreement(4)
    assert {(f["check"], tuple(f["lam"]), tuple(f["mu"]), f["algorithm"])
            for f in failures} == {
        ("table_agreement", (3, 1), (2, 2), "mn"),
        ("table_agreement", (2, 1, 1), (2, 2), "mn")}


def test_closed_forms_name_a_broken_one_column_value(monkeypatch):
    # negative control: one wrong value of the one_column route is named
    # with its indices, and nothing else fails
    right = ALGORITHMS["one_column"]

    def broken(lam, mu):
        value = right(lam, mu)
        return value + ONE if (lam, mu) == ((1, 1, 1, 1), (2, 2)) else value

    monkeypatch.setitem(ALGORITHMS, "one_column", broken)
    assert verify.check_closed_forms(4) == [
        {"check": "one_column_vs_mn", "lam": [1, 1, 1, 1], "mu": [2, 2],
         "got": "2", "expected": "1"}]


def test_classical_orthogonality_names_a_broken_value(monkeypatch):
    # negative control: one wrong classical value chi^(2,1)(1^3) breaks
    # the norm of the column (1^3) and its product with the column (3)
    right = schur._classical_mn

    def broken(lam, rho):
        value = right(lam, rho)
        return value + 1 if (lam, rho) == ((2, 1), (1, 1, 1)) else value

    clear_caches()
    monkeypatch.setattr(schur, "_classical_mn", broken)
    try:
        failures = verify.check_classical_orthogonality(3)
    finally:
        clear_caches()
    assert {(tuple(f["rho"]), tuple(f["sigma"])) for f in failures} == \
        {((3,), (1, 1, 1)), ((1, 1, 1), (1, 1, 1))}
    assert all(f["check"] == "classical_orthogonality" for f in failures)


def test_special_columns_name_a_broken_value(monkeypatch):
    # negative control: one wrong value of the mn route at 1^4 and one at
    # (4), each on a shape where the closed form is plain to see
    mn = ALGORITHMS["mn"]
    broken_at = {((2, 2), (1, 1, 1, 1)), ((3, 1), (4,))}

    def broken(lam, mu):
        value = mn(lam, mu)
        return value + ONE if (lam, mu) in broken_at else value

    monkeypatch.setitem(ALGORITHMS, "mn", broken)
    failures = verify.check_special_columns(4)
    assert all(f["check"] == "special_column" for f in failures)
    assert [(tuple(f["lam"]), tuple(f["mu"]), f["expected"])
            for f in failures] == [((3, 1), (4,), "-q^2"),
                                   ((2, 2), (1, 1, 1, 1), "2")]


def test_tables_suite_names_a_broken_special_column(monkeypatch):
    # negative control: the special columns run in the tables suite, so
    # one wrong value of the mn route at (4) is reported there, and
    # nothing else fails
    mn = ALGORITHMS["mn"]

    def broken(lam, mu):
        value = mn(lam, mu)
        return value + ONE if (lam, mu) == ((3, 1), (4,)) else value

    monkeypatch.setitem(ALGORITHMS, "mn", broken)
    assert verify.run_suites(("tables",), 4) == {"tables": [
        {"check": "special_column", "lam": [3, 1], "mu": [4],
         "got": "1 + -q^2", "expected": "-q^2"}]}


def test_bitrace_names_a_broken_matrix_sum(monkeypatch):
    # negative control: the matrix sum of one pair at n = 7 times q, so
    # that its bitrace keeps its value at q = 1; the check names that
    # pair, where the matrices bitrace differs from the character sum
    # and from bitrace_via_gram (which reads the sum with q inverted, so
    # is off by 1/q), and both its orders, where the symmetry partner
    # read back differs; each failure shows both values
    right = applications.gram_pairing
    lam, mu = (4, 2, 1), (3, 3, 1)

    def broken(a, b):
        value = right(a, b)
        return value * T if (a, b) == (lam, mu) else value

    monkeypatch.setattr(applications, "gram_pairing", broken)
    failures = verify.check_bitrace(7)
    assert [(f["check"], tuple(f["lam"]), tuple(f["mu"]))
            for f in failures] == [("bitrace_agreement", lam, mu),
                                   ("bitrace_via_gram", lam, mu),
                                   ("bitrace_symmetry", lam, mu),
                                   ("bitrace_symmetry", mu, lam)]
    assert all(isinstance(f["got"], str) and isinstance(f["expected"], str)
               and f["got"] != f["expected"] for f in failures)


def test_strip_counts_name_a_miscounted_strip(monkeypatch):
    # negative control: the strips of (3, 1) with one count wrong, and one
    # listed skew (2, 2)/() that holds a 2x2 block; the check recounts m
    # and j from (lam, nu) and names both
    right = verify.strip_removals

    def broken(lam, k):
        strips = right(lam, k)
        if (lam, k) == ((3, 1), 2):
            return tuple((nu, m + 1, j) if nu == (1, 1) else (nu, m, j)
                         for nu, m, j in strips)
        if (lam, k) == ((2, 2), 4):
            return (((), 1, 1),)
        return strips

    monkeypatch.setattr(verify, "strip_removals", broken)
    failures = [f for f in verify.check_identities(4)
                if f["check"] == "strip_counts"]
    assert [(tuple(f["lam"]), tuple(f["mu"])) for f in failures] == \
        [((3, 1), (1, 1)), ((2, 2), ())]
