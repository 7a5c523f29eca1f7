"""Acceptance gate: every exit criterion, at its stated bound, exactly.

The identities live in one place, :mod:`heckechar.verify`; each criterion
runs its checks there at ``n_max=8`` and fails with the JSON failure
report, which names the check, the indices and the route.  Each test
prints one pass line (run ``pytest -s`` to see them).
"""

import json
import time

import pytest

from heckechar import verify
from heckechar.laurent import ONE, T, ExactnessError, RationalFn

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
    _gate(2, "one-row and one-column laws, n <= 8",
          verify.check_row_column_laws)


def test_criterion_3_cross_algorithm_agreement():
    _gate(3, "seven algorithms agree n<=6, three agree n<=8, <60s",
          verify.check_agreement, limit=60.0)


def test_criterion_4_classical_specialization():
    _gate(4, "q=1 table equals the classical recursion, n <= 8",
          verify.check_q1)


def test_criterion_5_hook_two_row_consistency():
    _gate(5, "hook and two-row closed forms match the recursion, n <= 8",
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
    # negative control: the guard actually fires.  The conversion-heavy
    # routes (det, both general reductions, matrix bitraces) run under
    # criteria 3 and 7, where any inexact step raises.
    with pytest.raises(ExactnessError):
        RationalFn(ONE, ONE - T).to_laurent()
    print("criterion 9 (every rational-to-polynomial conversion is exact): "
          "PASS")
