"""The catalogue of exact invariants.

Each check sweeps one family of identities up to a degree bound and
returns the counterexamples it finds (an empty list means it passed).
Every comparison goes through ``_expect``, so each counterexample is one
JSON-ready dict naming the check, the indices, the value ``got`` and the
value ``expected``, polynomials printed in q (characters, bitraces) or t
(pairings, weight sequences, Newton values, the strip and bracket
identities).  The checks are grouped into the suites that ``heckechar verify`` runs (``SUITES`` maps each
suite to its tuple of checks); the acceptance gate in
``tests/test_acceptance.py`` runs every check at ``n_max=8``, and CI
runs ``cross``, ``classical`` and ``apps`` at n_max = 11 and ``tables``
at n_max = 20, so this module is the one place the identities and the
comparisons of routes are written down.  ``tables`` compares the
independent routes with mn where ``cross`` stops comparing all seven:
whole tables up to n = 16, six fixed single values, and seeded pairs up
to n_max; it also checks the columns 1^n and (n) against closed forms
that do not come from mn.
"""

from __future__ import annotations

import random
from math import factorial, prod

from .laurent import ZERO, ONE, T, LaurentPoly, RationalFn, monomial
from .partitions import conjugate, partitions_of, strip_removals
from .schur import (
    centralizer_order, classical_character, pairing_polynomial,
)
from .characters import (
    broken_strip_weight, char_table, character, hook_weights, newton_coeffs,
    two_row_cumulative, two_row_weights,
)
from .applications import (
    bitrace, bitrace_via_gram, entry_weight, supercharacter_hooks,
    supercharacter_hooks_explicit, supercharacter_two_rows,
    supercharacter_two_rows_explicit,
)


def _expect(failures, check, got, expected, var="q", **where):
    """True when got == expected; otherwise False, and a failure naming
    the check, ``where`` (tuples as lists) and both values is appended,
    each polynomial printed in ``var``."""
    if got == expected:
        return True
    info = dict(where, got=got, expected=expected)
    failures.append({"check": check, **{
        k: v.format(var) if isinstance(v, (LaurentPoly, RationalFn))
        else list(v) if isinstance(v, tuple) else v
        for k, v in info.items()}})
    return False


def _paper_newton_values():
    def rat(num, *dens):
        return RationalFn(num, prod(dens, start=ONE))

    t, one = T, ONE
    t2 = monomial(1, 2) - one
    t3 = monomial(1, 3) - one
    t4 = monomial(1, 4) - one
    t1 = t - one
    return {
        1: {(1,): rat(one, t1)},
        2: {(1, 1): rat(one, t2, t1), (2,): rat(one, t2)},
        3: {(1, 1, 1): rat(one, t3, t2, t1),
            (2, 1): rat(t + 2, t3, t2),
            (3,): rat(one, t3)},
        4: {(1, 1, 1, 1): rat(one, t4, t3, t2, t1),
            (3, 1): rat(monomial(1, 2) + t + 2, t4, t3),
            (2, 1, 1): rat(monomial(1, 2) + 2 * t + 3, t4, t3, t2),
            (2, 2): rat(one, t4, t2),
            (4,): rat(one, t4)},
    }


def suite_golden(n_max=5):
    """Exact reproduction of the published worked values."""
    failures = []
    _expect(failures, "pairing_321_2211",
            pairing_polynomial((3, 2, 1), (2, 2, 1, 1), "iterative"),
            4 * (ONE - T) ** 6, var="t")
    _expect(failures, "hook_611_2222", character((6, 1, 1), (2, 2, 2, 2)),
            LaurentPoly({2: 6, 3: -12, 4: 3}))
    _expect(failures, "two_row_42_321", character((4, 2), (3, 2, 1)),
            LaurentPoly({1: 1, 2: -3, 3: 2}))
    for m, expected in _paper_newton_values().items():
        got = newton_coeffs(m)
        if _expect(failures, f"newton_support_m{m}", sorted(got),
                   sorted(expected)):
            for rho, val in expected.items():
                _expect(failures, f"newton_m{m}", got[rho], val, var="t",
                        rho=rho)
    return failures


_FULL_ALGS = ("mn", "iterative", "det", "strips", "oracle", "gen_sn",
              "gen_newton")
_FAST_ALGS = ("mn", "strips", "oracle")


def check_agreement(n_max=5):
    """All seven routes agree for n <= 11, the three fast ones up to
    n_max, and the default table, filled a row at a time, holds the
    values mn gives one at a time; every value is a polynomial of degree
    at most n - len(mu): it equals its terms of degree 0 to n - len(mu)."""
    failures = []
    for n in range(1, n_max + 1):
        algs = _FULL_ALGS if n <= 11 else _FAST_ALGS
        table = char_table(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                ref = character(lam, mu, algs[0])
                _expect(failures, "table_agreement", table.value(lam, mu),
                        ref, lam=lam, mu=mu, algorithm=table.algorithm)
                for alg in algs[1:]:
                    _expect(failures, "algorithm_agreement",
                            character(lam, mu, alg), ref, lam=lam, mu=mu,
                            algorithm=alg)
                _expect(failures, "degree_bound", ref, LaurentPoly(
                    {e: c for e, c in ref.terms.items()
                     if 0 <= e <= n - len(mu)}), lam=lam, mu=mu)
    return failures


def check_closed_forms(n_max=5):
    """The one-row, one-column, hook and two-row closed forms equal the
    recursion, and so does the closed form of the sum of the two-row
    characters, two_row_cumulative.  The one-row and one-column routes
    are the laws themselves, q^(n - len(mu)) and (-1)^(n - len(mu)), so
    their comparisons check the laws on the recursion."""
    failures = []
    for n in range(1, n_max + 1):
        for mu in partitions_of(n):
            for lam, alg in (((n,), "one_row"), ((1,) * n, "one_column")):
                _expect(failures, f"{alg}_vs_mn", character(lam, mu, alg),
                        character(lam, mu, "mn"), lam=lam, mu=mu)
            for k in range(1, n + 1):
                lam = (k,) + (1,) * (n - k)
                _expect(failures, "hook_vs_mn", character(lam, mu, "hook"),
                        character(lam, mu, "mn"), k=k, mu=mu)
            # (k, n - k) for k >= n - k: every two-row shape once
            total = ZERO
            for k in range((n + 1) // 2, n + 1):
                lam = (k, n - k) if n > k else (k,)
                ref = character(lam, mu, "mn")
                _expect(failures, "two_row_vs_mn",
                        character(lam, mu, "two_row"), ref, k=k, mu=mu)
                total = total + ref
            _expect(failures, "two_row_cumulative", total,
                    two_row_cumulative(mu), mu=mu)
    return failures


def check_identities(n_max=5):
    """Weight-sequence, border-strip and bracket identities (n <= 8)."""
    n_max = min(n_max, 8)
    failures = []
    for n in range(1, n_max + 1):
        for mu in partitions_of(n):
            a = hook_weights(mu)
            b = two_row_weights(mu)
            for weights, w in (("hook", a), ("two_row", b)):
                _expect(failures, "leading_weight", w[0], ONE, var="t",
                        mu=mu, weights=weights)
            _expect(failures, "hook_weight_sum",
                    sum((ai.shift(i) for i, ai in enumerate(a)), ZERO),
                    ZERO, var="t", mu=mu)
            l = len(mu)
            for j in range(n + 1):
                sym = a[n - j].invert_variable().shift(-l)
                _expect(failures, "hook_weight_symmetry", a[j],
                        -sym if l % 2 else sym, var="t", mu=mu, j=j)
                _expect(failures, "two_row_weight_palindrome", b[j],
                        b[n - j], var="t", mu=mu, j=j)
    # each listed strip's shape and counts, recomputed from (lam, nu), and
    # the strip-weight consistency: the peel coefficient
    # (1-t)^m (-t)^j equals t^(k-1) (1-t) times the recursion weight
    # with the variable inverted (the printed same-variable form fails
    # already at lam=(2))
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu, m, j in strip_removals(lam, k):
                    _expect(failures, "strip_counts", (m, j),
                            _strip_counts(lam, mu, k), lam=lam, mu=mu)
                    wt_inv = broken_strip_weight(k, m, j).invert_variable()
                    _expect(failures, "strip_weight_consistency",
                            (ONE - T) ** m * monomial(-1 if j % 2 else 1, j),
                            monomial(1, k - 1) * (ONE - T) * wt_inv,
                            var="t", lam=lam, mu=mu)
    # the inductive identity defining the entry weights:
    # 1 - t + (t-1) * sum_i (k-i)_t t^i equals (k)_t
    for k in range(1, 11):
        acc = sum((entry_weight(k - i).shift(i) for i in range(1, k + 1)),
                  ZERO)
        _expect(failures, "bracket_identity", ONE - T + (T - ONE) * acc,
                entry_weight(k), var="t", k=k)
    return failures


def _strip_counts(lam, nu, k):
    """(m, j) of lam/nu read off the rows, or None unless nu is a
    partition inside lam of weight |lam| - k with nu_i >= lam_{i+1} - 1
    (no 2x2 block).  Row i is in the skew when nu_i < lam_i, and it
    shares a column with row i + 1 when nu_i < lam_{i+1}: m counts the
    rows in the skew that share none with the row above, j the shared
    pairs."""
    if len(nu) > len(lam) or sum(nu) != sum(lam) - k or 0 in nu:
        return None
    nu = nu + (0,) * (len(lam) - len(nu))
    below = lam[1:] + (0,)
    if any(not (b - 1 <= v <= p) for v, p, b in zip(nu, lam, below)) or \
            any(a < b for a, b in zip(nu, nu[1:])):
        return None
    rows = sum(1 for v, p in zip(nu, lam) if v < p)
    j = sum(1 for v, b in zip(nu, below) if v < b)
    return rows - j, j


def check_conjugation_duality(n_max=5):
    """The duality the paper's determinant formula uses:
    chi^lam'_mu(q) = (-q)^(n - len(mu)) * chi^lam_mu(1/q), on the
    default route, for every lam and mu of each n <= n_max."""
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                s = n - len(mu)
                expected = character(lam, mu).invert_variable().shift(s)
                if s % 2:
                    expected = -expected
                _expect(failures, "conjugation_duality",
                        character(conjugate(lam), mu), expected,
                        lam=lam, mu=mu)
    return failures


def check_q1(n_max=5):
    """At q = 1 every character is the symmetric-group character."""
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                _expect(failures, "q1_specialization",
                        character(lam, mu).evaluate_at_one(),
                        classical_character(lam, mu), lam=lam, mu=mu)
    return failures


def check_classical_orthogonality(n_max=5):
    """Column orthogonality of the symmetric-group character table:
    sum over lam of chi^lam(rho) * chi^lam(sigma) = [rho = sigma] * z_rho,
    in exact integers, for all rho and sigma of each n <= n_max."""
    failures = []
    for n in range(1, n_max + 1):
        parts = partitions_of(n)
        columns = [[classical_character(lam, rho) for lam in parts]
                   for rho in parts]
        for a, rho in enumerate(parts):
            for b in range(a, len(parts)):
                _expect(failures, "classical_orthogonality",
                        sum(x * y for x, y in zip(columns[a], columns[b])),
                        centralizer_order(rho) if a == b else 0,
                        rho=rho, sigma=parts[b])
    return failures


def check_special_columns(n_max=5):
    """Two columns in closed form, on the default route: at 1^n every
    character is f^lam, the hook-length count (T_1 is the identity); at
    (n) it is (-1)^k q^(n-1-k) on the hook (n-k, 1^k) and 0 elsewhere."""
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            conj, k = conjugate(lam), len(lam) - 1
            hooks = prod(p - j + conj[j] - i - 1
                         for i, p in enumerate(lam) for j in range(p))
            coxeter = monomial(-1 if k % 2 else 1, n - 1 - k) \
                if lam == (n - k,) + (1,) * k else ZERO
            f = LaurentPoly.const(factorial(n) // hooks)
            for mu, expected in (((1,) * n, f),
                                 ((n,), coxeter)):
                _expect(failures, "special_column", character(lam, mu),
                        expected, lam=lam, mu=mu)
    return failures


def check_supercharacters(n_max=5):
    """Supercharacter closed forms equal their defining sums (n <= 7)."""
    failures = []
    for n in range(1, min(n_max, 7) + 1):
        for mu in partitions_of(n):
            _expect(failures, "hook_supercharacter", supercharacter_hooks(mu),
                    supercharacter_hooks_explicit(mu), mu=mu)
            _expect(failures, "two_row_supercharacter",
                    supercharacter_two_rows(mu),
                    supercharacter_two_rows_explicit(mu), mu=mu)
    return failures


def check_bitrace(n_max=5):
    """The matrices bitrace equals the char_sum bitrace and
    bitrace_via_gram, is symmetric, and is orthogonal at q = 1, on every
    pair of partitions of n <= min(n_max, 8).  Each matrices bitrace is
    computed once, and its symmetry partner read back."""
    failures = []
    for n in range(1, min(n_max, 8) + 1):
        parts = partitions_of(n)
        via_m = {(lam, mu): bitrace(lam, mu, "matrices")
                 for lam in parts for mu in parts}
        for (lam, mu), value in via_m.items():
            _expect(failures, "bitrace_agreement", value,
                    bitrace(lam, mu, "char_sum"), lam=lam, mu=mu)
            _expect(failures, "bitrace_via_gram", bitrace_via_gram(lam, mu),
                    value, lam=lam, mu=mu)
            _expect(failures, "bitrace_symmetry", value, via_m[mu, lam],
                    lam=lam, mu=mu)
            _expect(failures, "bitrace_q1", value.evaluate_at_one(),
                    centralizer_order(lam) if lam == mu else 0,
                    lam=lam, mu=mu)
    return failures


# each route's whole table is compared with the default table at every
# n up to its cap, where it takes a few seconds (gen_sn at n = 16 about 6)
_TABLE_CAPS = {"gen_newton": 12, "strips": 14, "gen_sn": 16}

# single values no whole table reaches.  gen_sn reads back
# chi * (q-1)^len(mu) * (n - lam_1)!, whose bound needs 128-bit digits for
# 22 of the 231 lambda at n = 16, all of them mirrored rows, so
# char_table(16, "gen_sn") never sums at 128 bits.  gen_newton at n = 12
# on mu with one repeated part, where the first-row groups collapse the
# most sub-compositions
_WIDE_PAIRS = (
    ("gen_sn", (4, 4, 4, 2, 1, 1), (4, 3, 3, 2, 2, 1, 1)),
    ("gen_sn", (4, 4, 4, 2, 1, 1), (2,) * 8),
    ("gen_sn", (4, 4, 4, 2, 1, 1), (1,) * 16),
    ("gen_newton", (4, 3, 3, 1, 1), (1,) * 12),
    ("gen_newton", (4, 3, 3, 1, 1), (2,) * 6),
    ("gen_newton", (4, 3, 3, 1, 1), (3,) * 4),
)

_SEEDED_ALGS = ("strips", "det", "iterative", "oracle", "gen_sn")


def check_tables(n_max=5):
    """Independent routes against mn past check_agreement's exhaustive
    n <= 11, in three parts:

    - whole tables: char_table(n, alg) equals char_table(n) entry by
      entry at every n <= min(n_max, cap), for each route and cap of
      ``_TABLE_CAPS``;
    - wide pairs: each value of ``_WIDE_PAIRS`` with |lam| <= n_max;
    - seeded pairs: 10 pairs (lam, mu) at each n from the largest cap + 1
      to n_max, drawn by one random.Random(20), on every route of
      ``_SEEDED_ALGS``.

    A table on another route computes the rows with lam >= lam' on that
    route and mirrors the others through ``_mirror``; the default table
    reads its mirrored rows from the held rows' packed digits
    (``_row_reader``).  So a whole table checks its computed half
    independently, and its mirrored half also checks the mn mirror
    against ``_mirror``.  Each mirror is also checked by its probe at
    mu = (n) in every table, and the mn one by check_agreement's
    comparison of char_table(n) with values computed one at a time up to
    n = 11.
    """
    failures = []
    last_table = max(_TABLE_CAPS.values())
    for n in range(1, min(n_max, last_table) + 1):
        ref = char_table(n).entries
        for alg, cap in _TABLE_CAPS.items():
            if n <= cap:
                got = char_table(n, alg).entries
                for (lam, mu), expected in ref.items():
                    _expect(failures, "whole_table", got[lam, mu], expected,
                            lam=lam, mu=mu, algorithm=alg)
    for alg, lam, mu in _WIDE_PAIRS:
        if sum(lam) <= n_max:
            _expect(failures, "wide_pair", character(lam, mu, alg),
                    character(lam, mu, "mn"), lam=lam, mu=mu, algorithm=alg)
    rng = random.Random(20)
    for n in range(last_table + 1, n_max + 1):
        parts = partitions_of(n)
        for _ in range(10):
            lam, mu = rng.choice(parts), rng.choice(parts)
            expected = character(lam, mu, "mn")
            for alg in _SEEDED_ALGS:
                _expect(failures, "seeded_pair", character(lam, mu, alg),
                        expected, lam=lam, mu=mu, algorithm=alg)
    return failures


SUITES = {
    "golden": (suite_golden,),
    "cross": (check_agreement, check_closed_forms, check_identities,
              check_conjugation_duality),
    "classical": (check_q1, check_classical_orthogonality),
    "apps": (check_supercharacters, check_bitrace),
    "tables": (check_tables, check_special_columns),
}

SUITE_NAMES = tuple(SUITES)


def run_suites(names, n_max=5):
    """Run the selected suites; returns ``{name: [failure, ...]}``."""
    if "all" in names:
        names = SUITE_NAMES
    if not names:
        raise ValueError("no suite selected")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, not {n_max}")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return {name: [failure for check in SUITES[name]
                   for failure in check(n_max)]
            for name in names}
