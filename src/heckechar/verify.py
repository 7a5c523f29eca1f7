"""The catalogue of exact invariants.

Each check sweeps one family of identities up to a degree bound and
returns the counterexamples it finds, as JSON-ready dicts naming the
check and the indices (an empty list means it passed).  The checks are
grouped into the suites that ``heckechar verify`` runs; the acceptance
gate in ``tests/test_acceptance.py`` runs every check at ``n_max=8``,
so this module is the one place the identities are written down.
"""

from __future__ import annotations

import random

from .laurent import ZERO, ONE, T, LaurentPoly, RationalFn, monomial
from .partitions import conjugate, partitions_of, strip_removals
from .schur import (
    centralizer_order, classical_character, pairing_polynomial,
)
from .characters import (
    broken_strip_weight, character, hook_weights, newton_coeffs,
    two_row_weights,
)
from .applications import (
    bitrace, bracket_identity_check, supercharacter_hooks,
    supercharacter_hooks_explicit, supercharacter_two_rows,
    supercharacter_two_rows_explicit,
)

SUITE_NAMES = ("golden", "cross", "classical", "apps")


def _fail(failures, **info):
    failures.append({k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in info.items()})


def _paper_newton_values():
    t = T
    one = ONE

    def rat(num, *dens):
        den = one
        for d in dens:
            den = den * d
        return RationalFn(num, den)

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
    g = pairing_polynomial((3, 2, 1), (2, 2, 1, 1), "iterative")
    if g != 4 * (ONE - T) ** 6:
        _fail(failures, check="pairing_321_2211", got=g.format("t"))
    hook = character((6, 1, 1), (2, 2, 2, 2))
    if hook != LaurentPoly({2: 6, 3: -12, 4: 3}):
        _fail(failures, check="hook_611_2222", got=hook.format("q"))
    two = character((4, 2), (3, 2, 1))
    if two != LaurentPoly({1: 1, 2: -3, 3: 2}):
        _fail(failures, check="two_row_42_321", got=two.format("q"))
    for m, expected in _paper_newton_values().items():
        got = newton_coeffs(m)
        if set(got) != set(expected):
            _fail(failures, check=f"newton_support_m{m}",
                  got=sorted(got), expected=sorted(expected))
            continue
        for rho, val in expected.items():
            if got[rho] != val:
                _fail(failures, check=f"newton_m{m}", rho=rho,
                      got=got[rho].format("t"), expected=val.format("t"))
    return failures


_FULL_ALGS = ("mn", "iterative", "det", "strips", "oracle", "gen_sn",
              "gen_newton")
_FAST_ALGS = ("mn", "strips", "oracle")


def check_agreement(n_max=5):
    """All seven routes agree for n <= 8, the three fast ones up to
    n_max; every value is a polynomial of degree at most n - len(mu)."""
    failures = []
    for n in range(1, n_max + 1):
        algs = _FULL_ALGS if n <= 8 else _FAST_ALGS
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                ref = character(lam, mu, algs[0])
                for alg in algs[1:]:
                    got = character(lam, mu, alg)
                    if got != ref:
                        _fail(failures, check="algorithm_agreement",
                              lam=lam, mu=mu, algorithm=alg,
                              got=got.format("q"), expected=ref.format("q"))
                if not ref.is_polynomial() or \
                        (not ref.is_zero() and ref.max_exp() > n - len(mu)):
                    _fail(failures, check="degree_bound", lam=lam, mu=mu,
                          got=ref.format("q"))
    return failures


def check_closed_forms(n_max=5):
    """The hook and two-row closed forms equal the recursion."""
    failures = []
    for n in range(1, n_max + 1):
        for mu in partitions_of(n):
            for k in range(1, n + 1):
                lam = (k,) + (1,) * (n - k)
                if character(lam, mu, "hook") != character(lam, mu, "mn"):
                    _fail(failures, check="hook_vs_mn", k=k, mu=mu)
            for k in range((n + 1) // 2, n + 1):
                lam = (k, n - k) if n > k else (k,)
                if character(lam, mu, "two_row") != character(lam, mu, "mn"):
                    _fail(failures, check="two_row_vs_mn", k=k, mu=mu)
    return failures


def check_identities(n_max=5):
    """Weight-sequence, border-strip and bracket identities (n <= 8)."""
    n_max = min(n_max, 8)
    failures = []
    for n in range(1, n_max + 1):
        for mu in partitions_of(n):
            a = hook_weights(mu)
            b = two_row_weights(mu)
            if a[0] != ONE or b[0] != ONE:
                _fail(failures, check="leading_weight", mu=mu)
            total = ZERO
            for i, ai in enumerate(a):
                total = total + ai.shift(i)
            if not total.is_zero():
                _fail(failures, check="hook_weight_sum", mu=mu,
                      got=total.format("t"))
            l = len(mu)
            for j in range(n + 1):
                sym = a[n - j].invert_variable().shift(-l)
                if l % 2:
                    sym = -sym
                if a[j] != sym:
                    _fail(failures, check="hook_weight_symmetry", mu=mu, j=j)
                if b[j] != b[n - j]:
                    _fail(failures, check="two_row_weight_palindrome",
                          mu=mu, j=j)
    # border-strip row/column identity and the strip-weight consistency:
    # the peel coefficient (1-t)^m prod (-t)^(rows-1) equals
    # t^(k-1) (1-t) times the recursion weight with the variable inverted
    # (the printed same-variable form fails already at lam=(2))
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu, comps in strip_removals(lam, k):
                    for c in comps:
                        if c.rows + c.cols != c.size + 1:
                            _fail(failures, check="strip_row_col",
                                  lam=lam, mu=mu)
                    m = len(comps)
                    rsum = sum(c.rows - 1 for c in comps)
                    lhs = (ONE - T) ** m * monomial(-1 if rsum % 2 else 1, rsum)
                    wt_inv = broken_strip_weight(comps).invert_variable()
                    rhs = monomial(1, k - 1) * (ONE - T) * wt_inv
                    if lhs != rhs:
                        _fail(failures, check="strip_weight_consistency",
                              lam=lam, mu=mu)
    for k in range(1, 11):
        if not bracket_identity_check(k):
            _fail(failures, check="bracket_identity", k=k)
    return failures


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
                got = character(conjugate(lam), mu)
                if got != expected:
                    _fail(failures, check="conjugation_duality", lam=lam,
                          mu=mu, got=got.format("q"),
                          expected=expected.format("q"))
    return failures


def suite_cross(n_max=5):
    """Cross-algorithm agreement plus the structural identities."""
    return (check_agreement(n_max) + check_closed_forms(n_max)
            + check_identities(n_max) + check_conjugation_duality(n_max))


def check_row_column_laws(n_max=5):
    """The one-row and one-column characters, as the default route (the
    strip recursion) computes them, are signed monomials."""
    failures = []
    for n in range(1, n_max + 1):
        for mu in partitions_of(n):
            l = len(mu)
            if character((n,), mu) != monomial(1, n - l):
                _fail(failures, check="one_row_law", mu=mu)
            col = character((1,) * n, mu)
            if col != LaurentPoly.const(-1 if (n - l) % 2 else 1):
                _fail(failures, check="one_column_law", mu=mu)
    return failures


def check_q1(n_max=5):
    """At q = 1 every character is the symmetric-group character."""
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if character(lam, mu).evaluate_at_one() != \
                        classical_character(lam, mu):
                    _fail(failures, check="q1_specialization",
                          lam=lam, mu=mu)
    return failures


def suite_classical(n_max=5):
    """One-row/one-column laws and the q = 1 specialization."""
    return check_row_column_laws(n_max) + check_q1(n_max)


def check_supercharacters(n_max=5):
    """Supercharacter closed forms equal their defining sums (n <= 7)."""
    failures = []
    for n in range(1, min(n_max, 7) + 1):
        for mu in partitions_of(n):
            if supercharacter_hooks(mu) != supercharacter_hooks_explicit(mu):
                _fail(failures, check="hook_supercharacter", mu=mu)
            if supercharacter_two_rows(mu) != \
                    supercharacter_two_rows_explicit(mu):
                _fail(failures, check="two_row_supercharacter", mu=mu)
    return failures


def check_bitrace(n_max=5):
    """Both bitrace routes agree, are symmetric and orthogonal at q = 1
    for n <= 5, and agree on 100 seeded pairs at n = 6."""
    failures = []
    for n in range(1, min(n_max, 5) + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                viaM = bitrace(lam, mu, "matrices")
                viaC = bitrace(lam, mu, "char_sum")
                if viaM != viaC:
                    _fail(failures, check="bitrace_agreement", lam=lam, mu=mu)
                if viaM != bitrace(mu, lam, "matrices"):
                    _fail(failures, check="bitrace_symmetry", lam=lam, mu=mu)
                expected = centralizer_order(lam) if lam == mu else 0
                if viaM.evaluate_at_one() != expected:
                    _fail(failures, check="bitrace_q1", lam=lam, mu=mu)
    if n_max >= 6:
        rng = random.Random(6180)
        pool = partitions_of(6)
        for _ in range(100):
            lam = rng.choice(pool)
            mu = rng.choice(pool)
            if bitrace(lam, mu, "matrices") != bitrace(lam, mu, "char_sum"):
                _fail(failures, check="bitrace_agreement_n6", lam=lam, mu=mu)
    return failures


def suite_apps(n_max=5):
    """Supercharacter identities and the bitrace cross-checks."""
    return check_supercharacters(n_max) + check_bitrace(n_max)


SUITES = {
    "golden": suite_golden,
    "cross": suite_cross,
    "classical": suite_classical,
    "apps": suite_apps,
}


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
    return {name: SUITES[name](n_max) for name in names}
