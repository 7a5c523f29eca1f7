"""Derived identities: supercharacter sums and the bitrace of the regular
representation.

Each quantity is computable two independent ways -- a closed form and an
explicit character sum (or weighted contingency-matrix sum) -- and both
routes are exposed so they can cross-validate.
"""

from __future__ import annotations

from .laurent import ZERO, ONE, T, LaurentPoly
from .partitions import (
    cached, check_composition, check_weights, contingency_matrices,
    partitions_of, sort_to_partition, weight,
)
from .characters import _qm1_pow, character


def neg_q_bracket(k):
    """Alternating geometric sum 1 - q + q^2 - ... (k terms)."""
    return LaurentPoly({j: (-1 if j % 2 else 1) for j in range(k)})


def _lone_mu(mu):
    """``mu`` sorted into a partition; the sums need it nonempty."""
    mu = sort_to_partition(check_composition(mu))
    if not mu:
        raise ValueError("mu must be nonempty")
    return mu


def supercharacter_hooks(mu):
    """Character of the (1,1) sign q-permutation representation at mu:
    the sum of all hook characters.

    Closed form (-1)^(n-l) 2^(l-1) prod over parts of the alternating
    bracket.
    """
    mu = _lone_mu(mu)
    n, l = weight(mu), len(mu)
    closed = LaurentPoly.const(2 ** (l - 1))
    for p in mu:
        closed = closed * neg_q_bracket(p)
    if (n - l) % 2:
        closed = -closed
    return closed


def supercharacter_hooks_explicit(mu):
    """The defining sum over all hooks of degree n."""
    mu = _lone_mu(mu)
    n = weight(mu)
    total = ZERO
    for i in range(n):
        lam = (n - i,) + (1,) * i
        total = total + character(lam, mu)
    return total


def supercharacter_two_rows(mu):
    """Character of the (2,0) q-permutation representation at mu:
    the multiplicity-weighted sum of all two-row characters.

    The closed form q^(n - 2l) prod (1 + q + part*(q-1)) may have a
    negative exponent; the identity holds exactly in the Laurent ring.
    """
    mu = _lone_mu(mu)
    n, l = weight(mu), len(mu)
    closed = ONE
    for p in mu:
        closed = closed * (ONE + T + (T - ONE) * p)
    return closed.shift(n - 2 * l)


def supercharacter_two_rows_explicit(mu):
    mu = _lone_mu(mu)
    n = weight(mu)
    total = ZERO
    for i in range(n // 2 + 1):
        lam = (n - i, i) if i else (n,)
        total = total + (n - 2 * i + 1) * character(lam, mu)
    return total


@cached
def entry_weight(k):
    """The matrix-entry weight (t-1)^2 * [k]_{t^2}; 1 at k = 0, 0 below."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    bracket = LaurentPoly({2 * j: 1 for j in range(k)})
    return _qm1_pow(2) * bracket


def bracket_identity_check(k):
    """Self-test of the inductive identity defining the entry weights:
    1 - t + (t-1) * sum_i (k-i)_t t^i equals (k)_t."""
    if k < 1:
        raise ValueError("k must be at least 1")
    acc = ZERO
    for i in range(1, k + 1):
        acc = acc + entry_weight(k - i).shift(i)
    lhs = ONE - T + (T - ONE) * acc
    return lhs == entry_weight(k)


def gram_pairing(lam, mu):
    """Pairing of two products of deformed one-row functions: the sum over
    contingency matrices of the product of entry weights."""
    lam, mu = check_composition(lam), check_composition(mu)
    check_weights(lam, mu)
    total = ZERO
    for matrix in contingency_matrices(lam, mu):
        prod = ONE
        for row in matrix:
            for entry in row:
                if entry:
                    prod = prod * entry_weight(entry)
        total = total + prod
    return total


def _bitrace_indices(lam, mu):
    """Both compositions with zero parts trimmed (they contribute empty
    rows/columns and would skew the exponent); equal weight, at least 1."""
    lam = tuple(p for p in check_composition(lam) if p)
    mu = tuple(p for p in check_composition(mu) if p)
    check_weights(lam, mu)
    if not lam:
        raise ValueError("bitrace requires weight at least 1")
    return lam, mu


def bitrace(lam, mu, method="matrices"):
    """Bitrace of the regular representation at a pair of compositions.

    ``matrices`` sums entry weights over contingency matrices and divides
    by (q-1)^(r+s) exactly; ``char_sum`` evaluates the defining sum of
    products of irreducible characters.  Zero parts are trimmed first.
    """
    lam, mu = _bitrace_indices(lam, mu)
    n = weight(lam)
    if method == "matrices":
        total = gram_pairing(lam, mu)
        return total.divexact(_qm1_pow(len(lam) + len(mu)))
    if method == "char_sum":
        lam_p = sort_to_partition(lam)
        mu_p = sort_to_partition(mu)
        total = ZERO
        for rho in partitions_of(n):
            total = total + character(rho, lam_p) * character(rho, mu_p)
        return total
    raise ValueError(f"unknown bitrace method {method!r}")


def bitrace_via_gram(lam, mu):
    """Normalization consistency route: q^(2n) (q-1)^(-r-s) times the
    gram pairing with the variable inverted."""
    lam, mu = _bitrace_indices(lam, mu)
    n = weight(lam)
    h = gram_pairing(lam, mu).invert_variable().shift(2 * n)
    return h.divexact(_qm1_pow(len(lam) + len(mu)))
