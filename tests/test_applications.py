import random

import pytest

from heckechar import applications, verify
from heckechar.laurent import ONE, T, ZERO, LaurentPoly, RationalFn, monomial
from heckechar.partitions import (
    contingency_matrices, partition_tuples, partitions_of,
)
from heckechar.schur import centralizer_order
from heckechar.characters import character, two_row_cumulative
from heckechar.applications import (
    bitrace, bitrace_via_gram, entry_weight, gram_pairing, neg_q_bracket,
    supercharacter_hooks, supercharacter_hooks_explicit,
    supercharacter_two_rows, supercharacter_two_rows_explicit,
)
from oracles import (
    deformed_centralizer, matrix_product_sum, standard_tableaux_count,
)


def test_entry_weight_conventions():
    assert entry_weight(0) == ONE
    assert entry_weight(-3) == ZERO
    assert entry_weight(1) == (T - ONE) ** 2
    assert entry_weight(2) == (T - ONE) ** 2 * (T * T + ONE)


def test_bracket_identity():
    # 1 - t + (t-1) * sum_i (k-i)_t t^i == (k)_t for the entry weights,
    # checked here and by the identity suite that verify runs
    for k in range(1, 11):
        acc = sum((entry_weight(k - i).shift(i) for i in range(1, k + 1)),
                  ZERO)
        assert ONE - T + (T - ONE) * acc == entry_weight(k)
    assert verify.check_identities(n_max=3) == []


def test_hook_supercharacter_values():
    assert supercharacter_hooks((3,)) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert supercharacter_hooks_explicit((3,)) == \
        character_sum_hooks_by_hand()
    # all-singleton class: the closed form collapses to a power of two
    # equal to the total hook tableau count
    for n in range(1, 8):
        mu = (1,) * n
        value = supercharacter_hooks(mu)
        assert value == LaurentPoly.const(2 ** (n - 1))
        total = sum(standard_tableaux_count((n - i,) + (1,) * i)
                    for i in range(n))
        assert total == 2 ** (n - 1)


def character_sum_hooks_by_hand():
    # q^2 + (-q) + 1 at the full-cycle class of degree 3
    return LaurentPoly({0: 1, 1: -1, 2: 1})


def test_supercharacter_identities_sweep():
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert supercharacter_hooks(mu) == \
                supercharacter_hooks_explicit(mu)
            assert supercharacter_two_rows(mu) == \
                supercharacter_two_rows_explicit(mu)


def test_two_row_supercharacter_values():
    assert supercharacter_two_rows((3,)) == LaurentPoly({1: -2, 2: 4})
    assert supercharacter_two_rows((1,)) == LaurentPoly.const(2)
    assert supercharacter_two_rows((2, 1)) == \
        supercharacter_two_rows_explicit((2, 1))
    # negative leading exponent case stays exact in the Laurent ring
    deep = supercharacter_two_rows((1, 1, 1))
    assert deep == supercharacter_two_rows_explicit((1, 1, 1))


def test_supercharacter_empty_rejected():
    with pytest.raises(ValueError):
        supercharacter_hooks(())
    with pytest.raises(ValueError):
        supercharacter_two_rows(())


def test_neg_q_bracket():
    assert neg_q_bracket(3) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert neg_q_bracket(1) == ONE
    assert neg_q_bracket(0) == ZERO


def test_gram_pairing_values():
    assert gram_pairing((1,), (1,)) == (T - ONE) ** 2
    assert gram_pairing((2,), (1, 1)) == (T - ONE) ** 4


def test_gram_pairing_against_the_matrix_by_matrix_sum():
    # grouping the matrices by their entry multiset changes no value
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = gram_pairing(lam, mu)
                assert got == matrix_product_sum(lam, mu), (lam, mu)
                # summed in place: no zero coefficient is stored
                assert all(got.terms.values()), (lam, mu)
    # compositions in any order, with zero parts inside
    rng = random.Random(4711)
    for _ in range(40):
        n = rng.randint(1, 6)
        sides = []
        for _ in range(2):
            parts = [*rng.choice(partitions_of(n)), *[0] * rng.randint(1, 2)]
            rng.shuffle(parts)
            sides.append(tuple(parts))
        assert gram_pairing(*sides) == matrix_product_sum(*sides), sides


def test_gram_pairing_consumes_every_matrix_of_one_enumeration(monkeypatch):
    calls = []

    def counted(row_sums, col_sums):
        calls.append(0)
        for matrix in contingency_matrices(row_sums, col_sums):
            calls[-1] += 1
            yield matrix

    monkeypatch.setattr(applications, "contingency_matrices", counted)
    lam, mu = (3, 0, 2, 1), (2, 2, 1, 1)
    gram_pairing(lam, mu)
    assert calls == [sum(1 for _ in contingency_matrices(lam, mu))]
    assert calls[0] > 1


def test_gram_pairing_symmetry():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert gram_pairing(lam, mu) == gram_pairing(mu, lam)


def test_gram_pairing_against_power_sums():
    # expanding both one-row products into power sums and contracting
    # with the classical centralizer orders gives the same pairing
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                total = RationalFn(ZERO)
                coeffs = {}
                for side in (lam, mu):
                    by_rho = {}
                    for tup in partition_tuples(side):
                        merged = tuple(sorted(
                            (p for block in tup for p in block), reverse=True))
                        prod = RationalFn(ONE)
                        for block in tup:
                            prod = prod / deformed_centralizer(block)
                        cur = by_rho.get(merged)
                        by_rho[merged] = prod if cur is None else cur + prod
                    coeffs[side] = by_rho
                for rho in partitions_of(n):
                    a = coeffs[lam].get(rho)
                    b = coeffs[mu].get(rho)
                    if a is None or b is None:
                        continue
                    total = total + a * b * centralizer_order(rho)
                assert total == RationalFn(gram_pairing(lam, mu)), (lam, mu)


def test_bitrace_values():
    assert bitrace((2,), (1, 1)) == T - ONE
    assert bitrace((2,), (2,)) == T * T + ONE
    assert bitrace((2,), (1, 1), "char_sum") == T - ONE


def test_bitrace_methods_agree():
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                m = bitrace(lam, mu, "matrices")
                assert m == bitrace(lam, mu, "char_sum")
                assert m == bitrace_via_gram(lam, mu)
                assert m == bitrace(mu, lam, "matrices")


def test_bitrace_composition_invariance():
    # the value depends only on the part multisets, and zero parts drop
    assert bitrace((1, 2), (2, 1)) == bitrace((2, 1), (2, 1))
    assert bitrace((1, 2, 0), (3,)) == bitrace((2, 1), (3,))
    cases = [((1, 3), (2, 2)), ((2, 1, 1), (1, 1, 2)), ((1, 1, 2), (4,))]
    for lam, mu in cases:
        sorted_lam = tuple(sorted(lam, reverse=True))
        sorted_mu = tuple(sorted(mu, reverse=True))
        assert bitrace(lam, mu) == bitrace(sorted_lam, sorted_mu)


def test_bitrace_errors():
    with pytest.raises(ValueError):
        bitrace((2,), (1, 1, 1))
    with pytest.raises(ValueError):
        bitrace((), ())
    with pytest.raises(ValueError):
        bitrace_via_gram((), ())
    with pytest.raises(ValueError):
        bitrace((2,), (2,), "bogus")


@pytest.mark.parametrize("lam, mu", [
    ((3, -1), (2,)),          # negative part
    ((2,), (1.0, 1.0)),       # non-int parts
    (None, (1,)),             # not iterable
    ((1,), 3),
])
def test_bitrace_rejects_malformed_compositions(lam, mu):
    routes = (lambda a, b: bitrace(a, b, "matrices"),
              lambda a, b: bitrace(a, b, "char_sum"),
              bitrace_via_gram, gram_pairing)
    for route in routes:
        for args in ((lam, mu), (mu, lam)):
            with pytest.raises(ValueError):
                route(*args)


@pytest.mark.parametrize("route", [
    lambda mu: character((1,), mu, "hook"),
    lambda mu: character((1,), mu, "two_row"),
    two_row_cumulative,
    supercharacter_hooks, supercharacter_hooks_explicit,
    supercharacter_two_rows, supercharacter_two_rows_explicit,
])
@pytest.mark.parametrize("mu", [(2, -1), (3, -1), (1.0, 1.0), None, 5])
def test_lone_mu_rejects_malformed_compositions(route, mu):
    with pytest.raises(ValueError):
        route(mu)


@pytest.mark.parametrize("route", [
    supercharacter_hooks, supercharacter_hooks_explicit,
    supercharacter_two_rows, supercharacter_two_rows_explicit,
])
def test_supercharacters_reject_empty_mu(route):
    # all four are defined for nonempty mu only, and say so alike
    with pytest.raises(ValueError, match="nonempty"):
        route(())
