import random

import pytest

from heckechar import schur
from heckechar.laurent import ONE, T, ZERO, ExactnessError, RationalFn, monomial
from heckechar.partitions import (
    clear_caches, inner_corner_removals, partition_tuples, partitions_of,
    standard_tableaux_count, subpartitions_of_weight,
)
from heckechar.schur import (
    _oracle_cached, _scaled_det, _strip_matrix, centralizer_order,
    classical_character, newton_coeffs, pairing_polynomial, peel_det,
    peel_iterative, peel_strips, straighten,
)
from oracles import (
    deformed_centralizer, exchange_straighten, frobenius_character,
)

OMT = ONE - T


def test_straighten_examples():
    assert straighten((3, 2, 1)) == (1, (3, 2, 1))
    assert straighten((1, 2)) is None
    assert straighten((0, 2)) == (-1, (1, 1))
    assert straighten(()) == (1, ())
    assert straighten((0, 0, 0)) == (1, ())
    assert straighten((-1, 1)) == (-1, ())
    assert straighten((0, 1)) is None  # staircase shift gives a repeat
    assert straighten((-2, 1)) is None  # negative entry survives the shift


def test_straighten_weight_preserved():
    rng = random.Random(4242)
    for _ in range(300):
        l = rng.randint(1, 5)
        mu = tuple(rng.randint(-2, 6) for _ in range(l))
        st = straighten(mu)
        if st is not None:
            sign, lam = st
            assert sign in (1, -1)
            assert sum(lam) == sum(mu)
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_straighten_matches_exchange_rule():
    rng = random.Random(31415)
    for _ in range(500):
        l = rng.randint(1, 5)
        mu = tuple(rng.randint(-2, 6) for _ in range(l))
        assert straighten(mu) == exchange_straighten(mu)


def test_peel_identity_and_vanishing():
    v = {(2, 1): ONE}
    assert peel_iterative(0, v) == v
    assert peel_det(0, v) == v
    assert peel_strips(0, v) == v
    for peel in (peel_iterative, peel_det, peel_strips):
        assert peel(4, v) == {}


def test_peel_homogeneity():
    for peel in (peel_iterative, peel_det, peel_strips):
        vec = {(4, 3, 2): ONE}
        for k in (2, 3, 1):
            vec = peel(k, vec)
            assert vec
            weights = {sum(lam) for lam in vec}
            assert len(weights) == 1
        assert weights == {3}


def test_peel_strategies_agree_on_vectors():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                v = {lam: ONE}
                a = peel_iterative(k, v)
                b = peel_det(k, v)
                c = peel_strips(k, v)
                assert a == b == c, (lam, k)
                assert not any(x.is_zero() for x in a.values()), (lam, k)


def test_peel_single_part_remark():
    # peeling everything at once: zero unless the shape is a hook, where
    # it leaves (1-t)(-t)^(legs) on the empty partition
    for n in range(1, 8):
        for lam in partitions_of(n):
            v = peel_strips(n, {lam: ONE})
            is_hook = len(lam) == 1 or all(p == 1 for p in lam[1:])
            if not is_hook:
                assert v == {}, lam
            else:
                legs = n - lam[0]
                assert v[()] == OMT * monomial(
                    -1 if legs % 2 else 1, legs)


def test_peel_one_box_is_corner_sum():
    for lam in [(3, 1), (2, 2, 1), (4, 3, 3, 1)]:
        got = peel_strips(1, {lam: ONE})
        expected = {mu: OMT for mu in inner_corner_removals(lam)}
        assert got == expected


def test_iterated_single_boxes_count_tableaux():
    for lam in partitions_of(5):
        vec = {lam: ONE}
        for _ in range(5):
            vec = peel_strips(1, vec)
        assert vec[()] == OMT ** 5 * standard_tableaux_count(lam)


def test_det_matrix_shapes():
    # equal shapes: upper triangular with ONE on the diagonal (the entries
    # are scaled by 1 - t), so the scaled determinant is 1
    lam = (3, 2, 1)
    rows = _strip_matrix(lam, lam)
    for i in range(3):
        assert rows[i][i] == ONE
        for j in range(i):
            assert rows[i][j].is_zero()
    assert _scaled_det(lam, lam) == ONE


def test_det_value_on_single_strips():
    # a broken border strip with m components scales to
    # (-t)^rsum * (1-t)^m, rsum the sum of rows - 1 over the components
    from heckechar.partitions import strip_removals
    for n in range(1, 8):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu, comps in strip_removals(lam, k):
                    m = len(comps)
                    rsum = sum(c.rows - 1 for c in comps)
                    expected = monomial(-1 if rsum % 2 else 1, rsum) * OMT ** m
                    assert _scaled_det(lam, mu) == expected, (lam, mu)


def test_det_vanishes_on_blocks():
    from heckechar.partitions import strip_removals
    # containing a 2x2 block kills the determinant
    assert _scaled_det((2, 2), ()).is_zero()
    assert _scaled_det((3, 3, 1), (1,)).is_zero()
    for n in range(2, 8):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                strips = {mu for mu, _ in strip_removals(lam, k)}
                for mu in subpartitions_of_weight(lam, n - k):
                    if mu not in strips:
                        assert _scaled_det(lam, mu).is_zero(), (lam, mu)


def test_pairing_worked_example():
    expected = 4 * OMT ** 6
    for strategy in ("iterative", "det", "strips", "oracle"):
        assert pairing_polynomial((3, 2, 1), (2, 2, 1, 1), strategy) == expected


def test_pairing_hook_and_column_values():
    assert pairing_polynomial((2, 1), (3,), "iterative") == OMT * monomial(-1, 1)
    for lam in partitions_of(5):
        assert pairing_polynomial(lam, (1,) * 5, "det") == \
            OMT ** 5 * standard_tableaux_count(lam)


def test_pairing_strategies_identical():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                ref = pairing_polynomial(lam, mu, "iterative")
                for strategy in ("det", "strips", "oracle"):
                    assert pairing_polynomial(lam, mu, strategy) == ref


def test_pairing_errors():
    with pytest.raises(ValueError):
        pairing_polynomial((2,), (1, 1, 1))
    with pytest.raises(ValueError):
        pairing_polynomial((2, 1), (2, 1), "bogus")
    # an unhashable name and a non-iterable index are input errors too
    with pytest.raises(ValueError):
        pairing_polynomial((1,), (1,), ["x"])
    with pytest.raises(ValueError):
        pairing_polynomial(None, (1,), "oracle")
    with pytest.raises(ValueError):
        classical_character(7, (1,))


def test_classical_character_values():
    assert classical_character((2, 1), (3,)) == -1
    assert classical_character((2, 1), (1, 1, 1)) == 2
    for n in range(1, 9):
        for rho in partitions_of(n):
            assert classical_character((n,), rho) == 1
            sign = -1 if (n - len(rho)) % 2 else 1
            assert classical_character((1,) * n, rho) == sign


def test_classical_character_against_alternants():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert classical_character(lam, rho) == \
                    frobenius_character(lam, rho), (lam, rho)


def test_centralizer_values():
    assert centralizer_order((2, 2, 1, 1)) == 2 ** 2 * 2 * 1 * 2
    assert centralizer_order(()) == 1
    # reciprocal sums of the deformed orders telescope
    for n in range(1, 7):
        plain = RationalFn(ZERO)
        signed = RationalFn(ZERO)
        for lam in partitions_of(n):
            inv = RationalFn(ONE) / deformed_centralizer(lam)
            plain = plain + inv
            if len(lam) % 2:
                signed = signed - inv
            else:
                signed = signed + inv
        assert plain == RationalFn(OMT)
        assert signed == RationalFn(monomial(1, n) - monomial(1, n - 1))


def test_oracle_exactness_is_enforced(monkeypatch):
    # the oracle sums over one denominator and ends in one exact division
    for lam in partitions_of(6):
        for mu in partitions_of(6):
            pairing_polynomial(lam, mu, "oracle")
    # negative control: one wrong classical value leaves a remainder, and
    # the division raises instead of returning a value
    clear_caches()
    with monkeypatch.context() as m:
        right = schur._classical_mn
        m.setattr(schur, "_classical_mn",
                  lambda lam, rho: right(lam, rho) + (rho == (1, 1, 1)))
        with pytest.raises(ExactnessError):
            pairing_polynomial((2, 1), (3,), "oracle")
    clear_caches()
    # indices are validated before the memo: a list is accepted, and two
    # orders of one composition share a single memo entry
    assert pairing_polynomial((2, 1), [1, 1, 1], "oracle") == \
        pairing_polynomial((2, 1), (1, 1, 1))
    pairing_polynomial((2, 1), (1, 2), "oracle")
    entries = _oracle_cached.cache_info().currsize
    pairing_polynomial((2, 1), (2, 1), "oracle")
    assert _oracle_cached.cache_info().currsize == entries


PAPER_NEWTON = {
    1: {(1,): (ONE, [1])},
    2: {(1, 1): (ONE, [2, 1]), (2,): (ONE, [2])},
    3: {(1, 1, 1): (ONE, [3, 2, 1]),
        (2, 1): (T + 2, [3, 2]),
        (3,): (ONE, [3])},
    4: {(1, 1, 1, 1): (ONE, [4, 3, 2, 1]),
        (3, 1): (monomial(1, 2) + T + 2, [4, 3]),
        (2, 1, 1): (monomial(1, 2) + 2 * T + 3, [4, 3, 2]),
        (2, 2): (ONE, [4, 2]),
        (4,): (ONE, [4])},
}


def test_newton_coefficients_match_published_expansions():
    for m, table in PAPER_NEWTON.items():
        got = newton_coeffs(m)
        assert set(got) == set(table)
        for rho, (num, dens) in table.items():
            den = ONE
            for d in dens:
                den = den * (monomial(1, d) - ONE)
            assert got[rho] == RationalFn(num, den), (m, rho)
    assert newton_coeffs(0) == {(): RationalFn(ONE)}


def test_newton_power_sum_identity():
    # expanding the transition back into power sums must reproduce the
    # signed reciprocal classical centralizer coefficients
    for m in range(1, 7):
        coeffs = newton_coeffs(m)
        for lam in partitions_of(m):
            total = RationalFn(ZERO)
            for rho, c in coeffs.items():
                weight_sum = RationalFn(ZERO)
                for tup in partition_tuples(rho):
                    merged = tuple(sorted(
                        (p for block in tup for p in block), reverse=True))
                    if merged != lam:
                        continue
                    prod = RationalFn(ONE)
                    for block in tup:
                        prod = prod / deformed_centralizer(block)
                    weight_sum = weight_sum + prod
                total = total + c * weight_sum
            sign = -1 if len(lam) % 2 else 1
            assert total == RationalFn(sign, centralizer_order(lam)), (m, lam)
