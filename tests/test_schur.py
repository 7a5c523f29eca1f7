import random

import pytest

from heckechar import partitions, schur
from heckechar.laurent import (
    ONE, T, ZERO, ExactnessError, LaurentPoly, RationalFn, monomial,
)
from heckechar.partitions import (
    clear_caches, partition_tuples, partitions_of, strip_removals,
    subpartitions_of_weight,
)
from heckechar.schur import (
    _scaled_det, centralizer_order,
    centralizer_poly_factors, classical_character, newton_coeffs,
    pairing_polynomial, straighten,
)
from oracles import (
    compositions_of, deformed_centralizer, exchange_straighten,
    factorwise_centralizer_factors, frobenius_character, inner_corner_removals,
    leibniz_det, peel_matrix, standard_tableaux_count,
    strip_classical_character,
)

OMT = ONE - T


def _peeler(strategy):
    # one peel step of a strategy: schur._peel over its term generator
    return lambda k, vec: schur._peel(k, vec, schur._PEELERS[strategy])


peel_iterative, peel_det, peel_strips = map(
    _peeler, ("iterative", "det", "strips"))


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


def _no_zero_stored(vec):
    return all(c.terms and all(c.terms.values()) for c in vec.values())


def test_sums_in_place_store_no_zero():
    # every peel, and every second peel of its result, holds no zero entry
    # and no zero coefficient; so does every oracle pairing
    for n in range(1, 8):
        for lam in partitions_of(n):
            for strategy, terms in schur._PEELERS.items():
                for k in range(1, n + 1):
                    vec = schur._peel(k, {lam: ONE}, terms)
                    assert _no_zero_stored(vec), (lam, k, strategy)
                    for k2 in range(1, n - k + 1):
                        assert _no_zero_stored(
                            schur._peel(k2, vec, terms)), (lam, k, k2)
            if n <= 6:
                for mu in partitions_of(n):
                    g = pairing_polynomial(lam, mu, "oracle")
                    assert all(g.terms.values()), (lam, mu)

    # terms that cancel: a sum that vanishes is dropped, and a sum whose
    # middle terms cancel keeps only its nonzero coefficients
    def cancelling(lam, k):
        yield (), ONE + T
        yield (1,), ONE + T
        yield (), -(ONE + T)
        yield (1,), -T

    out = schur._peel(1, {(2,): OMT}, cancelling)
    assert out == {(1,): OMT} and out[(1,)].terms == {0: 1, 1: -1}


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
    rows = peel_matrix(lam, lam)
    for i in range(3):
        assert rows[i][i] == ONE
        for j in range(i):
            assert rows[i][j].is_zero()
    assert _scaled_det(lam, lam) == ONE


def test_scaled_det_is_the_whole_peel_matrix_determinant():
    for n in range(7):
        for lam in partitions_of(n):
            for w in range(n + 1):
                for mu in subpartitions_of_weight(lam, w):
                    assert _scaled_det(lam, mu) == \
                        leibniz_det(peel_matrix(lam, mu)), (lam, mu)


def test_pattern_det_receives_the_diagonal_blocks(monkeypatch):
    # a block starts at row 0 and at each row s with lam_s <= mu_{s-1};
    # there every row from s on is zero left of column s, and nowhere
    # else; the blocks come top down and stop after the first zero one
    seen = []
    pattern_det = schur._pattern_det
    monkeypatch.setattr(schur, "_pattern_det",
                        lambda p: seen.append(p) or pattern_det(p))
    codes = {ZERO: 0, ONE: 1, OMT: 2}
    for n in range(8):
        for lam in partitions_of(n):
            l = len(lam)
            for w in range(n + 1):
                for mu in subpartitions_of_weight(lam, w):
                    rows = peel_matrix(lam, mu)
                    padded = mu + (0,) * (l - len(mu))
                    starts = [s for s in range(l)
                              if s == 0 or lam[s] <= padded[s - 1]]
                    for s in range(1, l):
                        corner_zero = all(rows[i][j].is_zero()
                                          for i in range(s, l)
                                          for j in range(s))
                        assert corner_zero == (s in starts), (lam, mu, s)
                    expected = []
                    for s, end in zip(starts, starts[1:] + [l]):
                        block = [row[s:end] for row in rows[s:end]]
                        expected.append(tuple(tuple(codes[e] for e in row)
                                              for row in block))
                        if leibniz_det(block).is_zero():
                            break
                    seen.clear()
                    schur._scaled_det.__wrapped__(lam, mu)
                    assert seen == expected, (lam, mu)


def test_det_value_on_single_strips():
    # a broken border strip with m components scales to
    # (-t)^j * (1-t)^m, j the sum of rows - 1 over the components
    for n in range(1, 8):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu, m, j in strip_removals(lam, k):
                    expected = monomial(-1 if j % 2 else 1, j) * OMT ** m
                    assert _scaled_det(lam, mu) == expected, (lam, mu)


def test_det_vanishes_on_blocks():
    # containing a 2x2 block kills the determinant
    assert _scaled_det((2, 2), ()).is_zero()
    assert _scaled_det((3, 3, 1), (1,)).is_zero()
    for n in range(2, 8):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                strips = {mu for mu, _, _ in strip_removals(lam, k)}
                for mu in subpartitions_of_weight(lam, n - k):
                    if mu not in strips:
                        assert _scaled_det(lam, mu).is_zero(), (lam, mu)


def _random_matrix(rng, n, zeros=(), zero_odds=0.0):
    # random Laurent entries, nonzero except at ``zeros`` and with
    # probability ``zero_odds`` elsewhere
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if (i, j) in zeros or rng.random() < zero_odds:
                row.append(ZERO)
                continue
            poly = ZERO
            while poly.is_zero():
                poly = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                                    for _ in range(rng.randint(1, 3))})
            row.append(poly)
        rows.append(row)
    return rows


def test_block_det_matches_permutation_sum():
    # _bareiss, the determinant of each diagonal block, on random Laurent
    # matrices with and without zero entries
    rng = random.Random(2021)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = _random_matrix(rng, n, zero_odds=rng.choice((0.0, 0.3, 0.6)))
        expected = leibniz_det(rows)
        assert schur._bareiss(rows) == expected, rows


@pytest.mark.parametrize("n, zeros, blocks", [
    # a zero lower-left corner: one split, then two (block sizes top down)
    (4, {(i, j) for i in (2, 3) for j in (0, 1)}, [2, 2]),
    (5, {(i, 0) for i in range(1, 5)}
     | {(i, j) for i in (3, 4) for j in range(3)}, [1, 2, 2]),
    # zeros below the diagonal that leave no corner: no split
    (3, {(2, 0)}, [3]),
    (4, {(1, 0), (2, 1), (3, 2)}, [4]),
    # a zero row: in the middle, and as the last row, a zero 1x1 block
    (3, {(1, j) for j in range(3)}, [3]),
    (3, {(2, j) for j in range(3)}, [2, 1]),
    # a zero first pivot: Bareiss swaps rows
    (3, {(0, 0)}, [3]),
    (0, set(), []),
], ids=["one_split", "two_splits", "lone_zero", "subdiagonal", "zero_row",
        "zero_last_row", "zero_pivot", "empty"])
def test_block_det_splits_where_block_triangular(n, zeros, blocks):
    # where every row from s on is zero left of column s, the determinant
    # is the product of the diagonal blocks' Bareiss determinants, as
    # _scaled_det assumes; Bareiss itself handles the zero pivots and rows
    rng = random.Random(f"block-det:{n}:{sorted(zeros)}")
    for _ in range(20):
        rows = _random_matrix(rng, n, zeros)
        expected = leibniz_det(rows)
        product = ONE
        start = 0
        for size in blocks:
            end = start + size
            product = product * schur._bareiss(
                [row[start:end] for row in rows[start:end]])
            start = end
        assert product == expected
        assert schur._bareiss(rows) == expected


def test_surviving_drops_are_the_compositions_that_straighten():
    assert schur._surviving_drops((), 0) == [()]
    for n in range(9):
        for lam in partitions_of(n):
            l = len(lam)
            for k in range(n + 2):
                expected = [
                    tau for tau in compositions_of(k, l)
                    if straighten(tuple(lam[i] - tau[i] for i in range(l)))
                    is not None]
                assert schur._surviving_drops(lam, k) == expected, (lam, k)


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
    for n in range(1, 7):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert classical_character(lam, rho) == \
                    frobenius_character(lam, rho), (lam, rho)


def test_classical_character_against_strip_recursion():
    for n in range(11):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert classical_character(lam, rho) == \
                    strip_classical_character(lam, rho), (lam, rho)


def test_classical_route_needs_no_strip_enumeration(monkeypatch):
    # the beta-set rule and the oracle built on it still answer with every
    # strip enumerator disabled, in both modules that could reach one
    pairs = [(lam, mu) for lam in partitions_of(6) for mu in partitions_of(6)]
    expected = {p: pairing_polynomial(*p, "oracle") for p in pairs}
    chars = {p: classical_character(*p) for p in pairs}
    clear_caches()

    def disabled(*args):
        raise AssertionError("strip enumeration reached")

    for module in (partitions, schur):
        for name in ("strip_removals", "_strip_tails",
                     "subpartitions_of_weight"):
            monkeypatch.setattr(module, name, disabled, raising=False)
    for p in pairs:
        assert classical_character(*p) == chars[p], p
        assert pairing_polynomial(*p, "oracle") == expected[p], p


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


def test_centralizer_poly_factors_against_factorwise_products():
    # one binomial expansion per distinct part equals the product of
    # every part's factor, term for term
    count = 0
    for n in range(15):
        for rho in partitions_of(n):
            assert centralizer_poly_factors(rho) == \
                factorwise_centralizer_factors(rho), rho
            count += 1
    assert count == 508


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
    # indices are validated on entry: a list is accepted, and two orders
    # of one composition give one value
    assert pairing_polynomial((2, 1), [1, 1, 1], "oracle") == \
        pairing_polynomial((2, 1), (1, 1, 1))
    assert pairing_polynomial((2, 1), (1, 2), "oracle") == \
        pairing_polynomial((2, 1), (2, 1), "oracle")


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


@pytest.mark.parametrize("m", [True, 2.0, "3", None, -1])
def test_newton_coeffs_reject_malformed_input_on_a_warm_memo(m):
    # True equals the memoised key 1 and must still be rejected
    newton_coeffs(1)
    with pytest.raises(ValueError):
        newton_coeffs(m)


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
