import random

import pytest

from heckechar.laurent import (
    ONE, T, ZERO, ExactnessError, LaurentPoly, RationalFn, digit_bits,
    monomial, pack, poly_gcd, unpack,
)
from heckechar.schur import _omt_pow


def rand_poly(rng, max_terms=4, max_abs_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_abs_exp, max_abs_exp)] = \
            rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(terms)


def test_basic_examples():
    assert (ONE - 2 * monomial(1, -1)).invert_variable() == ONE - 2 * T
    assert LaurentPoly({2: 6, 3: -12, 4: 3}).evaluate_at_one() == -3
    assert (ONE - T).shift(-1) == monomial(1, -1) - ONE


def test_zero_and_constants():
    assert ZERO.is_zero()
    assert LaurentPoly({0: 0, 3: 0}).is_zero()
    assert (T - T).is_zero()
    with pytest.raises(ValueError):
        ZERO.min_exp()


def test_constants_hash_as_their_ints():
    # a constant equals its int, so it must hash as that int
    assert ONE == 1 and hash(ONE) == hash(1)
    assert len({ONE, 1}) == 1
    assert ZERO == 0 and hash(ZERO) == hash(0)
    assert len({ZERO, 0}) == 1
    for c in (-1, 7, 2 ** 64 + 3, -(10 ** 30)):
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)
    assert {LaurentPoly({0: 5}): "five"}[5] == "five"
    # a nonconstant polynomial still hashes by its terms
    assert hash(LaurentPoly({0: 1, 1: 1})) == hash(ONE + T)


def test_a_bool_is_not_a_constant():
    # const, *, **, shift, coeff and monomial refuse a bool; so does ==
    assert not ONE == True
    assert ONE != True
    assert not ZERO == False
    assert ZERO != False
    assert len({ONE, True}) == 2
    assert True not in {ONE} and ONE not in {True}


def sparse_poly(rng):
    """A seeded random sparse Laurent polynomial: up to 6 terms,
    exponents in [-40, 40], coefficients of both signs up to 2^70."""
    return LaurentPoly({rng.randint(-40, 40):
                        rng.choice((-1, 1)) * rng.randint(1, 2 ** 70)
                        for _ in range(rng.randint(0, 6))})


def schoolbook(a, b, sign):
    # the sum (sign = 1), difference (sign = -1) or product (sign = 0) of
    # a and b, built term by term; the checked constructor drops zeros
    if sign:
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out.get(e, 0) + sign * c
    else:
        out = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


def _operand_pairs(rng):
    for _ in range(300):
        a, b = sparse_poly(rng), sparse_poly(rng)
        one_term = monomial(rng.choice((-1, 1)) * rng.randint(1, 2 ** 66),
                            rng.randint(-9, 9))
        yield from ((a, b), (a, one_term), (one_term, a), (a, ZERO),
                    (ZERO, a), (a, a), (a, -a))
    # full cancellation, and products whose middle terms cancel
    x = monomial(3 ** 50, -4)
    y = monomial(-(2 ** 80), 7)
    yield from ((x + y, x - y), (ONE + T + T * T, ONE - T),
                (monomial(1, -1) + T, monomial(1, -1) - T))


def test_kernel_matches_the_schoolbook_reference():
    for a, b in _operand_pairs(random.Random(34)):
        for got, sign in ((a + b, 1), (a - b, -1), (a * b, 0)):
            assert got.terms == schoolbook(a, b, sign).terms, (a, b, sign)
            assert all(got.terms.values()), (a, b, sign)
    assert (T - T).terms == {} and (T * 0).terms == {}
    assert ((ONE + T + T * T) * (ONE - T)).terms == {0: 1, 3: -1}
    x, y = monomial(3 ** 50, -4), monomial(-(2 ** 80), 7)
    assert ((x + y) * (x - y)).terms == {-8: 3 ** 100, 14: -(2 ** 160)}


def test_powers_of_one_minus_t_in_closed_form():
    # every route reads (t - 1)^j off this table as (-1)^j (1 - t)^j
    for j in range(41):
        assert _omt_pow(j) == (ONE - T) ** j
        assert _omt_pow(j) * (-1) ** j == (T - ONE) ** j
        assert all(_omt_pow(j).terms.values())


def test_mul_term_bound():
    a = LaurentPoly({0: 1, 2: 3, -1: 4})
    b = LaurentPoly({1: -2, 5: 7})
    assert len((a * b).terms) <= len(a.terms) * len(b.terms)


def test_pow():
    assert (ONE - T) ** 0 == ONE
    assert (ONE - T) ** 2 == ONE - 2 * T + T * T
    with pytest.raises(ValueError):
        T ** -1


def test_ring_axioms_random():
    rng = random.Random(12345)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b).invert_variable() == \
            a.invert_variable() * b.invert_variable()
        assert a.invert_variable().invert_variable() == a


def test_divexact():
    num = (ONE - T) ** 3 * LaurentPoly({-2: 5, 0: 1})
    assert num.divexact((ONE - T) ** 2) == (ONE - T) * LaurentPoly({-2: 5, 0: 1})
    with pytest.raises(ExactnessError) as exc:
        (ONE + T).divexact(ONE - T)
    assert exc.value.remainder is not None
    with pytest.raises(ZeroDivisionError):
        ONE.divexact(ZERO)


def test_poly_gcd():
    a = (ONE - T) ** 2 * (ONE + T) * 6
    b = (ONE - T) * (2 * ONE + T) * 4
    g = poly_gcd(a, b)
    # primitive, positive leading coefficient
    assert g == T - ONE or g == ONE - T
    assert g.leading_coeff() > 0


def test_rational_examples():
    assert RationalFn(ONE - T * T, ONE - T).to_laurent() == ONE + T
    f = RationalFn(T - ONE, ONE - T)
    assert f.den.is_one() and f.num == LaurentPoly.const(-1)
    s = RationalFn(ONE, ONE - T) + RationalFn(ONE, ONE - T)
    assert s == RationalFn(2, ONE - T)


def test_rational_canonical_idempotent():
    rng = random.Random(777)
    for _ in range(100):
        num = rand_poly(rng)
        den = rand_poly(rng)
        if den.is_zero():
            continue
        f = RationalFn(num, den)
        again = RationalFn(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        # denominator canonical shape
        if not f.num.is_zero():
            assert f.den.is_polynomial()
            assert f.den.leading_coeff() > 0
            assert f.den.coeff(0) != 0


def test_rational_equality_cross_multiplication():
    rng = random.Random(999)
    fns = []
    for _ in range(30):
        num, den = rand_poly(rng), rand_poly(rng)
        if den.is_zero():
            continue
        fns.append(RationalFn(num, den))
    scale = LaurentPoly({1: 3, -2: 7})
    for f in fns:
        assert f == RationalFn(f.num * scale, f.den * scale)
    for a in fns[:10]:
        for b in fns[:10]:
            if a == b:
                assert b == a


def test_rational_errors():
    with pytest.raises(ZeroDivisionError):
        RationalFn(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        RationalFn(ONE) / RationalFn(ZERO)
    with pytest.raises(ExactnessError) as exc:
        RationalFn(ONE, ONE - T).to_laurent()
    assert exc.value.remainder is not None


def test_a_bool_is_not_a_rational_constant():
    # as for LaurentPoly, == refuses a bool instead of reading it as 1
    assert not RationalFn(ONE) == True
    assert not RationalFn(ZERO) == False
    assert RationalFn(ONE) != True
    assert RationalFn(ONE) == 1 and RationalFn(ZERO) == 0


def test_rationals_equal_to_polynomials_hash_as_them():
    # a value equal to a polynomial or an int must hash as it
    assert hash(RationalFn(ONE)) == hash(ONE) == hash(1)
    assert len({RationalFn(ONE), ONE, 1}) == 1
    assert hash(RationalFn(ZERO)) == hash(0)
    f = RationalFn(ONE - T * T, (ONE - T) * 2)
    assert f == RationalFn(ONE + T, 2) and f != ONE + T
    g = RationalFn((ONE - T * T) * 3, (ONE - T) * 3)
    assert g == ONE + T and hash(g) == hash(ONE + T)
    assert {ONE + T: "sum"}[g] == "sum"


def test_serialization_pairs():
    p = LaurentPoly({-1: 12, 3: -7})
    pairs = p.to_pairs()
    assert pairs == [[-1, "12"], [3, "-7"]]
    assert LaurentPoly.from_pairs(pairs) == p
    big = LaurentPoly({0: 10 ** 40})
    assert LaurentPoly.from_pairs(big.to_pairs()) == big
    # each pair is a two-element list, as to_pairs writes it
    for bad in ([5], [(1, "1")], [[1, "1", 2]], [[1]]):
        with pytest.raises(ValueError):
            LaurentPoly.from_pairs(bad)


def test_pack_unpack_round_trip():
    rng = random.Random(2009)
    for bits in (64, 128, 192):
        half = 2 ** (bits - 1)
        for _ in range(200):
            # exponents lifted to >= 0; coefficients of both signs
            p = rand_poly(rng, max_terms=6, max_coeff=10 ** 6).shift(3)
            v = pack(p, bits)
            assert v == sum(c * 2 ** (bits * e) for e, c in p.terms.items())
            assert unpack(v, sum(abs(c) for c in p.terms.values()), bits) == p
        signs = LaurentPoly({0: -1, 1: 1, 2: -(half - 1), 4: half - 1})
        assert unpack(pack(signs, bits), half - 1, bits) == signs
        assert pack(ZERO, bits) == 0
        assert unpack(0, 0, bits) == ZERO


def test_unpack_capacity_limit():
    for bits in (64, 128, 192):
        quarter = 2 ** (bits - 2)
        p = LaurentPoly({0: quarter, 1: -quarter + 1})
        assert unpack(pack(p, bits), 2 * quarter - 1, bits) == p
        # a bound of 2^(bits-1) could hide a coefficient of 2^(bits-1)
        # that reads as -2^(bits-1) plus a carry, so it is refused, not
        # misread
        with pytest.raises(OverflowError):
            unpack(pack(p, bits), 2 * quarter, bits)
        with pytest.raises(OverflowError):
            unpack(2 * quarter, 2 * quarter, bits)
    assert not issubclass(OverflowError, ExactnessError)


def test_digit_bits_is_the_narrowest_width_under_the_bound():
    assert digit_bits(0) == 64
    assert digit_bits(2 ** 63 - 1) == 64
    assert digit_bits(2 ** 63) == 128
    assert digit_bits(2 ** 127 - 1) == 128
    assert digit_bits(2 ** 127) == 192
    for norm in (1, 2 ** 63, 2 ** 127, 3 ** 100):
        bits = digit_bits(norm)
        assert norm < 2 ** (bits - 1) and (bits == 64 or
                                           norm >= 2 ** (bits - 65))


def test_rational_serialization():
    f = RationalFn(ONE - T * T * T, (ONE - T) * 2)
    doc = f.to_pairs()
    num = LaurentPoly.from_pairs(doc["num"])
    den = LaurentPoly.from_pairs(doc["den"])
    assert RationalFn(num, den) == f


def test_formatting():
    assert LaurentPoly({1: 1, 2: -3, 3: 2}).format("q") == "q + -3*q^2 + 2*q^3"
    assert LaurentPoly({1: 1, 2: -3, 3: 2}).latex("q") == "2q^{3}-3q^{2}+q"
    assert ZERO.format("q") == "0"
    assert LaurentPoly({-1: 1, 0: -1}).format("t") == "t^-1 + -1"
