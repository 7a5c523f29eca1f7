"""Exact coefficient arithmetic in one formal variable.

Two value types cover everything the character algorithms need:

* ``LaurentPoly`` -- sparse Laurent polynomial with arbitrary-precision
  integer coefficients.  Every final character value is one of these.
* ``RationalFn`` -- quotient of two LaurentPolys kept in a canonical form
  (denominator an honest polynomial with nonzero constant term, positive
  leading coefficient, numerator/denominator coprime with joint integer
  content cleared) so equal values compare and print identically.

The variable is formal; it is only named ("q" or "t") when printing.
No floating point appears anywhere.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from math import gcd


class ExactnessError(ArithmeticError):
    """A division the algebra guarantees to be exact was not.

    This always signals an internal inconsistency upstream, never bad
    user input.  ``remainder`` carries the offending residue when one is
    available.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class LaurentPoly:
    """Sparse Laurent polynomial over the integers.

    Terms live in a dict ``{exponent: coefficient}`` with no stored zero
    coefficients; the zero polynomial has an empty map.  Instances are
    treated as immutable: every operation returns a new object.  The
    constructor takes int exponents and coefficients only (not bools).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        if not isinstance(terms, Mapping):
            raise ValueError(f"not a mapping of terms: {terms!r}")
        cleaned = {}
        for e, c in terms.items():
            if type(e) is not int or type(c) is not int:
                raise ValueError(f"not an int term: {e!r}: {c!r}")
            if c:
                cleaned[e] = c
        self.terms = cleaned

    @classmethod
    def _raw(cls, terms):
        # trusted constructor: caller guarantees no zero coefficients
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def _sum(cls, terms):
        # trusted constructor for a sum folded in place: drops zero sums
        return cls._raw({e: c for e, c in terms.items() if c})

    @classmethod
    def const(cls, c):
        if type(c) is not int:
            raise ValueError(f"not an int constant: {c!r}")
        return cls._raw({0: c}) if c else cls._raw({})

    @classmethod
    def from_pairs(cls, pairs):
        """Build from ``[[exponent, coefficient-as-decimal-string], ...]``
        in exactly the form :meth:`to_pairs` writes: a list of two-element
        lists with int exponents in strictly ascending order, each
        coefficient the ``str`` of a nonzero int.  ValueError for anything
        else, so the pairs read back are the pairs written."""
        if not isinstance(pairs, list):
            raise ValueError(f"not a list of pairs: {pairs!r}")
        terms = {}
        last = None
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"not a pair: {pair!r}")
            e, c = pair
            if type(e) is not int or type(c) is not str or \
                    (last is not None and e <= last):
                raise ValueError(f"not a canonical pair: {[e, c]!r}")
            v = int(c)
            if not v or str(v) != c:
                raise ValueError(f"not a canonical coefficient: {c!r}")
            terms[e] = v
            last = e
        return cls._raw(terms)

    def to_pairs(self):
        """Serialize as ascending-exponent ``[[exp, str(coeff)], ...]``."""
        return [[e, str(self.terms[e])] for e in sorted(self.terms)]

    # -- predicates and inspection ------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def is_constant(self):
        return not self.terms or set(self.terms) == {0}

    def is_polynomial(self):
        """True when no negative exponents occur."""
        return all(e >= 0 for e in self.terms)

    def min_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def coeff(self, e):
        if type(e) is not int:
            raise ValueError(f"not an int exponent: {e!r}")
        return self.terms.get(e, 0)

    def leading_coeff(self):
        return self.terms[self.max_exp()]

    def content(self):
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        # copy the larger map and fold the smaller one in
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._raw(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            if not other:
                return ZERO
            return LaurentPoly._raw({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            if isinstance(other, int):  # a bool: not an int, as in const
                raise ValueError(f"not an int factor: {other!r}")
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        if len(small) == 1:
            # a one-term operand is a shift and a scale
            (k, a), = small.items()
            return LaurentPoly._raw({e + k: c * a for e, c in big.items()})
        out = {}
        _fold_product(out, big, small)
        return LaurentPoly._sum(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        # a bool is not an int here, as in const
        if type(other) is int:
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return hash(frozenset(terms.items()))

    # -- Laurent-specific helpers ----------------------------------------

    def shift(self, k):
        """Multiply by the k-th power of the variable; ``k`` is an int (a
        bool is not)."""
        if type(k) is not int:
            raise ValueError(f"not an int exponent: {k!r}")
        if not k:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self.terms.items()})

    def invert_variable(self):
        """Substitute the variable by its reciprocal (an involution)."""
        return LaurentPoly._raw({-e: c for e, c in self.terms.items()})

    def evaluate_at_one(self):
        """Sum of the coefficients."""
        return sum(self.terms.values())

    def divexact(self, other):
        """Exact division; raises ExactnessError if the quotient is not
        an integer Laurent polynomial."""
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            raise ValueError(f"not a divisor: {other!r}")
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        a, b = self.min_exp(), other.min_exp()
        q, r = _divmod_honest(self.shift(-a), other.shift(-b))
        if not r.is_zero():
            raise ExactnessError(
                f"inexact division: ({self}) / ({other})", remainder=r.shift(a))
        return q.shift(a - b)

    # -- printing ------------------------------------------------------

    def format(self, var="q"):
        """Deterministic plain form: ascending exponents, explicit
        coefficients, ``q^k`` notation."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
                continue
            base = var if e == 1 else f"{var}^{e}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{c}*{base}")
        return " + ".join(parts)

    def latex(self, var="q"):
        """Descending powers, display style: ``2q^{3}-3q^{2}+q``."""
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                power = var if e == 1 else f"{var}^{{{e}}}"
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
            if not chunks:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append(("-" if c < 0 else "+") + body)
        return "".join(chunks)

    def __repr__(self):
        return f"LaurentPoly<{self.format('t')}>"


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})
T = LaurentPoly._raw({1: 1})


def monomial(coeff, exp):
    """coeff * q^exp; both are ints (a bool is not)."""
    if type(coeff) is not int or type(exp) is not int:
        raise ValueError(f"not an int term: {exp!r}: {coeff!r}")
    return LaurentPoly._raw({exp: coeff}) if coeff else ZERO


def _fold_product(acc, big, small):
    """Add the product of the term maps ``big`` and ``small`` into the
    term map ``acc`` in place, zero sums kept: the caller drops them once,
    through :meth:`LaurentPoly._sum`.  The larger map loops innermost."""
    if len(big) < len(small):
        big, small = small, big
    get = acc.get
    for k, a in small.items():
        for e, c in big.items():
            e += k
            acc[e] = get(e, 0) + c * a


# -- Kronecker substitution: a polynomial as its value at 2^bits ----------

def pack(poly, bits):
    """The value of ``poly`` at q = 2^bits; its exponents must all be
    non-negative."""
    return sum(c << (bits * e) for e, c in poly.terms.items())


def digit_bits(norm):
    """The least multiple of 64, bits, with ``norm`` < 2^(bits-1): the
    narrowest digits :func:`unpack` reads under that bound."""
    return (norm.bit_length() // 64 + 1) * 64


def biased_digits(v, norm, bits, count=0):
    """The balanced base-2^bits digits of ``v``, lowest first, each plus
    2^(bits-1), so that a zero digit reads 2^(bits-1); at least
    ``count`` of them.  ``norm`` bounds every digit as :func:`unpack`
    says."""
    half, width = 1 << (bits - 1), bits // 8
    if norm >= half:
        raise OverflowError(f"coefficient bound {norm} needs more than a "
                            f"balanced {bits}-bit digit")
    # adding 2^(bits-1) to every digit makes them all non-negative, so one
    # conversion to bytes reads them all
    size = max(abs(v).bit_length() // bits + 2, count)
    biased = v + int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    raw = biased.to_bytes(width * size, "little")
    if bits == 64:
        return struct.unpack(f"<{size}Q", raw)
    return [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)]


def unpack(v, norm, bits):
    """The polynomial p with ``pack(p, bits) == v``, given a bound
    ``norm`` on the absolute value of every coefficient (the L1 norm is
    one); ``bits`` is a multiple of 64.

    The balanced base-2^bits digits of ``v``, each in
    [-2^(bits-1), 2^(bits-1)), are p's coefficients whenever every
    coefficient lies in that range, so a norm of 2^(bits-1) or more
    raises OverflowError: a capacity limit of the packing, not an
    inexact division.
    """
    half = 1 << (bits - 1)
    return LaurentPoly._raw({e: d - half for e, d in
                             enumerate(biased_digits(v, norm, bits))
                             if d != half})


def _divmod_honest(a, b):
    """Long division of honest polynomials over the integers.

    Stops as soon as a leading coefficient fails to divide, so the
    returned remainder is nonzero exactly when a/b is not an integer
    polynomial with this leading sequence -- sufficient for exactness
    checks and for gcd pseudo-division support.  Neither part holds a
    zero coefficient: a has none, and the loop pops each.
    """
    q = {}
    rem = dict(a.terms)
    db = b.max_exp()
    lb = b.terms[db]
    while rem:
        dr = max(rem)
        if dr < db:
            break
        lr = rem[dr]
        c, residue = divmod(lr, lb)
        if residue:
            break
        q[dr - db] = c
        for e, bc in b.terms.items():
            ee = e + dr - db
            s = rem.get(ee, 0) - c * bc
            if s:
                rem[ee] = s
            else:
                rem.pop(ee, None)
    return LaurentPoly._raw(q), LaurentPoly._raw(rem)


def _primitive(p):
    """Divide out the content, keeping the sign of the leading coefficient."""
    c = p.content()
    if c <= 1:
        return p
    return LaurentPoly._raw({e: cc // c for e, cc in p.terms.items()})


def _pseudo_rem(a, b):
    # remainder of lc(b)^k * a mod b for some k >= deg a - deg b + 1;
    # callers take primitive parts so the exact scaling is irrelevant
    db = b.max_exp()
    lb = b.terms[db]
    rem = a
    while not rem.is_zero() and rem.max_exp() >= db:
        dr = rem.max_exp()
        lr = rem.leading_coeff()
        rem = rem * lb - b * monomial(lr, dr - db)
    return rem


def poly_gcd(a, b):
    """Primitive gcd of two honest polynomials, positive leading coefficient.

    Primitive pseudo-remainder sequence; degrees here stay small so no
    subresultant bookkeeping is needed.
    """
    if a.is_zero() and b.is_zero():
        return ZERO
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        a, b = b, _primitive(_pseudo_rem(a, b))
    if not a.is_zero() and a.leading_coeff() < 0:
        a = -a
    return a


class RationalFn:
    """Quotient of LaurentPolys in canonical form.

    The denominator is an honest polynomial with nonzero constant term
    and positive leading coefficient; any pure variable power is shifted
    into the numerator.  Numerator and denominator are coprime over the
    rationals with joint integer content cleared, so canonical forms are
    reproducible bit-exactly and structural equality is meaningful.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if isinstance(den, int):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        a, b = num.min_exp(), den.min_exp()
        n, d = num.shift(-a), den.shift(-b)
        if not d.is_constant():
            g = poly_gcd(n, d)
            if not g.is_constant():
                n = n.divexact(g)
                d = d.divexact(g)
        c = gcd(n.content(), d.content())
        if c > 1:
            n = LaurentPoly._raw({e: cc // c for e, cc in n.terms.items()})
            d = LaurentPoly._raw({e: cc // c for e, cc in d.terms.items()})
        if d.leading_coeff() < 0:
            n, d = -n, -d
        self.num = n.shift(a - b)
        self.den = d

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFn):
            return x
        # a bool is not an int here, as in LaurentPoly.const
        if type(x) is int or isinstance(x, LaurentPoly):
            return RationalFn(x)
        return None

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = RationalFn._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFn)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = RationalFn._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RationalFn._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFn._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = RationalFn._coerce(other)
        if other is None:
            return NotImplemented
        # cross-multiplication: independent of representation
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # in canonical form a value equal to a polynomial has the
        # denominator one; it hashes as that polynomial, a constant as its int
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    def to_laurent(self):
        """Convert to LaurentPoly; exact iff the denominator is the unit."""
        if self.den.is_one():
            return self.num
        try:
            return self.num.divexact(self.den)
        except ExactnessError as err:
            raise ExactnessError(
                f"rational function ({self.num})/({self.den}) is not a "
                "Laurent polynomial", remainder=err.remainder) from None

    def to_pairs(self):
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    def format(self, var="t"):
        if self.den.is_one():
            return self.num.format(var)
        return f"({self.num.format(var)}) / ({self.den.format(var)})"

    def __repr__(self):
        return f"RationalFn<{self.format('t')}>"
