"""Exact scalar and polynomial arithmetic over the rationals.

The construction/verification pipeline runs entirely on exact arithmetic;
floating point appears only in :mod:`xoppak.numerics`.  This module holds
the rational scalar type, dense univariate polynomials, reduced rational
functions, fraction-free determinants of polynomial matrices, and Sturm
isolation of nonnegative real roots in unit cells.  Products, determinants
and whole sums of products of polynomials evaluate their integer numerators
at one power of two (Kronecker substitution), so each runs as big-integer
arithmetic read back once.  Every sum of products outside Poly arithmetic,
an operator applied to a polynomial among them, is one sum_of_products or
ratfunc_of_sums; a single product stays on _zmul, which is cheaper for it.
A sum of quotients is brought over one denominator first: reduced once by
ratfunc_of_quotients, or tested for zero with no gcd by quotients_vanish.
RatFunc's arithmetic beyond == is reached from the tests only, where it is
the reference the reductions are checked against, so it stays.
"""
from __future__ import annotations

import math
from functools import cache, reduce

# gmpy2 is an optional accelerator; the polynomial kernel converts every
# numerator and denominator with int(), so both backends compute the same
# integers and give the same results
try:
    from gmpy2 import mpq as Rational
except ImportError:  # without the gmpy2 extra
    from fractions import Fraction as Rational

NEG_INF = float("-inf")


class ParameterError(ValueError):
    """Invalid parameters (bad rationals, out-of-range family parameters)."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


class PoleError(ZeroDivisionError):
    """Evaluation at a pole (vanishing denominator, gamma at a nonpositive integer)."""


class InternalInconsistencyError(RuntimeError):
    """An identity that must hold by construction failed; indicates a bug."""


class AdmissibilityRefusal(Exception):
    """Operation refused because the parameter/pair combination is not admissible."""


def rat(value, den=None):
    """Build a Rational; floats are rejected to keep everything exact.

    A Rational comes back as it is: the type is immutable.
    """
    if den is None and type(value) is Rational:
        return value
    if isinstance(value, float) or isinstance(den, float):
        raise ParameterError("refusing to build a rational from a float")
    if den is not None:
        if den == 0:
            raise ParameterError("zero denominator")
        return Rational(value, den)
    return Rational(value)


def format_rational(q) -> str:
    """Serialize a Rational as 'p/q' or 'p' (exact, never a float)."""
    return str(Rational(q))


def poly_strings(p) -> list:
    """Serialize a polynomial as its coefficients, lowest degree first."""
    return [format_rational(c) for c in p.coeffs]


def is_integer(q) -> bool:
    return Rational(q).denominator == 1


def rat_ceil(q) -> int:
    q = Rational(q)
    return -(-int(q.numerator) // int(q.denominator))


def rat_pow(q, e: int):
    """q**e for integer e of either sign."""
    q = Rational(q)
    if e >= 0:
        return q**e
    if q == 0:
        raise PoleError("0 raised to a negative power")
    return 1 / q ** (-e)


def pochhammer(q, j: int):
    """Rising factorial (q)_j = q(q+1)...(q+j-1).

    ``j`` may be negative, with the reciprocal convention
    (q)_{-m} = 1/((q-1)(q-2)...(q-m)).
    """
    q = rat(q)
    if j >= 0:
        out = rat(1)
        for i in range(j):
            out *= q + i
        return out
    prod = rat(1)
    for i in range(1, -j + 1):
        prod *= q - i
    if prod == 0:
        raise PoleError(f"pochhammer({q}, {j}) hits a zero factor")
    return 1 / prod


def gamma_sign(q) -> int:
    """Exact sign of Gamma(q) at a rational non-pole argument."""
    q = rat(q)
    if q > 0:
        return 1
    if is_integer(q):
        raise PoleError(f"gamma pole at {q}")
    return -1 if rat_ceil(-q) % 2 else 1


# -- integer polynomial kernel ------------------------------------------------
#
# An integer polynomial is a sequence of Python ints, lowest degree first.
# Poly keeps its coefficients as one of these over a common denominator, and
# poly_det eliminates on them directly, so every product, shift, division and
# gcd below runs on integers.
#
# CPython keeps freed tuples of up to 20 items on per-size free lists, and
# one that new tuples do not drain grows with every round of work.  Tuples
# sized by resizing (built from a generator) bypass the lists when made, and
# CPython 3.11 never reuses a freed 20-item tuple, such as the argument tuple
# of math.gcd(den, *nums) with 19 numerators.  So the kernel builds tuples
# from lists and folds gcds and lcms over coefficients with reduce.


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _bias(n: int, width: int) -> int:
    # sum of 2^(8*width - 1) * 2^(8*width*i) for i < n: the offset that makes
    # every slot of a packed polynomial with |coefficients| < 2^(8*width - 1)
    # nonnegative
    return int.from_bytes((b"\x00" * (width - 1) + b"\x80") * n, "little")


# Slots up to which _pack and _unpack shift and add one coefficient at a time.
# Each step copies the whole packed integer, so past a few dozen slots the
# linear byte round trip is faster; below, it spends more on its bytes
# objects and bias than on the integers.
SHORT_SLOTS = 16


def _pack(a, width: int) -> int:
    """a(2^(8*width)) for |coefficients of a| < 2^(8*width - 1)."""
    if len(a) <= SHORT_SLOTS:
        shift, value = 8 * width, 0
        for c in reversed(a):
            value = (value << shift) + c
        return value
    half = 1 << (8 * width - 1)
    packed = b"".join([(c + half).to_bytes(width, "little") for c in a])
    return int.from_bytes(packed, "little") - _bias(len(a), width)


def _unpack(value: int, n: int, width: int) -> list:
    """The n coefficients of the polynomial that _pack(., width) maps to value."""
    half = 1 << (8 * width - 1)
    if n <= SHORT_SLOTS:
        shift, mask = 8 * width, (1 << 8 * width) - 1
        out = []
        for _ in range(n):
            c = value & mask
            value >>= shift
            if c >= half:
                # a negative slot borrowed one from the slot above
                c -= mask + 1
                value += 1
            out.append(c)
        return out
    buf = (value + _bias(n, width)).to_bytes(n * width, "little")
    return [int.from_bytes(buf[i : i + width], "little") - half for i in range(0, n * width, width)]


def _zmul(a, b) -> list:
    """Product of integer polynomials by Kronecker substitution.

    Both factors are evaluated at 2^(8*width), with a slot wide enough for
    every product coefficient and its sign, the two integers are multiplied
    once, and the product's slots are read back as signed digits.
    """
    if not a or not b:
        return []
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    width = (bits + min(len(a), len(b)).bit_length() + 8) // 8
    packed = _pack(a, width)
    product = packed * packed if a is b else packed * _pack(b, width)
    return _unpack(product, len(a) + len(b) - 1, width)


def _zadd(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b) :])


def _zdivmod(a, b):
    """Pseudo-division: (q, r, s) with s*a == q*b + r and deg r < deg b.

    s > 0 is the product of the factors that the steps needed to keep the
    quotient integral; it is 1 when the leading coefficient of b divides
    every step, as in an exact division by a monic or Bareiss divisor.
    """
    db, lead = len(b) - 1, b[-1]
    r = list(a)
    if len(r) <= db:
        return [], _trim(r), 1
    q = [0] * (len(r) - db)
    s = 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        lo = i - db
        t, m = divmod(c, lead)
        if m:
            # scale the remainder and the quotient so far by the least
            # factor that makes this step integral
            g = math.gcd(c, lead)
            f, t = abs(lead) // g, (c if lead > 0 else -c) // g
            s *= f
            q = [x * f for x in q]
            r[:lo] = [x * f for x in r[:lo]]
            r[lo:i] = [x * f - t * y for x, y in zip(r[lo:i], b)]
        else:
            r[lo:i] = [x - t * y for x, y in zip(r[lo:i], b)]
        q[lo] = t
        r[i] = 0
    return q, _trim(r[:db]), s


def _ztaylor(a, j: int) -> list:
    """a(x + j) for an integer polynomial a and an integer j."""
    cs = list(a)
    n = len(cs) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            cs[k] += j * cs[k + 1]
    return cs


def _content(a, start: int = 0) -> int:
    """gcd of start and the entries of a."""
    return reduce(math.gcd, a, start)


def _primitive(a) -> list:
    """a divided by its content, with a positive leading coefficient."""
    if not a:
        return []
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a] if g != 1 else list(a)


class Poly:
    """Dense univariate polynomial with rational coefficients.

    Stored as integer numerators, lowest degree first, over one positive
    denominator, in lowest terms: no trailing zero numerators, and the gcd of
    the numerators and the denominator is 1.  Two equal polynomials therefore
    have equal fields.  The zero polynomial has no numerators, denominator 1
    and degree -inf.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            # integer coefficients are their own numerators over 1
            self._nums, self._den = _lowest(cs, 1)
            return
        cs = [rat(c) for c in cs]
        den = reduce(math.lcm, [int(c.denominator) for c in cs], 1)
        nums = [int(c.numerator) * (den // int(c.denominator)) for c in cs]
        self._nums, self._den = _lowest(nums, den)

    @classmethod
    def _make(cls, nums: list, den: int):
        # internal: integer numerators over den > 0, in any terms
        p = object.__new__(cls)
        p._nums, p._den = _lowest(nums, den)
        return p

    @classmethod
    def _from_lowest(cls, nums: tuple, den: int):
        # internal: nums and den already in lowest terms
        p = object.__new__(cls)
        p._nums, p._den = nums, den
        return p

    @classmethod
    def zero(cls):
        return cls._from_lowest((), 1)

    @classmethod
    def one(cls):
        return cls._from_lowest((1,), 1)

    @classmethod
    def x(cls):
        return cls._from_lowest((0, 1), 1)

    @classmethod
    def constant(cls, c):
        if type(c) is int:
            return cls._from_lowest((c,) if c else (), 1)
        return cls((c,))

    @classmethod
    def monomial(cls, k: int):
        return cls._from_lowest(tuple([0] * k + [1]), 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Rationals, lowest degree first."""
        den = self._den
        return tuple([Rational(c, den) for c in self._nums])

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self):
        return len(self._nums) - 1 if self._nums else NEG_INF

    @property
    def leading(self):
        if not self._nums:
            raise DomainError("zero polynomial has no leading coefficient")
        return Rational(self._nums[-1], self._den)

    def coeff(self, k: int):
        return Rational(self._nums[k], self._den) if 0 <= k < len(self._nums) else rat(0)

    def __call__(self, v):
        if type(v) is int:
            p, q = v, 1
        else:
            v = rat(v)
            p, q = int(v.numerator), int(v.denominator)
        if not self._nums:
            return rat(0)
        # sum_i a_i p^i q^(n-i) by Horner, over den * q^n
        acc, qpow = 0, 1
        for c in reversed(self._nums):
            acc = acc * p + c * qpow
            qpow *= q
        return Rational(acc, self._den * (qpow // q))

    def _linear(self, other, sign: int):
        # self + sign * other
        a, b = self._nums, other._nums
        den = self._den
        if den != other._den:
            g = math.gcd(den, other._den)
            fa, fb = other._den // g, den // g
            a, b, den = [c * fa for c in a], [c * fb for c in b], den * fa
        return Poly._make(_zadd(a, b if sign > 0 else [-c for c in b]), den)

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._linear(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._from_lowest(tuple([-c for c in self._nums]), self._den)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._linear(other, -1)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other._linear(self, -1)

    def _scaled(self, p: int, q: int):
        # self * p/q for integers p and q > 0
        return Poly._make([c * p for c in self._nums] if p else [], self._den * q)

    def __mul__(self, other):
        # a product stays on _zmul, not a one-term sum_of_products, which
        # also pays for the lcm, the 1-norm bound and the identity map of its
        # factors: at degrees 2, 6 and 15 one product took 15.4, 17.3 and
        # 32.5 us that way against _zmul's 6.1, 9.3 and 22.2 (Fraction
        # backend, shared 2-vCPU x86-64 host)
        if isinstance(other, Poly):
            return Poly._make(_zmul(self._nums, other._nums), self._den * other._den)
        if type(other) is int:
            return self._scaled(other, 1)
        try:
            c = rat(other)
        except (ParameterError, ValueError, TypeError):
            return NotImplemented
        return self._scaled(int(c.numerator), int(c.denominator))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        p, q = int(c.numerator), int(c.denominator)
        return self._scaled(-q, -p) if p < 0 else self._scaled(q, p)

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial power")
        out = Poly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        try:
            c = rat(other)
        except (ParameterError, ValueError, TypeError):
            return NotImplemented
        if c == 0:
            return not self._nums
        return self._nums == (int(c.numerator),) and self._den == int(c.denominator)

    def derivative(self):
        return Poly._make([i * c for i, c in enumerate(self._nums)][1:], self._den)

    def shift(self, j):
        """Return p(x + j) for an integer j."""
        if type(j) is not int:
            j = rat(j)
            if j.denominator != 1:
                raise DomainError(f"polynomial shifts are by integers, got {j}")
            j = int(j)
        if not j or not self._nums:
            return self
        # a shift by an integer keeps the content and the leading term
        return Poly._from_lowest(tuple(_ztaylor(self._nums, j)), self._den)

    def compose(self, inner: "Poly"):
        """Return p(inner(x))."""
        out = Poly.zero()
        for c in reversed(self.coeffs):
            out = out * inner + Poly.constant(c)
        return out

    def reflect(self):
        """Return p(-x)."""
        nums = tuple([-c if i % 2 else c for i, c in enumerate(self._nums)])
        return Poly._from_lowest(nums, self._den)

    def __divmod__(self, other: "Poly"):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # s*a = q*b + r on the numerators, so self = (q*b_den/(s*a_den)) * other + r/(s*a_den)
        q, r, s = _zdivmod(self._nums, other._nums)
        den = s * self._den
        return Poly._make([c * other._den for c in q], den), Poly._make(r, den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly"):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise InternalInconsistencyError("polynomial division expected to be exact")
        return q

    def __repr__(self):
        return f"Poly([{', '.join(format_rational(c) for c in self.coeffs)}])"


def _lowest(nums: list, den: int):
    """(numerators, denominator) of nums/den in lowest terms, for den > 0."""
    _trim(nums)
    if not nums:
        return (), 1
    if den != 1:
        g = _content(nums, den)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


def _coerce_poly(v):
    if isinstance(v, Poly):
        return v
    if type(v) is int:
        return Poly.constant(v)
    try:
        return Poly.constant(rat(v))
    except (ParameterError, ValueError, TypeError):
        return NotImplemented


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials (zero if both are zero).

    Runs the primitive remainder sequence on the integer numerators: each
    pseudo-remainder is divided by its content, so the sequence stays in
    Z[x] without the coefficient growth of the plain Euclidean one.
    """
    u, v = _primitive(a._nums), _primitive(b._nums)
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_zdivmod(u, v)[1])
    if not u:
        return Poly.zero()
    return Poly._from_lowest(tuple(u), u[-1])


def sum_of_products(terms) -> Poly:
    """The sum of s * f_1 * ... * f_m over terms (s, (f_1, ..., f_m)), for
    int or Rational scalars s and Poly factors f_i, by one Kronecker
    substitution.

    Every term is cleared to integers over one lcm denominator, as an integer
    t times the product of its factors' numerators.  The sum of |t| times the
    product of the factors' numerator 1-norms bounds every coefficient of the
    cleared sum and of every factor, so each distinct factor (by identity) is
    evaluated once at x = 2^(8*width), with 2^(8*width - 1) above that bound;
    the terms are multiplied and added as plain integers, and the sum's
    coefficients are read back once.  Zero scalars and zero factors drop out.
    """
    cleared, den = [], 1
    for s, factors in terms:
        p, q = int(s.numerator), int(s.denominator)
        if p and all([f._nums for f in factors]):
            q *= math.prod([f._den for f in factors])
            cleared.append((p, q, factors))
            den = math.lcm(den, q)
    distinct = {id(f): f for _, _, factors in cleared for f in factors}
    norms = {i: sum(map(abs, f._nums)) for i, f in distinct.items()}
    bound = sum(abs(p) * (den // q) * math.prod([norms[id(f)] for f in factors])
                for p, q, factors in cleared)
    degree = max([sum(len(f._nums) - 1 for f in factors) for _, _, factors in cleared], default=0)
    width = (bound.bit_length() + 8) // 8
    packed = {i: _pack(f._nums, width) for i, f in distinct.items()}
    value = sum(p * (den // q) * math.prod([packed[id(f)] for f in factors])
                for p, q, factors in cleared)
    return Poly._make(_unpack(value, degree + 1, width), den)


def ratfunc_of_sums(num_terms, den_terms) -> "RatFunc":
    """The reduced quotient of the sum_of_products of num_terms and of
    den_terms.  A factor that every term of both lists has is cancelled
    first, so the gcd runs only on what is left."""
    terms = [(s, list(factors)) for s, factors in [*num_terms, *den_terms]]
    for f in list(terms[0][1]):
        if all(f in factors for _, factors in terms):
            for _, factors in terms:
                factors.remove(f)
    split = len(num_terms)
    return RatFunc(sum_of_products(terms[:split]), sum_of_products(terms[split:]))


# A quotient term (s, nums, dens) stands for s * prod(nums) / prod(dens), for
# an int or Rational s and Poly factors; a list of them stands for their sum.


def scale_terms(terms, s=1, nums=(), dens=()) -> list:
    """The quotient terms times s * prod(nums) / prod(dens)."""
    return [(s * t, (*n, *nums), (*d, *dens)) for t, n, d in terms]


def _over_one_denominator(terms):
    """(numerator terms, denominator factors) of a sum of quotient terms.

    The denominator has each factor (by equality) as often as the term that
    has it most often, and each term's numerator takes the factors its own
    denominator lacks."""
    common = []
    for _, _, dens in terms:
        unmatched = list(common)
        for f in dens:
            if f in unmatched:
                unmatched.remove(f)
            else:
                common.append(f)
    num = []
    for s, nums, dens in terms:
        lacking = list(common)
        for f in dens:
            lacking.remove(f)
        num.append((s, (*nums, *lacking)))
    return num, common


def ratfunc_of_quotients(terms) -> "RatFunc":
    """The sum of the quotient terms as one ratfunc_of_sums, reduced once."""
    num, den = _over_one_denominator(terms)
    return ratfunc_of_sums(num, [(1, den)])


def quotients_vanish(terms) -> bool:
    """Whether the quotient terms sum to zero: one sum_of_products of their
    numerators over one denominator, with no gcd."""
    return sum_of_products(_over_one_denominator(terms)[0]).is_zero


def poly_det(matrix) -> Poly:
    """Determinant of a square matrix of Poly entries, exactly.

    Each row is brought to integer numerators over one denominator, with
    its content taken out.  Every entry is then evaluated at x = 2^(8*width)
    (the Kronecker substitution of the product), with 2^(8*width - 1) above
    the product of the rows' 1-norms, which bounds every coefficient of
    every minor.  Evaluation is a ring map Z[x] -> Z that is one-to-one on
    polynomials within that bound, so Bareiss' fraction-free elimination
    runs on plain integers: each pivot is zero exactly when its minor is,
    each division is exact, and the determinant's coefficients are read
    back from its value.  The rows' scales, integer contents over lcm
    denominators, multiply back at the end as one integer fraction.
    """
    rows = [[e if isinstance(e, Poly) else Poly.constant(e) for e in r] for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParameterError("determinant of a non-square matrix")
    if n == 0:
        return Poly.one()

    # the rows' scales multiply to snum/sden
    snum = sden = 1
    bound, degree = 1, 0
    M = []
    for row in rows:
        den = reduce(math.lcm, [p._den for p in row], 1)
        ints = [p._nums if p._den == den else [c * (den // p._den) for c in p._nums] for p in row]
        g = _content([_content(lst) for lst in ints])
        if g == 0:
            return Poly.zero()
        if g > 1:
            ints = [[c // g for c in lst] for lst in ints]
        snum *= g
        sden *= den
        bound *= sum(sum(map(abs, lst)) for lst in ints)
        degree += max(map(len, ints)) - 1
        M.append(ints)
    width = (bound.bit_length() + 8) // 8
    value = _zbareiss([[_pack(lst, width) for lst in ints] for ints in M])
    return Poly._make([c * snum for c in _unpack(value, degree + 1, width)], sden)


def _zbareiss(M) -> int:
    """Determinant of a nonempty square integer matrix by Bareiss' fraction-free
    elimination, which overwrites M.  Every division is exact."""
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        piv, row_k = M[k][k], M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j], rem = divmod(piv * row_i[j] - mik * row_k[j], prev)
                if rem:
                    raise InternalInconsistencyError("non-exact division in determinant")
        prev = piv
    return sign * M[n - 1][n - 1]


def top_row_minors(rows) -> list:
    """Signed top-row minors of a k x (k+1) block of polynomial rows.

    Entry j is (-1)^j times the determinant of the block without column j,
    so a determinant with a top row t prepended to the block expands as
    sum_j t[j] * minors[j].
    """
    minors = []
    for j in range(len(rows) + 1):
        minor = poly_det([r[:j] + r[j + 1 :] for r in rows])
        minors.append(-minor if j % 2 else minor)
    return minors


def rational_det(rows):
    """Determinant of a square matrix of Rationals: Bareiss' elimination on each
    row over its lcm denominator, divided by the product of those denominators."""
    M = [[rat(v) for v in r] for r in rows]
    n = len(M)
    if any(len(r) != n for r in M):
        raise ParameterError("determinant of a non-square matrix")
    if n == 0:
        return rat(1)
    scale = 1
    for i, row in enumerate(M):
        den = reduce(math.lcm, [int(v.denominator) for v in row], 1)
        M[i] = [int(v.numerator) * (den // int(v.denominator)) for v in row]
        scale *= den
    return rat(_zbareiss(M), scale)


def interpolate_at_zero(nodes, values):
    """(value at 0, top coefficient) of the polynomial in h of degree below
    len(nodes) through the points (nodes[i], values[i]), by Newton's divided
    differences.  The values are Polys or Rationals, the nodes distinct
    Rationals; the top coefficient, that of h^(len(nodes) - 1), is zero
    exactly when a polynomial of lower degree fits the points."""
    nodes = [rat(h) for h in nodes]
    if not nodes or len(set(nodes)) != len(nodes) or len(values) != len(nodes):
        raise DomainError("interpolation needs one value at each of some distinct nodes")
    diffs = list(values)
    for j in range(1, len(diffs)):
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (nodes[i] - nodes[i - j])
    at_zero = diffs[-1]
    for h, d in zip(nodes[-2::-1], diffs[-2::-1]):
        at_zero = d - h * at_zero
    return at_zero, diffs[-1]


class RatFunc:
    """Rational function num/den, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = Poly.one() if den is None else (den if isinstance(den, Poly) else Poly.constant(den))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.leading
            if lc != 1:
                num, den = num / lc, den / lc
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def terms(self) -> list:
        """num / den as a list of one quotient term."""
        return [(1, (self.num,), (self.den,))]

    def derivative_terms(self) -> list:
        """The derivative (num' den - num den') / den^2 as quotient terms."""
        return [(1, (self.num.derivative(),), (self.den,)),
                (-1, (self.num, self.den.derivative()), (self.den, self.den))]

    def __add__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("rational function division by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def shift(self, j):
        """Return f(x + j)."""
        return RatFunc(self.num.shift(j), self.den.shift(j))

    def derivative(self):
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, v):
        dv = self.den(v)
        if dv == 0:
            raise PoleError(f"evaluation at pole {v}")
        return self.num(v) / dv

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _coerce_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly) or type(v) is int:
        return RatFunc(v)
    try:
        return RatFunc(Poly.constant(rat(v)))
    except (ParameterError, ValueError, TypeError):
        return NotImplemented


def nonneg_root_cells(p: Poly) -> list:
    """The integers n >= 0 at which p has a real root in [n, n + 1], ascending.

    Sturm's theorem counts the distinct roots of p in (lo, hi] as V(lo) - V(hi),
    V the sign variations of the Sturm chain of p's squarefree part q, kept as
    integer numerators (each remainder scaled by a positive factor, so every
    sign is read without a Fraction).  The chain of p and p' ends in their
    gcd, up to a scalar, so it is p's own when that element is a constant;
    otherwise it is rebuilt once on q = p // gcd.  Bisecting (-1, B],
    B = ceil(root_bound(q)), to unit cells (m, m + 1] places every root; one
    at an integer m >= 1 lies in the cells m - 1 and m, and one at B is read
    by q(B) = 0.  Raises on p = 0.
    """
    if p.is_zero:
        raise DomainError("root isolation on the zero polynomial")

    def sturm(q):
        chain = [q._nums, q.derivative()._nums]
        while len(chain[-1]) > 1 and (r := _zdivmod(chain[-2], chain[-1])[1]):
            g = _content(r)
            chain.append([-c // g for c in r])
        return chain

    q, chain = p, sturm(p)
    if len(chain[-1]) > 1:
        q = p // Poly._make(list(chain[-1]), 1)
        chain = sturm(q)

    @cache
    def var(x):
        # Horner's rule in plain loops and one pass over the signs, which
        # skips zeros: with a reduce over a lambda and a list of the nonzero
        # values, the cells of one Omega of sweep 4 4 (a = 1/2, c = 3) took
        # 265 us against 158 us (Fraction backend, shared 2-vCPU x86-64 host)
        count, last = 0, 0
        for s in chain:
            v = 0
            for c in reversed(s):
                v = v * x + c
            sign = (v > 0) - (v < 0)
            count += sign * last < 0
            last = sign or last
        return count

    cells, todo = [], [(-1, rat_ceil(root_bound(q)))]
    while todo:
        lo, hi = todo.pop()
        if var(lo) == var(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]
        else:
            cells += [lo] * (lo >= 0) + [hi] * (q(hi) == 0)
    return sorted(set(cells))


def _iroot(n, i):
    """(floor of the i-th root of the integer n >= 0, whether it is exact).

    Integer Newton steps from above the root decrease until the floor; the
    start is a float root of n's leading bits, rounded up, so a root of a few
    hundred bits takes a few steps.
    """
    if i == 1 or n < 2:
        root = n
    elif i == 2:
        root = math.isqrt(n)
    else:
        shift = max(0, n.bit_length() - 100) // i * i
        root = (int(float(n >> shift) ** (1 / i)) + 2) << (shift // i)
        while (step := ((i - 1) * root + n // root ** (i - 1)) // i) < root:
            root = step
    return root, root**i == n


def root_bound(p: Poly):
    """Rational B with all complex roots of p inside |z| <= B.

    Takes the smaller of the Cauchy bound 1 + max|a_i|/|a_d| and the Fujiwara
    style bound 2 * max_i ceil(|a_{d-i}/a_d|)**(1/i), rounded up; the latter
    stays proportional to the largest root magnitude even when the coefficient
    spread is wide.  Both read p's integer numerators, whose ratios are those
    of its coefficients.
    """
    nums = p._nums
    if len(nums) <= 1:
        return rat(1)
    lc, d = abs(nums[-1]), len(nums) - 1
    fuji = 0
    for i in range(1, d + 1):
        if a := abs(nums[d - i]):
            root, exact = _iroot(-(-a // lc), i)
            fuji = max(fuji, root + (not exact))
    return min(rat(2 * fuji), rat(lc + max(map(abs, nums[:-1])), lc))
