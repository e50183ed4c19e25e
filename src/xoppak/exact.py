"""Exact scalar and polynomial arithmetic over the rationals.

The construction/verification pipeline runs entirely on exact arithmetic;
floating point appears only in :mod:`xoppak.numerics`.  This module holds
the rational scalar type, dense univariate polynomials, reduced rational
functions, fraction-free determinants of polynomial matrices, and exact
counting of nonnegative real roots via Sturm chains.
"""
from __future__ import annotations

import math
from functools import reduce

# gmpy2 is an optional accelerator; the polynomial kernel converts every
# numerator and denominator with int(), so both backends compute the same
# integers and give the same results
try:
    from gmpy2 import mpq as Rational
except ImportError:  # without the gmpy2 extra
    from fractions import Fraction as Rational

try:
    from gmpy2 import iroot as _iroot
except ImportError:  # without the gmpy2 extra

    def _iroot(n, i):
        n = int(n)
        lo, hi = 0, 1 << ((n.bit_length() + i - 1) // i)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid**i <= n:
                lo = mid
            else:
                hi = mid - 1
        return lo, lo**i == n

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
    """Build a Rational; floats are rejected to keep everything exact."""
    if isinstance(value, float) or isinstance(den, float):
        raise ParameterError("refusing to build a rational from a float")
    if den is not None:
        if den == 0:
            raise ParameterError("zero denominator")
        return Rational(value, den)
    return Rational(value)


def parse_rational(text: str):
    """Parse 'p/q' or 'p' (optionally signed) into a Rational."""
    cleaned = "".join(str(text).split())
    try:
        return Rational(cleaned)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"not a rational: {text!r}") from exc


def format_rational(q) -> str:
    """Serialize a Rational as 'p/q' or 'p' (exact, never a float)."""
    return str(Rational(q))


def poly_strings(p) -> list:
    """Serialize a polynomial as its coefficients, lowest degree first."""
    return [format_rational(c) for c in p.coeffs]


def is_integer(q) -> bool:
    return Rational(q).denominator == 1


def as_int(q) -> int:
    q = Rational(q)
    if q.denominator != 1:
        raise DomainError(f"{q} is not an integer")
    return int(q.numerator)


def rat_floor(q) -> int:
    q = Rational(q)
    return int(q.numerator) // int(q.denominator)


def rat_ceil(q) -> int:
    return -rat_floor(-Rational(q))


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


def gen_binomial(q, j: int):
    """Generalized binomial coefficient with rational top: C(q, j)."""
    if j < 0:
        return rat(0)
    q = rat(q)
    out = rat(1)
    for i in range(j):
        out *= q - i
    return out / math.factorial(j)


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


def _pack(a, width: int) -> int:
    """a(2^(8*width)) for |coefficients of a| < 2^(8*width - 1)."""
    half = 1 << (8 * width - 1)
    packed = b"".join([(c + half).to_bytes(width, "little") for c in a])
    return int.from_bytes(packed, "little") - _bias(len(a), width)


def _unpack(value: int, n: int, width: int) -> list:
    """The n coefficients of the polynomial that _pack(., width) maps to value."""
    half = 1 << (8 * width - 1)
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
        cs = [rat(c) for c in coeffs]
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
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1):
        return cls([0] * k + [c])

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
        v = rat(v)
        if not self._nums:
            return rat(0)
        p, q = int(v.numerator), int(v.denominator)
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
        if isinstance(other, Poly):
            return Poly._make(_zmul(self._nums, other._nums), self._den * other._den)
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

    def __hash__(self):
        # a constant hashes like the scalar it equals
        if len(self._nums) <= 1:
            return hash(self.coeff(0))
        return hash((self._nums, self._den))

    def derivative(self):
        return Poly._make([i * c for i, c in enumerate(self._nums)][1:], self._den)

    def shift(self, j):
        """Return p(x + j)."""
        j = rat(j)
        if j == 0 or not self._nums:
            return self
        r, s = int(j.numerator), int(j.denominator)
        if s == 1:
            # a shift by an integer keeps the content and the leading term
            return Poly._from_lowest(tuple(_ztaylor(self._nums, r)), self._den)
        # self(x + r/s) = g(s*x + r) / s^n with g(y) = s^n self(y/s) in Z[y]
        n = len(self._nums) - 1
        spow = [1]
        for _ in range(n):
            spow.append(spow[-1] * s)
        g = _ztaylor([c * spow[n - i] for i, c in enumerate(self._nums)], r)
        return Poly._make([c * spow[i] for i, c in enumerate(g)], self._den * spow[n])

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

    def __str__(self):
        if not self._nums:
            return "0"
        cs = self.coeffs
        parts = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            mag = format_rational(c if c > 0 else -c)
            if i == 0:
                term = mag
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                term = xpart if mag == "1" else f"{mag}*{xpart}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


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


def binom_poly(p: Poly, j: int) -> Poly:
    """Generalized binomial C(p(x), j) with a polynomial top."""
    if j < 0:
        return Poly.zero()
    out = Poly.one()
    for i in range(j):
        out = out * (p - i)
    return out / math.factorial(j)


def pochhammer_poly(p: Poly, j: int) -> Poly:
    """Rising factorial (p(x))_j with a polynomial argument, j >= 0."""
    if j < 0:
        raise DomainError("polynomial pochhammer needs a nonnegative index")
    out = Poly.one()
    for i in range(j):
        out = out * (p + i)
    return out


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
    back from its value.  The rational row scales multiply back at the end.
    """
    rows = [[e if isinstance(e, Poly) else Poly.constant(e) for e in r] for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParameterError("determinant of a non-square matrix")
    if n == 0:
        return Poly.one()

    scale = rat(1)
    bound, degree = 1, 0
    M = []
    for row in rows:
        den = reduce(math.lcm, [p._den for p in row], 1)
        ints = [[c * (den // p._den) for c in p._nums] for p in row]
        g = _content([_content(lst) for lst in ints])
        if g == 0:
            return Poly.zero()
        if g > 1:
            ints = [[c // g for c in lst] for lst in ints]
        scale *= rat(g, den)
        bound *= sum(sum(map(abs, lst)) for lst in ints)
        degree += max(map(len, ints)) - 1
        M.append(ints)
    width = (bound.bit_length() + 8) // 8
    M = [[_pack(lst, width) for lst in ints] for ints in M]

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
                return Poly.zero()
        piv, row_k = M[k][k], M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j], rem = divmod(piv * row_i[j] - mik * row_k[j], prev)
                if rem:
                    raise InternalInconsistencyError("non-exact division in determinant")
        prev = piv
    det = Poly._make(_unpack(M[n - 1][n - 1], degree + 1, width), 1)
    return det * (scale if sign > 0 else -scale)


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
    """Determinant of a square matrix of Rationals (small sizes, plain Bareiss)."""
    M = [[rat(v) for v in r] for r in rows]
    n = len(M)
    if any(len(r) != n for r in M):
        raise ParameterError("determinant of a non-square matrix")
    if n == 0:
        return rat(1)
    sign = 1
    prev = rat(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return rat(0)
        piv = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (piv * M[i][j] - M[i][k] * M[k][j]) / prev
            M[i][k] = rat(0)
        prev = piv
    return sign * M[n - 1][n - 1]


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
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

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

    def __rsub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial hashes like the Poly, and so a constant like the scalar, it equals
        if self.is_polynomial:
            return hash(self.num)
        return hash((self.num, self.den))

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

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _coerce_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly):
        return RatFunc(v)
    try:
        return RatFunc(Poly.constant(rat(v)))
    except (ParameterError, ValueError, TypeError):
        return NotImplemented


def _sign_variations(signs) -> int:
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def sturm_nonneg_roots(p: Poly) -> int:
    """Number of distinct real roots of p in [0, oo), exactly.

    A root at 0 is counted.  Raises on the zero polynomial.
    """
    if p.is_zero:
        raise DomainError("root counting on the zero polynomial")
    q = p // poly_gcd(p, p.derivative()) if p.degree >= 2 else p
    count = 0
    if not q.is_zero and q(0) == 0:
        count += 1
        while q(0) == 0 and q.degree >= 1:
            q = q.exact_div(Poly.x())
    if q.degree < 1:
        return count
    chain = [q, q.derivative()]
    while chain[-1].degree >= 1:
        r = -(chain[-2] % chain[-1])
        if r.is_zero:
            break
        chain.append(r / abs(r.leading))
    at_zero = [s(0) for s in chain]
    at_inf = [s.leading for s in chain]
    return count + _sign_variations(at_zero) - _sign_variations(at_inf)


def abs_rat(q):
    q = rat(q)
    return q if q >= 0 else -q


def cauchy_root_bound(p: Poly):
    """Rational B with all complex roots of p inside |z| <= B."""
    if p.is_zero or p.degree <= 0:
        return rat(1)
    lc = abs_rat(p.leading)
    m = max(abs_rat(c) for c in p.coeffs[:-1])
    return rat(1) + m / lc


def _nth_root_upper(q, i: int):
    """Smallest convenient integer upper bound for q**(1/i), q >= 0 rational."""
    n = int(rat_ceil(q))
    if n <= 0:
        return 0
    root, exact = _iroot(n, i)
    return int(root) if exact else int(root) + 1


def root_bound(p: Poly):
    """Rational B with all complex roots of p inside |z| <= B.

    Takes the smaller of the Cauchy bound 1 + max|a_i|/|a_d| and the Fujiwara
    style bound 2 * max_i |a_{d-i}/a_d|**(1/i); the latter stays proportional
    to the largest root magnitude even when the coefficient spread is wide.
    """
    if p.is_zero or p.degree <= 0:
        return rat(1)
    lc = abs_rat(p.leading)
    d = p.degree
    fuji = 0
    for i in range(1, d + 1):
        a = abs_rat(p.coeff(d - i))
        if a == 0:
            continue
        fuji = max(fuji, _nth_root_upper(a / lc, i))
    return min(rat(2 * fuji) if fuji else rat(0), cauchy_root_bound(p))
