"""Exact scalar and polynomial arithmetic over the rationals.

The construction/verification pipeline runs entirely on exact arithmetic;
floating point appears only in :mod:`xoppak.numerics`.  This module holds
the rational scalar type, dense univariate polynomials, reduced rational
functions, fraction-free determinants of polynomial matrices, and exact
counting of nonnegative real roots via Sturm chains.
"""
from __future__ import annotations

import math

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rational

try:
    from gmpy2 import iroot as _iroot
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency

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


class Poly:
    """Dense univariate polynomial with rational coefficients.

    Coefficients are stored lowest degree first with no trailing zeros; the
    zero polynomial has an empty coefficient tuple and degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, cs):
        # internal: cs already a list of Rationals, possibly untrimmed
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
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
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else rat(0)

    def __call__(self, v):
        v = rat(v)
        out = rat(0)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return Poly._raw(cs)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly.zero()
            cs = [rat(0)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        cs[i + j] += ai * bj
            return Poly._raw(cs)
        try:
            c = rat(other)
        except (ParameterError, ValueError, TypeError):
            return NotImplemented
        if c == 0:
            return Poly.zero()
        return Poly._raw([a * c for a in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return Poly._raw([a / c for a in self.coeffs])

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
            return self.coeffs == other.coeffs
        try:
            c = rat(other)
        except (ParameterError, ValueError, TypeError):
            return NotImplemented
        return self.coeffs == (() if c == 0 else (c,))

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self):
        return Poly._raw([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, j):
        """Return p(x + j)."""
        j = rat(j)
        if j == 0 or not self.coeffs:
            return self
        n = len(self.coeffs)
        jpow = [rat(1)]
        for _ in range(n - 1):
            jpow.append(jpow[-1] * j)
        cs = [rat(0)] * n
        for t, ct in enumerate(self.coeffs):
            if ct:
                for i in range(t + 1):
                    cs[i] += ct * math.comb(t, i) * jpow[t - i]
        return Poly._raw(cs)

    def compose(self, inner: "Poly"):
        """Return p(inner(x))."""
        out = Poly.zero()
        for c in reversed(self.coeffs):
            out = out * inner + Poly.constant(c)
        return out

    def reflect(self):
        """Return p(-x)."""
        return Poly._raw([-c if i % 2 else c for i, c in enumerate(self.coeffs)])

    def __divmod__(self, other: "Poly"):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.leading
        if len(rem) - 1 < db:
            return Poly.zero(), self
        q = [rat(0)] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                qc = c / lb
                q[i - db] = qc
                for t, bt in enumerate(other.coeffs):
                    rem[i - db + t] -= qc * bt
        return Poly._raw(q), Poly._raw(rem[:db])

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
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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


def _coerce_poly(v):
    if isinstance(v, Poly):
        return v
    try:
        return Poly.constant(rat(v))
    except (ParameterError, ValueError, TypeError):
        return NotImplemented


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials (zero if both are zero)."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b / b.leading
    if a.is_zero:
        return a
    return a / a.leading


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


# -- fraction-free determinant ------------------------------------------------
#
# Rows are scaled to integer coefficient lists (clearing denominators and
# stripping content), then eliminated with Bareiss' fraction-free scheme, in
# which every division is exact in Z[x].  The rational row scales multiply
# back onto the result.


def _imul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _isub(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    out[: len(a)] = a
    for i, bi in enumerate(b):
        out[i] -= bi
    while out and not out[-1]:
        out.pop()
    return out


def _idiv_exact(a, b):
    if not b:
        raise ZeroDivisionError("integer polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    if len(rem) - 1 < db:
        if any(rem):
            raise InternalInconsistencyError("non-exact division in determinant")
        return []
    q = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            qc, r = divmod(c, lb)
            if r:
                raise InternalInconsistencyError("non-exact division in determinant")
            q[i - db] = qc
            for t, bt in enumerate(b):
                rem[i - db + t] -= qc * bt
    if any(rem[:db]):
        raise InternalInconsistencyError("non-exact division in determinant")
    while q and not q[-1]:
        q.pop()
    return q


def poly_det(matrix) -> Poly:
    """Determinant of a square matrix of Poly entries, exactly."""
    rows = [[e if isinstance(e, Poly) else Poly.constant(e) for e in r] for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParameterError("determinant of a non-square matrix")
    if n == 0:
        return Poly.one()

    scale = rat(1)
    M = []
    for row in rows:
        den = 1
        for p in row:
            for c in p.coeffs:
                den = math.lcm(den, int(c.denominator))
        ints = []
        g = 0
        for p in row:
            lst = [int(c.numerator) * (den // int(c.denominator)) for c in p.coeffs]
            ints.append(lst)
            for v in lst:
                g = math.gcd(g, v)
        if g == 0:
            return Poly.zero()
        if g > 1:
            ints = [[v // g for v in lst] for lst in ints]
        scale *= rat(g, den)
        M.append(ints)

    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        piv = M[k][k]
        for i in range(k + 1, n):
            row_i = M[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                num = _isub(_imul(piv, row_i[j]), _imul(mik, M[k][j]))
                row_i[j] = _idiv_exact(num, prev) if prev != [1] else num
            row_i[k] = []
        prev = piv
    det = Poly(M[n - 1][n - 1])
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
        a = abs_rat(p.coeffs[d - i])
        if a == 0:
            continue
        fuji = max(fuji, _nth_root_upper(a / lc, i))
    return min(rat(2 * fuji) if fuji else rat(0), cauchy_root_bound(p))
