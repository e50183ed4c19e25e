"""Classical Meixner and Laguerre polynomials.

The Meixner normalization used throughout is

    m_n(x) = a^n/(1-a)^n * sum_j a^(-j) C(x, j) C(-x-c, n-j),

which is not monic; everything downstream (determinants, duality
constants) depends on this exact scaling.  The basis is built by the
three-term recurrence in this normalization, on integer numerators over one
denominator, and the explicit sum above serves the tests as the oracle.
Laguerre polynomials use the standard normalization
L_n(0) = (1+alpha)_n / n!, and are built coefficient by coefficient from the
ratio of consecutive coefficients, again on integers.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .exact import ParameterError, PoleError, Poly, is_integer, rat


class MeixnerParams:
    """Parameters (a, c) with a outside {0, 1} and c not a nonpositive integer."""

    __slots__ = ("a", "c")

    def __init__(self, a, c):
        a = rat(a)
        c = rat(c)
        if a == 0 or a == 1:
            raise ParameterError(f"parameter a must avoid 0 and 1: {a}")
        if is_integer(c) and c <= 0:
            raise ParameterError(f"parameter c must not be a nonpositive integer: {c}")
        self.a = a
        self.c = c

    @classmethod
    def formal(cls, a, c) -> "MeixnerParams":
        """Unvalidated (a, c) for formal substitutions: the Krawtchouk case
        c = -N + 1 and the reflected parameters of the Omega invariance."""
        p = object.__new__(cls)
        p.a = rat(a)
        p.c = rat(c)
        return p

    def __repr__(self):
        return f"MeixnerParams(a={self.a}, c={self.c})"


class LaguerreParams:
    """Parameter alpha; unrestricted for polynomial construction."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        self.alpha = rat(alpha)

    def __repr__(self):
        return f"LaguerreParams(alpha={self.alpha})"


def _terms(q) -> tuple:
    """(numerator, denominator) of a Rational as Python ints."""
    return int(q.numerator), int(q.denominator)


# The two caches below hold the whole classical basis.  They are keyed by
# the degree and the integer terms of the parameters, which hash faster than
# Rationals, and they hold integer numerators over one denominator.


@lru_cache(maxsize=None)
def _meixner_cached(n: int, p: int, q: int, r: int, s: int) -> Poly:
    # m_n at a = p/q and c = r/s
    if n < 0:
        return Poly.zero()
    if p == q:
        raise PoleError("meixner polynomials need a != 1")
    if n == 0:
        return Poly.one()
    if p == 0:
        raise PoleError("meixner polynomials of positive degree need a != 0")
    # fill the lower degrees in ascending order, so that every lookup below
    # is a hit and no step recurses deeper than one level
    for j in range(1, n - 1):
        _meixner_cached(j, p, q, r, s)
    hi, lo = _meixner_cached(n - 1, p, q, r, s), _meixner_cached(n - 2, p, q, r, s)
    # the three-term recurrence from degree k = n-1, with d = p-q:
    # (k+1) s d^2 m_{k+1} = s d^2 x m_k + d (ksq + (ks+r)p) m_k - (r+(k-1)s) pq m_{k-1}
    d, k = p - q, n - 1
    g = math.gcd(hi._den, lo._den)
    f_hi, f_lo = lo._den // g, hi._den // g
    x_coeff = s * d * d * f_hi
    m_coeff = d * (k * s * q + (k * s + r) * p) * f_hi
    lo_coeff = (r + (k - 1) * s) * p * q * f_lo
    nums = [x_coeff * u + m_coeff * v for u, v in zip((0,) + hi._nums, hi._nums + (0,))]
    nums[: len(lo._nums)] = [v - lo_coeff * u for v, u in zip(nums, lo._nums)]
    return Poly._make(nums, n * s * d * d * hi._den * f_hi)


def meixner_raw(n: int, a, c) -> Poly:
    """Meixner polynomial without parameter validation (formal substitutions)."""
    return _meixner_cached(int(n), *_terms(rat(a)), *_terms(rat(c)))


def meixner(n: int, p: MeixnerParams) -> Poly:
    """Degree-n Meixner polynomial; zero for n < 0."""
    return _meixner_cached(int(n), *_terms(p.a), *_terms(p.c))


@lru_cache(maxsize=None)
def _laguerre_cached(n: int, p: int, q: int) -> Poly:
    # L_n^(alpha) at alpha = p/q: coefficient j is (-1)^j t_j over q^n n!,
    # with t_j = C(n, j) q^j prod_{i=j+1..n} (p + iq); each t_{j-1} follows
    # from t_j by the exact ratio j (p + jq) / ((n-j+1) q)
    if n < 0:
        return Poly.zero()
    nums = [0] * (n + 1)
    t = q**n
    for j in range(n, 0, -1):
        nums[j] = -t if j % 2 else t
        t = t * j * (p + j * q) // ((n - j + 1) * q)
    nums[0] = t
    return Poly._make(nums, q**n * math.factorial(n))


def laguerre(n: int, p) -> Poly:
    """Degree-n Laguerre polynomial; zero for n < 0."""
    alpha = p.alpha if isinstance(p, LaguerreParams) else rat(p)
    return _laguerre_cached(int(n), *_terms(alpha))

