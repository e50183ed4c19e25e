"""Arbitrary-precision evaluation and certified series summation.

Exact identities elsewhere in the package never touch floats; this module
is the single place where factored scalars collapse to mpmath numbers and
infinite sums or integrals are truncated.  Truncations are certified: the
discrete summation bounds its tail by a geometric series whose ratio is
established rigorously from root bounds of the factored term ratio, and the
Laguerre integrals carry an incomplete-gamma tail bound.

The working precision (decimal digits) is read from the XOPPAK_PRECISION
environment variable at import time; the default is 50.
"""
from __future__ import annotations

import os

import mpmath as mp

from .exact import Poly, PoleError, is_integer, rat, rat_ceil, rat_pow, root_bound
from .factored import FactoredScalar

_DEFAULT_DPS = 50


def _configure_precision():
    raw = os.environ.get("XOPPAK_PRECISION", "")
    try:
        dps = int(raw) if raw else _DEFAULT_DPS
    except ValueError:
        dps = _DEFAULT_DPS
    mp.mp.dps = max(dps, 15)


_configure_precision()


def to_mpf(q) -> mp.mpf:
    q = rat(q)
    return mp.fdiv(int(q.numerator), int(q.denominator))


def gamma_rational(q) -> mp.mpf:
    q = rat(q)
    if is_integer(q) and q <= 0:
        raise PoleError(f"gamma pole at {q}")
    return mp.gamma(to_mpf(q))


def collapse(value) -> mp.mpf:
    """Numeric value of a FactoredScalar (or plain rational)."""
    if not isinstance(value, FactoredScalar):
        return to_mpf(value)
    out = to_mpf(value.rational)
    for arg, e in value.gammas:
        out *= gamma_rational(arg) ** e
    for base, e in value.powers:
        out *= mp.power(to_mpf(base), to_mpf(e))
    if value.exp_arg != 0:
        out *= mp.exp(to_mpf(value.exp_arg))
    return out


class SumResult:
    """Exact partial sum of a series plus a certified bound on its tail.

    Both fields are rationals in the caller's carrier units (the caller
    usually factors a common Gamma carrier out of every term).
    """

    __slots__ = ("value", "tail_bound", "terms", "cutoff")

    def __init__(self, value, tail_bound, terms, cutoff):
        self.value = value
        self.tail_bound = tail_bound
        self.terms = terms
        self.cutoff = cutoff

    def __repr__(self):
        return (
            f"SumResult(value={self.value}, tail_bound={self.tail_bound}, "
            f"terms={self.terms}, cutoff={self.cutoff})"
        )


def ratio_cutoff(scale, factors):
    """Certified (X0, r) for a term ratio in factored form.

    The ratio is scale * prod_i P_i(x + s_i)/P_i(x) with |scale| < 1 and the
    ratio tending to scale.  For x beyond the Cauchy root bound B of P, every
    root rho of P satisfies |x + s - rho| <= |x - rho| + |s| and
    |x - rho| >= x - B, so |P(x+s)/P(x)| <= (1 + |s|/(x-B))^deg(P).  The
    resulting bound on the ratio is decreasing in x; the least integer X0
    where it drops to r = (1+|scale|)/2 is found by doubling and bisection.
    """
    scale = rat(scale)
    s_abs = abs(scale)
    if s_abs >= 1:
        raise ValueError(f"ratio limit {scale} is not inside (-1, 1)")
    r = (1 + s_abs) / 2
    parts = []
    max_b = rat(0)
    for poly, shift in factors:
        shift = abs(rat(shift))
        if poly.degree <= 0 or shift == 0:
            continue
        b = root_bound(poly)
        parts.append((b, int(poly.degree), shift))
        max_b = max(max_b, b)
    if not parts:
        return 0, r

    def bound(x):
        total = s_abs
        for b, d, shift in parts:
            total *= rat_pow(1 + shift / (x - b), d)
        return total

    lo = rat_ceil(max_b) + 1
    if bound(lo) <= r:
        return lo, r
    hi = lo + 1
    while bound(hi) > r:
        hi = 2 * hi
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if bound(mid) <= r:
            hi = mid
        else:
            lo = mid
    return hi, r


def certified_sum(
    term,
    scale,
    factors,
    rel_tol=None,
    abs_tol=None,
    max_terms: int = 200000,
) -> SumResult:
    """Sum term(x) for x = 0, 1, 2, ... with a certified tail bound.

    The caller guarantees the exact recurrence
    term(x+1) = scale * prod_i P_i(x + s_i)/P_i(x) * term(x) for x >= 0,
    passing factors as (P_i, s_i) pairs.  Terms must be exact rationals; the
    partial sum is exact and only the tail is bounded.  Stops once the bound
    meets rel_tol (vs the running sum) or abs_tol.
    """
    if rel_tol is None and abs_tol is None:
        raise ValueError("need rel_tol or abs_tol")
    cutoff, r = ratio_cutoff(scale, factors)
    gfac = r / (1 - r)
    total = rat(0)
    for x in range(max_terms):
        t = rat(term(x))
        total += t
        if x >= cutoff:
            if t == 0:
                return SumResult(total, rat(0), x + 1, cutoff)
            bound = abs(t) * gfac
            if abs_tol is not None and bound <= rat(abs_tol) / 2:
                return SumResult(total, bound, x + 1, cutoff)
            if rel_tol is not None and total != 0 and bound <= rat(rel_tol) * abs(total) / 2:
                return SumResult(total, bound, x + 1, cutoff)
    raise ValueError(f"tolerance not reached after {max_terms} terms")


class QuadResult:
    """Numeric integral over [0, upper] plus a bound on the neglected tail."""

    __slots__ = ("value", "tail_bound", "upper")

    def __init__(self, value, tail_bound, upper):
        self.value = value
        self.tail_bound = tail_bound
        self.upper = upper

    def __repr__(self):
        return f"QuadResult(value={self.value}, tail_bound={self.tail_bound}, upper={self.upper})"


def laguerre_type_integral(numerator: Poly, denominator: Poly, exponent) -> QuadResult:
    """Integral of numerator(x)/denominator(x) * x^exponent * exp(-x) on (0, inf).

    The denominator must not vanish on [0, inf) and exponent must exceed -1.
    Integrates numerically on [0, 1, upper] (splitting at 1 tames the
    x^exponent endpoint singularity) and bounds the rest: past twice the root
    bound B of either polynomial, |num| <= |lc_n| (3x/2)^dn and
    |den| >= |lc_d| (x/2)^dd, so the rational factor is within an explicit
    constant of |lc ratio| x^(dn - dd) and the tail is controlled by an upper
    incomplete gamma value.
    """
    exponent = rat(exponent)
    if exponent <= -1:
        raise ValueError(f"x-exponent {exponent} is not integrable at 0")
    dn, dd = numerator.degree, denominator.degree
    if dn < 0:
        return QuadResult(mp.mpf(0), mp.mpf(0), mp.mpf(1))
    x0 = max(rat(2), 2 * root_bound(numerator), 2 * root_bound(denominator))
    s_exp = exponent + (dn - dd) + 1
    upper_rat = max(x0, 60 + 4 * max(rat(0), s_exp))
    upper = to_mpf(upper_rat)
    sandwich = rat_pow(rat(3, 2), dn) * rat_pow(rat(2), dd)
    lead_ratio = sandwich * abs(numerator.leading / denominator.leading)

    num_c = [to_mpf(c) for c in numerator.coeffs]
    den_c = [to_mpf(c) for c in denominator.coeffs]
    expo = to_mpf(exponent)

    def integrand(t):
        return (
            mp.polyval(num_c[::-1], t)
            / mp.polyval(den_c[::-1], t)
            * mp.power(t, expo)
            * mp.exp(-t)
        )

    value = mp.quad(integrand, [0, 1, upper])
    tail = to_mpf(lead_ratio) * mp.gammainc(to_mpf(s_exp), upper, mp.inf)
    return QuadResult(value, abs(tail), upper)
