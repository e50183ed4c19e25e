"""Arbitrary-precision evaluation and certified series summation.

Exact identities elsewhere in the package never touch floats; this module
is where rationals and Gamma values become mpmath numbers and where
infinite sums or integrals are truncated.  Truncations are certified: the
discrete summation bounds its tail by a geometric series whose ratio is
established rigorously from root bounds of the factored term ratio, and the
Laguerre integrals carry an incomplete-gamma tail bound.  The tanh-sinh
quadrature of a Laguerre integral on the finite part, in t with x = t^q on
[0, 1] so that the integrand is analytic at t = 0, is not certified: it
carries mpmath's error estimate, not a bound.

Every numeric value is computed at DPS decimal digits.  Every float of the
package is made through `mp`, which stands for mpmath: the first attribute
read imports mpmath and sets its global precision to DPS.  Only the norms
rows that fall back to numerics (a Meixner sum's Gamma carrier and closed
form, a Laguerre quadrature) make one, so construct, sweep, admissible,
every other check and every Darboux chain row run without loading mpmath.
"""
from __future__ import annotations

import functools

from .exact import DomainError, Poly, PoleError, is_integer, rat, rat_ceil, rat_pow, root_bound

# the working precision in decimal digits
DPS = 50
# certified_sum gives up after this many terms
MAX_SUM_TERMS = 200000
# the tanh-sinh levels a pair short of its target may run past guess_degree(prec),
# which "will sometimes be wrong" (mpmath; mp.quad takes maxdegree for that):
# the [1, U] pass of some Laguerre norms meets eps/8 only one level later
EXTRA_LEVELS = 1


@functools.cache
def _mpmath():
    """mpmath, imported and set to DPS digits by the first call."""
    import mpmath

    mpmath.mp.dps = DPS
    return mpmath


class _Mpmath:
    """Stands for the mpmath module: the first attribute read loads it."""

    def __getattr__(self, name):
        value = getattr(_mpmath(), name)
        setattr(self, name, value)  # the next read of name finds it without this call
        return value


mp = _Mpmath()


def to_mpf(q) -> mp.mpf:
    q = rat(q)
    return mp.fdiv(int(q.numerator), int(q.denominator))


def gamma_rational(q) -> mp.mpf:
    q = rat(q)
    if is_integer(q) and q <= 0:
        raise PoleError(f"gamma pole at {q}")
    return mp.gamma(to_mpf(q))


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
    ratio tending to scale.  For x beyond the root bound B of P, every
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


def certified_sum(term, scale, factors, rel_tol=None) -> SumResult:
    """Sum term(x) for x = 0, 1, 2, ... with a certified tail bound.

    The caller guarantees the exact recurrence
    term(x+1) = scale * prod_i P_i(x + s_i)/P_i(x) * term(x) for x >= 0,
    passing factors as (P_i, s_i) pairs.  Terms must be exact rationals; the
    partial sum is exact and only the tail is bounded.  Stops once the bound
    is at most rel_tol * sum |term| / 2: on a nonnegative series, the sum; on
    two members against a positive weight, by Cauchy-Schwarz, at most the
    geometric mean of their squared norms.  Refuses with a DomainError once
    MAX_SUM_TERMS terms have not reached that bound.
    """
    if rel_tol is None or rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    cutoff, r = ratio_cutoff(scale, factors)
    gfac = r / (1 - r)
    half_tol = rat(rel_tol) / 2
    total = size = rat(0)
    for x in range(MAX_SUM_TERMS):
        t = rat(term(x))
        total += t
        size += abs(t)
        if x >= cutoff:
            bound = abs(t) * gfac
            if bound <= half_tol * size:
                return SumResult(total, bound, x + 1, cutoff)
    raise DomainError(f"tolerance not reached after {MAX_SUM_TERMS} terms")


class QuadResult:
    """Numeric integral over [0, upper], the quadrature's own error estimate,
    and a certified bound on the neglected tail past upper.

    error is mpmath's estimate for the last tanh-sinh level, summed over the
    subintervals; it is not a bound.  converged says whether every
    subinterval met mpmath's stopping rule before its degree cap.
    """

    __slots__ = ("value", "tail_bound", "upper", "error", "converged")

    def __init__(self, value, tail_bound, upper, error, converged):
        self.value = value
        self.tail_bound = tail_bound
        self.upper = upper
        self.error = error
        self.converged = converged

    def __repr__(self):
        return (
            f"QuadResult(value={self.value}, tail_bound={self.tail_bound}, "
            f"upper={self.upper}, error={self.error}, converged={self.converged})"
        )


def laguerre_type_integral(members, denominator: Poly, exponent, pairs) -> dict:
    """Integrals of members[n] * members[r] / denominator * x^exponent * exp(-x)
    on (0, inf) for every (n, r) in pairs, as {(n, r): QuadResult}.

    members maps degrees to polynomials.  The denominator must be positive on
    [0, inf) and exponent must exceed -1.  Each pair's tail is bounded from
    its product P = members[n] * members[r]: past x0, twice the root bound
    of either polynomial, |P| <= |lc_P| (3x/2)^dp and
    |den| >= |lc_d| (x/2)^dd, so the rational factor is within an explicit
    constant of |lc ratio| x^(dp - dd) and the tail is controlled by an
    upper incomplete gamma value.  The pair's own upper limit is at least
    x0; every pair is integrated on [0, 1] and [1, U] with U the largest of
    these limits, so each tail bound holds at U, and can only shrink there.

    Tanh-sinh converges fast only on an integrand analytic at the ends, and
    x^exponent is not analytic at x = 0.  With exponent = p/q in lowest
    terms, [0, 1] is therefore integrated in t with x = t^q:
    x^(p/q) dx = q t^(p+q-1) dt, and p + q - 1 >= 0 because exponent > -1,
    so the integrand is analytic at t = 0.  An integer exponent (q = 1)
    keeps the integrand in x.

    One tanh-sinh pass serves every pair (see _tanh_sinh_gram), with
    mp.quad's nodes, working precision and stopping rule for each pair.
    The quadrature error is estimated, not bounded.
    """
    exponent = rat(exponent)
    if exponent <= -1:
        raise ValueError(f"x-exponent {exponent} is not integrable at 0")
    dd = denominator.degree
    den_bound = 2 * root_bound(denominator)
    tails = {}
    for n, r in pairs:
        prod = members[n] * members[r]
        dp = prod.degree
        if dp < 0:
            continue
        x0 = max(rat(2), 2 * root_bound(prod), den_bound)
        s_exp = exponent + (dp - dd) + 1
        sandwich = rat_pow(rat(3, 2), dp) * rat_pow(rat(2), dd)
        lead_ratio = sandwich * abs(prod.leading / denominator.leading)
        tails[n, r] = (max(x0, 60 + 4 * max(rat(0), s_exp)), s_exp, lead_ratio)
    upper = to_mpf(max((u for u, _, _ in tails.values()), default=1))
    gram = _tanh_sinh_gram(members, denominator, exponent, list(tails), upper)
    zero = mp.mpf(0)
    out = {}
    for pair in pairs:
        if pair not in tails:  # a zero member
            out[pair] = QuadResult(zero, zero, upper, zero, True)
            continue
        _, s_exp, lead_ratio = tails[pair]
        tail = to_mpf(lead_ratio) * mp.gammainc(to_mpf(s_exp), upper, mp.inf)
        value, error, converged = gram[pair]
        out[pair] = QuadResult(value, abs(tail), upper, error, converged)
    return out


def _tanh_sinh_gram(members, denominator, exponent, pairs, upper) -> dict:
    """{(n, r): (value, error estimate, converged)} on [0, 1] and [1, upper].

    At node t with tanh-sinh weight w, the point is x = t^q on [0, 1] and
    x = t on [1, upper], and the weight function
    g = w dx/dt x^exponent exp(-x) / denominator(x) is evaluated once and
    each member once, giving the column v_n = sqrt(g) m_n(x); the level sum
    of pair (n, r) is the dot product of v_n and v_r.  Node weight and g are
    both positive, so the square root is real.  Each pair follows mp.quad's
    rule on each subinterval: levels 1, 2, ... up to guess_degree(prec),
    each level's sum reusing the previous one, stopping once
    estimate_error falls to eps/8, all at 20 guard bits.
    """
    rule = mp.mp._tanh_sinh
    prec = mp.mp.prec
    epsilon = mp.mp.eps / 8
    max_degree = rule.guess_degree(prec) + EXTRA_LEVELS
    value = dict.fromkeys(pairs, mp.mpf(0))
    error = dict.fromkeys(pairs, mp.mpf(0))
    converged = dict.fromkeys(pairs, True)
    p, q = int(exponent.numerator), int(exponent.denominator)
    with mp.workprec(prec + 20):
        coeffs = {n: [to_mpf(c) for c in reversed(members[n].coeffs)]
                  for n in {n for pair in pairs for n in pair}}
        den_c = [to_mpf(c) for c in reversed(denominator.coeffs)]
        expo = to_mpf(exponent)
        for a, b in ((0, 1), (1, upper)):
            levels = {pair: [] for pair in pairs}
            err = dict.fromkeys(pairs, mp.mpf(0))
            active = pairs
            for degree in range(1, max_degree + 1):
                if not active:
                    break
                nodes = rule.get_nodes(a, b, degree, prec)
                if a == 0:  # x = t^q
                    points = [(t**q, q * w * t ** (p + q - 1)) for t, w in nodes]
                else:
                    points = [(t, w * mp.power(t, expo)) for t, w in nodes]
                sums = _level_sums(points, coeffs, den_c, active)
                h = mp.ldexp(1, -degree)
                still = []
                for pair in active:
                    results = levels[pair]
                    prev = results[-1] / (2 * h) if results else 0
                    results.append(h * (prev + sums[pair]))
                    if degree > 1:
                        err[pair] = rule.estimate_error(results, prec, epsilon)
                        if err[pair] <= epsilon:
                            continue
                    still.append(pair)
                active = still
            for pair in pairs:
                value[pair] += levels[pair][-1]
                error[pair] += err[pair]
                converged[pair] = converged[pair] and err[pair] <= epsilon
    return {pair: (+value[pair], +error[pair], converged[pair]) for pair in pairs}


def _level_sums(points, coeffs, den_c, pairs) -> dict:
    """{(n, r): sum of v_n v_r over the points (x, w dx/dt x^exponent)}."""
    scale = []
    for x, wx in points:
        g = wx * mp.exp(-x) / mp.polyval(den_c, x)
        if g <= 0:
            raise ValueError(f"the denominator is not positive at x={x}")
        scale.append(mp.sqrt(g))
    cols = {}
    for pair in pairs:
        for n in pair:
            if n not in cols:
                cols[n] = [s * mp.polyval(coeffs[n], x) for s, (x, _) in zip(scale, points)]
    return {(n, r): mp.fdot(cols[n], cols[r]) for n, r in pairs}
