"""Arbitrary-precision evaluation and certified series summation.

Exact identities elsewhere in the package never touch floats; this module
is where rationals and Gamma values become mpmath numbers and where
infinite sums or integrals are truncated.  The numeric norms are squared
norms: a Meixner one is a certified sum, and a Laguerre family's come from
one quadrature over its degrees.  Truncations are certified: the
discrete summation bounds its tail by a geometric series whose ratio is
established rigorously from root bounds of the factored term ratio, and the
Laguerre integrals carry an incomplete-gamma tail bound.  The tanh-sinh
quadrature of a Laguerre integral on the finite part, in t with x = t^q on
[0, 1] so that the integrand is analytic at t = 0, is not certified: it
carries mpmath's error estimate, not a bound.  Its level sums are exact
integer sums of fixed-point node values, with guard bits bounded before
the pass (see _level_sums).

Every numeric value is computed at DPS decimal digits.  Every float of the
package is made through `mp`, which stands for mpmath: the first attribute
read imports mpmath and sets its global precision to DPS.  Only the norms
rows that fall back to numerics (a Meixner sum's Gamma carrier and closed
form, a Laguerre quadrature) make one, so construct, sweep, admissible,
every other check and every Darboux chain row run without loading mpmath.
"""
from __future__ import annotations

import functools
import operator

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

    __slots__ = ("value", "tail_bound", "terms")

    def __init__(self, value, tail_bound, terms):
        self.value = value
        self.tail_bound = tail_bound
        self.terms = terms

    def __repr__(self):
        return f"SumResult(value={self.value}, tail_bound={self.tail_bound}, terms={self.terms})"


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
    passing factors as (P_i, s_i) pairs, and term is asked for each x once,
    in that order.  Terms must be exact rationals; the partial sum is exact
    and only the tail is bounded.  Stops once the bound is at most
    rel_tol * sum |term| / 2, which on a nonnegative series is half rel_tol
    times the sum.  Refuses with a DomainError once MAX_SUM_TERMS terms have not
    reached that bound.
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
                return SumResult(total, bound, x + 1)
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


def laguerre_type_integral(members, denominator: Poly, exponent) -> dict:
    """Integrals of members[n]^2 / denominator * x^exponent * exp(-x) on
    (0, inf) for every degree n of members, as {n: QuadResult}.

    members maps degrees to nonzero polynomials.  The denominator must be
    positive on [0, inf) and exponent must exceed -1.  Each tail is bounded
    from P = members[n]^2: past x0, twice the root bound of either
    polynomial, |P| <= |lc_P| (3x/2)^dp and |den| >= |lc_d| (x/2)^dd, so the
    rational factor is within an explicit constant of |lc ratio| x^(dp - dd)
    and the tail is controlled by an upper incomplete gamma value.  Each
    degree's own upper limit is at least x0; every degree is integrated on
    [0, 1] and [1, U] with U the largest of these limits, so each tail bound
    holds at U, and can only shrink there.

    Tanh-sinh converges fast only on an integrand analytic at the ends, and
    x^exponent is not analytic at x = 0.  With exponent = p/q in lowest
    terms, [0, 1] is therefore integrated in t with x = t^q:
    x^(p/q) dx = q t^(p+q-1) dt, and p + q - 1 >= 0 because exponent > -1,
    so the integrand is analytic at t = 0.  An integer exponent (q = 1)
    keeps the integrand in x.

    One tanh-sinh pass serves every degree (see _tanh_sinh_norms), with
    mp.quad's nodes, working precision and stopping rule for each degree,
    and each level's sums in fixed-point integers (see _level_sums).
    The quadrature error is estimated, not bounded.
    """
    exponent = rat(exponent)
    if exponent <= -1:
        raise ValueError(f"x-exponent {exponent} is not integrable at 0")
    dd = denominator.degree
    den_bound = 2 * root_bound(denominator)
    tails = {}
    for n, member in members.items():
        prod = member * member
        dp = prod.degree
        x0 = max(rat(2), 2 * root_bound(prod), den_bound)
        s_exp = exponent + (dp - dd) + 1
        sandwich = rat_pow(rat(3, 2), dp) * rat_pow(rat(2), dd)
        lead_ratio = sandwich * abs(prod.leading / denominator.leading)
        tails[n] = (max(x0, 60 + 4 * max(rat(0), s_exp)), s_exp, lead_ratio)
    upper = to_mpf(max(u for u, _, _ in tails.values()))
    norms = _tanh_sinh_norms(members, denominator, exponent, upper)
    out = {}
    for n, (_, s_exp, lead_ratio) in tails.items():
        tail = to_mpf(lead_ratio) * mp.gammainc(to_mpf(s_exp), upper, mp.inf)
        value, error, converged = norms[n]
        out[n] = QuadResult(value, abs(tail), upper, error, converged)
    return out


def _tanh_sinh_norms(members, denominator, exponent, upper) -> dict:
    """{n: (value, error estimate, converged)} on [0, 1] and [1, upper].

    At node t with tanh-sinh weight w, the point is x = t^q on [0, 1] and
    x = t on [1, upper], and the weight function
    g = w dx/dt x^exponent exp(-x) / denominator(x) is evaluated once and
    each member once; the level sum of degree n is the sum of g m_n^2 over
    the level's nodes, in fixed point (see _level_sums).
    Each degree follows mp.quad's rule on each subinterval: levels 1, 2, ...
    up to guess_degree(prec), each level's sum reusing the previous one,
    stopping once estimate_error falls to eps/8, all at 20 guard bits.
    """
    rule = mp.mp._tanh_sinh
    prec = mp.mp.prec
    epsilon = mp.mp.eps / 8
    max_degree = rule.guess_degree(prec) + EXTRA_LEVELS
    value = dict.fromkeys(members, mp.mpf(0))
    error = dict.fromkeys(members, mp.mpf(0))
    converged = dict.fromkeys(members, True)
    p, q = int(exponent.numerator), int(exponent.denominator)
    with mp.workprec(prec + 20):
        expo = to_mpf(exponent)
        for a, b in ((0, 1), (1, upper)):
            levels = {n: [] for n in members}
            err = dict.fromkeys(members, mp.mpf(0))
            active = list(members)
            for degree in range(1, max_degree + 1):
                if not active:
                    break
                nodes = rule.get_nodes(a, b, degree, prec)
                if a == 0:  # x = t^q
                    points = [(t**q, q * w * t ** (p + q - 1)) for t, w in nodes]
                else:
                    points = [(t, w * mp.power(t, expo)) for t, w in nodes]
                sums = _level_sums(points, b, {n: members[n] for n in active}, denominator)
                h = mp.ldexp(1, -degree)
                still = []
                for n in active:
                    results = levels[n]
                    prev = results[-1] / (2 * h) if results else 0
                    results.append(h * (prev + sums[n]))
                    if degree > 1:
                        err[n] = rule.estimate_error(results, prec, epsilon)
                        if err[n] <= epsilon:
                            continue
                    still.append(n)
                active = still
            for n in members:
                value[n] += levels[n][-1]
                error[n] += err[n]
                converged[n] = converged[n] and err[n] <= epsilon
    return {n: (+value[n], +error[n], converged[n]) for n in members}


def _level_sums(points, upper, members, denominator) -> dict:
    """{n: sum of g m_n^2 over the points (x, w dx/dt x^exponent)}, with
    g = w dx/dt x^exponent exp(-x) / denominator(x), in fixed point.

    Every x lies in [0, upper]; let M = max(1, upper).  Each polynomial A
    enters as its integer numerators A~ = den_A A, and a value v as the
    integer floor(v 2^F) of F fraction bits (libmp's to_fixed), off by less
    than one unit 2^-F.  At each node:
    - the powers x^j are formed once, each from the last by one product cut
      to F bits, so x^j is off by less than 2j M^j units; every A~(x) is the
      exact sum of its numerators times these powers, off by at most
      2 deg(A) B(A) units, where B(A) = |A~|_1 M^deg(A) bounds |A~| on
      [0, upper];
    - exp(-x) = 2^-e exp(-t) with x = e ln 2 + t and 0 <= t < ln 2, from
      exp_fixed at wp + log2 M + 6 bits (wp the working precision), so the
      reduction by e < 2M multiples of ln 2 leaves it within 2^-(wp+3) of
      its size;
    - G = w dx/dt x^exponent exp(-x) / D~(x), with D~ the denominator's
      numerators, is cut to F bits, and so is G M~_n.
    The level sum of n is one running integer total of (G M~_n cut to F
    bits) times M~_n over the nodes, times den_D / den_n^2 2^-2F, rounded to
    an mpf once.

    The guard bits F - wp come from bounds known before the pass.  A term
    g m_n^2 is off by G times the member's errors, at most 4 deg B(M_n)^2
    units, plus B(M_n) times the cuts of G and G M~_n; over N nodes that is
    N B^2 (4 deg + 2) units, B the largest member bound, which
    2 log2 B + log2 N + 4 guard bits bring near 2^-wp (wp carries the pass's
    own 20 guard bits over mpmath's precision).
    D~(x) is off by 2 deg(D) B(D) units, which log2 B(D) more bits keep
    within 2^-(wp + 2 log2 B + log2 N) of D~(x) wherever D~(x) >= 1.  That
    holds at the tanh-sinh ends, where w dx/dt falls below 2^-F: near 0
    and 1 D~ is a positive integer, and near upper, past twice its root
    bound, at least 1.  So each sum lands within about 2^-wp of its own size
    S_n, as mpf sums at wp bits do: those err by 2^-wp times
    sum |a_j| x^j, not times |A(x)|, too.  A flat 40 guard bits falls short
    of this at upper = 684 with a member of degree 9.

    Raises ValueError where the denominator is not positive at a node.
    """
    libmp = mp.libmp
    to_fixed, exp_fixed = libmp.to_fixed, libmp.libelefun.exp_fixed
    nums = {n: member._nums for n, member in members.items()}
    top = mp.mag(upper) if upper > 1 else 0  # max(1, upper) <= 2^top

    def bits(poly_nums):  # log2 B(poly)
        return sum(map(abs, poly_nums)).bit_length() + (len(poly_nums) - 1) * top

    wp = mp.mp.prec
    den_nums = denominator._nums
    frac = wp + 2 * max(map(bits, nums.values())) + bits(den_nums) + len(points).bit_length() + 4
    ebits = wp + top + 6
    ln2 = libmp.ln2_fixed(ebits)
    one = 1 << frac
    size = max(map(len, [den_nums, *nums.values()]))
    totals = dict.fromkeys(nums, 0)
    for x, wx in points:
        fx = to_fixed(x._mpf_, frac)
        powers = [one, fx]
        for _ in range(size - 2):
            powers.append(powers[-1] * fx >> frac)
        den = sum(map(operator.mul, den_nums, powers))
        if den <= 0:
            raise ValueError(f"the denominator is not positive at x={x}")
        # x = e ln 2 + t with 0 <= t < ln 2, so exp(-x) = 2^-e exp(-t)
        e, t = divmod(to_fixed(x._mpf_, ebits), ln2)
        g = (to_fixed(wx._mpf_, frac) * exp_fixed(-t, ebits, ln2) << frac) // (den << (ebits + e))
        for n, c in nums.items():
            m = sum(map(operator.mul, c, powers))
            totals[n] += (g * m >> frac) * m
    return {
        n: mp.ldexp(mp.fdiv(total * denominator._den, members[n]._den ** 2), -2 * frac)
        for n, total in totals.items()
    }
