"""Exceptional Meixner families built from Casorati determinants.

A pair of finite sets (F1, F2) selects rows of classical Meixner polynomials
at parameters (a, c) and (1/a, c); the column-shifted determinant of that
block defines a family m_n that is a polynomial of degree n for every n in
the gapped index set sigma, together with two smaller Casorati determinants
Omega and Lambda.  This module constructs the family and everything attached
to it: the dual family and its duality constants, the second order difference
operator, norm and positivity statements, Darboux factorizations that strip
the largest element of F2, an alternative determinantal representation
through the involuted pair, and the reflection invariance of Omega.
Identities are verified exactly over the rationals, orthogonality too (from
the operator's symmetry), and norms along a Darboux chain where one reaches
the classical family; certified summation is the norms' fallback.
"""
from __future__ import annotations

import math
from math import comb

from . import chain
from .classical import MeixnerParams, meixner_raw
from .exact import (
    AdmissibilityRefusal,
    DomainError,
    PoleError,
    Poly,
    RatFunc,
    gamma_sign,
    pochhammer,
    rat,
    rat_pow,
    poly_det,
    ratfunc_of_quotients,
    ratfunc_of_sums,
    rational_det,
    scale_terms,
    sum_of_products,
)
from .numerics import DPS, certified_sum, gamma_rational, mp, to_mpf
from .operators import DifferenceOperator, quotient_terms
from .pairs import PairSpec, hat_c, involute

# the command line flags of the parameters (a, c)
PARAMS = ("a", "c")
# the checks `xoppak verify` runs on this kind, in their default order
CHECKS = ("eigen", "duality", "darboux", "altrep", "norms", "orthogonality", "admissible")
# the parameter whose value decides admissibility, and its offset
ADMISSIBILITY = ("c", 0)
# the operator's variety and the sign of its eigenvalue n in `xoppak construct`
OPERATOR_PAYLOAD = ("difference", 1)


def _shifts(base: Poly, cols: int):
    return [base.shift(j) for j in range(cols)]


def block_rows(params, F1, F2, cols: int):
    """Rows of the F-block, one per element of F1 then F2, columns j < cols.

    The parameters go unvalidated, so formal ones work too: the invariance
    needs the block at reflected parameters.
    """
    a, c = params.a, params.c
    rows = [_shifts(meixner_raw(f, a, c), cols) for f in F1]
    inv_a = 1 / a
    for f in F2:
        base = meixner_raw(f, inv_a, c)
        rows.append([base.shift(j) * rat_pow(a, -j) for j in range(cols)])
    return rows


class MeixnerExcFamily(chain.Family):
    """An exceptional Meixner family for one parameter set and one pair.

    Every member is a short combination of shifted classical polynomials
    against the block's top-row minors (chain.Family), and the last two
    minors are, up to sign, the Casorati determinants Omega (columns 0..k-1
    of the block) and Lambda (columns 0..k-2 and k).
    """

    def __init__(self, params: MeixnerParams, pair: PairSpec):
        super().__init__(params, pair, block_rows(params, pair.F1, pair.F2, pair.k + 1))
        self._duality = None  # (DualityConstants, {n: (q_n, kappa xi(n))}, {v: zeta(v)})

    @property
    def lam(self) -> Poly:
        """Casorati determinant Lambda; zero for the empty pair, which gives
        the classical operator."""
        if self.pair.is_trivial:
            return Poly.zero()
        minor = self._minors[-2]
        return minor if self.pair.k % 2 else -minor

    def member(self, n: int) -> Poly:
        """Family member of degree n; the zero polynomial off the index set."""
        return self._member(
            n, lambda d, cols: _shifts(meixner_raw(d, self.params.a, self.params.c), cols))

    m = member  # the benchmark traces the members under this name

    # -- dual family ---------------------------------------------------------

    def _dual_minors(self, n: int):
        """Scalar minors N_j of the dual block at top degree n."""
        a, c = self.params.a, self.params.c
        k = self.pair.k
        inv_a = 1 / a
        rows = []
        for f in self.pair.F1:
            rows.append([meixner_raw(n + j, a, c)(f) for j in range(k + 1)])
        for f in self.pair.F2:
            rows.append(
                [
                    meixner_raw(n + j, inv_a, c)(f) * (-1 if j % 2 else 1)
                    for j in range(k + 1)
                ]
            )
        minors = []
        for j in range(k + 1):
            sub = [r[:j] + r[j + 1 :] for r in rows]
            minors.append(rational_det(sub))
        return minors

    def q(self, n: int) -> Poly:
        """Dual family member: the dual determinant divided by its fixed roots.

        The division has to be exact; a nonzero remainder is an internal
        inconsistency, not a property of the parameters.
        """
        if n < 0:
            raise DomainError(f"dual members need a nonnegative degree, got {n}")
        a, c = self.params.a, self.params.c
        u = self.pair.u
        terms = [(-minor if j % 2 else minor, (meixner_raw(n + j, a, c).shift(-u),))
                 for j, minor in enumerate(self._dual_minors(n))]
        total = sum_of_products(terms)
        if (n * self.pair.k2) % 2:
            total = -total
        divisor = sum_of_products([(1, [Poly([-f - u, 1]) for f in self.pair.F1]
                                    + [Poly([c + f - u, 1]) for f in self.pair.F2])])
        return total.exact_div(divisor)


def reported_polys(fam: MeixnerExcFamily) -> dict:
    """The polynomials besides the members that `xoppak construct` reports."""
    return {"omega": fam.omega, "lambda": fam.lam}


class DualityConstants:
    """The three exact scalars tying the dual family to the primal one.

    kappa depends only on the family, xi on the dual degree, zeta on the
    primal degree.  The paper writes them with Gamma quotients at 1 + c;
    each quotient Gamma(1+c+j)/Gamma(1+c) is the rising factorial
    (1+c)_j, with j = -1 read as 1/c, so for rational parameters every
    constant is a rational.
    """

    def __init__(self, fam: MeixnerExcFamily):
        self.fam = fam
        pair = fam.pair
        a, c = fam.params.a, fam.params.c
        sum_f2 = pair.F2.total
        e = pair.k2 * (pair.k1 + 1)
        top = rat_pow(rat(-1), sum_f2) * rat_pow(a, e + sum_f2) * rat_pow(a - 1, -e)
        for f in pair.F1.elems + pair.F2.elems:
            top = top * math.factorial(f) / pochhammer(1 + c, f - 1)
        self.kappa = top

    def xi(self, n: int):
        pair = self.fam.pair
        a, c = self.fam.params.a, self.fam.params.c
        k = pair.k
        out = rat_pow(a, (pair.k1 + 1) * n) * rat_pow(a - 1, -(k + 1) * n)
        for i in range(k + 1):
            out = out * pochhammer(1 + c, n + i - 1) / math.factorial(n + i)
        return out

    def zeta(self, v: int):
        pair = self.fam.pair
        a, c = self.fam.params.a, self.fam.params.c
        u = pair.u
        if not pair.sigma_contains(v):
            raise DomainError(f"degree {v} is outside the index set of {pair!r}")
        out = math.factorial(v - u) * rat_pow(a - 1, v) * rat_pow(a, -v)
        out = out / pochhammer(1 + c, v - u - 1)
        for f in pair.F1:
            out = out / rat(v - f - u)
        for f in pair.F2:
            out = out / (v + c + f - u)
        return out


def duality_check(n: int, v: int, fam: MeixnerExcFamily) -> bool:
    """Exact check of q_n(v) against the scaled primal value m_v(n); the
    constants, q_n with kappa xi(n), and zeta(v) are built once per family."""
    if n < 0:
        raise DomainError(f"dual degree must be nonnegative, got {n}")
    consts, duals, zetas = fam._duality = fam._duality or (DualityConstants(fam), {}, {})
    if n not in duals:
        duals[n] = fam.q(n), consts.kappa * consts.xi(n)
    if v not in zetas:
        zetas[v] = consts.zeta(v)
    q, scale = duals[n]
    return q(v) == scale * zetas[v] * fam.member(v)(n)


# -- second order operator ---------------------------------------------------


def _operator_terms(fam: MeixnerExcFamily):
    """The operator as sum_of_products term lists, built once per family:
    the numerators of the coefficients of the shifts -1, 0 and 1 over one
    denominator (a-1) Omega(x) Omega(x+1), and that denominator."""
    if fam._op_terms is not None:
        return fam._op_terms
    a, c = fam.params.a, fam.params.c
    u, k = fam.pair.u, fam.pair.k
    om, om1 = fam.omega, fam.omega.shift(1)
    lm = fam.lam
    mid = Poly([-(1 + a) * k - a * c + (a - 1) * u, -(1 + a)])
    xck, xck1 = Poly([c + k, 1]), Poly([c + k - 1, 1])
    nums = {
        -1: [(1, (Poly.x(), om1, om1))],
        0: [(1, (mid, om, om1)), (a, (xck, lm.shift(1), om)), (-a, (xck1, lm, om1))],
        1: [(a, (xck, om, om))],
    }
    fam._op_terms = nums, [(a - 1, (om, om1))]
    return fam._op_terms


def _operator_numerators(fam: MeixnerExcFamily):
    """The polynomials of _operator_terms: ({j: numerator}, denominator)."""
    nums, den = _operator_terms(fam)
    return {j: sum_of_products(terms) for j, terms in nums.items()}, sum_of_products(den)


def operator(fam: MeixnerExcFamily) -> DifferenceOperator:
    """The three point difference operator with the family as eigenfunctions;
    the shift -1 and 1 coefficients cancel Omega(x+1) and Omega(x) before
    their gcds."""
    nums, den = _operator_terms(fam)
    return DifferenceOperator({j: ratfunc_of_sums(terms, den) for j, terms in nums.items()})


def eigen_residual(n: int, fam: MeixnerExcFamily) -> Poly:
    """Eigenvalue identity with denominators cleared; zero when it holds.

    Multiplying D(m_n) = n m_n through by (a-1) Omega(x) Omega(x+1) turns
    the statement into a polynomial identity, which is compared exactly:
    each numerator's terms take m_n(x+j) as one more factor, the
    denominator's take -n m_n, and the whole is one sum_of_products.
    """
    p = fam.member(n)
    nums, den = _operator_terms(fam)
    at = {-1: p.shift(-1), 0: p, 1: p.shift(1)}
    terms = [(s, (*factors, at[j])) for j, ts in nums.items() for s, factors in ts]
    return sum_of_products(terms + [(-n * s, (*factors, p)) for s, factors in den])


# -- admissibility, norms ---------------------------------------------------


def positivity_by_signs(fam: MeixnerExcFamily) -> bool:
    """Weight positivity read off Gamma signs and Omega signs on N.

    Term n has the sign of Gamma(n + c + k) Omega(n) Omega(n + 1).  Past
    max(F1) + ceil shift of c + k + 2 the Gamma factor is positive, and
    Omega(n) Omega(n + 1) <= 0 needs a root of Omega in [n, n + 1], so the
    integers up to that bound and Omega's root cells (omega_cells) decide
    every term.
    """
    c, k, om = fam.params.c, fam.pair.k, fam.omega
    ns = [*range(fam.pair.F1.max_elem + hat_c(c) + k + 3), *fam.omega_cells]
    return all(gamma_sign(n + c + k) * om(n) * om(n + 1) > 0 for n in ns)


def inner_product(fam: MeixnerExcFamily, n: int):
    """Certified sum for the squared norm of member n, to NORM_SUM_TOL.

    Returns (SumResult, carrier); the true value is the sum value times the
    carrier Gamma(c + k), an mpf.
    """
    a, c = fam.params.a, fam.params.c
    k = fam.pair.k
    om = fam.omega
    member = fam.member(n)
    prod = member * member
    # the weight a^x (c+k)_x / x! at the next x, carried forward by its ratio:
    # certified_sum asks for x = 0, 1, 2, ... once each
    weight = rat(1)

    def term(x):
        nonlocal weight
        den = om(x) * om(x + 1)
        if den == 0:
            raise PoleError(f"weight undefined: Omega vanishes near x={x}")
        value = prod(x) * weight / den
        weight *= a * (c + k + x) / (x + 1)
        return value

    factors = [(Poly([1, 1]), c + k - 1), (prod, 1), (om, -2)]
    res = certified_sum(term, a, factors, rel_tol=NORM_SUM_TOL)
    return res, gamma_rational(c + k)


def _rounding() -> mp.mpf:
    # the relative rounding allowance of every norms row, ten digits short of the
    # DPS working digits: far above the rounding of the value and the closed form
    return mp.mpf(10) ** (10 - DPS)


# the certified sum of a squared norm stops once its tail is at most this
# fraction of the sum
NORM_SUM_TOL = rat(1, 4 * 10**10)


class NormCheck:
    """Record of one norm verification: measured vs closed form.

    converged says whether the numeric value met its own stopping rule: a
    certified sum always does, a quadrature may stop at its degree cap.
    rel_bound is the allowed |lhs - rhs| relative to |rhs|.
    """

    def __init__(self, r, lhs, rhs, rel_err, rel_bound, ok, converged):
        self.r = r
        self.lhs = lhs
        self.rhs = rhs
        self.rel_err = rel_err
        self.rel_bound = rel_bound
        self.ok = ok
        self.converged = converged

    def __repr__(self):
        return (
            f"NormCheck(r={self.r}, lhs={self.lhs}, rhs={self.rhs}, rel_err={self.rel_err}, "
            f"rel_bound={self.rel_bound}, ok={self.ok}, converged={self.converged})"
        )


def norm_check(r, value, closed, allowance, converged) -> NormCheck:
    """The verdict on one numeric squared norm against its closed form.

    allowance bounds the numeric error (a certified tail, plus a quadrature's
    error estimate); _rounding() |closed| covers the rounding.  The row passes
    when the value met its own stopping rule and lies within both.
    """
    err, bound = abs(value - closed), allowance + _rounding() * abs(closed)
    rel_err, rel_bound = err / abs(closed), bound / abs(closed)
    return NormCheck(r, value, closed, rel_err, rel_bound, converged and err <= bound, converged)


def _refuse_unless_positive(fam: MeixnerExcFamily) -> None:
    a = fam.params.a
    if not 0 < a < 1:
        raise AdmissibilityRefusal(f"a positive weight needs 0 < a < 1, got a={a}")
    fam._refuse_unless_admissible(*ADMISSIBILITY)


def orthogonality_premises(fam: MeixnerExcFamily) -> dict:
    """The exact premises of orthogonality besides the eigen identity.

    For the weight w(x) = a^x Gamma(x+c+k) / (x! Omega(x) Omega(x+1)) on
    x >= 0, summation by parts gives (n - r) <m_n, m_r> = 0 from symmetry,
    h1(x) = a (x+c+k) Omega(x) / ((x+1) Omega(x+2)) * h-1(x+1) with the
    denominators cleared, boundary, h-1(0) = 0, and positive_weight, w > 0
    (positivity_by_signs).  Refuses as norm_closed_form does unless
    0 < a < 1 (so every sum converges) and c is admissible.
    """
    _refuse_unless_positive(fam)
    a, c, k = fam.params.a, fam.params.c, fam.pair.k
    nums, den = _operator_numerators(fam)
    om = fam.omega
    lhs = nums[1] * Poly([1, 1]) * om.shift(2) * den.shift(1)
    rhs = Poly([c + k, 1]) * om * nums[-1].shift(1) * den * a
    return {
        "symmetry": lhs == rhs,
        "boundary": nums[-1](0) == 0,
        "positive_weight": positivity_by_signs(fam),
    }


def norm_quotient(r: int, fam: MeixnerExcFamily):
    """The closed-form squared norm of member r over the classical one at
    degree d = r - u, a rational.

    The closed form is a^(k1-2k) (1-a)^-(c+2d-k) prod_F1 (d-f)
    prod_F2 (d+c+f) a^d Gamma(d+c) / d!, the classical one the same with
    k1 = k = 0 and empty products, so the Gamma, the factorial and the
    powers of 1 - a cancel up to (1-a)^k.  The form holds for a positive
    weight only; refuses otherwise.
    """
    pair = fam.pair
    if not pair.sigma_contains(r):
        raise DomainError(f"degree {r} is outside the index set of {pair!r}")
    _refuse_unless_positive(fam)
    a, c = fam.params.a, fam.params.c
    d = int(r) - pair.u
    out = rat_pow(a, pair.k1 - 2 * pair.k) * rat_pow(1 - a, pair.k)
    for f in pair.F1:
        out *= d - f
    for f in pair.F2:
        out *= d + c + f
    return out


def norm_closed_form(r: int, fam: MeixnerExcFamily) -> mp.mpf:
    """Squared norm of member r in closed form, as an mpf: norm_quotient
    times the classical a^d Gamma(d+c) / (d! (1-a)^(c+2d)), d = r - u.

    The form holds for a positive weight only; refuses otherwise.
    """
    quotient = norm_quotient(r, fam)
    a, c = fam.params.a, fam.params.c
    d = int(r) - fam.pair.u
    classical = to_mpf(rat_pow(a, d) / math.factorial(d)) * gamma_rational(d + c)
    return to_mpf(quotient) * classical * mp.power(to_mpf(1 - a), to_mpf(-(c + 2 * d)))


def norm_identity(rs, fam: MeixnerExcFamily) -> list[NormCheck]:
    """Verify the squared norms of the members of degrees rs against their
    closed forms, one certified sum each, allowing each its certified tail.

    Only meaningful when the weight is a positive measure; refuses
    otherwise, since the summation identity presumes admissibility.
    """
    checks = []
    for r in rs:
        rhs = norm_closed_form(r, fam)
        res, carrier = inner_product(fam, r)
        lhs = carrier * to_mpf(res.value)
        tail = abs(carrier) * to_mpf(res.tail_bound)
        checks.append(norm_check(r, lhs, rhs, tail, True))
    return checks


# -- Darboux factorization ---------------------------------------------------


def darboux_pair(fam: MeixnerExcFamily):
    """(A, B, rest, lower_family) of the `step` stripping max(F2), whose two
    compositions darboux_identities checks; refuses an empty F2."""
    top = step(fam, "F2", fam.pair.remove_f2_max()[0])
    return (top.A, *top.down, top.low)


def darboux_identities(fam: MeixnerExcFamily) -> tuple[bool, bool]:
    """Exact operator identities for the two compositions of the Darboux
    pair; B is solved from A, so B A - op_low is down_operator's rest."""
    A, B, rest, low = darboux_pair(fam)
    c = fam.params.c
    f = fam.pair.F2.max_elem
    down_ok = rest == RatFunc(rat(c + f - low.pair.u))
    # A B = op + C, compared against _operator_terms(fam) key by key
    op = quotient_terms(_operator_terms(fam))
    op[0] = op[0] + [(c + f - fam.pair.u, (), ())]
    return down_ok, A.compose_equals(B, op)


def darboux_intertwining(fam: MeixnerExcFamily, n: int) -> bool:
    """A applied to the right lower member reproduces member n exactly."""
    return chain.lifts(step(fam, "F2", fam.pair.remove_f2_max()[0]), n)


# -- the Darboux chain of the norms ------------------------------------------


def step(fam: MeixnerExcFamily, set_name: str, f: int) -> chain.Step:
    """The first order step stripping f from set_name, "F1" or "F2", built
    once per family, set and element; B and rest are solved when first read.

    Sylvester's identity on the block with the top row and the row of f
    gives A m_s^low = m_n, s = n - u + u_low, for
      A = Omega(x+1)/(e Omega_low(x+1)) - Omega(x)/Omega_low(x+1) Sh_1,
    e = 1 for an F1 row and e = a for an F2 row, whose column j carries
    a^-j.  The identity is homogeneous in the order of each block's rows,
    so f need not be the largest element.
    """
    got = fam._steps.get((set_name, f))
    if got is None:
        low = MeixnerExcFamily(fam.params, fam.pair.without(set_name, f))
        om, om_lo1 = fam.omega, low.omega.shift(1)
        e = fam.params.a if set_name == "F2" else 1
        A = DifferenceOperator({0: RatFunc(om.shift(1), om_lo1 * e), 1: RatFunc(-om, om_lo1)})
        got = fam._steps[set_name, f] = chain.Step(
            set_name, f, fam, low, A, lambda: down_operator(A, low))
    return got


def down_operator(A: DifferenceOperator, low: MeixnerExcFamily):
    """(B, rest): the B = b_-1 Sh_-1 + b_0 with B A - op = rest, a multiple
    of the identity, for op the operator of the lower family low.

    With A = a_0 + a_1 Sh_1 and op = d_-1 Sh_-1 + d_0 + d_1 Sh_1,
    B A has the Sh_1 coefficient b_0 a_1 and the Sh_-1 coefficient
    b_-1 a_0(x-1), so b_0 = d_1 / a_1 and b_-1 = d_-1 / a_0(x-1) cancel
    op's exactly.  rest is the Sh_0 coefficient b_-1 a_1(x-1) + b_0 a_0 - d_0;
    whether it is a constant is the caller's check.  op is read from
    _operator_terms(low), numerators over one denominator, so b_-1, b_0 and
    rest are each one ratfunc_of_quotients, reduced once.
    """
    d = quotient_terms(_operator_terms(low))
    a0, a1 = A.coeff(0), A.coeff(1)
    b_minus = ratfunc_of_quotients(scale_terms(d[-1], 1, (a0.den.shift(-1),), (a0.num.shift(-1),)))
    b0 = ratfunc_of_quotients(scale_terms(d[1], 1, (a1.den,), (a1.num,)))
    rest = ratfunc_of_quotients([
        (1, (b_minus.num, a1.num.shift(-1)), (b_minus.den, a1.den.shift(-1))),
        (1, (b0.num, a0.num), (b0.den, a0.den)),
        *scale_terms(d[0], -1),
    ])
    return DifferenceOperator({-1: b_minus, 0: b0}), rest


def adjoint(A: DifferenceOperator, fam: MeixnerExcFamily, low: MeixnerExcFamily):
    """The adjoint A* of A = a_0 + a_1 Sh_1 from low's weight to fam's.

    With the weights w(x) = a^x Gamma(x+c+k) / (x! Omega(x) Omega(x+1)) of
    the two families, k = k_low + 1 above, moving the shift of
    sum_x (A f)(x) g(x) w(x) onto g gives sum_x f(x) (A* g)(x) w_low(x) with
      A* = rho a_0 + sigma a_1(x-1) Sh_-1,
      rho = w / w_low = (x+c+k_low) Omega_low(x) Omega_low(x+1) / (Omega(x) Omega(x+1)),
      sigma = w(x-1) / w_low(x) = x Omega_low(x) Omega_low(x+1) / (a Omega(x-1) Omega(x)),
    less the boundary term f(0) A*_-1(0) g(-1) w_low(0) of the reindexed
    sum, which boundary_refusal requires to be 0.  Each coefficient is one
    ratfunc_of_quotients, reduced once.
    """
    a, c = fam.params.a, fam.params.c
    om, om_lo = fam.omega, low.omega
    both_lo = (om_lo, om_lo.shift(1))
    a0, a1 = A.coeff(0), A.coeff(1)
    rho_a0 = scale_terms(a0.terms, 1, (Poly([c + low.pair.k, 1]), *both_lo), (om, om.shift(1)))
    sigma_a1 = [(1 / a, (Poly.x(), *both_lo, a1.num.shift(-1)),
                 (om.shift(-1), om, a1.den.shift(-1)))]
    return DifferenceOperator({0: ratfunc_of_quotients(rho_a0), -1: ratfunc_of_quotients(sigma_a1)})


def weight_refusal(fam: MeixnerExcFamily):
    """Why fam's weight sums are not defined, or None: they need 0 < a < 1
    and no zero of Omega at an integer x >= 0 (_integer_zero)."""
    a = fam.params.a
    if not 0 < a < 1:
        return f"the weight sums need 0 < a < 1, got a={a}"
    x = _integer_zero(fam)
    return None if x is None else f"Omega of {fam.pair!r} vanishes at x={x}"


def _integer_zero(fam: MeixnerExcFamily):
    """The least integer x >= 0 with Omega(x) = 0, or None.  A zero at an
    integer m >= 1 lies in the root cells m - 1 and m, and one at 0 in cell
    0 (omega_cells), so Omega is evaluated at its cells only; Omega = 0
    gives 0."""
    om = fam.omega
    if om.is_zero:
        return 0
    return next((x for x in fam.omega_cells if om(x) == 0), None)


def boundary_refusal(A_star: DifferenceOperator, fam: MeixnerExcFamily, low: MeixnerExcFamily):
    """Why the boundary term of `adjoint` at x = 0 is not 0, or None."""
    if A_star.coeff(-1).num(0) != 0:
        return f"the boundary term at x=0 of the step from {fam.pair!r} to {low.pair!r} is not 0"
    return None


# -- alternative representation and invariance -------------------------------

def _reflected_entry(base: Poly, j: int) -> Poly:
    # value of base at -x - 1 + j as a polynomial in x
    return base.reflect().shift(1 - j)


class AltRepReport:
    """Outcome of the involuted-pair determinant comparison.

    constant is the fitted factor from the involuted determinant to the
    member, None when that determinant vanishes.
    """

    def __init__(self, n, constant, matches, discrepancy):
        self.n = n
        self.constant = constant
        self.matches = matches
        self.discrepancy = discrepancy

    def __repr__(self):
        return f"AltRepReport(n={self.n}, constant={self.constant}, matches={self.matches})"


def alt_representation(n: int, fam: MeixnerExcFamily) -> AltRepReport:
    """Member n rebuilt from the involuted pair, with a fitted constant.

    The involuted determinant has order max(F1) + max(F2) + 2 - k, often far
    below the defining one.  The constant is recovered by matching leading
    coefficients; the report records whether the match is then exact.
    """
    pair = fam.pair
    a, c = fam.params.a, fam.params.c
    v = pair.v
    if n < v:
        raise DomainError(f"alternative representation needs n >= {v}, got {n}")
    x = _integer_zero(fam)
    if x is not None:
        raise DomainError(f"Omega vanishes at x={x}; representation undefined")
    G1, G2 = involute(pair.F1), involute(pair.F2)
    m_ord = G1.card + G2.card
    ctil = c + pair.F1.max_elem + pair.F2.max_elem + 2
    inv_a = 1 / a

    # entry j: (x + ctil - m_ord)_(m_ord - j) (x + 1 - j)_j r(x - j) with
    # r = meixner_raw(n - v, a, ctil), each rising factorial written as its
    # linear factors
    r = meixner_raw(n - v, a, ctil)
    rows = [[sum_of_products([(1, [Poly([ctil - m_ord + i, 1]) for i in range(m_ord - j)]
                               + [Poly([1 - j + i, 1]) for i in range(j)] + [r.shift(-j)])])
             for j in range(m_ord + 1)]]
    for g in G1:
        base = meixner_raw(g, a, 2 - ctil)
        rows.append(
            [_reflected_entry(base, j) * rat_pow(a, j) for j in range(m_ord + 1)]
        )
    for g in G2:
        base = meixner_raw(g, inv_a, 2 - ctil)
        rows.append([_reflected_entry(base, j) for j in range(m_ord + 1)])
    return fitted_representation(n, poly_det(rows), fam.member(n))


def fitted_representation(n: int, det: Poly, target: Poly) -> AltRepReport:
    """Compare target with det scaled to the same leading coefficient."""
    if det.is_zero:
        return AltRepReport(n, None, target.is_zero, -target)
    constant = target.leading / det.leading
    fitted = det * constant
    return AltRepReport(n, constant, fitted == target, fitted - target)


class InvarianceReport:
    """Outcome of the Omega reflection-invariance comparison."""

    def __init__(self, pair, involuted, matches, lhs, rhs):
        self.pair = pair
        self.involuted = involuted
        self.matches = matches
        self.lhs = lhs
        self.rhs = rhs

    @property
    def discrepancy(self):
        return self.lhs - self.rhs

    def __repr__(self):
        return (
            f"InvarianceReport(pair={self.pair!r}, involuted={self.involuted!r}, "
            f"matches={self.matches})"
        )


def _pair_unit(a, k1: int, k2: int):
    k = k1 + k2
    return rat_pow(a, comb(k2, 2) - k2 * (k - 1)) * rat_pow(1 - a, k1 * k2)


def invariance_conjecture(fam: MeixnerExcFamily) -> InvarianceReport:
    """Compare Omega with its reflected involuted-pair counterpart.

    Exact equality is conjectural over the full pair space; the report
    carries both sides so a sweep can record counterexamples.
    """
    pair = fam.pair
    a, c = fam.params.a, fam.params.c
    G1, G2 = involute(pair.F1), involute(pair.F2)
    c_ref = -c - pair.F1.max_elem - pair.F2.max_elem
    lhs = fam.omega
    scale = _pair_unit(a, pair.k1, pair.k2) / _pair_unit(a, G1.card, G2.card)
    if (pair.u + pair.k1) % 2:
        scale = -scale
    reflected = block_rows(MeixnerParams.formal(a, c_ref), G1, G2, G1.card + G2.card)
    rhs = poly_det(reflected).reflect() * scale
    return InvarianceReport(pair, (G1, G2), lhs == rhs, lhs, rhs)
