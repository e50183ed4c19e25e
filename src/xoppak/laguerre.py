"""Exceptional Laguerre families built from Wronskian determinants.

A pair of finite sets (F1, F2) selects rows of classical Laguerre
polynomials at parameter alpha; rows indexed by F1 are differentiated
across the columns while rows indexed by F2 are reflected with a stepped
parameter.  Prepending a top row of derivatives of one more classical
polynomial gives a determinant L_n of degree n for every n in the gapped
index set sigma, and all of them are eigenfunctions of a single second
order differential operator with eigenvalue -n.  This module constructs
the family and everything attached to it: the operator, the weight
x^(alpha+k) exp(-x) / Omega^2 with its norms, differential Darboux
factorizations stripping the largest element of F2, an alternative
determinantal representation through the involuted pair, the reflection
invariance of Omega, and the scaling limit a -> 1 that recovers the members
and Omega exactly from the Meixner family.  Identities are verified exactly
over the rationals, orthogonality too (from the operator's symmetry); only
norms go through tail-bounded quadrature.
"""
from __future__ import annotations

import math
from math import comb

from . import chain
from .classical import LaguerreParams, MeixnerParams, laguerre
from .exact import (
    DomainError,
    ParameterError,
    PoleError,
    Poly,
    RatFunc,
    interpolate_at_zero,
    is_integer,
    pochhammer,
    poly_det,
    rat,
    rat_pow,
    ratfunc_of_quotients,
    ratfunc_of_sums,
    scale_terms,
    sum_of_products,
)
from .meixner import (
    AltRepReport,
    InvarianceReport,
    MeixnerExcFamily,
    NormCheck,
    fitted_representation,
    norm_check,
)
from .numerics import gamma_rational, laguerre_type_integral, mp, to_mpf
from .operators import DifferentialOperator, quotient_terms
from .pairs import PairSpec, involute

# the command line flag of the parameter alpha
PARAMS = ("alpha",)
# the checks `xoppak verify` runs on this kind, in their default order
CHECKS = (
    "eigen", "darboux", "altrep", "norms", "orthogonality", "admissible", "nonvanish", "limit",
)
# the parameter whose value decides admissibility, and its offset
ADMISSIBILITY = ("alpha", 1)
# the operator's variety and the sign of its eigenvalue n in `xoppak construct`
OPERATOR_PAYLOAD = ("differential", -1)


def _derivatives(p: Poly, count: int):
    out = []
    for _ in range(count):
        out.append(p)
        p = p.derivative()
    return out


def block_rows(params, F1, F2, cols: int):
    """Rows of the F-block, one per element of F1 then F2, columns j < cols.

    alpha goes unvalidated: the invariance needs the block at a reflected
    alpha.
    """
    alpha = params.alpha
    rows = [_derivatives(laguerre(f, alpha), cols) for f in F1]
    rows += [[laguerre(f, alpha + j).reflect() for j in range(cols)] for f in F2]
    return rows


class LaguerreExcFamily(chain.Family):
    """An exceptional Laguerre family for one alpha and one pair.

    Every member is a short combination of derivatives of a single
    classical polynomial against the block's top-row minors (chain.Family),
    and the last minor is, up to sign, the Wronskian determinant Omega
    (columns 0..k-1 of the block).
    """

    def __init__(self, params: LaguerreParams, pair: PairSpec):
        alpha = params.alpha
        if is_integer(alpha) and alpha <= -1:
            raise ParameterError(f"alpha must stay off the negative integers, got {alpha}")
        super().__init__(params, pair, block_rows(params, pair.F1, pair.F2, pair.k + 1))

    def member(self, n: int) -> Poly:
        """Family member of degree n; the zero polynomial off the index set."""
        return self._member(n, lambda d, cols: _derivatives(laguerre(d, self.params.alpha), cols))


def reported_polys(fam: LaguerreExcFamily) -> dict:
    """The polynomials besides the members that `xoppak construct` reports."""
    return {"omega": fam.omega}


# -- the second order differential operator ----------------------------------


def _operator_terms(fam: LaguerreExcFamily):
    """The operator as sum_of_products term lists, built once per family:
    the numerators of the coefficients of d^2, d and 1 over one denominator
    Omega, and that denominator."""
    if fam._op_terms is not None:
        return fam._op_terms
    alpha = fam.params.alpha
    pair = fam.pair
    om = fam.omega
    om1 = om.derivative()
    om2 = om1.derivative()
    x = Poly.x()
    k = pair.k
    nums = {
        2: [(1, (x, om))],
        1: [(1, (Poly([alpha + k + 1, -1]), om)), (-2, (x, om1))],
        0: [(-(pair.k1 + pair.u), (om,)), (1, (Poly([-alpha - k, 1]), om1)), (1, (x, om2))],
    }
    fam._op_terms = nums, [(1, (om,))]
    return fam._op_terms


def _operator_numerators(fam: LaguerreExcFamily):
    """The numerators (n1, n0) of the d and 1 coefficients, from
    _operator_terms."""
    nums, _ = _operator_terms(fam)
    return sum_of_products(nums[1]), sum_of_products(nums[0])


def operator(fam: LaguerreExcFamily) -> DifferentialOperator:
    """x d2 + h1 d + h0 with member(n) as eigenvector for eigenvalue -n."""
    nums, den = _operator_terms(fam)
    return DifferentialOperator({j: ratfunc_of_sums(terms, den) for j, terms in nums.items()})


def eigen_residual(n: int, fam: LaguerreExcFamily) -> Poly:
    """Eigenfunction identity at degree n, cleared of denominators.

    Zero exactly when x p'' Omega + h1-numerator p' + h0-numerator p equals
    -n p Omega for p = member(n): each numerator's terms take p'', p' or p
    as one more factor, the denominator's take n p, and the whole is one
    sum_of_products.
    """
    p = fam.member(n)
    p1 = p.derivative()
    nums, den = _operator_terms(fam)
    at = {2: p1.derivative(), 1: p1, 0: p}
    terms = [(s, (*factors, at[j])) for j, ts in nums.items() for s, factors in ts]
    return sum_of_products(terms + [(n * s, (*factors, p)) for s, factors in den])


# -- nonvanishing, norms -----------------------------------------------------


def nonvanishing(fam: LaguerreExcFamily) -> bool:
    """Exact decision: Omega has no real root in [0, inf) (omega_cells)."""
    return not fam.omega_cells


def inner_product(fam: LaguerreExcFamily, ns) -> dict:
    """Tail-bounded quadrature of the squared norm of the member of each
    degree in ns, as {n: QuadResult}, from one shared pass."""
    if not nonvanishing(fam):
        raise PoleError("weight undefined: Omega vanishes on [0, inf)")
    om = fam.omega
    members = {n: fam.member(n) for n in ns}
    return laguerre_type_integral(members, om * om, fam.params.alpha + fam.pair.k)


def _refuse_unless_positive(fam: LaguerreExcFamily) -> None:
    fam._refuse_unless_admissible(*ADMISSIBILITY)


def orthogonality_premises(fam: LaguerreExcFamily) -> dict:
    """The exact premises of orthogonality besides the eigen identity.

    For the weight w(x) = x^(alpha+k) e^-x / Omega(x)^2 on (0, inf),
    integration by parts gives (r - n) <L_n, L_r> = 0 from symmetry,
    (x w)' = h1 w, that is h1 Omega = (alpha+k+1-x) Omega - 2x Omega',
    boundary, alpha + k > -1 (w is integrable at 0 and x w vanishes there),
    and positive_weight, Omega has no root on [0, inf) (nonvanishing).
    Refuses as norm_closed_form does unless alpha is admissible.
    """
    _refuse_unless_positive(fam)
    alpha, k = fam.params.alpha, fam.pair.k
    om = fam.omega
    n1, _ = _operator_numerators(fam)
    return {
        "symmetry": n1 == Poly([alpha + k + 1, -1]) * om - 2 * Poly.x() * om.derivative(),
        "boundary": alpha + k > -1,
        "positive_weight": nonvanishing(fam),
    }


def norm_quotient(n: int, fam: LaguerreExcFamily):
    """The closed-form squared norm of member n over the classical one at
    degree d = n - u, a rational: the paired root product
    prod_F1 (d-f) prod_F2 (d+alpha+f+1), as both share Gamma(d+alpha+1) / d!.

    The form holds for a positive weight only; refuses otherwise.
    """
    pair = fam.pair
    if not pair.sigma_contains(n):
        raise DomainError(f"degree {n} is outside the index set of {pair!r}")
    _refuse_unless_positive(fam)
    alpha = fam.params.alpha
    d = n - pair.u
    val = rat(1)
    for f in pair.F1:
        val *= d - f
    for f in pair.F2:
        val *= d + alpha + f + 1
    return val


def norm_closed_form(n: int, fam: LaguerreExcFamily) -> mp.mpf:
    """pi(n-u) Gamma(n-u+alpha+1) / (n-u)! with pi the paired root product
    of norm_quotient, as an mpf.

    The form holds for a positive weight only; refuses otherwise.
    """
    d = n - fam.pair.u
    val = norm_quotient(n, fam) / math.factorial(d)
    return to_mpf(val) * gamma_rational(d + fam.params.alpha + 1)


def norm_identity(ns, fam: LaguerreExcFamily) -> list[NormCheck]:
    """Verify the squared norms of the members of degrees ns against their
    closed forms, from one quadrature over those degrees, allowing each
    its certified tail and the quadrature's error estimate.

    Only meaningful when the weight is a positive measure; refuses
    otherwise, since the integral identity presumes admissibility.
    """
    rhs = [norm_closed_form(n, fam) for n in ns]
    got = inner_product(fam, ns)
    checks = []
    for n, want in zip(ns, rhs):
        res = got[n]
        checks.append(norm_check(n, res.value, want, res.tail_bound + res.error, res.converged))
    return checks


norm_formula = norm_identity  # the benchmark traces the norm check under this name


# -- Darboux factorization ---------------------------------------------------


def darboux_pair(fam: LaguerreExcFamily):
    """(A, B, rest, lower_family) of the `step` stripping max(F2), whose two
    compositions darboux_identities checks; refuses an empty F2."""
    top = step(fam, "F2", fam.pair.remove_f2_max()[0])
    return (top.A, *top.down, top.low)


def darboux_identities(fam: LaguerreExcFamily) -> tuple[bool, bool]:
    """Exact operator identities for the two compositions of the Darboux
    pair; B is solved from A, so B A - op_low is down_operator's rest."""
    A, B, rest, low = darboux_pair(fam)
    alpha = fam.params.alpha
    f = fam.pair.F2.max_elem
    # the shift constants carry the sign of the eigenvalue convention: with
    # D(member n) = -n * member n the compositions subtract the constants
    down_ok = rest == RatFunc(rat(-(alpha + f - low.pair.u + 1)))
    # A B = op - C, compared against _operator_terms(fam) key by key
    op = quotient_terms(_operator_terms(fam))
    op[0] = op[0] + [(-(alpha + f - fam.pair.u + 1), (), ())]
    return down_ok, A.compose_equals(B, op)


def darboux_intertwining(fam: LaguerreExcFamily, n: int) -> bool:
    """A applied to the right lower member reproduces member n exactly."""
    return chain.lifts(step(fam, "F2", fam.pair.remove_f2_max()[0]), n)


# -- the Darboux chain of the norms ------------------------------------------


def step(fam: LaguerreExcFamily, set_name: str, f: int) -> chain.Step:
    """The first order step stripping f from set_name, "F1" or "F2", built
    once per family, set and element; B and rest are solved when first read.

    Sylvester's identity on the block with the top row and the row of f
    gives A L_s^low = L_n, s = n - u + u_low, for
      A = -(Omega/Omega_low) d + (Omega' + e Omega)/Omega_low,
    e = 0 for an F1 row and e = 1 for an F2 row.  The identity is
    homogeneous in the order of each block's rows, so f need not be the
    largest element.
    """
    got = fam._steps.get((set_name, f))
    if got is None:
        low = LaguerreExcFamily(fam.params, fam.pair.without(set_name, f))
        om, om_lo = fam.omega, low.omega
        a0 = om.derivative() + om if set_name == "F2" else om.derivative()
        A = DifferentialOperator({1: RatFunc(-om, om_lo), 0: RatFunc(a0, om_lo)})
        got = fam._steps[set_name, f] = chain.Step(
            set_name, f, fam, low, A, lambda: down_operator(A, low))
    return got


def down_operator(A: DifferentialOperator, low: LaguerreExcFamily):
    """(B, rest): the B = b_1 d + b_0 with B A - op = rest, a multiple of
    the identity, for op the operator of the lower family low.

    With A = a_1 d + a_0 and op = x d^2 + h_1 d + h_0, B A has
    the d^2 coefficient b_1 a_1 and the d coefficient
    b_1 (a_1' + a_0) + b_0 a_1, so b_1 = x / a_1 and
    b_0 = (h_1 - b_1 (a_1' + a_0)) / a_1 cancel op's exactly.  rest is the
    d^0 coefficient b_1 a_0' + b_0 a_0 - h_0; whether it is a constant is
    the caller's check.  op is read from _operator_terms(low), numerators
    over one denominator, so b_1, b_0 and rest are each one
    ratfunc_of_quotients, reduced once.
    """
    h = quotient_terms(_operator_terms(low))
    a1, a0 = A.coeff(1), A.coeff(0)
    b1 = ratfunc_of_quotients(scale_terms(h[2], 1, (a1.den,), (a1.num,)))
    b1_a = scale_terms(a1.derivative_terms() + a0.terms, -1, (b1.num,), (b1.den,))
    b0 = ratfunc_of_quotients(scale_terms(h[1] + b1_a, 1, (a1.den,), (a1.num,)))
    rest = ratfunc_of_quotients(scale_terms(a0.derivative_terms(), 1, (b1.num,), (b1.den,))
                                + scale_terms(a0.terms, 1, (b0.num,), (b0.den,))
                                + scale_terms(h[0], -1))
    return DifferentialOperator({1: b1, 0: b0}), rest


def adjoint(A: DifferentialOperator, fam: LaguerreExcFamily, low: LaguerreExcFamily):
    """The adjoint A* of A = a_1 d + a_0 from low's weight to fam's.

    With the weights w = x^(alpha+k) e^-x / Omega^2 of the two families,
    k = k_low + 1 above, integrating the d of int (A f) g w by parts gives
    int f (A* g) w_low with
      A* = -a_1 rho d + (a_0 - a_1' - a_1 w'/w) rho,
      rho = w / w_low = x Omega_low^2 / Omega^2,
      w'/w = (alpha+k)/x - 1 - 2 Omega'/Omega,
    and the boundary term [a_1 f g w] from 0 to inf, which vanishes once
    low's weight is defined (boundary_refusal).  With w'/w written out,
      A*_0 = (a_0 - a_1' + a_1) rho - (alpha+k) a_1 Omega_low^2 / Omega^2
             + 2 a_1 Omega' x Omega_low^2 / Omega^3,
    and each coefficient is one ratfunc_of_quotients, reduced once.
    """
    om, om_lo = fam.omega, low.omega
    x = Poly.x()
    lo2, om2 = (om_lo, om_lo), (om, om)
    a1, a0 = A.coeff(1), A.coeff(0)
    inner = a0.terms + scale_terms(a1.derivative_terms(), -1) + a1.terms
    at_0 = (scale_terms(inner, 1, (x, *lo2), om2)
            + scale_terms(a1.terms, -(fam.params.alpha + fam.pair.k), lo2, om2)
            + scale_terms(a1.terms, 2, (om.derivative(), x, *lo2), (*om2, om)))
    at_1 = scale_terms(a1.terms, -1, (x, *lo2), om2)
    return DifferentialOperator({1: ratfunc_of_quotients(at_1), 0: ratfunc_of_quotients(at_0)})


def weight_refusal(fam: LaguerreExcFamily):
    """Why fam's weight integrals are not defined, or None: they need
    alpha + k > -1 and no root of Omega on [0, inf)."""
    alpha_k = fam.params.alpha + fam.pair.k
    if not alpha_k > -1:
        return f"the weight of {fam.pair!r} needs alpha + k > -1, got {alpha_k}"
    if not nonvanishing(fam):
        return f"Omega of {fam.pair!r} vanishes on [0, inf)"
    return None


def boundary_refusal(A_star: DifferentialOperator, fam: LaguerreExcFamily, low: LaguerreExcFamily):
    """Why the boundary term of `adjoint` does not vanish: never, once low's
    weight is defined (weight_refusal).

    [a_1 f g w] tends to 0 at inf by e^-x.  At 0, a_1 = -Omega/Omega_low is
    finite, as Omega_low has no root there, and w ~ x^(alpha+k) tends to 0,
    as alpha + k = alpha + k_low + 1 > 0.
    """
    return None


# -- alternative representation and invariance -------------------------------

def alt_representation(n: int, fam: LaguerreExcFamily) -> AltRepReport:
    """Member n rebuilt from the involuted pair, with a fitted constant.

    The involuted determinant has order max(F1) + max(F2) + 3 - k, with -1
    the max of the empty set: the top row and one row per element of G1 and
    G2.  That is often far below the defining one.  The constant is
    recovered by matching leading coefficients; the report records whether
    the match is then exact.
    """
    pair = fam.pair
    alpha = fam.params.alpha
    v = pair.v
    if n < v:
        raise DomainError(f"alternative representation needs n >= {v}, got {n}")
    G1, G2 = involute(pair.F1), involute(pair.F2)
    m_ord = G1.card + G2.card
    atil = alpha + pair.F1.max_elem + pair.F2.max_elem + 2

    # entry j: j! C(atil + n - v, j) x^(m_ord - j) L_(n-v)^(atil-j), that
    # falling factorial written as the rising one from atil + n - v - j + 1
    rows = [[pochhammer(atil + n - v - j + 1, j) * Poly.monomial(m_ord - j)
             * laguerre(n - v, atil - j) for j in range(m_ord + 1)]]
    for g in G1:
        rows.append([laguerre(g, -atil + j).reflect() for j in range(m_ord + 1)])
    rows += [_derivatives(laguerre(g, -atil), m_ord + 1) for g in G2]
    return fitted_representation(n, poly_det(rows), fam.member(n))


def invariance_conjecture(fam: LaguerreExcFamily) -> InvarianceReport:
    """Compare Omega with its reflected involuted-pair counterpart.

    Exact equality is conjectural over the full pair space; the report
    carries both sides so a sweep can record counterexamples.
    """
    pair = fam.pair
    alpha = fam.params.alpha
    G1, G2 = involute(pair.F1), involute(pair.F2)
    alpha_ref = -alpha - pair.F1.max_elem - pair.F2.max_elem - 2
    lhs = fam.omega
    reflected = block_rows(LaguerreParams(alpha_ref), G1, G2, G1.card + G2.card)
    rhs = poly_det(reflected).reflect()
    if (pair.u + pair.k1 + pair.F1.total + G1.total) % 2:
        rhs = -rhs
    return InvarianceReport(pair, (G1, G2), lhs == rhs, lhs, rhs)


# -- the scaling limit from the difference family ----------------------------

def _limit_scalings(n: int, pair: PairSpec):
    """(sign, e, p, bound) for member n, then for Omega, as limit_from_meixner
    states them: sign (1-h)^e h^p q(y/h) is a polynomial in (h, y) of
    h-degree at most bound, whose value at h = 0 is this family's q."""
    k1, k2 = pair.k1, pair.k2
    E = k1 * k2 + comb(k2 + 1, 2)
    gamma = n - (k1 + 1) * k2
    sign_m = -1 if (comb(pair.k + 1, 2) + pair.F2.total + gamma) % 2 else 1
    sign_o = -1 if pair.F1.total % 2 else 1
    beta = pair.u + k1 * (1 - k2)
    return (
        (sign_m, E, gamma, n + comb(k2, 2)),
        (sign_o, E - k2, beta, pair.F1.total + pair.F2.total - comb(k1, 2)),
    )


def limit_from_meixner(n: int, fam: LaguerreExcFamily) -> dict:
    """Exact check that the Meixner family at c = alpha + 1 tends to this
    family as a -> 1.

    Put a = 1 - h and x = y/h.  In `meixner.block_rows` at a = 1 - h, each
    entry of row f is h^(-f) times a polynomial in (h, y) of total degree at
    most f (the classical limit), times a^(-j) in column j of an F2 row.
    Differencing the columns takes a factor h out of each step and, in the
    top and F1 rows, one degree with it.  Hence
      (1-h)^E (a-1)^(n-(k1+1)k2) m_n(y/h),   E = k1 k2 + k2(k2+1)/2,
    has h-degree at most n + k2(k2-1)/2, and
      (1-h)^(E-k2) h^beta Omega(y/h),   beta = u + k1(1-k2),
    has h-degree at most sum F1 + sum F2 - k1(k1-1)/2.  E is the largest sum
    of the columns the F2 rows can take, the least exponent that clears the
    poles at a = 0; E - k2 is the same for Omega's k columns.  At h = 0 the
    two are this family's member n and Omega, up to the signs of
    `_limit_scalings`.

    Each is interpolated in h from its bound + 2 nodes h = 1/2, 1/3, ...,
    one Meixner family per node.  The extra node checks the bound: the top
    coefficient must be 0.  The value at h = 0 is then compared exactly.  Omega' needs no check of its own: the difference quotient in y
    of a polynomial in (h, y) tends to its y-derivative at h = 0.

    Returns the report: n, both degree bounds, the number of nodes, and
    whether the member and Omega matched exactly.
    """
    pair = fam.pair
    if not pair.sigma_contains(n):
        raise DomainError(f"degree {n} is outside the index set of {pair!r}")
    scalings = _limit_scalings(n, pair)
    nodes = [rat(1, m) for m in range(2, max(s[3] for s in scalings) + 4)]
    samples = ([], [])
    for h in nodes:
        mex = MeixnerExcFamily(MeixnerParams(1 - h, fam.params.alpha + 1), pair)
        for q, (sign, e, p, _), out in zip((mex.member(n), mex.omega), scalings, samples):
            scaled = [c * h**-i for i, c in enumerate(q.coeffs)]
            out.append(Poly(scaled) * (sign * rat_pow(1 - h, e) * rat_pow(h, p)))
    exact = []
    for target, (*_, bound), values in zip((fam.member(n), fam.omega), scalings, samples):
        at_zero, top = interpolate_at_zero(nodes[: bound + 2], values[: bound + 2])
        exact.append(top.is_zero and at_zero == target)
    return {
        "n": n,
        "member_degree_bound": scalings[0][3],
        "omega_degree_bound": scalings[1][3],
        "nodes": len(nodes),
        "member_exact": exact[0],
        "omega_exact": exact[1],
    }
