"""Tests for exceptional Laguerre families and everything attached to them."""

import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from xoppak import chain, cli
from xoppak import laguerre as lag
from xoppak.classical import LaguerreParams, laguerre
from xoppak.exact import (
    AdmissibilityRefusal,
    DomainError,
    ParameterError,
    PoleError,
    Poly,
    RatFunc,
    rat,
)
from xoppak.laguerre import (
    LaguerreExcFamily,
    adjoint,
    alt_representation,
    darboux_identities,
    darboux_intertwining,
    darboux_pair,
    down_operator,
    eigen_residual,
    inner_product,
    invariance_conjecture,
    limit_from_meixner,
    nonvanishing,
    norm_closed_form,
    norm_identity,
    operator,
    orthogonality_premises,
    step,
)
from xoppak.numerics import to_mpf
from xoppak.operators import DifferentialOperator, quotient_terms
from xoppak.pairs import PairSpec, enumerate_pairs, involute, is_admissible

from test_numerics import standalone_quad


SMALL_PAIRS = [
    ([1], []),
    ([], [1]),
    ([2], []),
    ([], [2]),
    ([1, 2], []),
    ([], [1, 2]),
    ([1], [1]),
    ([2], [1]),
    ([1], [2]),
    ([1, 3], [2]),
    ([1, 2], [1]),
]

ALPHAS = [rat(1, 2), rat(-1, 2), rat(1, 3), rat(5, 2), rat(-3, 2)]


def family(f1, f2, alpha):
    return LaguerreExcFamily(LaguerreParams(alpha), PairSpec(f1, f2))


def trivial_family(alpha):
    return LaguerreExcFamily(LaguerreParams(alpha), PairSpec([], []))


# -- the defining determinant ------------------------------------------------

def test_two_by_two_determinant_value():
    # ({1}, {}), n=0: det[[L0, L0'], [L1, L1']] with L1 = alpha+1-x has
    # derivative -1 and L0 = 1, so the determinant is the constant -1
    for alpha in (rat(1, 2), rat(-3, 2), rat(7, 3)):
        fam = family([1], [], alpha)
        assert fam.member(0) == Poly([rat(-1)])


def test_skipped_degree_gives_zero():
    fam = family([1], [], rat(1, 2))
    assert fam.member(1).is_zero
    fam = family([2], [1], rat(1, 3))
    for n in range(12):
        assert fam.member(n).is_zero == (not fam.pair.sigma_contains(n))


def test_negative_degree_rejected():
    fam = family([1], [], rat(1, 2))
    with pytest.raises(DomainError):
        fam.member(-1)


def test_integer_alpha_below_zero_rejected():
    with pytest.raises(ParameterError):
        family([1], [], rat(-2))
    # nonnegative integers are fine
    family([1], [], rat(0))
    family([1], [], rat(3))


def test_degree_and_leading_coefficient_law():
    for f1, f2 in SMALL_PAIRS:
        for alpha in (rat(1, 2), rat(-3, 2)):
            fam = family(f1, f2, alpha)
            u = fam.pair.u
            for n in range(u, u + 7):
                p = fam.member(n)
                if fam.pair.sigma_contains(n):
                    assert p.degree == n
                else:
                    assert p.is_zero


def test_single_f2_lc_examples():
    # ({}, {1}): members are L_1^{alpha+1}(-x) type combinations with unit
    # leading coefficients of alternating nature
    fam = family([], [1], rat(1, 2))
    for n in (1, 2, 3):
        # the paper's law at F1 = {}, F2 = {1}, u = 1: (-1)^(n-1) / (n-1)!
        assert fam.member(n).leading == rat((-1) ** (n - 1), math.factorial(n - 1))


# -- Omega ---------------------------------------------------------------------

def test_omega_single_f1_closed_form():
    for alpha in ALPHAS:
        fam = family([1], [], alpha)
        assert fam.omega == Poly([alpha + 1, rat(-1)])


def test_omega_degree_is_u_plus_k1():
    for f1, f2 in SMALL_PAIRS:
        fam = family(f1, f2, rat(1, 3))
        assert fam.omega.degree == fam.pair.u + fam.pair.k1


# -- the differential operator -------------------------------------------------

def test_operator_shape():
    fam = family([1], [2], rat(1, 3))
    op = operator(fam)
    assert op.coeff(2) is not None
    assert op.coeff(2).num == Poly.x() and op.coeff(2).den == Poly.one()
    om = fam.omega
    for coeff in (op.coeff(1), op.coeff(0)):
        # denominator divides Omega: Omega mod den is zero up to scale
        q, r = divmod(om * coeff.den.leading, coeff.den * om.leading)
        assert (om * (coeff.den(rat(17)) / om(rat(17)))) == coeff.den or r.is_zero


def test_eigenvalue_examples_single_f1():
    fam = family([1], [], rat(-3, 2))
    for n in (0, 2, 3):
        assert eigen_residual(n, fam).is_zero


def test_eigenvalue_examples_mixed_pair():
    fam = family([1], [2], rat(1, 3))
    u = fam.pair.u
    for n in range(u, u + 5):
        if fam.pair.sigma_contains(n):
            assert eigen_residual(n, fam).is_zero


def test_eigen_sweep_small_pairs():
    for f1, f2 in SMALL_PAIRS:
        fam = family(f1, f2, rat(1, 2))
        u = fam.pair.u
        for n in range(u, u + 6):
            if fam.pair.sigma_contains(n):
                assert eigen_residual(n, fam).is_zero


def test_trivial_pair_matches_classical_operator():
    fam = trivial_family(rat(1, 2))
    for n in range(6):
        assert eigen_residual(n, fam).is_zero
    # D = x d2 + (alpha+1-x) d acting on L_n gives -n L_n
    op = operator(fam)
    p = laguerre(3, rat(1, 2))
    assert op.apply(p).num == rat(-3) * p



def reference_numerators(fam):
    """The cleared operator written out in Poly arithmetic: the numerators
    of the d and 1 coefficients over Omega."""
    alpha, pair = fam.params.alpha, fam.pair
    k = pair.k
    om = fam.omega
    x = Poly.x()
    n1 = (alpha + k + 1 - x) * om - 2 * x * om.derivative()
    n0 = -(pair.k1 + pair.u) * om + (x - alpha - k) * om.derivative() + x * om.derivative().derivative()
    return n1, n0


@pytest.mark.parametrize("alpha", [rat(1, 2), rat(-3, 2)])
def test_eigen_residual_is_the_cleared_operator_on_a_perturbed_member(alpha):
    # the term lists read as polynomials, as the operator's reduced
    # coefficients, and on a member off the eigenspace give the reference
    for pair in enumerate_pairs(3, 3):
        fam = LaguerreExcFamily(LaguerreParams(alpha), pair)
        n1, n0 = reference_numerators(fam)
        om = fam.omega
        assert lag._operator_numerators(fam) == (n1, n0)
        op = operator(fam)
        assert op.coeff(2) == RatFunc(Poly.x())
        assert op.coeff(1) == RatFunc(n1, om) and op.coeff(0) == RatFunc(n0, om)
        for n in pair.sigma_first(2):
            p = fam._members[n] = fam.member(n) + Poly.monomial(n + 1) * rat(1, 7)
            p1 = p.derivative()
            want = Poly.x() * p1.derivative() * om + n1 * p1 + n0 * p + n * p * om
            residual = eigen_residual(n, fam)
            assert residual == want and not residual.is_zero, (pair, n)


def test_operator_apply_matches_eigenvalue():
    fam = family([], [1, 2], rat(-1, 2))
    n = fam.pair.u + 1
    p = fam.member(n)
    img = operator(fam).apply(p)
    assert img.den == Poly.one()
    assert img.num == rat(-n) * p


# -- nonvanishing, norms -------------------------------------------------------

def test_nonvanishing_examples():
    assert nonvanishing(family([1], [], rat(-3, 2)))
    assert nonvanishing(family([], [1], rat(1, 2)))
    assert not nonvanishing(family([1], [], rat(1, 2)))


def test_nonvanishing_without_admissibility():
    # alpha = -7/2 keeps Omega = -5/2 - x rootless on [0, inf) although
    # (alpha + 1, pair) fails the admissibility scan
    fam = family([1], [], rat(-7, 2))
    assert nonvanishing(fam)
    assert not is_admissible(rat(-5, 2), fam.pair)


def test_omega_cells_are_kept_once_isolated_and_not_on_a_zero_omega():
    # the first read isolates Omega's root cells and the family keeps them;
    # on Omega = 0 the isolation raises each time and nothing is kept
    fam = family([1], [], rat(1, 2))
    assert not nonvanishing(fam) and vars(fam)["omega_cells"] == [1]
    assert fam.omega_cells is vars(fam)["omega_cells"]
    fam = family([1], [], rat(1, 2))
    fam.omega = Poly.zero()
    for _ in range(2):
        with pytest.raises(DomainError):
            nonvanishing(fam)
    assert "omega_cells" not in vars(fam)


def test_admissible_implies_nonvanishing_and_alpha_bound():
    for f1, f2 in SMALL_PAIRS:
        pair = PairSpec(f1, f2)
        for alpha in ALPHAS + [rat(-5, 4), rat(-7, 4), rat(-5, 2)]:
            if is_admissible(alpha + 1, pair):
                fam = family(f1, f2, alpha)
                assert nonvanishing(fam)
                assert alpha + pair.k > -1


def test_single_f1_admissibility_window():
    # ({1}, {}) is admissible exactly for alpha in (-2, -1)
    pair = PairSpec([1], [])
    for alpha in (rat(-3, 2), rat(-5, 4), rat(-7, 4)):
        assert is_admissible(alpha + 1, pair)
    for alpha in (rat(-5, 2), rat(-7, 2), rat(1, 2)):
        assert not is_admissible(alpha + 1, pair)


def test_norm_concrete_value_two_sqrt_pi():
    fam = family([1], [], rat(-3, 2))
    closed = norm_closed_form(0, fam)
    assert mp.almosteq(closed, 2 * mp.sqrt(mp.pi))
    [check] = norm_identity([0], fam)
    assert check.ok
    assert check.rel_err < 1e-8


@pytest.mark.parametrize("f1, f2, alpha", [
    ([], [1], rat(1, 2)),
    ([1], [], rat(-3, 2)),
    ([1, 2], [3], rat(1, 2)),
    ([2, 3], [], rat(4)),
    ([], [2], rat(4)),
])
def test_norm_closed_form_matches_the_formula(f1, f2, alpha):
    # pi(n-u) Gamma(n-u+alpha+1) / (n-u)!, every factor in mpmath at 60 digits
    fam = family(f1, f2, alpha)
    pair = fam.pair
    for n in pair.sigma_first(3):
        got = norm_closed_form(n, fam)
        d = n - pair.u
        with mp.workdps(60):
            al = to_mpf(alpha)
            want = mp.gamma(d + al + 1) / mp.factorial(d)
            for f in pair.F1:
                want *= d - f
            for f in pair.F2:
                want *= d + al + f + 1
        assert abs(got - want) <= mp.mpf(10) ** -40 * abs(want), (n, got, want)


def test_norm_further_examples():
    fam = family([1], [], rat(-3, 2))
    assert norm_identity([2], fam)[0].ok
    fam = family([], [1], rat(1, 2))
    assert norm_identity([1], fam)[0].ok


def test_norm_refuses_non_admissible():
    with pytest.raises(AdmissibilityRefusal):
        norm_identity([0], family([1], [], rat(-7, 2)))
    with pytest.raises(AdmissibilityRefusal):
        norm_identity([0], family([1], [], rat(1, 2)))


def test_orthogonality_premises_refuse_non_admissible():
    # alpha = -5/2 is not admissible for F1 = {2}: the premises refuse with
    # the reason the norms give
    fam = family([2], [], rat(-5, 2))
    with pytest.raises(AdmissibilityRefusal) as premises:
        orthogonality_premises(fam)
    with pytest.raises(AdmissibilityRefusal) as norm:
        norm_closed_form(2, fam)
    assert str(premises.value) == str(norm.value) == (
        "a positive weight needs an admissible alpha; alpha=-5/2 is not admissible for "
        "PairSpec([2], [])"
    )


def test_norm_rejects_gap_degree():
    fam = family([1], [], rat(-3, 2))
    with pytest.raises(DomainError):
        norm_identity([0, 1], fam)


def test_orthogonality_normalized(capsys):
    # mp.quad of each product m_n m_r on [0, U], U the squared norms' shared
    # limit; past U, |m_n m_r| <= (m_n^2 + m_r^2)/2 bounds its tail by theirs
    fam = family([1], [], rat(-3, 2))
    degrees = [n for n in range(0, 6) if fam.pair.sigma_contains(n)][:4]
    norms = inner_product(fam, degrees)
    upper = norms[degrees[0]].upper
    den, exponent = fam.omega * fam.omega, fam.params.alpha + fam.pair.k
    for i, n in enumerate(degrees):
        for r in degrees[i + 1 :]:
            value = standalone_quad(fam.member(n) * fam.member(r), den, exponent, upper)
            bound = abs(value) + (norms[n].tail_bound + norms[r].tail_bound) / 2
            assert bound / mp.sqrt(norms[n].value * norms[r].value) < 1e-7, (n, r)
    # the exact check passes on the family the quadrature confirms
    assert cli.main(["verify", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
                     "--checks", "orthogonality"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "pass"


def test_inner_product_refuses_vanishing_omega():
    fam = family([1], [], rat(1, 2))
    with pytest.raises(PoleError):
        inner_product(fam, [0])


def test_default_verify_makes_one_quadrature_per_family(monkeypatch, capsys):
    # the norms check integrates exactly the degrees it reports, in one pass;
    # no other check integrates anything
    calls = []
    quad = lag.laguerre_type_integral

    def counted(*args):
        calls.append(args)
        return quad(*args)

    monkeypatch.setattr(lag, "laguerre_type_integral", counted)
    # in numeric norms; the Darboux chain reaches (-; 1) and integrates nothing
    for flags, method, quadratures in ((["--F2", "1", "--alpha", "1/2"], "chain", 0),
                                       (["--F1", "1", "--alpha", "-3/2"], "numeric", 1)):
        calls.clear()
        assert cli.main(["verify", "--kind", "laguerre"] + flags) == 0
        rows = {row["check"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
        assert rows["norms"]["status"] == rows["orthogonality"]["status"] == "pass"
        results = rows["norms"]["detail"]["results"]
        ns = [res["n"] for res in results]
        assert {res["method"] for res in results} == {method}, flags
        assert len(ns) == 2 and len(calls) == quadratures, flags
        if not quadratures:
            continue
        members, _, _ = calls[0]
        assert list(members) == ns, flags


def test_quadrature_reports_its_error_estimate():
    # x = t^q on [0, 1] makes the integrand analytic at t = 0, so the rule
    # meets its target at alpha + k = -1/2 and -3/4 as well as at 3/2
    for f1, f2, alpha, n in (([1], [], rat(-3, 2), 0), ([1], [], rat(-7, 4), 0),
                             ([], [1], rat(1, 2), 1)):
        res = inner_product(family(f1, f2, alpha), [n])[n]
        assert res.converged and res.error < mp.mp.eps, (alpha, n)


@pytest.mark.parametrize("alpha", ["40", "100"])
def test_norms_far_above_one_converge_relative_to_their_size(alpha, monkeypatch, capsys):
    # Gamma(alpha + n + 1)/n! is far above 1, where no level differs from the
    # last by an absolute eps/8: the rule reads each level relative to its size
    argv = ["verify", "--kind", "laguerre", "--alpha", alpha, "--checks", "norms"]
    assert cli.main(argv) == 0
    [row] = json.loads(capsys.readouterr().out)["checks"]
    assert row["status"] == "pass" and row["detail"]["results"]
    for res in row["detail"]["results"]:
        assert res["method"] == "numeric" and res["converged"] and res["ok"], res
    # and still tells a closed form 1e-30 off, relative
    closed = lag.norm_closed_form
    monkeypatch.setattr(lag, "norm_closed_form",
                        lambda n, fam: closed(n, fam) * (1 + mp.mpf(10) ** -30))
    assert cli.main(argv) == 4
    [row] = json.loads(capsys.readouterr().out)["checks"]
    assert row["status"] == "fail" and row["detail"]["results"]
    for res in row["detail"]["results"]:
        assert res["method"] == "numeric" and res["converged"] and not res["ok"], res


# -- Darboux -------------------------------------------------------------------

def test_darboux_identities_and_intertwining():
    cases = [
        ([], [1], rat(1, 2)),
        ([], [2], rat(1, 3)),
        ([1], [1], rat(1, 2)),
        ([], [1, 2], rat(-1, 2)),
        ([1], [2], rat(7, 3)),
    ]
    for f1, f2, alpha in cases:
        fam = family(f1, f2, alpha)
        down_ok, up_ok = darboux_identities(fam)
        assert down_ok and up_ok
        u = fam.pair.u
        for n in range(u, u + 4):
            if fam.pair.sigma_contains(n):
                assert darboux_intertwining(fam, n)


def test_darboux_descends_to_classical():
    fam = family([], [1], rat(1, 2))
    *_, low = darboux_pair(fam)
    assert low.pair.is_trivial
    assert darboux_identities(fam) == (True, True)


def test_darboux_needs_nonempty_f2():
    with pytest.raises(DomainError):
        darboux_pair(family([1, 2], [], rat(1, 2)))


def test_darboux_pair_is_built_once(monkeypatch):
    # B is solved once per family: darboux_identities reads rest from the memo
    solves = []
    solve = lag.down_operator
    monkeypatch.setattr(lag, "down_operator", lambda A, low: solves.append(1) or solve(A, low))
    fam = family([1], [2], rat(1, 2))
    assert all(x is y for x, y in zip(darboux_pair(fam), darboux_pair(fam)))
    assert darboux_pair(fam)[0] is step(fam, "F2", 2).A
    assert darboux_identities(fam) == (True, True)
    assert len(solves) == 1


@pytest.mark.parametrize("f1, f2, alpha", [
    ([], [1], rat(1, 2)),
    ([1], [2], rat(-1, 2)),
    ([2, 3], [1, 2], rat(5, 2)),
])
def test_solved_b_is_the_darboux_b(f1, f2, alpha):
    # darboux_pair's B, solved from A and the lower operator, is the paper's
    # B, and B A leaves darboux_identities' shift -(alpha + f - u_low + 1)
    fam = family(f1, f2, alpha)
    A, solved, rest, low = darboux_pair(fam)
    op = operator(low)
    x, k = Poly.x(), fam.pair.k
    B = DifferentialOperator({
        1: -RatFunc(x * low.omega, fam.omega),
        0: RatFunc(x * low.omega.derivative() - (alpha + k) * low.omega, fam.omega),
    })
    assert solved == B
    assert (B @ A - (op - rat(alpha + f2[-1] - low.pair.u + 1))).is_zero
    assert rest == RatFunc(rat(-(alpha + f2[-1] - low.pair.u + 1)))


@pytest.mark.parametrize("f1, f2, alpha", [
    ([1, 2], [1], rat(1, 2)),
    ([2, 3], [1, 2], rat(5, 2)),
    ([1, 3], [], rat(-1, 3)),
])
def test_f1_step_intertwines_and_its_adjoint_is_minus_b(f1, f2, alpha):
    # stripping any f of F1: A L_s^low = L_n with s = n - u + u_low,
    # B A = op_low + f + u_low, and A* = -B; stripping any f of F2: the same
    # lift, B A = op_low - (alpha + f - u_low + 1), and A* = -B
    fam = family(f1, f2, alpha)
    for f in f1:
        one = step(fam, "F1", f)
        A, low = one.A, one.low
        assert low.pair == PairSpec([e for e in f1 if e != f], f2)
        op = operator(low)
        B, rest = down_operator(A, low)
        assert one.down == (B, rest)
        assert (B @ A - (op + rat(f + low.pair.u))).is_zero
        assert rest == RatFunc(rat(f + low.pair.u))
        assert adjoint(A, fam, low).coeffs == {key: -coeff for key, coeff in B.coeffs.items()}
        for n in fam.pair.sigma_first(3):
            s = n - fam.pair.u + low.pair.u
            assert A.apply(low.member(s)) == RatFunc(fam.member(n)), (f, n)
    for f in f2:
        one = step(fam, "F2", f)
        A, low = one.A, one.low
        assert low.pair == PairSpec(f1, [e for e in f2 if e != f])
        op = operator(low)
        B, rest = one.down
        assert (B @ A - (op - rat(alpha + f - low.pair.u + 1))).is_zero
        assert rest == RatFunc(rat(-(alpha + f - low.pair.u + 1)))
        assert adjoint(A, fam, low).coeffs == {key: -coeff for key, coeff in B.coeffs.items()}
        for n in fam.pair.sigma_first(3):
            s = n - fam.pair.u + low.pair.u
            assert A.apply(low.member(s)) == RatFunc(fam.member(n)), (f, n)


CHAIN_FAMILIES = [
    ([], [1], rat(1, 2)),
    ([], [1, 2], rat(-1, 2)),
    ([], [2, 3], rat(1, 2)),
    ([], [1, 3], rat(5, 2)),
    ([], [3], rat(-1, 2)),
]


@pytest.mark.parametrize("f1, f2, alpha", CHAIN_FAMILIES)
def test_every_step_leaves_only_the_rest(f1, f2, alpha):
    # B is solved from A, so B A - op_low is down_operator's rest at d^0
    route, why = chain.find_route(lag, family(f1, f2, alpha))
    assert why is None and route
    for step in route:
        op = operator(step.low)
        B, rest = down_operator(step.A, step.low)
        assert B @ step.A - op == DifferentialOperator({0: rest}), (step.set_name, step.f)


# -- the Darboux algebra against RatFunc arithmetic ----------------------------
#
# The oracles below reduce after every product, quotient, sum and derivative,
# as RatFunc arithmetic does; reduced RatFuncs are canonical, so the
# algebra's one reduction per coefficient must give the same operators.


def down_by_ratfuncs(A, op):
    a1, a0 = A.coeff(1), A.coeff(0)
    b1 = op.coeff(2) / a1
    b0 = (op.coeff(1) - b1 * (a1.derivative() + a0)) / a1
    return DifferentialOperator({1: b1, 0: b0}), b1 * a0.derivative() + b0 * a0 - op.coeff(0)


def adjoint_by_ratfuncs(A, fam, low):
    om, om_lo = fam.omega, low.omega
    x = Poly.x()
    rho = RatFunc(x * om_lo * om_lo, om * om)
    log_w = RatFunc(Poly([fam.params.alpha + fam.pair.k, -1]), x) - RatFunc(2 * om.derivative(), om)
    a1, a0 = A.coeff(1), A.coeff(0)
    return DifferentialOperator({1: -a1 * rho, 0: (a0 - a1.derivative() - a1 * log_w) * rho})


def compose_by_ratfuncs(P, Q):
    out = {}
    for i, a in P.coeffs.items():
        for j, b in Q.coeffs.items():
            derivs = [b]
            for _ in range(i):
                derivs.append(derivs[-1].derivative())
            for t in range(i + 1):
                out[j + t] = out.get(j + t, RatFunc(0)) + a * math.comb(i, t) * derivs[i - t]
    return DifferentialOperator(out)


def ratio_by_division(P, Q):
    if set(P.coeffs) != set(Q.coeffs) or not P.coeffs:
        return None
    found = {chain._constant(P.coeff(key) / Q.coeff(key)) for key in P.coeffs}
    return found.pop() if len(found) == 1 and None not in found else None


@pytest.mark.parametrize("pair", enumerate_pairs(3, 3), ids=repr)
def test_darboux_algebra_matches_ratfunc_arithmetic(pair):
    # every step of every family: B, rest, A* and the compositions equal the
    # RatFunc formulas, and each zero test (lifts, kappa, the up identity)
    # agrees with the reduced comparison, on a true and on a false instance
    fam = LaguerreExcFamily(LaguerreParams(rat(1, 2)), pair)
    for set_name, elems in (("F1", pair.F1.elems), ("F2", pair.F2.elems)):
        for f in elems:
            one = step(fam, set_name, f)
            A, low = one.A, one.low
            op_low, op = operator(low), operator(fam)
            B, rest = one.down
            assert (B, rest) == down_by_ratfuncs(A, op_low), (set_name, f)
            A_star = adjoint(A, fam, low)
            assert A_star == adjoint_by_ratfuncs(A, fam, low)
            for P, Q in ((A, B), (B, A), (op_low, B), (A, op_low)):
                assert P @ Q == compose_by_ratfuncs(P, Q)
            off = DifferentialOperator({**B.coeffs, 0: B.coeff(0) * 2})
            for Q in (B, off):
                assert chain._ratio(A_star, Q) == ratio_by_division(A_star, Q)
            assert chain._ratio(A_star, B) is not None
            for n in fam.pair.sigma_first(2):
                s = n - fam.pair.u + low.pair.u
                assert chain.lifts(one, n)
                for target, holds in ((fam.member(n), True), (2 * fam.member(n), False)):
                    assert A.sends(low.member(s), target) == (
                        A.apply(low.member(s)) == RatFunc(target)) == holds
            up = chain._constant((compose_by_ratfuncs(A, B) - op).coeff(0))
            for shift, holds in ((up, True), (up + 1, False)):
                terms = quotient_terms(lag._operator_terms(fam))
                terms[0] = terms[0] + [(shift, (), ())]
                assert A.compose_equals(B, terms) == (A @ B - (op + shift)).is_zero == holds


@pytest.mark.parametrize("f1, f2, alpha", CHAIN_FAMILIES)
def test_chain_products_equal_the_closed_form_quotients(f1, f2, alpha):
    fam = family(f1, f2, alpha)
    ns = fam.pair.sigma_first(2)
    norms, why = chain.norms(lag, fam, ns)
    assert why is None
    for norm in norms:
        assert norm.ok and norm.product == norm.quotient
        assert [(step["set"], step["f"], step["kappa"]) for step in norm.steps] == [
            ("F2", f, -1) for f in reversed(f2)]


@pytest.mark.parametrize("what", ["kappa", "shift", "quotient"])
def test_chain_rows_fail_on_a_perturbation(perturb_chain, what):
    perturb_chain(lag, what)
    fam = family([], [1, 2], rat(1, 2))
    norms, why = chain.norms(lag, fam, fam.pair.sigma_first(2))
    assert why is None
    assert norms and not any(norm.ok for norm in norms)


def test_norms_fall_back_to_numerics_where_no_chain_applies(capsys):
    # the only step of (1; -) at alpha = -3/2 reaches the classical weight
    # at alpha = -3/2, which is not integrable at 0
    fam = family([1], [], rat(-3, 2))
    assert chain.norms(lag, fam, [0, 2]) == (
        None, "no step order to the classical family meets its premises: "
        "the weight of PairSpec([], []) needs alpha + k > -1, got -3/2")
    assert cli.main(["verify", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
                     "--checks", "norms"]) == 0
    [row] = json.loads(capsys.readouterr().out)["checks"]
    assert row["status"] == "pass"
    for res in row["detail"]["results"]:
        assert res["method"] == "numeric" and res["ok"] and res["converged"]
        assert res["chain_refusal"].endswith("needs alpha + k > -1, got -3/2")
    # with F1 nonempty every route passes a family with one F1 element,
    # whose Omega has a root on (0, inf) when alpha > -1
    _, why = chain.norms(lag, family([1, 2], [], rat(1, 2)), [3])
    assert "Omega of PairSpec([1], []) vanishes on [0, inf)" in why


def test_a_planted_error_in_a_fails_darboux_and_the_chain(perturb_chain):
    perturb_chain(lag, "A")
    fam = family([], [1, 2], rat(1, 2))
    assert not darboux_identities(fam)[0]
    norms, why = chain.norms(lag, fam, fam.pair.sigma_first(2))
    assert why is None
    assert norms and not any(norm.ok for norm in norms)


# -- alternative representation -------------------------------------------------

def test_alt_representation_single_f1():
    fam = family([1], [], rat(-3, 2))
    v = fam.pair.v
    for n in (v, v + 1):
        report = alt_representation(n, fam)
        assert report.matches
        assert report.discrepancy.is_zero


def test_alt_representation_single_f2():
    fam = family([], [1], rat(1, 2))
    v = fam.pair.v
    for n in range(v, v + 3):
        assert alt_representation(n, fam).matches


def test_alt_representation_mixed_pair():
    fam = family([1, 2], [1], rat(1, 3))
    assert alt_representation(fam.pair.v, fam).matches


def test_alt_representation_order_economy():
    # F1 = {1,2,3}, F2 = {1,3} has a 6x6 defining determinant but the
    # involuted pair ({3}, {1,3}) needs only a 4x4 one
    fam = family([1, 2, 3], [1, 3], rat(1, 2))
    m_ord = involute(fam.pair.F1).card + involute(fam.pair.F2).card
    assert fam.pair.k + 1 == 6
    assert m_ord + 1 == 4
    assert alt_representation(fam.pair.v, fam).matches


def test_alt_representation_needs_large_degree():
    fam = family([1], [], rat(1, 2))
    with pytest.raises(DomainError):
        alt_representation(fam.pair.v - 1, fam)


# -- invariance -----------------------------------------------------------------

def test_invariance_single_f1():
    for alpha in (rat(1, 2), rat(-3, 2)):
        fam = family([1], [], alpha)
        report = invariance_conjecture(fam)
        assert report.matches
        assert report.discrepancy.is_zero


def test_invariance_more_families():
    for f1, f2, alpha in (
        ([1, 2], [], rat(1, 3)),
        ([], [1, 3], rat(5, 2)),
        ([1], [1], rat(1, 2)),
        ([2], [1, 2], rat(-1, 2)),
    ):
        assert invariance_conjecture(family(f1, f2, alpha)).matches


def test_invariance_involution_matches_pair_map():
    fam = family([1, 3], [2], rat(1, 2))
    report = invariance_conjecture(fam)
    G1, G2 = report.involuted
    assert G1 == involute(fam.pair.F1)
    assert G2 == involute(fam.pair.F2)


# -- the scaling limit ----------------------------------------------------------

def exact_limit(fam, n):
    report = limit_from_meixner(n, fam)
    assert report["member_exact"] and report["omega_exact"], report
    return report


def test_limit_classical_base_case():
    # E = beta = 0 and Omega = 1: the member alone has h-degree n
    report = exact_limit(trivial_family(rat(1, 2)), 2)
    assert report == {
        "n": 2, "member_degree_bound": 2, "omega_degree_bound": 0, "nodes": 4,
        "member_exact": True, "omega_exact": True,
    }


def test_limit_constant_member_exact():
    # ({1}, {}), n=0: the member is the constant -1 and Omega = L_1 has
    # h-degree 1, so three Meixner families decide both
    report = exact_limit(family([1], [], rat(-3, 2)), 0)
    assert (report["member_degree_bound"], report["omega_degree_bound"]) == (0, 1)
    assert report["nodes"] == 3


def test_limit_single_f2():
    for n in (1, 2, 5):
        report = exact_limit(family([], [1], rat(1, 2)), n)
        assert report["member_degree_bound"] == n
        assert report["nodes"] == max(n, 1) + 2


def test_limit_mixed_pair():
    fam = family([1], [1], rat(1, 3))
    for n in fam.pair.sigma_first(3):
        exact_limit(fam, n)


def test_limit_bounds_grow_with_the_second_set():
    # k2 = 3 adds comb(3, 2) to the member bound; Omega's is 15 - comb(2, 2)
    report = exact_limit(family([2, 5], [1, 3, 4], rat(9, 2)), 12)
    assert (report["member_degree_bound"], report["omega_degree_bound"]) == (15, 14)
    assert report["nodes"] == 17


def test_limit_rejects_gap_degree():
    fam = family([1], [], rat(1, 2))
    with pytest.raises(DomainError):
        limit_from_meixner(1, fam)


def perturb_scalings(monkeypatch, which, field, change):
    """Make limit_from_meixner use one wrong entry of _limit_scalings."""
    real = lag._limit_scalings

    def perturbed(n, pair):
        rows = [list(r) for r in real(n, pair)]
        rows[which][field] = change(rows[which][field])
        return tuple(map(tuple, rows))

    monkeypatch.setattr(lag, "_limit_scalings", perturbed)


MEMBER, OMEGA = 0, 1
SIGN, CLEARING, POWER, BOUND = range(4)
LIMIT_FAMILIES = [
    ([1], [], rat(-3, 2)), ([], [1], rat(1, 2)), ([1], [1], rat(1, 3)),
    ([1, 2], [3], rat(1, 2)), ([], [1, 2], rat(5, 2)),
]


@pytest.mark.parametrize(
    "which, field, change",
    [
        (MEMBER, SIGN, lambda s: -s),
        (OMEGA, SIGN, lambda s: -s),
        # the least exponent that clears the poles at a = 0, less one
        (MEMBER, CLEARING, lambda e: e - 1),
        (OMEGA, POWER, lambda b: b + 1),
        (OMEGA, POWER, lambda b: b - 1),
    ],
    ids=["member-sign", "omega-sign", "E-1", "beta+1", "beta-1"],
)
def test_limit_fails_on_a_wrong_scaling(monkeypatch, which, field, change):
    perturb_scalings(monkeypatch, which, field, change)
    verdict = ("member_exact", "omega_exact")[which]
    for f1, f2, alpha in LIMIT_FAMILIES:
        fam = family(f1, f2, alpha)
        for n in fam.pair.sigma_first(2):
            assert not limit_from_meixner(n, fam)[verdict], (f1, f2, n)


@pytest.mark.parametrize("which", [MEMBER, OMEGA], ids=["member", "omega"])
def test_limit_extra_node_catches_a_low_degree_bound(monkeypatch, which):
    # with F2 empty both bounds are attained: member 2 at n = 2, Omega = L_1
    fam = family([1], [], rat(-3, 2))
    assert exact_limit(fam, 2)["nodes"] == 4
    perturb_scalings(monkeypatch, which, BOUND, lambda d: d - 1)
    report = limit_from_meixner(2, fam)
    assert not report[("member_exact", "omega_exact")[which]]


# -- properties -----------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(SMALL_PAIRS),
    st.sampled_from(ALPHAS),
    st.integers(min_value=0, max_value=6),
)
def test_property_degree_or_zero(pair, alpha, offset):
    fam = family(pair[0], pair[1], alpha)
    n = fam.pair.u + offset
    p = fam.member(n)
    if fam.pair.sigma_contains(n):
        assert p.degree == n
    else:
        assert p.is_zero


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(SMALL_PAIRS),
    st.sampled_from([rat(1, 2), rat(-1, 2), rat(1, 3)]),
    st.integers(min_value=0, max_value=5),
)
def test_property_eigenfunction(pair, alpha, offset):
    fam = family(pair[0], pair[1], alpha)
    n = fam.pair.u + offset
    if fam.pair.sigma_contains(n):
        assert eigen_residual(n, fam).is_zero
