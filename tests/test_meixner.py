"""Tests for exceptional Meixner families and everything attached to them."""

import json
import math
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from xoppak import chain, cli, meixner
from xoppak.classical import MeixnerParams, meixner_raw
from xoppak.exact import (
    AdmissibilityRefusal,
    DomainError,
    PoleError,
    Poly,
    RatFunc,
    Rational,
    gamma_sign,
    nonneg_root_cells,
    pochhammer,
    poly_det,
    rat,
    rat_ceil,
    rat_pow,
    rational_det,
    root_bound,
)
from xoppak.meixner import (
    DualityConstants,
    MeixnerExcFamily,
    adjoint,
    alt_representation,
    darboux_identities,
    darboux_intertwining,
    darboux_pair,
    down_operator,
    duality_check,
    eigen_residual,
    inner_product,
    invariance_conjecture,
    norm_check,
    norm_closed_form,
    norm_identity,
    operator,
    positivity_by_signs,
    step,
    weight_refusal,
)
from xoppak.numerics import certified_sum, to_mpf
from xoppak.operators import DifferenceOperator, quotient_terms
from xoppak.pairs import PairSpec, enumerate_pairs, hat_c, is_admissible


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


def family(f1, f2, a, c):
    return MeixnerExcFamily(MeixnerParams(a, c), PairSpec(f1, f2))


def test_first_member_is_one_for_single_f1():
    for a, c in ((rat(1, 2), rat(3)), (rat(2, 3), rat(5, 2)), (rat(1, 3), rat(-1, 2))):
        fam = family([1], [], a, c)
        assert fam.member(0) == Poly.one()


def test_skipped_degree_gives_zero():
    fam = family([1], [], rat(1, 2), rat(3))
    assert not fam.pair.sigma_contains(1)
    assert fam.member(1).is_zero


def test_leading_coefficient_law_by_hand():
    # 1x1 determinant: m_1 at (1/a, c) carries lc 1/((1/a - 1) 1!) scaled by a
    fam = family([], [1], rat(1, 2), rat(3))
    assert fam.member(1) == Poly([8, 1])


def test_degree_and_leading_law_sweep():
    params = ((rat(1, 2), rat(3)), (rat(1, 3), rat(5, 2)), (rat(2, 3), rat(-1, 2)))
    for f1, f2 in SMALL_PAIRS:
        for a, c in params:
            fam = family(f1, f2, a, c)
            for n in fam.pair.sigma_first(4):
                p = fam.member(n)
                assert p.degree == n, (f1, f2, a, c, n)


def test_two_determinant_paths_agree():
    """Members and Omega from the top-row minors equal the full determinants
    of their defining Casorati matrices: the top row m_(n-u)(x+j) over the
    F-block, and the F-block alone."""
    params = ((rat(1, 2), rat(3)), (rat(2, 3), rat(-1, 2)))
    for f1, f2 in SMALL_PAIRS:
        for a, c in params:
            fam = family(f1, f2, a, c)
            k, u = fam.pair.k, fam.pair.u
            block = meixner.block_rows(fam.params, fam.pair.F1, fam.pair.F2, k + 1)
            for n in range(u + 5):
                top = [meixner_raw(n - u, a, c).shift(j) for j in range(k + 1)]
                assert fam.member(n) == poly_det([top, *block]), (f1, f2, a, c, n)
            assert fam.omega == poly_det([row[:k] for row in block]), (f1, f2, a, c)


def test_omega_single_f1():
    for a, c in ((rat(1, 2), rat(3)), (rat(1, 3), rat(-1, 2))):
        fam = family([1], [], a, c)
        assert fam.omega == Poly([-a * c / (1 - a), 1])


def test_omega_product_paper_value():
    fam = family([1], [], rat(1, 2), rat(-7, 2))
    om = fam.omega
    for n in range(21):
        assert om(n) * om(n + 1) == rat((2 * n + 7) * (2 * n + 9), 4)


def test_omega_lambda_degrees():
    fam = family([1, 2], [1], rat(1, 2), rat(3))
    assert fam.pair.u == 1
    assert fam.omega.degree == fam.pair.u + fam.pair.k1 == 3
    assert fam.lam.degree == fam.pair.u + fam.pair.k1


def test_operator_h_minus_one_vanishes_at_zero():
    op = operator(family([1], [2], rat(1, 2), rat(3)))
    assert op.coeff(-1)(0) == 0


def test_operator_denominators_divide_omega():
    fam = family([1, 2], [1], rat(1, 3), rat(5, 2))
    om = fam.omega
    assert (om / om.leading) % operator(fam).coeff(-1).den == Poly.zero()
    assert (om.shift(1) / om.leading) % operator(fam).coeff(1).den == Poly.zero()


def test_eigen_identity_examples():
    fam = family([1], [], rat(1, 2), rat(3))
    for n in (0, 2, 3):
        assert eigen_residual(n, fam).is_zero
    big = family([1, 2], [1], rat(1, 2), rat(3))
    u = big.pair.u
    for n in range(u, u + 6):
        if big.pair.sigma_contains(n):
            assert eigen_residual(n, big).is_zero, n


def test_eigen_identity_sweep():
    for f1, f2 in SMALL_PAIRS:
        fam = family(f1, f2, rat(2, 3), rat(-1, 2))
        for n in fam.pair.sigma_first(4):
            assert eigen_residual(n, fam).is_zero, (f1, f2, n)


def test_empty_pair_residuals_vanish():
    # the general numerators with Lambda = 0 are the classical operator
    for a, c in ((rat(1, 2), rat(3)), (rat(2, 3), rat(7, 3)), (rat(3, 2), rat(-1, 2)),
                 (rat(-1, 3), rat(5, 2))):
        fam = MeixnerExcFamily(MeixnerParams(a, c), PairSpec([], []))
        assert fam.lam == Poly.zero()
        for n in range(6):
            assert eigen_residual(n, fam).is_zero, (a, c, n)


def test_operator_application_matches_cleared_identity():
    # the RatFunc route and the cleared-polynomial route must agree
    fam = family([], [2], rat(1, 2), rat(3))
    op = operator(fam)
    n = fam.pair.sigma_first(3)[2]
    p = fam.member(n)
    applied = op.apply(p) - RatFunc(p * rat(n))
    assert applied.is_zero
    assert eigen_residual(n, fam).is_zero



def reference_numerators(fam):
    """The cleared operator written out in Poly arithmetic: the numerators of
    the shifts -1, 0 and 1 over (a-1) Omega(x) Omega(x+1), and that denominator."""
    a, c = fam.params.a, fam.params.c
    u, k = fam.pair.u, fam.pair.k
    om, om1, lm = fam.omega, fam.omega.shift(1), fam.lam
    x = Poly.x()
    mid = ((x + k) * (-(1 + a)) - a * c + (a - 1) * u) * om * om1
    mid = mid + a * (x + c + k) * lm.shift(1) * om - a * (x + c + k - 1) * lm * om1
    nums = {-1: x * om1 * om1, 0: mid, 1: a * (x + c + k) * om * om}
    return nums, (a - 1) * om * om1


@pytest.mark.parametrize("a, c", [(rat(1, 2), rat(3)), (rat(3, 4), rat(5, 2))])
def test_eigen_residual_is_the_cleared_operator_on_a_perturbed_member(a, c):
    # the term lists read as polynomials, as the operator's reduced
    # coefficients, and on a member off the eigenspace give the reference
    for pair in enumerate_pairs(3, 3):
        fam = MeixnerExcFamily(MeixnerParams(a, c), pair)
        nums, den = reference_numerators(fam)
        assert meixner._operator_numerators(fam) == (nums, den)
        op = operator(fam)
        assert all(op.coeff(j) == RatFunc(num, den) for j, num in nums.items())
        for n in pair.sigma_first(2):
            p = fam._members[n] = fam.member(n) + Poly.monomial(n + 1) * rat(1, 7)
            want = sum((num * p.shift(j) for j, num in nums.items()), -den * p * n)
            residual = eigen_residual(n, fam)
            assert residual == want and not residual.is_zero, (pair, n)


def phi(fam, n):
    """Connection determinant Phi_n: the dual block's scalar rows over
    columns 0..k-1, with q's sign (-1)^(n k2)."""
    a, c, k = fam.params.a, fam.params.c, fam.pair.k
    rows = [[meixner_raw(n + j, a, c)(f) for j in range(k)] for f in fam.pair.F1]
    rows += [[meixner_raw(n + j, 1 / a, c)(f) * (-1) ** j for j in range(k)] for f in fam.pair.F2]
    sign = -1 if (n * fam.pair.k2) % 2 else 1
    return sign * rational_det(rows)


def test_phi_nonzero_for_admissible_samples():
    for f1, f2, c in (([1], [], rat(-1, 2)), ([], [1], rat(2)), ([1, 2], [], rat(-3, 2))):
        pair = PairSpec(f1, f2)
        assert is_admissible(c, pair)
        fam = family(f1, f2, rat(1, 2), c)
        phis = [phi(fam, n) for n in range(6)]
        assert all(p != 0 for p in phis), (f1, f2, c)


def test_q_dual_division_is_exact():
    fam = family([], [1], rat(1, 2), rat(3))
    for n in range(5):
        q = fam.q(n)
        if phi(fam, n) != 0:
            assert q.degree == n


def test_q_dual_degree_across_families():
    for f1, f2 in (([1], []), ([1], [2]), ([], [2])):
        fam = family(f1, f2, rat(1, 3), rat(5, 2))
        for n in range(4):
            if phi(fam, n) != 0:
                assert fam.q(n).degree == n


def test_dual_member_is_one_determinant(monkeypatch):
    # q_n is one poly_det of its (k+1) x (k+1) block, with no scalar minors
    fam = family([1, 3], [2], rat(1, 3), rat(-1, 2))
    assert fam.pair.k == 3
    orders = []
    monkeypatch.setattr(meixner, "poly_det", lambda rows: orders.append(len(rows)) or poly_det(rows))
    for n in range(4):
        del orders[:]
        fam.q(n)
        assert orders == [fam.pair.k + 1], n


def test_duality_constants_reduce_to_rationals():
    fam = family([1], [2], rat(1, 2), rat(5, 2))
    consts = DualityConstants(fam)
    combo = consts.kappa * consts.xi(2) * consts.zeta(fam.pair.sigma_first(1)[0])
    assert type(combo) is Rational


@pytest.mark.parametrize("c", [rat(3), rat(5, 2), rat(-1, 2), rat(7, 3)])
def test_duality_constants_match_gamma_quotients(c):
    # the paper's constants with every Gamma quotient left to mpmath at 60
    # digits; n = 0 and v = u reach (1+c)_{-1} = Gamma(c)/Gamma(1+c)
    fam = family([1, 3], [2], rat(1, 3), c)
    consts = DualityConstants(fam)
    pair = fam.pair
    u, k = pair.u, pair.k
    with mp.workdps(60):
        a, cc = to_mpf(fam.params.a), to_mpf(c)
        g1 = mp.gamma(1 + cc)
        e = pair.k2 * (pair.k1 + 1)
        kappa = (-1) ** pair.F2.total * a ** (e + pair.F2.total) * (a - 1) ** -e
        for f in pair.F1.elems + pair.F2.elems:
            kappa *= mp.factorial(f) * g1 / mp.gamma(cc + f)
        cases = [(consts.kappa, kappa)]
        for n in range(4):
            xi = a ** ((pair.k1 + 1) * n) * (a - 1) ** (-(k + 1) * n)
            for i in range(k + 1):
                xi *= mp.gamma(cc + n + i) / (g1 * mp.factorial(n + i))
            cases.append((consts.xi(n), xi))
        for v in pair.sigma_first(4):
            zeta = mp.factorial(v - u) * (a - 1) ** v * a**-v * g1 / mp.gamma(cc + v - u)
            for f in pair.F1:
                zeta /= v - f - u
            for f in pair.F2:
                zeta /= v + cc + f - u
            cases.append((consts.zeta(v), zeta))
        for got, want in cases:
            assert type(got) is Rational
            assert abs(to_mpf(got) - want) <= mp.mpf(10) ** -50 * abs(want)


@pytest.mark.parametrize("f1, f2, a, c", [
    ([1, 2], [1], rat(1, 2), rat(3)),
    ([1, 2], [1], rat(4, 5), rat(3)),
    ([1], [], rat(1, 2), rat(-1, 2)),
    ([1, 2], [], rat(1, 3), rat(-3, 2)),
    ([], [2], rat(2, 3), rat(7, 3)),
    ([], [1, 2], rat(3, 4), rat(5, 2)),
])
def test_norm_closed_form_matches_the_formula(f1, f2, a, c):
    # a^(k1-2k) (1-a)^-(c+2r-2u-k) rho(r), every factor in mpmath at 60 digits
    fam = family(f1, f2, a, c)
    pair = fam.pair
    u, k = pair.u, pair.k
    for r in pair.sigma_first(3):
        got = norm_closed_form(r, fam)
        with mp.workdps(60):
            am, cm = to_mpf(a), to_mpf(c)
            rho = am ** (r - u) * mp.gamma(r + cm - u) / mp.factorial(r - u)
            for f in pair.F1:
                rho *= r - f - u
            for f in pair.F2:
                rho *= r + cm + f - u
            want = am ** (pair.k1 - 2 * k) * mp.power(1 - am, -(cm + 2 * r - 2 * u - k)) * rho
        assert abs(got - want) <= mp.mpf(10) ** -40 * abs(want), (r, got, want)


def test_duality_check_examples():
    fam = family([1], [], rat(1, 2), rat(3))
    assert duality_check(0, fam.pair.u, fam)
    assert duality_check(2, fam.pair.u + 2, fam)
    dual2 = family([], [2], rat(1, 2), rat(3))
    for n in range(5):
        for v in dual2.pair.sigma_first(4):
            assert duality_check(n, v, dual2), (n, v)


def test_duality_builds_each_zeta_once(monkeypatch):
    # 4 dual degrees against 4 members: zeta(v) is built once per member v,
    # not once per (n, v), and each kept value is a fresh build's
    built = []
    zeta = DualityConstants.zeta
    monkeypatch.setattr(DualityConstants, "zeta", lambda self, v: built.append(v) or zeta(self, v))
    fam = family([1, 2], [1], rat(1, 2), rat(3))
    vs = fam.pair.sigma_first(4)
    for n in range(4):
        for v in vs:
            assert duality_check(n, v, fam), (n, v)
    assert built == vs
    assert fam._duality[2] == {v: zeta(DualityConstants(fam), v) for v in vs}


def test_duality_check_rejects_skipped_v():
    fam = family([1], [], rat(1, 2), rat(3))
    with pytest.raises(DomainError):
        duality_check(0, fam.pair.u + 1, fam)


def test_omega_mass_pole_is_reported():
    # Omega = x - 3 vanishes at x = 3, so the summed mass a^x (c+k)_x / x! /
    # (Omega(x) Omega(x+1)) has poles at x = 2 and 3; the sum raises there
    fam = family([1], [], rat(1, 2), rat(3))
    with pytest.raises(PoleError, match="x=2"):
        inner_product(fam, 0)


def test_positivity_signs_match_admissibility():
    cs = [rat(-1, 2), rat(-7, 2), rat(3), rat(5, 2)]
    a_s = [rat(1, 3), rat(1, 2), rat(2, 3), rat(4, 5)]
    for f1, f2 in SMALL_PAIRS:
        pair = PairSpec(f1, f2)
        for c in cs:
            adm = is_admissible(c, pair)
            for a in a_s:
                assert positivity_by_signs(family(f1, f2, a, c)) == adm, (f1, f2, a, c)


def positivity_by_scan(fam):
    """Weight positivity by evaluating every term up to the larger of the
    Gamma bound and Omega's root bound: the scan that the root cells replace."""
    c, k, om = fam.params.c, fam.pair.k, fam.omega
    top = max(fam.pair.F1.max_elem + hat_c(c) + k + 2, rat_ceil(root_bound(om)) + 1)
    return all(gamma_sign(n + c + k) * om(n) * om(n + 1) > 0 for n in range(top + 1))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SMALL_PAIRS),
    st.sampled_from([rat(-7, 2), rat(-1, 2), rat(3), rat(5, 2)]),
    st.lists(st.tuples(st.integers(-3, 30), st.sampled_from([0, rat(1, 7), rat(-1, 7), rat(1, 2)]),
                       st.integers(1, 2)), max_size=3),
    st.lists(st.integers(-9, 9), max_size=1),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
)
def test_positivity_by_cells_matches_the_scan(pair, c, roots, cofactors, lead):
    # Omega replaced by products of (x - r)^m with r at or near an integer,
    # x^2 + q cofactors and a rational leading coefficient
    om = Poly([lead])
    for m, d, e in roots:
        om = om * Poly([-(m + d), 1]) ** e
    for q in cofactors:
        om = om * Poly([q, 0, 1])
    fam = SimpleNamespace(params=SimpleNamespace(c=c), pair=PairSpec(*pair), omega=om,
                          omega_cells=nonneg_root_cells(om))
    assert positivity_by_signs(fam) == positivity_by_scan(fam)


def test_norm_identity_examples():
    fam = family([1], [], rat(1, 2), rat(-1, 2))
    for rec in norm_identity([0, 2], fam):
        assert rec.ok, rec
    other = family([], [1], rat(1, 3), rat(2))
    [rec] = norm_identity([1], other)
    assert rec.ok, rec


def test_norm_identity_refuses_signed_measures():
    with pytest.raises(AdmissibilityRefusal):
        norm_identity([0], family([1], [], rat(1, 2), rat(-7, 2)))
    with pytest.raises(AdmissibilityRefusal):
        # admissible c but a outside (0,1)
        norm_identity([0], family([1], [], rat(-1, 2), rat(-1, 2)))


def test_norm_check_rule():
    # a row passes when the value met its stopping rule and lies within the
    # allowance plus 1e-40 of the closed form, and reports that bound
    rounding = meixner._rounding()
    one, gap = mp.mpf(1), mp.mpf(2) ** -70  # both exact in binary
    chk = norm_check(3, one + gap, one, 2 * gap, True)
    assert chk.ok and chk.r == 3
    assert chk.rel_err == gap and chk.rel_bound == 2 * gap + rounding
    assert rounding == mp.mpf(10) ** -40
    assert not norm_check(3, one + gap, one, 2 * gap, False).ok
    assert not norm_check(3, one + gap, one, gap / 2, True).ok
    assert norm_check(3, one + rounding / 2, one, 0, True).ok
    assert not norm_check(3, one + 2 * rounding, one, 0, True).ok


def direct_weight_term(fam, prod):
    """x -> prod(x) a^x (c+k)_x / x! / (Omega(x) Omega(x+1)), the summand of a
    weighted inner product, with the weight built afresh at each x."""
    a, c, k = fam.params.a, fam.params.c, fam.pair.k
    om = fam.omega

    def term(x):
        weight = rat_pow(a, x) * pochhammer(c + k, x) / math.factorial(x)
        return prod(x) * weight / (om(x) * om(x + 1))

    return term


def test_inner_product_terms_match_the_direct_weight(monkeypatch):
    # the summation carries the weight a^x (c+k)_x / x! forward by its ratio,
    # asked for x = 0, 1, 2, ... once each; every term and the sum equal those
    # of the weight built afresh at each x
    fam = family([1, 2], [1], rat(4, 5), rat(3))
    calls, seen = [], []

    def spy(term, *args, **kwargs):
        calls.append((args, kwargs))

        def recorded(x):
            seen.append((x, term(x)))
            return seen[-1][1]

        return certified_sum(recorded, *args, **kwargs)

    monkeypatch.setattr(meixner, "certified_sum", spy)
    n = fam.pair.u
    res, _ = inner_product(fam, n)
    direct = direct_weight_term(fam, fam.member(n) ** 2)

    (args, kwargs), = calls
    assert [x for x, _ in seen] == list(range(res.terms))
    assert all(direct(x) > 0 for x in range(res.terms))
    assert [t for _, t in seen] == [direct(x) for x in range(res.terms)]
    ref = certified_sum(direct, *args, **kwargs)
    assert (res.value, res.tail_bound, res.terms) == (ref.value, ref.tail_bound, ref.terms)


def test_default_verify_makes_one_sum_per_reported_degree(monkeypatch, capsys):
    # the classical family has no Darboux step, so its norms are summed: one
    # certified sum per reported degree, of that degree, and no other
    calls = []
    summed = meixner.inner_product

    def counted(fam, n):
        calls.append(n)
        return summed(fam, n)

    monkeypatch.setattr(meixner, "inner_product", counted)
    assert cli.main(["verify", "--kind", "meixner", "--a", "4/5", "--c", "3",
                     "--checks", "norms"]) == 0
    rows = json.loads(capsys.readouterr().out)["checks"][0]["detail"]["results"]
    assert {row["method"] for row in rows} == {"numeric"}
    assert calls == [row["n"] for row in rows] and len(calls) == 2


def test_orthogonality_normalized(capsys):
    # certified sums of m_n m_r against the weight, from terms built in the
    # test; the common carrier Gamma(c + k) cancels in the normalized ratio
    fam = family([1], [], rat(1, 2), rat(-1, 2))
    a, c, k = fam.params.a, fam.params.c, fam.pair.k
    sig = fam.pair.sigma_first(5)
    sums = {}
    for i, n in enumerate(sig):
        for r in sig[i:]:
            prod = fam.member(n) * fam.member(r)
            factors = [(Poly([1, 1]), c + k - 1), (prod, 1), (fam.omega, -2)]
            term = direct_weight_term(fam, prod)
            sums[n, r] = certified_sum(term, a, factors, rel_tol=rat(1, 10**12))
    for i, n in enumerate(sig):
        for r in sig[i + 1 :]:
            res = sums[n, r]
            val = abs(to_mpf(res.value)) + to_mpf(res.tail_bound)
            norms = to_mpf(sums[n, n].value) * to_mpf(sums[r, r].value)
            assert val / mp.sqrt(norms) < mp.mpf(10) ** -9, (n, r)
    # the exact check passes on the family the sums confirm
    assert cli.main(["verify", "--kind", "meixner", "--F1", "1", "--a", "1/2", "--c", "-1/2",
                     "--checks", "orthogonality"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "pass"


def test_darboux_factorization_identities():
    for f1, f2 in (([], [1]), ([1], [2]), ([], [2]), ([], [1, 2]), ([2], [1])):
        fam = family(f1, f2, rat(1, 2), rat(3))
        down_ok, up_ok = darboux_identities(fam)
        assert down_ok and up_ok, (f1, f2)
    harder = family([1], [2], rat(2, 5), rat(7, 3))
    assert darboux_identities(harder) == (True, True)


def test_darboux_intertwining():
    fam = family([], [2], rat(1, 2), rat(3))
    u = fam.pair.u
    for n in (u, u + 1):
        assert darboux_intertwining(fam, n)
    other = family([1], [2], rat(1, 2), rat(3))
    for n in other.pair.sigma_first(3):
        assert darboux_intertwining(other, n)


def test_darboux_needs_second_set():
    with pytest.raises(DomainError):
        darboux_pair(family([1], [], rat(1, 2), rat(3)))


def test_darboux_descends_to_classical():
    *_, low = darboux_pair(family([], [1], rat(1, 2), rat(3)))
    assert low.pair.is_trivial
    assert low.omega == Poly.one()


def test_darboux_pair_is_built_once(monkeypatch):
    # B is solved once per family: darboux_identities reads rest from the memo
    solves = []
    solve = meixner.down_operator
    monkeypatch.setattr(meixner, "down_operator", lambda A, low: solves.append(1) or solve(A, low))
    fam = family([1], [2], rat(1, 2), rat(3))
    assert all(x is y for x, y in zip(darboux_pair(fam), darboux_pair(fam)))
    assert darboux_pair(fam)[0] is step(fam, "F2", 2).A
    assert darboux_identities(fam) == (True, True)
    assert len(solves) == 1


@pytest.mark.parametrize("f1, f2, a, c", [
    ([], [1], rat(1, 2), rat(3)),
    ([1], [2], rat(2, 5), rat(7, 3)),
    ([2, 3], [1, 2], rat(3, 4), rat(5, 2)),
])
def test_solved_b_is_the_darboux_b(f1, f2, a, c):
    # darboux_pair's B, solved from A and the lower operator, is the paper's
    # B, and B A leaves darboux_identities' shift c + f - u_low
    fam = family(f1, f2, a, c)
    A, solved, rest, low = darboux_pair(fam)
    op = operator(low)
    x, k = Poly.x(), fam.pair.k
    B = DifferenceOperator({
        -1: RatFunc(x * low.omega.shift(1) * a, fam.omega * (a - 1)),
        0: -RatFunc((x + (c + k - 1)) * low.omega * a, fam.omega * (a - 1)),
    })
    assert solved == B
    assert (B @ A - (op + rat(c + f2[-1] - low.pair.u))).is_zero
    assert rest == RatFunc(rat(c + f2[-1] - low.pair.u))


def scaled(op, kappa):
    return {key: coeff * kappa for key, coeff in op.coeffs.items()}


@pytest.mark.parametrize("f1, f2, a, c", [
    ([1, 2], [1], rat(1, 2), rat(3)),
    ([2, 3], [1, 2], rat(3, 4), rat(5, 2)),
    ([1, 2], [], rat(99, 100), rat(3)),
])
def test_f1_step_intertwines_and_its_adjoint_is_kappa_b(f1, f2, a, c):
    # stripping any f of F1: A m_s^low = m_n with s = n - u + u_low,
    # B A = op_low - f - u_low, and A* = (1-a)/a B; stripping any f of F2:
    # the same lift, B A = op_low + c + f - u_low, and A* = (1-a)/a^2 B
    fam = family(f1, f2, a, c)
    for f in f1:
        one = step(fam, "F1", f)
        A, low = one.A, one.low
        assert low.pair == PairSpec([e for e in f1 if e != f], f2)
        op = operator(low)
        B, rest = down_operator(A, low)
        assert one.down == (B, rest)
        assert (B @ A - (op - rat(f + low.pair.u))).is_zero
        assert rest == RatFunc(rat(-(f + low.pair.u)))
        assert adjoint(A, fam, low).coeffs == scaled(B, (1 - a) / a)
        for n in fam.pair.sigma_first(3):
            s = n - fam.pair.u + low.pair.u
            assert A.apply(low.member(s)) == RatFunc(fam.member(n)), (f, n)
    for f in f2:
        one = step(fam, "F2", f)
        A, low = one.A, one.low
        assert low.pair == PairSpec(f1, [e for e in f2 if e != f])
        op = operator(low)
        B, rest = one.down
        assert (B @ A - (op + rat(c + f - low.pair.u))).is_zero
        assert rest == RatFunc(rat(c + f - low.pair.u))
        assert adjoint(A, fam, low).coeffs == scaled(B, (1 - a) / a**2)
        for n in fam.pair.sigma_first(3):
            s = n - fam.pair.u + low.pair.u
            assert A.apply(low.member(s)) == RatFunc(fam.member(n)), (f, n)


CHAIN_FAMILIES = [
    ([2, 3], [1, 2], rat(3, 4), rat(5, 2)),
    ([1, 2], [1], rat(1, 2), rat(3)),
    ([1, 2], [1], rat(4, 5), rat(3)),
    ([], [2, 4], rat(99, 100), rat(3)),
    ([1, 2], [], rat(99, 100), rat(3)),
    ([1], [], rat(1, 2), rat(-1, 2)),
    ([], [1, 2], rat(3, 4), rat(5, 2)),
]


@pytest.mark.parametrize("f1, f2, a, c", CHAIN_FAMILIES)
def test_every_step_leaves_only_the_rest(f1, f2, a, c):
    # B is solved from A, so B A - op_low is down_operator's rest at Sh_0
    route, why = chain.find_route(meixner, family(f1, f2, a, c))
    assert why is None and route
    for step in route:
        op = operator(step.low)
        B, rest = down_operator(step.A, step.low)
        assert B @ step.A - op == DifferenceOperator({0: rest}), (step.set_name, step.f)


# -- the Darboux algebra against RatFunc arithmetic ----------------------------
#
# The oracles below reduce after every product, quotient, sum and shift, as
# RatFunc arithmetic does; reduced RatFuncs are canonical, so the algebra's
# one reduction per coefficient must give the same operators.


def down_by_ratfuncs(A, op):
    a0, a1 = A.coeff(0), A.coeff(1)
    b_minus, b0 = op.coeff(-1) / a0.shift(-1), op.coeff(1) / a1
    rest = b_minus * a1.shift(-1) + b0 * a0 - op.coeff(0)
    return DifferenceOperator({-1: b_minus, 0: b0}), rest


def adjoint_by_ratfuncs(A, fam, low):
    a, c = fam.params.a, fam.params.c
    om, om_lo = fam.omega, low.omega
    both_lo = om_lo * om_lo.shift(1)
    rho = RatFunc(Poly([c + low.pair.k, 1]) * both_lo, om * om.shift(1))
    sigma = RatFunc(Poly.x() * both_lo, om.shift(-1) * om * a)
    return DifferenceOperator({0: rho * A.coeff(0), -1: sigma * A.coeff(1).shift(-1)})


def compose_by_ratfuncs(P, Q):
    out = {}
    for i, a in P.coeffs.items():
        for j, b in Q.coeffs.items():
            out[i + j] = out.get(i + j, RatFunc(0)) + a * b.shift(i)
    return DifferenceOperator(out)


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
    fam = MeixnerExcFamily(MeixnerParams(rat(1, 2), rat(3)), pair)
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
            off = DifferenceOperator({**B.coeffs, 0: B.coeff(0) * 2})
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
                terms = quotient_terms(meixner._operator_terms(fam))
                terms[0] = terms[0] + [(shift, (), ())]
                assert A.compose_equals(B, terms) == (A @ B - (op + shift)).is_zero == holds


@pytest.mark.parametrize("f1, f2, a, c", CHAIN_FAMILIES)
def test_chain_products_equal_the_closed_form_quotients(f1, f2, a, c):
    fam = family(f1, f2, a, c)
    ns = fam.pair.sigma_first(2)
    norms, why = chain.norms(meixner, fam, ns)
    assert why is None
    assert [norm.n for norm in norms] == ns
    for norm in norms:
        assert norm.ok and norm.product == norm.quotient
        assert norm.base_degree == norm.n - fam.pair.u
        assert len(norm.steps) == fam.pair.k
        assert all(step["holds"] for step in norm.steps)


def test_chain_steps_around_integer_zeros_of_omega():
    # with c = 3, Omega of (1; -) vanishes at x = 3, 12 and 297 for a = 1/2,
    # 4/5 and 99/100, so no route passes through (1; -)
    for a, x in ((rat(1, 2), 3), (rat(4, 5), 12), (rat(99, 100), 297)):
        assert weight_refusal(family([1], [], a, rat(3))) == (
            f"Omega of PairSpec([1], []) vanishes at x={x}")
    fam = family([1, 2], [1], rat(1, 2), rat(3))
    norms, _ = chain.norms(meixner, fam, fam.pair.sigma_first(1))
    assert [(step["set"], step["f"]) for step in norms[0].steps] == [
        ("F1", 2), ("F1", 1), ("F2", 1)]
    fam = family([1, 2], [], rat(99, 100), rat(3))
    norms, _ = chain.norms(meixner, fam, fam.pair.sigma_first(1))
    assert [(step["set"], step["f"]) for step in norms[0].steps] == [("F1", 1), ("F1", 2)]



def plain_integer_zero(om):
    """The least integer zero of om by evaluating at every integer up to its root bound."""
    return next((x for x in range(rat_ceil(root_bound(om)) + 1) if om(x) == 0), None)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 60), max_size=3),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 5)), max_size=2),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any),
    st.integers(1, 12),
)
# a zero at 0 (constant term 0), an integer root m in the cells m - 1 and m,
# a double integer root, and the zero polynomial, which gives 0
@example([0], [], [1], 1)
@example([7], [(15, 2)], [3, 1], 2)
@example([5, 5], [], [-2, 0, 1], 3)
@example([], [], [0], 1)
def test_integer_zero_by_root_cells_matches_the_plain_scan(roots, rational_roots, cofactor, den):
    # integer roots from 0 up, rational roots p/q, and a rational cofactor
    # on stand-in families; Omega = 0 gives 0 without reading root cells
    om = Poly([rat(c, den) for c in cofactor])
    if om.is_zero:
        assert meixner._integer_zero(SimpleNamespace(omega=om)) == 0
        return
    for r in roots:
        om = om * Poly([-r, 1])
    for p, q in rational_roots:
        om = om * Poly([-p, q])
    fam = SimpleNamespace(omega=om, omega_cells=nonneg_root_cells(om))
    assert meixner._integer_zero(fam) == plain_integer_zero(om)


@pytest.mark.parametrize("what", ["kappa", "shift", "quotient"])
def test_chain_rows_fail_on_a_perturbation(perturb_chain, what):
    perturb_chain(meixner, what)
    fam = family([1, 2], [1], rat(1, 2), rat(3))
    norms, why = chain.norms(meixner, fam, fam.pair.sigma_first(2))
    assert why is None
    assert norms and not any(norm.ok for norm in norms)
    assert all(norm.product != norm.quotient for norm in norms)


def test_a_planted_error_in_a_fails_darboux_and_the_chain(perturb_chain):
    perturb_chain(meixner, "A")
    fam = family([], [1, 2], rat(3, 4), rat(5, 2))
    assert not darboux_identities(fam)[0]
    norms, why = chain.norms(meixner, fam, fam.pair.sigma_first(2))
    assert why is None
    assert norms and not any(norm.ok for norm in norms)


def test_alt_representation_examples():
    fam = family([1], [], rat(1, 2), rat(-1, 2))
    v = fam.pair.v
    for n in (v, v + 1):
        rep = alt_representation(n, fam)
        assert rep.matches, rep
    dual = family([], [1], rat(1, 2), rat(3))
    for n in range(dual.pair.v, dual.pair.v + 3):
        rep = alt_representation(n, dual)
        assert rep.matches, rep


def test_alt_representation_order_economy():
    """The involuted determinant can be far smaller than the defining one."""
    fam = family([1, 2, 3, 4], [1, 2, 4], rat(1, 2), rat(9, 2))
    from xoppak.pairs import involute

    G1, G2 = involute(fam.pair.F1), involute(fam.pair.F2)
    assert fam.pair.k + 1 == 8
    assert G1.card + G2.card + 1 == 4
    rep = alt_representation(fam.pair.v, fam)
    assert rep.matches


def test_alt_representation_preconditions():
    fam = family([1], [], rat(1, 2), rat(-1, 2))
    with pytest.raises(DomainError):
        alt_representation(fam.pair.v - 1, fam)
    vanishing = family([1], [], rat(1, 2), rat(3))  # Omega = x - 3
    with pytest.raises(DomainError):
        alt_representation(vanishing.pair.v, vanishing)


def test_invariance_single_f1():
    for a, c in ((rat(1, 2), rat(3)), (rat(2, 3), rat(5, 2))):
        fam = family([1], [], a, c)
        rep = invariance_conjecture(fam)
        assert rep.matches
        assert rep.lhs == Poly([-a * c / (1 - a), 1])


def test_invariance_more_families():
    rep = invariance_conjecture(family([1, 2], [], rat(1, 2), rat(3)))
    assert rep.matches, rep.discrepancy
    rep = invariance_conjecture(family([], [1, 3], rat(2, 3), rat(5, 2)))
    assert rep.matches, rep.discrepancy
    rep = invariance_conjecture(family([1, 3], [2], rat(1, 3), rat(7, 3)))
    assert rep.matches, rep.discrepancy


@settings(max_examples=20, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(SMALL_PAIRS) - 1),
    an=st.integers(min_value=1, max_value=5),
    ad=st.integers(min_value=6, max_value=9),
    cn=st.integers(min_value=1, max_value=9),
)
def test_member_degree_property(idx, an, ad, cn):
    f1, f2 = SMALL_PAIRS[idx]
    fam = family(f1, f2, rat(an, ad), rat(cn, 2))
    n = fam.pair.sigma_first(3)[2]
    p = fam.member(n)
    assert p.degree == n


@settings(max_examples=15, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(SMALL_PAIRS) - 1),
    an=st.integers(min_value=1, max_value=4),
    cn=st.integers(min_value=1, max_value=9),
)
def test_eigen_property(idx, an, cn):
    f1, f2 = SMALL_PAIRS[idx]
    fam = family(f1, f2, rat(an, 5), rat(cn, 3))
    n = fam.pair.sigma_first(2)[1]
    assert eigen_residual(n, fam).is_zero
