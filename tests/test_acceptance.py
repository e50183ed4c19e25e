"""Acceptance suite: eleven end-to-end criteria, one verdict line each.

Each test prints "criterion N [name]: PASS/FAIL - detail" and then asserts.
Identities checked in exact rational arithmetic, the Meixner to Laguerre
limit among them, carry no tolerance at all; sums and integrals carry the
pinned tolerances stated in line (1e-10 for certified discrete sums, 1e-8
for quadrature).
"""
import json
from functools import lru_cache

import mpmath as mp

from xoppak import chain
from xoppak import laguerre as lag
from xoppak import meixner as mex
from xoppak.classical import LaguerreParams, MeixnerParams
from xoppak.exact import DomainError, Poly, rat
from xoppak.pairs import PairSpec, enumerate_pairs, is_admissible
from xoppak.sweep import run_sweep

A_GRID = (rat(1, 3), rat(1, 2), rat(2, 3))
C_GRID = (rat(3), rat(5, 2), rat(-1, 2))
ALPHA_GRID = (rat(1, 2), rat(-1, 2), rat(-3, 2))
MEX_PARAM_GRID = tuple((a, c) for a in A_GRID for c in C_GRID)

# every pair with elements <= 5 and total cardinality <= 4
SWEEP_PAIRS = enumerate_pairs(5, 4)


def verdict(num, name, ok, detail):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def mex_fam(f1, f2, a, c):
    return mex.MeixnerExcFamily(MeixnerParams(a, c), PairSpec(f1, f2))


@lru_cache(maxsize=None)
def lag_fam(f1, f2, alpha):
    return lag.LaguerreExcFamily(LaguerreParams(alpha), PairSpec(f1, f2))


def sigma_degrees(pair, upto):
    return [n for n in range(pair.u, pair.u + upto + 1) if pair.sigma_contains(n)]


def test_criterion_01_eigenfunction_suite():
    failures = []
    checked = 0
    for pair in SWEEP_PAIRS:
        f1, f2 = pair.F1.elems, pair.F2.elems
        degrees = sigma_degrees(pair, 8)
        for a, c in MEX_PARAM_GRID:
            fam = mex_fam(f1, f2, a, c)
            for n in degrees:
                checked += 1
                if not mex.eigen_residual(n, fam).is_zero:
                    failures.append(("meixner", f1, f2, str(a), str(c), n))
        for alpha in ALPHA_GRID:
            fam = lag_fam(f1, f2, alpha)
            for n in degrees:
                checked += 1
                if not lag.eigen_residual(n, fam).is_zero:
                    failures.append(("laguerre", f1, f2, str(alpha), n))
    # the residuals encode opposite eigenvalue conventions; make that
    # visible once by applying each operator directly
    mfam = mex_fam((1,), (2,), rat(1, 2), rat(3))
    n = mfam.pair.sigma_first(2)[1]
    assert mex.operator(mfam).apply(mfam.member(n)) == rat(n) * mfam.member(n)
    lfam = lag_fam((1,), (2,), rat(1, 2))
    assert lag.operator(lfam).apply(lfam.member(n)) == rat(-n) * lfam.member(n)
    verdict(
        1, "eigen suite", not failures,
        f"{checked} exact residuals over {len(SWEEP_PAIRS)} pairs, "
        f"9 discrete and 3 continuous parameter choices, degrees to u+8; "
        f"{len(failures)} failures",
    )


def test_criterion_02_omega_product_closed_form():
    fam = mex_fam((1,), (), rat(1, 2), rat(-7, 2))
    om = fam.omega
    bad = [
        n for n in range(21)
        if om(n) * om(n + 1) != rat((2 * n + 7) * (2 * n + 9), 4)
    ]
    verdict(
        2, "omega product closed form", not bad,
        f"Omega(n) Omega(n+1) = (2n+7)(2n+9)/4 exactly for n = 0..20; "
        f"{len(bad)} mismatches",
    )


def test_criterion_03_admissibility_window():
    pair = PairSpec([1], [])
    problems = []
    for alpha in (rat(1, 2), rat(-1, 2), rat(-3, 2), rat(5, 2)):
        fam = lag_fam((1,), (), alpha)
        if fam.omega != Poly([alpha + 1, rat(-1)]):
            problems.append(("omega", str(alpha)))
    inside = (rat(-3, 2), rat(-5, 4), rat(-7, 4), rat(-11, 10), rat(-19, 10))
    outside = (rat(-5, 2), rat(-7, 2), rat(1, 2))
    for alpha in inside:
        if not is_admissible(alpha + 1, pair):
            problems.append(("should-admit", str(alpha)))
    for alpha in outside:
        if is_admissible(alpha + 1, pair):
            problems.append(("should-reject", str(alpha)))
    verdict(
        3, "admissibility window", not problems,
        "Omega = alpha + 1 - x and the window (-2, -1) decided exactly; "
        f"problems: {problems or 'none'}",
    )


def test_criterion_04_admissibility_equals_positivity():
    agree = 0
    disagreements = []
    for pair in SWEEP_PAIRS:
        f1, f2 = pair.F1.elems, pair.F2.elems
        for a, c in MEX_PARAM_GRID:
            fam = mex_fam(f1, f2, a, c)
            lhs = is_admissible(c, pair)
            rhs = mex.positivity_by_signs(fam)
            if lhs == rhs:
                agree += 1
            else:
                disagreements.append((f1, f2, str(a), str(c), lhs, rhs))
    verdict(
        4, "admissibility equals positivity", not disagreements,
        f"{agree}/{agree + len(disagreements)} agreements across the "
        f"criterion-1 sweep, each scanned to its decision bound",
    )


def test_criterion_05_duality():
    stride = max(1, len(SWEEP_PAIRS) // 20)
    sample = SWEEP_PAIRS[::stride][:20]
    assert len(sample) == 20
    checked = 0
    bad = []
    for i, pair in enumerate(sample):
        a, c = MEX_PARAM_GRID[i % len(MEX_PARAM_GRID)]
        fam = mex_fam(pair.F1.elems, pair.F2.elems, a, c)
        for n in range(5):
            for v in pair.sigma_first(4):
                checked += 1
                if not mex.duality_check(n, v, fam):
                    bad.append((pair.F1.elems, pair.F2.elems, n, v))
    verdict(
        5, "duality", not bad,
        f"{checked} exact dual evaluations (dual index 0..4, first four "
        f"members) over {len(sample)} sampled families; {len(bad)} failures",
    )


def test_criterion_06_darboux():
    with_f2 = [p for p in SWEEP_PAIRS if p.F2.elems]
    stride = max(1, len(with_f2) // 12)
    sample = with_f2[::stride][:12]
    bad = []
    for i, pair in enumerate(sample):
        f1, f2 = pair.F1.elems, pair.F2.elems
        degrees = pair.sigma_first(2)
        a, c = MEX_PARAM_GRID[i % len(MEX_PARAM_GRID)]
        mfam = mex_fam(f1, f2, a, c)
        down_ok, up_ok = mex.darboux_identities(mfam)
        if not (down_ok and up_ok):
            bad.append(("meixner-composition", f1, f2))
        if not all(mex.darboux_intertwining(mfam, n) for n in degrees):
            bad.append(("meixner-intertwining", f1, f2))
        alpha = ALPHA_GRID[i % len(ALPHA_GRID)]
        lfam = lag_fam(f1, f2, alpha)
        down_ok, up_ok = lag.darboux_identities(lfam)
        if not (down_ok and up_ok):
            bad.append(("laguerre-composition", f1, f2))
        if not all(lag.darboux_intertwining(lfam, n) for n in degrees):
            bad.append(("laguerre-intertwining", f1, f2))
    verdict(
        6, "darboux factorization", not bad,
        f"composition and intertwining identities exact on {len(sample)} "
        f"families with nonempty second set, both kinds; {len(bad)} failures",
    )


def test_criterion_07_alternative_representations():
    candidates = enumerate_pairs(3, 3)
    exact_fail = []
    adm_checked = 0
    nonadm_reports = 0
    nonadm_discrepancies = []
    for pair in candidates:
        f1, f2 = pair.F1.elems, pair.F2.elems
        ns = (pair.v, pair.v + 1, pair.v + 2)
        for a, c in ((rat(1, 2), rat(3)), (rat(1, 3), rat(-1, 2))):
            fam = mex_fam(f1, f2, a, c)
            if is_admissible(c, pair):
                for n in ns:
                    adm_checked += 1
                    rep = mex.alt_representation(n, fam)
                    if not rep.matches:
                        exact_fail.append(("meixner", f1, f2, str(c), n))
            else:
                try:
                    rep = mex.alt_representation(pair.v, fam)
                    nonadm_reports += 1
                    if not rep.matches:
                        nonadm_discrepancies.append(
                            ("meixner", f1, f2, str(c), pair.v)
                        )
                except DomainError:
                    nonadm_reports += 1
        for alpha in ALPHA_GRID:
            fam = lag_fam(f1, f2, alpha)
            if is_admissible(alpha + 1, pair):
                for n in ns:
                    adm_checked += 1
                    rep = lag.alt_representation(n, fam)
                    if not rep.matches:
                        exact_fail.append(("laguerre", f1, f2, str(alpha), n))
            else:
                try:
                    rep = lag.alt_representation(pair.v, fam)
                    nonadm_reports += 1
                    if not rep.matches:
                        nonadm_discrepancies.append(
                            ("laguerre", f1, f2, str(alpha), pair.v)
                        )
                except DomainError:
                    nonadm_reports += 1
    ok = not exact_fail and adm_checked > 0
    verdict(
        7, "alternative representations", ok,
        f"exact at v, v+1, v+2 on {adm_checked} admissible samples; "
        f"{nonadm_reports} non-admissible samples reported without failing "
        f"({len(nonadm_discrepancies)} discrepancies recorded)",
    )


def chain_disagrees(mod, fam, numeric):
    """Whether the exact Darboux chain reaches fam, and whether it then
    gives any of the numeric rows another verdict."""
    norms, _ = chain.norms(mod, fam, [chk.r for chk in numeric])
    if norms is None:
        return False, False
    return True, [norm.ok for norm in norms] != [chk.ok for chk in numeric]


def test_criterion_08_norms():
    # each row passes on its own bound: the certified tail (and for Laguerre
    # the quadrature's error estimate) plus a 1e-40 relative rounding allowance;
    # wherever the Darboux chain applies, its exact verdict is the same
    bad = []
    mex_count = lag_count = chained = 0
    for pair in enumerate_pairs(3, 2):
        f1, f2 = pair.F1.elems, pair.F2.elems
        for a, c in ((rat(1, 2), rat(3)), (rat(1, 3), rat(5, 2)),
                     (rat(2, 3), rat(-1, 2))):
            if not is_admissible(c, pair):
                continue
            fam = mex_fam(f1, f2, a, c)
            numeric = mex.norm_identity(pair.sigma_first(2), fam)
            for chk in numeric:
                mex_count += 1
                if not chk.ok:
                    bad.append(("meixner", f1, f2, str(a), str(c), chk.r))
            reached, differs = chain_disagrees(mex, fam, numeric)
            chained += reached
            if differs:
                bad.append(("meixner chain", f1, f2, str(a), str(c)))
        for alpha in ALPHA_GRID:
            if not is_admissible(alpha + 1, pair):
                continue
            fam = lag_fam(f1, f2, alpha)
            numeric = lag.norm_identity(pair.sigma_first(2), fam)
            for chk in numeric:
                lag_count += 1
                if not chk.ok:
                    bad.append(("laguerre", f1, f2, str(alpha), chk.r))
            reached, differs = chain_disagrees(lag, fam, numeric)
            chained += reached
            if differs:
                bad.append(("laguerre chain", f1, f2, str(alpha)))
    # the closed-form value of the lowest squared norm in one family
    fam = lag_fam((1,), (), rat(-3, 2))
    [chk0] = lag.norm_identity([0], fam)
    two_sqrt_pi = 2 * mp.sqrt(mp.pi)
    value_ok = chk0.ok and mp.almosteq(chk0.rhs, two_sqrt_pi, rel_eps=mp.mpf("1e-12"))
    if not value_ok:
        bad.append(("laguerre-2-sqrt-pi", float(chk0.rhs)))
    ok = not bad and mex_count > 0 and lag_count > 0 and chained > 0
    verdict(
        8, "norms", ok,
        f"{mex_count} certified sums and {lag_count} certified quadratures within "
        f"their own error bounds, including the 2 sqrt(pi) lowest norm, the exact "
        f"Darboux chain agreeing on the {chained} families it reaches; {len(bad)} failures",
    )


def test_criterion_09_limit_transfer():
    # at a = 1 - h and x = y/h the scaled Meixner member and Omega are
    # polynomials in (h, y); interpolated through bound + 2 values of h, they
    # must meet the bound and equal the Laguerre member and Omega at h = 0
    cases = [
        ((), (), 2, rat(1, 2)),
        ((), (), 4, rat(-3, 2)),
        ((1,), (), 0, rat(-3, 2)),
        ((1,), (), 2, rat(-3, 2)),
        ((), (1,), 1, rat(1, 2)),
        ((), (1,), 2, rat(-1, 2)),
        ((2,), (), 2, rat(1, 2)),
        ((), (1, 2), 2, rat(1, 2)),
        ((1,), (1,), 3, rat(-1, 2)),
        ((2, 5), (1, 3, 4), 12, rat(9, 2)),
    ]
    bad = []
    nodes = 0
    for f1, f2, n, alpha in cases:
        if f1 or f2:
            fam = lag_fam(f1, f2, alpha)
        else:
            fam = lag.LaguerreExcFamily(LaguerreParams(alpha), PairSpec([], []))
        rep = lag.limit_from_meixner(n, fam)
        nodes = max(nodes, rep["nodes"])
        if not (rep["member_exact"] and rep["omega_exact"]):
            bad.append((f1, f2, n, str(alpha), rep))
    verdict(
        9, "limit transfer", not bad,
        f"member and Omega of {len(cases)} families, k <= 5 and n <= 12, equal "
        f"their Meixner limits exactly, from at most {nodes} values of a; "
        f"{len(bad)} failures",
    )


def test_criterion_10_conjecture_sweep(tmp_path):
    samples = [
        ((rat(1, 2), rat(3)), rat(1, 2)),
        ((rat(1, 3), rat(5, 2)), rat(-1, 2)),
        ((rat(2, 3), rat(-1, 2)), rat(-3, 2)),
    ]
    total = passed = skipped = 0
    counterexamples = []
    for meixner_params, alpha in samples:
        rep = run_sweep(4, 4, {"meixner": meixner_params, "laguerre": (alpha,)})
        total += rep["total"]
        passed += rep["passed"]
        skipped += rep["skipped"]
        counterexamples.extend(rep["counterexamples"])
    artifact = ""
    if counterexamples:
        path = tmp_path / "counterexamples.json"
        path.write_text(json.dumps(counterexamples, indent=2))
        artifact = f"; artifact at {path}"
    ok = total > 0 and passed + skipped == total
    verdict(
        10, "conjecture sweep", ok,
        f"exhaustive over elements <= 4, cardinality <= 4, three parameter "
        f"samples, both kinds: {total} cells, {passed} passed, {skipped} "
        f"skipped with reasons, {len(counterexamples)} counterexamples"
        + artifact,
    )


def test_criterion_11_nonvanishing():
    alphas = [
        rat(-19, 10), rat(-7, 4), rat(-3, 2), rat(-5, 4), rat(-9, 8),
        rat(-1, 2), rat(1, 3), rat(1, 2), rat(3, 2), rat(5, 2),
    ]
    admissible_count = 0
    bad = []
    for pair in enumerate_pairs(4, 3):
        f1, f2 = pair.F1.elems, pair.F2.elems
        for alpha in alphas:
            if not is_admissible(alpha + 1, pair):
                continue
            admissible_count += 1
            fam = lag_fam(f1, f2, alpha)
            if not lag.nonvanishing(fam):
                bad.append(("root-on-half-line", f1, f2, str(alpha)))
            if not alpha + pair.k > -1:
                bad.append(("alpha-plus-k", f1, f2, str(alpha)))
    ok = not bad and admissible_count > 0
    verdict(
        11, "nonvanishing on the half line", ok,
        f"{admissible_count} admissible samples, every Omega with zero "
        f"nonnegative roots by Sturm count and alpha + k > -1; "
        f"{len(bad)} failures",
    )
