"""Tests for numeric evaluation and certified summation/integration."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import xoppak
from xoppak.exact import Poly, PoleError, pochhammer, rat
from xoppak.classical import LaguerreParams, MeixnerParams, laguerre, meixner
from xoppak.laguerre import LaguerreExcFamily, nonvanishing, norm_closed_form
from xoppak.numerics import (
    DPS,
    EXTRA_LEVELS,
    QuadResult,
    _level_sums,
    certified_sum,
    gamma_rational,
    laguerre_type_integral,
    ratio_cutoff,
    to_mpf,
)
from xoppak.pairs import PairSpec


def close(x, y, tol=None):
    tol = mp.mpf(10) ** (10 - DPS) if tol is None else mp.mpf(tol)
    return abs(mp.mpf(x) - mp.mpf(y)) <= tol * max(1, abs(mp.mpf(y)))


def test_gamma_rational_values():
    assert close(gamma_rational(1), 1)
    assert close(gamma_rational(5), 24)
    assert close(gamma_rational(rat(1, 2)), mp.sqrt(mp.pi))
    assert close(gamma_rational(rat(-1, 2)), -2 * mp.sqrt(mp.pi))
    with pytest.raises(PoleError):
        gamma_rational(-3)


# in-process runs of the command line tool that make no float, then one that
# does; prints whether mpmath was loaded after each, and mpmath's precision
IMPORT_BOUNDARY = """
import contextlib, io, json, sys
loaded = {}
import xoppak
loaded["import xoppak"] = "mpmath" in sys.modules
from xoppak import cli, numerics
loaded["import xoppak.cli"] = "mpmath" in sys.modules
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[" ".join(argv)] = "mpmath" in sys.modules if code == 0 else f"exit {code}"
loaded["xoppak.numerics"] = "xoppak.numerics" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]))
mpmath = sys.modules.get("mpmath")
loaded["float"] = code == 0 and mpmath is not None and mpmath.mp.dps == numerics.DPS
print(json.dumps(loaded))
"""


def test_mpmath_loads_on_the_first_float():
    exact_runs = [
        ["construct", "--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2", "--c", "3"],
        ["construct", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"],
        ["sweep", "2", "2", "--a", "1/2", "--c", "3", "--alpha", "1/2"],
        ["verify", "--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2", "--c", "3"],
        ["verify", "--kind", "laguerre", "--F2", "1", "--alpha", "1/2"],
    ]
    numeric = ["verify", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2", "--checks", "norms"]
    src = str(Path(xoppak.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, json.dumps(exact_runs),
                          json.dumps(numeric)], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    loaded = json.loads(out.stdout)
    assert loaded.pop("xoppak.numerics") is True
    assert loaded.pop("float") is True
    assert loaded == {name: False for name in
                      ["import xoppak", "import xoppak.cli", *map(" ".join, exact_runs)]}


def test_ratio_cutoff_certificate():
    # term ratio q * (x+1)/x for t(x) = x q^x
    q = rat(9, 10)
    cutoff, r = ratio_cutoff(q, [(Poly([0, 1]), 1)])
    assert r < 1
    for x in range(max(cutoff, 1), cutoff + 50):
        assert abs(q * (x + 1)) <= r * x


def test_certified_sum_geometric_series():
    q = rat(9, 10)
    res = certified_sum(lambda x: q**x, q, [], rel_tol=rat(1, 10**12))
    closed = 1 / (1 - q)
    assert abs(res.value - closed) <= res.tail_bound
    assert res.tail_bound <= closed * rat(1, 10**12)


def test_certified_sum_with_polynomial_factor():
    q = rat(1, 3)
    res = certified_sum(
        lambda x: x * q**x,
        q,
        [(Poly([0, 1]), 1)],
        rel_tol=rat(1, 10**15),
    )
    closed = q / (1 - q) ** 2
    assert abs(res.value - closed) <= res.tail_bound


def test_certified_sum_requires_contraction():
    with pytest.raises(ValueError):
        certified_sum(lambda x: rat(1), rat(1), [], rel_tol=rat(1, 100))
    with pytest.raises(ValueError):
        certified_sum(lambda x: rat(1, 2) ** x, rat(1, 2), [])


def meixner_inner(n, m, p, rel_tol):
    """<m_n, m_m> against the classical Meixner weight, as (rational, carrier)."""
    a, c = p.a, p.c
    pn, pm = meixner(n, p), meixner(m, p)
    prod = pn * pm

    def term(x):
        return prod(x) * a**x * pochhammer(c, x) / math.factorial(x)

    factors = [(Poly([1, 1]), c - 1), (prod, 1)]
    res = certified_sum(term, a, factors, rel_tol=rel_tol)
    return res, gamma_rational(c)


def classical_norm(n, p):
    """Squared norm a^n Gamma(n+c) / (n! (1-a)^(2n+c)) of m_n, in mpmath."""
    a, c = to_mpf(p.a), to_mpf(p.c)
    return a**n * mp.gamma(n + c) / (math.factorial(n) * (1 - a) ** (2 * n + c))


def test_classical_meixner_norms_by_summation():
    for a, c in ((rat(1, 2), rat(3)), (rat(1, 3), rat(1, 2))):
        p = MeixnerParams(a, c)
        for n in range(7):
            res, carrier = meixner_inner(n, n, p, rel_tol=rat(1, 10**14))
            got = carrier * to_mpf(res.value)
            want = classical_norm(n, p)
            assert close(got, want, tol=mp.mpf(10) ** -12), (a, c, n)


def test_classical_meixner_orthogonality_by_summation():
    p = MeixnerParams(rat(1, 2), rat(5, 2))
    scale = classical_norm(2, p) * classical_norm(3, p)
    res, carrier = meixner_inner(2, 3, p, rel_tol=rat(1, 10**12))
    got = carrier * to_mpf(res.value)
    assert abs(got) / mp.sqrt(scale) < mp.mpf(10) ** -11


def test_first_meixner_moment_is_explicit():
    p = MeixnerParams(rat(1, 2), rat(3))
    res, carrier = meixner_inner(0, 0, p, rel_tol=rat(1, 10**14))
    got = carrier * to_mpf(res.value)
    assert close(got, 16, tol=mp.mpf(10) ** -12)


def test_classical_laguerre_norms_by_quadrature():
    for alpha in (rat(1, 2), rat(-1, 2), rat(2), rat(-3, 4)):
        for n in range(5):
            ln = laguerre(n, alpha)
            res = laguerre_type_integral({n: ln}, Poly.one(), alpha)[n]
            want = gamma_rational(alpha + n + 1) / math.factorial(n)
            assert res.converged, (alpha, n)
            err = abs(res.value - want)
            assert err <= res.tail_bound + mp.mpf(10) ** -40 * want, (alpha, n)


def test_tanh_sinh_rule_keeps_what_the_shared_pass_uses():
    # laguerre_type_integral drives mpmath's tanh-sinh rule level by level,
    # and sums each level in libmp's fixed point
    rule = mp.mp._tanh_sinh
    for name in ("get_nodes", "estimate_error", "guess_degree"):
        assert callable(getattr(rule, name, None)), name
    for name in ("to_fixed", "ln2_fixed"):
        assert callable(getattr(mp.libmp, name, None)), name
    assert callable(getattr(mp.libmp.libelefun, "exp_fixed", None))
    # x = 3/2 at 60 fraction bits: to_fixed truncates, exp_fixed takes F-bit ln 2
    bits = 60
    fx = mp.libmp.to_fixed(mp.mpf(1.5)._mpf_, bits)
    assert fx == 3 << (bits - 1)
    got = mp.libmp.libelefun.exp_fixed(-fx, bits, mp.libmp.ln2_fixed(bits))
    assert abs(got - int(mp.floor(mp.exp(-1.5) * 2**bits))) <= 4


def mpf_level_sums(points, coeffs, den_c) -> dict:
    """The level sums of the shared pass in mpf arithmetic, the reference for
    the fixed-point _level_sums: g = w dx/dt x^exponent exp(-x) / den(x) once
    per node, and the sum of g m_n(x)^2 over the nodes per degree n, from
    coefficient lists highest degree first."""
    weights = []
    for x, wx in points:
        g = wx * mp.exp(-x) / mp.polyval(den_c, x)
        if g <= 0:
            raise ValueError(f"the denominator is not positive at x={x}")
        weights.append(g)
    return {
        n: mp.fsum(g * mp.polyval(c, x) ** 2 for g, (x, _) in zip(weights, points))
        for n, c in coeffs.items()
    }


def assert_level_sums_match(members, den, exponent, interval, degree):
    """Both level sums of one tanh-sinh level on interval, at the pass's
    working precision and with its points, agree within 2^-prec of each
    degree's own sum S_n."""
    a, b = interval
    p, q = int(exponent.numerator), int(exponent.denominator)
    prec = mp.mp.prec
    with mp.workprec(prec + 20):
        nodes = mp.mp._tanh_sinh.get_nodes(a, b, degree, prec)
        if a == 0:
            points = [(t**q, q * w * t ** (p + q - 1)) for t, w in nodes]
        else:
            points = [(t, w * mp.power(t, to_mpf(exponent))) for t, w in nodes]
        got = _level_sums(points, b, members, den)
        coeffs = {n: [to_mpf(c) for c in reversed(m.coeffs)] for n, m in members.items()}
        want = mpf_level_sums(points, coeffs, [to_mpf(c) for c in reversed(den.coeffs)])
    assert got.keys() == want.keys()
    for n, value in want.items():
        assert abs(got[n] - value) <= mp.ldexp(value, -prec), (interval, degree, n)


def _subsets(elems):
    return [c for size in range(len(elems) + 1) for c in itertools.combinations(elems, size)]


# x-exponents alpha + k of both signs, on both sides of the integers
WEIGHT_EXPONENTS = [rat(-3, 4), rat(-1, 3), rat(1, 2), rat(5, 3), rat(7, 2)]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(_subsets((1, 2, 3, 4))),
    st.sampled_from(_subsets((1, 2, 3))),
    st.sampled_from(WEIGHT_EXPONENTS),
    st.integers(1, 6),
    st.one_of(st.just(1), st.integers(2, 700)),
)
def test_fixed_point_level_sums_match_the_mpf_sums(f1, f2, exponent, degree, upper):
    # small families with members of degree at least 4, on [0, 1] or on [1, U]
    # for any U up to past the shared pass's largest, where exp(-x) underflows
    # F bits while the members reach U^deg
    assume(f1 or f2)
    pair = PairSpec(f1, f2)
    fam = LaguerreExcFamily(LaguerreParams(exponent - pair.k), pair)
    assume(nonvanishing(fam))
    ns = [n for n in pair.sigma_first(6) if n >= 4][:2]
    members = {n: fam.member(n) for n in ns}
    interval = (0, 1) if upper == 1 else (1, to_mpf(upper))
    assert_level_sums_match(members, fam.omega * fam.omega, exponent, interval, degree)


def test_fixed_point_level_sums_match_at_the_largest_upper_limit():
    # the family of test_shared_pass_takes_the_largest_upper_limit: L_9 reaches
    # 9! |L_9|_1 U^9 at U = 684, where a flat 40 guard bits are not enough
    alpha = rat(1, 2)
    members = {0: laguerre(0, alpha), 9: laguerre(9, alpha)}
    upper = laguerre_type_integral(members, Poly.one(), alpha)[9].upper
    assert upper == 684
    top = mp.mp._tanh_sinh.guess_degree(mp.mp.prec) + EXTRA_LEVELS
    for interval in ((0, 1), (1, upper)):
        for degree in range(1, top + 1):
            assert_level_sums_match(members, Poly.one(), alpha, interval, degree)


def test_level_sums_refuse_a_denominator_not_positive_at_a_node():
    # negative past x = 3, everywhere, and past x = (1 + sqrt 3)/2 on [1, U]
    alpha = rat(1, 2)
    members = {1: laguerre(1, alpha)}
    for den in (Poly([3, -1]), Poly([-1]), Poly([rat(1, 2), 1, -1])):
        with pytest.raises(ValueError, match="the denominator is not positive at x="):
            laguerre_type_integral(members, den, alpha)


def standalone_quad(prod: Poly, den: Poly, exponent, upper):
    """mp.quad of prod / den * x^exponent * exp(-x) on [0, 1] in t with
    x = t^q, for exponent = p/q in lowest terms, plus on [1, upper] in x."""
    num_c = [to_mpf(c) for c in reversed(prod.coeffs)]
    den_c = [to_mpf(c) for c in reversed(den.coeffs)]
    p, q = int(exponent.numerator), int(exponent.denominator)

    def rest(x):
        return mp.polyval(num_c, x) / mp.polyval(den_c, x) * mp.exp(-x)

    head = mp.quad(lambda t: q * t ** (p + q - 1) * rest(t**q), [0, 1])
    return head + mp.quad(lambda x: mp.power(x, to_mpf(exponent)) * rest(x), [1, upper])


# (F1, F2, alpha) of small families whose Omega keeps off [0, inf); the
# exponent alpha + k of the weight is negative for the first and positive for
# the second, which always run
LAGUERRE_FAMILIES = [
    ((1,), (), rat(-3, 2)),
    ((), (1,), rat(1, 2)),
    ((), (1,), rat(-1, 2)),
    ((), (2,), rat(-1, 3)),
    ((1,), (), rat(-7, 4)),
    ((1, 2), (), rat(-9, 4)),
    ((2,), (1,), rat(-5, 2)),
    ((1, 2), (), rat(5, 2)),
]


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(LAGUERRE_FAMILIES))
@example(LAGUERRE_FAMILIES[0])
@example(LAGUERRE_FAMILIES[1])
def test_shared_pass_matches_standalone_quad(spec):
    f1, f2, alpha = spec
    fam = LaguerreExcFamily(LaguerreParams(alpha), PairSpec(f1, f2))
    assert nonvanishing(fam)
    n, r = fam.pair.sigma_first(2)
    members = {n: fam.member(n), r: fam.member(r)}
    den = fam.omega * fam.omega
    exponent = alpha + fam.pair.k
    got = laguerre_type_integral(members, den, exponent)
    assert got.keys() == {n, r}
    upper = got[n].upper
    for d, res in got.items():
        want = standalone_quad(members[d] * members[d], den, exponent, upper)
        assert res.upper == upper
        assert abs(res.value - want) <= mp.mpf(10) ** -40 * want, (spec, d)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(LAGUERRE_FAMILIES))
def test_squared_norms_meet_the_closed_form(spec):
    # every weight exponent alpha + k from -3/4 to 9/2: the rule converges on
    # each norm of the first two degrees, and only the tail separates it from
    # the closed form
    f1, f2, alpha = spec
    fam = LaguerreExcFamily(LaguerreParams(alpha), PairSpec(f1, f2))
    ns = fam.pair.sigma_first(2)
    members = {n: fam.member(n) for n in ns}
    den = fam.omega * fam.omega
    got = laguerre_type_integral(members, den, alpha + fam.pair.k)
    for n in ns:
        res, want = got[n], norm_closed_form(n, fam)
        assert res.converged, (spec, n)
        assert abs(res.value - want) <= res.tail_bound + mp.mpf(10) ** -40 * res.value, (spec, n)


# every family runs as an explicit example, whatever hypothesis draws
for _spec in LAGUERRE_FAMILIES:
    test_squared_norms_meet_the_closed_form = example(_spec)(
        test_squared_norms_meet_the_closed_form
    )


def test_shared_pass_takes_the_largest_upper_limit():
    # the members' squares have different degrees, so different limits of
    # their own; every tail bound is taken at the shared, largest one
    alpha = rat(1, 2)
    members = {0: laguerre(0, alpha), 9: laguerre(9, alpha)}
    got = laguerre_type_integral(members, Poly.one(), alpha)
    assert got[0].upper == got[9].upper > 60
    assert got[0].tail_bound < mp.mpf(10) ** -30
    for n in (0, 9):
        want = gamma_rational(alpha + n + 1) / math.factorial(n)
        assert isinstance(got[n], QuadResult) and got[n].converged
        assert abs(got[n].value - want) <= got[n].tail_bound + mp.mpf(10) ** -40 * want


def test_tail_bound_shrinks_with_tolerance():
    q = rat(4, 5)
    loose = certified_sum(lambda x: q**x, q, [], rel_tol=rat(1, 10**4))
    tight = certified_sum(lambda x: q**x, q, [], rel_tol=rat(1, 10**12))
    assert tight.terms > loose.terms
    assert tight.tail_bound < loose.tail_bound
