"""Tests for the classical Meixner and Laguerre families."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from xoppak import classical, meixner as mex
from xoppak.exact import ParameterError, PoleError, Poly, RatFunc, pochhammer, rat, rat_pow
from xoppak.classical import (
    LaguerreParams,
    MeixnerParams,
    laguerre,
    meixner,
    meixner_raw,
)
from xoppak.operators import DifferenceOperator
from xoppak.pairs import PairSpec


def rationals(min_num=-9, max_num=9, max_den=5):
    return st.builds(
        lambda p, q: rat(p, q),
        st.integers(min_value=min_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def meixner_params():
    return st.builds(
        MeixnerParams,
        rationals().filter(lambda a: a != 0 and a != 1),
        rationals().filter(lambda c: not (c <= 0 and c.denominator == 1)),
    )


X = Poly.x()


def test_param_validation():
    with pytest.raises(ParameterError):
        MeixnerParams(0, 3)
    with pytest.raises(ParameterError):
        MeixnerParams(1, 3)
    with pytest.raises(ParameterError):
        MeixnerParams(rat(1, 2), 0)
    with pytest.raises(ParameterError):
        MeixnerParams(rat(1, 2), -2)
    MeixnerParams(rat(1, 2), rat(-7, 2))
    LaguerreParams(rat(-3, 2))


def test_meixner_small_cases():
    p = MeixnerParams(rat(1, 2), 3)
    assert meixner(0, p) == Poly.one()
    assert meixner(1, p) == X - 3
    assert meixner(-2, p) == Poly.zero()


@given(meixner_params())
@settings(max_examples=25, deadline=None)
def test_meixner_degree_one_closed_form(p):
    assert meixner(1, p) == X - p.a * p.c / (1 - p.a)


@given(meixner_params())
@settings(max_examples=15, deadline=None)
def test_meixner_three_term_recurrence(p):
    a, c = p.a, p.c
    for n in range(13):
        lhs = X * meixner(n, p)
        rhs = (
            (n + 1) * meixner(n + 1, p)
            - ((a + 1) * n + a * c) / (a - 1) * meixner(n, p)
            + a * (n + c - 1) / (a - 1) ** 2 * meixner(n - 1, p)
        )
        assert lhs == rhs


def test_laguerre_small_cases():
    alpha = rat(-3, 2)
    assert laguerre(0, alpha) == Poly.one()
    assert laguerre(1, alpha) == -X + alpha + 1
    assert laguerre(-1, alpha) == Poly.zero()
    assert laguerre(1, LaguerreParams(alpha)) == -X + alpha + 1


def test_laguerre_value_at_zero():
    for alpha in (rat(1, 2), rat(-3, 2), rat(3)):
        for n in range(9):
            expected = pochhammer(1 + alpha, n) / math.factorial(n)
            assert laguerre(n, alpha)(0) == expected


@given(rationals())
@settings(max_examples=15, deadline=None)
def test_laguerre_three_term_recurrence(alpha):
    for n in range(13):
        lhs = X * laguerre(n, alpha)
        rhs = (
            -(n + 1) * laguerre(n + 1, alpha)
            + (2 * n + alpha + 1) * laguerre(n, alpha)
            - (n + alpha) * laguerre(n - 1, alpha)
        )
        assert lhs == rhs


def empty_pair_operator(p):
    # the exceptional operator of the empty pair, checked against the
    # classical one: x/(a-1) at shift -1, -((1+a)x + ac)/(a-1) at 0 and
    # a(x+c)/(a-1) at 1
    op = mex.operator(mex.MeixnerExcFamily(p, PairSpec([], [])))
    d = p.a - 1
    assert op == DifferenceOperator({
        -1: RatFunc(X / d),
        0: RatFunc(-((1 + p.a) * X + p.a * p.c) / d),
        1: RatFunc(p.a * (X + p.c) / d),
    })
    return op


def test_meixner_operator_eigenfunctions():
    # x m(x-1) - ((1+a)x + ac) m(x) + a(x+c) m(x+1) = n (a-1) m(x)
    for p in (MeixnerParams(rat(1, 2), 3), MeixnerParams(rat(2, 3), rat(7, 3))):
        op = empty_pair_operator(p)
        a, c = p.a, p.c
        for n in range(13):
            m = meixner(n, p)
            lhs = X * m.shift(-1) - ((1 + a) * X + a * c) * m + a * (X + c) * m.shift(1)
            assert lhs == n * (a - 1) * m
            assert op.apply(m) == RatFunc(n * m)


def test_laguerre_operator_eigenfunctions():
    # -x y'' - (alpha + 1 - x) y' = n y
    for alpha in (rat(1, 2), rat(-3, 2), rat(4)):
        for n in range(13):
            y = laguerre(n, alpha)
            y1 = y.derivative()
            assert -X * y1.derivative() - (alpha + 1 - X) * y1 == n * y


def test_operator_algebra_on_eigenfunctions():
    p = MeixnerParams(rat(2, 3), rat(7, 3))
    op = empty_pair_operator(p)
    m5 = meixner(5, p)
    assert (op - 5).apply(m5) == RatFunc(Poly.zero())
    assert (op @ op).apply(m5) == RatFunc(25 * m5)


def test_degree_point_swap_full_grid():
    p = MeixnerParams(rat(2, 5), rat(7, 3))
    a, c = p.a, p.c
    for n in range(9):
        for m in range(9):
            lhs = rat_pow(a, m - n) * math.factorial(n) * pochhammer(1 + c, m - 1) * meixner(n, p)(m)
            rhs = rat_pow(a - 1, m - n) * math.factorial(m) * pochhammer(1 + c, n - 1) * meixner(m, p)(n)
            assert lhs == rhs


def test_reflection_symmetry_exact():
    for p in (MeixnerParams(rat(1, 2), 3), MeixnerParams(rat(5, 3), rat(-1, 2))):
        for n in range(8):
            lhs = meixner(n, p)
            rhs = rat_pow(rat(-1), n) * meixner_raw(n, 1 / p.a, p.c).compose(-X - p.c)
            assert lhs == rhs


# -- the basis against its explicit definitions -------------------------------
#
# The basis is built by recurrences; these oracles expand the explicit sums on
# Fraction coefficient lists, lowest degree first, without the Poly kernel.


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _falling_binomials(top, n):
    """C(top, j) for j = 0..n, where top is the polynomial [t0, t1]."""
    out = [[Fraction(1)]]
    for j in range(1, n + 1):
        factor = [(top[0] - (j - 1)) / j, top[1] / j]
        out.append(_mul(out[-1], factor))
    return out


def meixner_oracle(n, a, c):
    """a^n/(1-a)^n sum_j a^(-j) C(x, j) C(-x-c, n-j)."""
    a, c = Fraction(a), Fraction(c)
    bx = _falling_binomials([Fraction(0), Fraction(1)], n)
    by = _falling_binomials([-c, Fraction(-1)], n)
    total = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        for i, v in enumerate(_mul(bx[j], by[n - j])):
            total[i] += v / a**j
    scale = (a / (1 - a)) ** n
    return Poly([scale * v for v in total])


def laguerre_oracle(n, alpha):
    """Coefficient j is (-1)^j C(n + alpha, n - j) / j!."""
    alpha = Fraction(alpha)
    coeffs = []
    for j in range(n + 1):
        binom = Fraction(1)
        for i in range(n - j):
            binom *= (n + alpha - i) / (i + 1)
        coeffs.append((-1) ** j * binom / math.factorial(j))
    return Poly(coeffs)


def assert_integer_fields(p):
    assert all(type(v) is int for v in p._nums) and type(p._den) is int


@given(st.integers(0, 30), rationals().filter(lambda a: a not in (0, 1)), rationals())
@settings(max_examples=30, deadline=None)
def test_meixner_matches_the_explicit_sum(n, a, c):
    # c is formal here: nonpositive integers included
    got = meixner_raw(n, a, c)
    assert got == meixner_oracle(n, a, c)
    assert_integer_fields(got)


@given(st.integers(0, 30), rationals(1, 9, 5), st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_krawtchouk_matches_the_explicit_sum(n, a, big_n):
    got = meixner_raw(n, -a, -big_n + 1)
    assert got == meixner_oracle(n, -a, -big_n + 1)
    assert_integer_fields(got)


@given(st.integers(0, 30), rationals(6, 40, 5), rationals(1, 9, 4))
@settings(max_examples=20, deadline=None)
def test_meixner_beyond_a_one_matches_the_explicit_sum(n, a, c):
    # a >= 6/5
    got = meixner(n, MeixnerParams(a, c))
    assert got == meixner_oracle(n, a, c)
    assert_integer_fields(got)


def test_meixner_degrees_in_any_order():
    a, c = rat(2, 3), rat(5, 2)
    classical._meixner_cached.cache_clear()
    descending = [meixner_raw(n, a, c) for n in range(30, -1, -1)]
    classical._meixner_cached.cache_clear()
    ascending = [meixner_raw(n, a, c) for n in range(31)]
    assert descending[::-1] == ascending
    assert ascending[30] == meixner_oracle(30, a, c)


@given(st.integers(0, 30), rationals())
@settings(max_examples=30, deadline=None)
def test_laguerre_matches_the_explicit_coefficients(n, alpha):
    got = laguerre(n, alpha)
    assert got == laguerre_oracle(n, alpha)
    assert_integer_fields(got)


def test_laguerre_matches_sympy():
    x = sympy.Symbol("x")
    for n, alpha in ((0, rat(1, 2)), (3, rat(-3, 2)), (7, rat(0)), (9, rat(-5)), (12, rat(7, 3))):
        expected = sympy.Poly(sympy.assoc_laguerre(n, sympy.Rational(str(alpha)), x), x)
        coeffs = [Fraction(int(v.p), int(v.q)) for v in reversed(expected.all_coeffs())]
        assert laguerre(n, alpha) == Poly(coeffs)


def test_meixner_parameter_poles():
    # a = 0 leaves only the constant; a = 1 has no polynomial at any degree
    assert meixner_raw(0, 0, 3) == Poly.one()
    assert meixner_raw(-1, 0, 3) == Poly.zero()
    for n in range(1, 5):
        with pytest.raises(PoleError):
            meixner_raw(n, 0, 3)
    for n in range(5):
        with pytest.raises(ZeroDivisionError):
            meixner_raw(n, 1, rat(5, 2))
