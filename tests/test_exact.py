import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from xoppak.exact import (
    DomainError,
    InternalInconsistencyError,
    NEG_INF,
    ParameterError,
    Poly,
    RatFunc,
    Rational,
    gamma_sign,
    nonneg_root_cells,
    pochhammer,
    poly_det,
    poly_gcd,
    rat,
    rat_ceil,
    rational_det,
    root_bound,
    top_row_minors,
    _content,
    _iroot,
    _zdivmod,
)

X = Poly.x()


def small_rats():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


def small_polys(max_deg=3):
    return st.lists(small_rats(), min_size=0, max_size=max_deg + 1).map(Poly)


# -- rationals ----------------------------------------------------------------


def test_rat_rejects_floats():
    with pytest.raises(ParameterError):
        rat(0.5)


def test_rat_returns_a_rational_unchanged():
    q = rat(3, 4)
    assert type(q) is Rational
    assert rat(q) is q
    # anything else still converts to the backend's type
    for value, want in ((Fraction(3, 4), q), (7, 7), ("3/4", q)):
        got = rat(value)
        assert type(got) is Rational and got == want


def test_pochhammer_values():
    assert pochhammer(rat(7, 2), 0) == 1
    assert pochhammer(rat(-3, 2), 2) == rat(3, 4)
    for n in range(7):
        assert pochhammer(1, n) == math.factorial(n)
    # reciprocal convention for negative index
    q = rat(5, 2)
    assert pochhammer(q, -1) == 1 / (q - 1)
    assert pochhammer(q, -2) == 1 / ((q - 1) * (q - 2))


def test_pochhammer_splits_multiplicatively():
    q = rat(-7, 3)
    for i in range(4):
        for j in range(4):
            assert pochhammer(q, i + j) == pochhammer(q, i) * pochhammer(q + i, j)


def test_gamma_sign():
    assert gamma_sign(rat(5, 2)) == 1
    assert gamma_sign(rat(-1, 2)) == -1
    assert gamma_sign(rat(-3, 2)) == 1
    assert gamma_sign(rat(-5, 2)) == -1
    with pytest.raises(Exception):
        gamma_sign(-2)


# -- polynomials --------------------------------------------------------------


def test_poly_basics():
    p = Poly([1, 0, rat(-1, 2)])
    assert p.degree == 2
    assert p(2) == -1
    assert Poly.zero().degree == NEG_INF
    assert Poly([0, 0]).is_zero
    assert (X + 1) * (X - 1) == X**2 - 1


def test_poly_shift_and_compose():
    p = X**3 - 2 * X + rat(1, 3)
    assert p.shift(2) == p.compose(X + 2)
    with pytest.raises(DomainError):
        p.shift(rat(-1, 2))
    assert p.reflect() == p.compose(-X)


def test_poly_divmod():
    a = X**4 - 1
    b = X**2 + 1
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero
    assert a.exact_div(b) == X**2 - 1
    with pytest.raises(InternalInconsistencyError):
        (X**2 + 1).exact_div(X + 1)


def test_poly_gcd():
    g = poly_gcd((X - 1) * (X + 2) ** 2, (X + 2) * (X + 3))
    assert g == X + 2


@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + Poly.zero() == p
    assert p * Poly.one() == p


@given(small_polys(), small_polys())
def test_poly_degree_law(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(small_polys(), st.integers(min_value=-2, max_value=2))
def test_shift_inverts(p, j):
    assert p.shift(j).shift(-j) == p


# -- rational functions -------------------------------------------------------


def test_ratfunc_normalization():
    f = RatFunc((X**2 - 1) * 3, (X - 1) * 6)
    assert f.num == (X + 1) / 2
    assert f.den == Poly.one()
    g = RatFunc(X, 2 * X**2)
    assert g.den.leading == 1
    assert g == RatFunc(Poly.one(), 2 * X)


def test_ratfunc_arithmetic():
    f = RatFunc(Poly.one(), X)
    g = RatFunc(Poly.one(), X + 1)
    s = f - g
    assert s == RatFunc(Poly.one(), X * (X + 1))
    assert f + 0 == f
    assert f.shift(1) == g


def test_ratfunc_derivative():
    f = RatFunc(Poly.one(), X)
    assert f.derivative() == RatFunc(Poly.constant(-1), X**2)


@given(small_polys(max_deg=2), small_polys(max_deg=2), small_polys(max_deg=2))
def test_ratfunc_field_axioms(a, b, c):
    if b.is_zero or c.is_zero:
        return
    f = RatFunc(a, b)
    g = RatFunc(b, c)
    assert f + g - g == f


# -- determinants -------------------------------------------------------------


def _cofactor_det(rows):
    # independent oracle: plain Laplace expansion along the first row
    n = len(rows)
    if n == 0:
        return Poly.one()
    if n == 1:
        return rows[0][0]
    total = Poly.zero()
    for j, e in enumerate(rows[0]):
        if e.is_zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = e * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_poly_det_small_cases():
    assert poly_det([[X + 1]]) == X + 1
    assert poly_det([[X, Poly.one()], [Poly.one(), X]]) == X**2 - 1
    assert poly_det([[X, X], [X, X]]).is_zero
    assert poly_det([]) == Poly.one()


def test_poly_det_matches_cofactor_oracle():
    import random

    rng = random.Random(20260825)
    for n in (3, 4):
        for _ in range(12):
            rows = [
                [
                    Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert poly_det(rows) == _cofactor_det(rows)


def test_poly_det_rational_entries():
    rows = [[X / 2, Poly.constant(rat(1, 3))], [Poly.constant(3), X / 5]]
    assert poly_det(rows) == X**2 / 10 - 1


def test_poly_det_row_swap_needed():
    rows = [
        [Poly.zero(), X, Poly.one()],
        [X, Poly.zero(), Poly.zero()],
        [Poly.one(), Poly.one(), X],
    ]
    assert poly_det(rows) == _cofactor_det(rows)


def test_poly_det_rejects_non_square():
    assert poly_det([[X, Poly.one()], [Poly.one(), X]]) == X**2 - 1
    with pytest.raises(ParameterError):
        poly_det([[X, X]])
    with pytest.raises(ParameterError):
        poly_det([[X, X], [X]])


def test_top_row_minors_expand_the_determinant():
    rows = [[X, X + 1, Poly.one()], [Poly.one(), X * X, X - 2]]
    top = [X - 1, Poly.constant(3), X]
    minors = top_row_minors(rows)
    assert minors[0] == poly_det([r[1:] for r in rows])
    assert minors[1] == -poly_det([[r[0], r[2]] for r in rows])
    assert sum((t * m for t, m in zip(top, minors)), Poly.zero()) == poly_det([top] + rows)
    assert top_row_minors([]) == [Poly.one()]


def test_rational_det():
    assert rational_det([[1, 2], [3, 4]]) == -2
    assert rational_det([[rat(1, 2), 1], [1, 2]]) == 0
    assert rational_det([]) == 1


# -- root cells ---------------------------------------------------------------


def test_root_cells_basic():
    assert nonneg_root_cells(X - 1) == [0, 1]
    assert nonneg_root_cells(X**2 + 1) == []
    assert nonneg_root_cells(-X - rat(1, 2)) == []
    assert nonneg_root_cells(X) == [0]
    assert nonneg_root_cells(X**2) == [0]
    assert nonneg_root_cells(Poly.constant(5)) == []
    with pytest.raises(DomainError):
        nonneg_root_cells(Poly.zero())


def test_root_cells_known_roots():
    assert nonneg_root_cells((X - 1) * (X - 2) * (X + 3)) == [0, 1, 2]
    assert nonneg_root_cells((X - rat(1, 2)) ** 2 * (X + 1)) == [0]
    # two roots in one cell, and a root just below an integer
    assert nonneg_root_cells((X - rat(31, 10)) * (X - rat(32, 10)) * (X - rat(999, 1000))) == [0, 3]


def polys_with_roots_near_integers():
    """Products of (x - r)^m with rational r at or near an integer, times
    x^2 + c cofactors and a rational leading coefficient."""
    near = st.builds(lambda m, d: m + d, st.integers(-3, 12),
                     st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(-1, 7),
                                      Fraction(1, 2), Fraction(-1, 1000)]))
    lead = small_rats().filter(bool)
    cofactors = st.lists(st.fractions(-9, 9, max_denominator=4), max_size=1)
    factors = st.lists(st.tuples(near, st.integers(1, 2)), max_size=4)

    def product(c, rs, qs):
        return math.prod([(X - r) ** m for r, m in rs] + [X**2 + q for q in qs], start=c * Poly.one())

    return st.builds(product, lead, factors, cofactors)


@settings(max_examples=100, deadline=None)
@given(polys_with_roots_near_integers())
def test_root_cells_match_sympy_real_roots(p):
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(int(c.numerator), int(c.denominator))
                     for c in reversed(p.coeffs)], x)
    expected = set()
    for r in set(sympy.real_roots(sp)):
        if r >= 0:
            n = int(sympy.floor(r))
            expected |= {n, n - 1} if r == n and n >= 1 else {n}
    assert nonneg_root_cells(p) == sorted(expected)


def root_cells_by_two_sequences(p):
    """nonneg_root_cells with a full poly_gcd(p, p') remainder sequence for
    the squarefree part q, then the Sturm sequence of q and q': the oracle."""
    q = p // poly_gcd(p, p.derivative())
    chain = [q._nums, q.derivative()._nums]
    while len(chain[-1]) > 1 and (r := _zdivmod(chain[-2], chain[-1])[1]):
        g = _content(r)
        chain.append([-c // g for c in r])

    def at(x):
        return [sum(c * x**i for i, c in enumerate(s)) for s in chain]

    def var(x):
        vals = [v for v in at(x) if v]
        return sum(u * v < 0 for u, v in zip(vals, vals[1:]))

    cells, todo = [], [(-1, max(map(abs, q._nums)) // abs(q._nums[-1]) + 2)]
    while todo:
        lo, hi = todo.pop()
        if var(lo) == var(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]
        else:
            cells += [lo] * (lo >= 0) + [hi] * (at(hi)[0] == 0)
    return sorted(set(cells))


@settings(max_examples=100, deadline=None)
@given(polys_with_roots_near_integers())
def test_root_cells_from_one_remainder_sequence_match_two(p):
    # the Sturm sequence of p and p' ends in their gcd, so a squarefree p
    # needs no second sequence, and a repeated root one rebuild on p // gcd
    assert nonneg_root_cells(p) == root_cells_by_two_sequences(p)


def reference_root_bound(p):
    """min(Cauchy, Fujiwara) computed on p's Rational coefficients: the
    oracle of root_bound, which reads p's integer numerators."""
    if p.is_zero or p.degree <= 0:
        return rat(1)
    lc, d = abs(p.leading), p.degree

    def nth_root_upper(q, i):
        n = int(rat_ceil(q))
        if n <= 0:
            return 0
        root, exact = _iroot(n, i)
        return root if exact else root + 1

    fuji = 0
    for i in range(1, d + 1):
        a = abs(p.coeff(d - i))
        if a:
            fuji = max(fuji, nth_root_upper(a / lc, i))
    cauchy = rat(1) + max(abs(c) for c in p.coeffs[:-1]) / lc
    return min(rat(2 * fuji) if fuji else rat(0), cauchy)


@settings(max_examples=100, deadline=None)
@given(polys_with_roots_near_integers())
@example((X - 3) * (X + 5) * (2 * X - 1))
@example(Poly.constant(rat(-2, 3)))
@example(rat(3, 4) * X**3)
def test_root_bound_is_the_rational_formula_and_bounds_every_root(p):
    b = root_bound(p)
    assert type(b) is Rational and b == reference_root_bound(p)
    if p.degree >= 1:
        x = sympy.Symbol("x")
        sp = sympy.Poly([sympy.Rational(int(c.numerator), int(c.denominator))
                         for c in reversed(p.coeffs)], x)
        # p's roots are those of its squarefree part, whose simple roots
        # nroots finds without the iterations a repeated root takes
        for z in sp.sqf_part().nroots():
            assert abs(complex(z)) <= float(b) * (1 + 1e-9) + 1e-12, (z, b)


@given(st.integers(min_value=0, max_value=10**40))
def test_iroot_square_matches_isqrt(n):
    root = math.isqrt(n)
    assert _iroot(n, 2) == (root, root * root == n)


@pytest.mark.parametrize("i", [3, 4, 5])
def test_iroot_matches_brute_force(i):
    # every n up to 3^i + 1, so each root 0..3 is met exactly and in between
    root = 0
    for n in range(3**i + 2):
        while (root + 1) ** i <= n:
            root += 1
        assert _iroot(n, i) == (root, root**i == n), (n, i)
    # and around large perfect powers, past the float start's 100 bits
    for base in (10**6, 2**40 + 3, 3**250):
        for n in (base**i - 1, base**i, base**i + 1):
            want = base if n >= base**i else base - 1
            assert _iroot(n, i) == (want, n == base**i), (n, i)
