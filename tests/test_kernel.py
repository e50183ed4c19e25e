"""The integer polynomial kernel against sympy as an independent oracle.

Every operation of ``Poly`` runs on integer numerators over one common
denominator, with products by Kronecker substitution (one big-integer
product, read back in signed slots) and gcds by a primitive remainder
sequence.  These tests compare each operation with sympy's dense
polynomials over QQ on random rational polynomials, including the inputs
where a packed product is most fragile: negative coefficients, zeros in the
middle, constant and zero operands, and coefficients at and around powers
of two near the slot width.
"""
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from xoppak.exact import Poly, RatFunc, poly_det, poly_gcd, rat, top_row_minors

X = sympy.Symbol("x")

# numerators near the byte boundaries of a packing slot
EDGES = sorted({s * (2**b + d) for b in (7, 8, 15, 16, 31, 32, 63, 64, 127) for d in (-1, 0, 1)
                for s in (1, -1)})


def numerators():
    return st.one_of(st.integers(-9, 9), st.sampled_from(EDGES),
                     st.integers(-(2**200), 2**200))


def rationals():
    dens = st.one_of(st.integers(1, 12), st.sampled_from([2**8, 2**64 + 1, 3**40]))
    return st.builds(Fraction, numerators(), dens)


def polys(max_deg=8):
    return st.lists(st.one_of(st.just(Fraction(0)), rationals()), max_size=max_deg + 1).map(Poly)


def proper_rationals():
    """Rationals with a denominator other than 1."""
    return rationals().filter(lambda q: q.denominator != 1)


def to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
                      or [0], X, domain="QQ")


def from_sympy(s) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())])


def agree(p: Poly, s) -> bool:
    return p == from_sympy(s)


EXAMPLES = settings(max_examples=60, deadline=None)


@EXAMPLES
@given(polys(), polys())
def test_product(p, q):
    assert agree(p * q, to_sympy(p) * to_sympy(q))
    assert agree(p * p, to_sympy(p) ** 2)


@EXAMPLES
@given(polys(max_deg=4), st.integers(0, 4))
def test_power(p, e):
    assert agree(p**e, to_sympy(p) ** e)


@EXAMPLES
@given(polys(), rationals())
def test_scalar_operations(p, c):
    assert agree(p * c, to_sympy(p) * sympy.Rational(c.numerator, c.denominator))
    if c:
        assert agree(p / c, to_sympy(p) * sympy.Rational(c.denominator, c.numerator))
    assert agree(p + c, to_sympy(p) + sympy.Rational(c.numerator, c.denominator))


@EXAMPLES
@given(polys(), polys())
def test_sum_and_difference(p, q):
    assert agree(p + q, to_sympy(p) + to_sympy(q))
    assert agree(p - q, to_sympy(p) - to_sympy(q))
    assert agree(-p, -to_sympy(p))


@EXAMPLES
@given(polys(), proper_rationals())
def test_shift_by_a_proper_rational(p, j):
    assert agree(p.shift(j), to_sympy(p).shift(sympy.Rational(j.numerator, j.denominator)))


@EXAMPLES
@given(polys(), st.integers(-5, 5))
def test_shift_by_an_integer(p, j):
    assert agree(p.shift(j), to_sympy(p).shift(j))


@EXAMPLES
@given(polys(), rationals())
def test_evaluation(p, v):
    want = to_sympy(p).eval(sympy.Rational(v.numerator, v.denominator))
    assert p(v) == Fraction(int(want.p), int(want.q))


@EXAMPLES
@given(polys(), polys())
def test_division_with_remainder(p, q):
    if q.is_zero:
        return
    quo, rem = divmod(p, q)
    want_q, want_r = to_sympy(p).div(to_sympy(q))
    assert agree(quo, want_q) and agree(rem, want_r)


@EXAMPLES
@given(polys(max_deg=5), polys(max_deg=5), polys(max_deg=3))
def test_gcd(p, q, common):
    for a, b in ((p, q), (p * common, q * common), (p, Poly.zero()), (Poly.zero(), q)):
        assert agree(poly_gcd(a, b), to_sympy(a).gcd(to_sympy(b)))
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero


def small_entries():
    return st.lists(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4)),
                    max_size=3).map(Poly)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_entries(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant(rows):
    want = sympy.Matrix([[to_sympy(e).as_expr() for e in r] for r in rows]).det(method="berkowitz")
    assert agree(poly_det(rows), sympy.Poly(sympy.expand(want), X, domain="QQ"))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(small_entries(), min_size=k + 1, max_size=k + 1),
                       min_size=k, max_size=k)))
def test_top_row_minors(rows):
    block = sympy.Matrix([[to_sympy(e).as_expr() for e in r] for r in rows])
    for j, minor in enumerate(top_row_minors(rows)):
        sub = block[:, [c for c in range(block.cols) if c != j]]
        want = sympy.expand((-1) ** j * sub.det(method="berkowitz"))
        assert agree(minor, sympy.Poly(want, X, domain="QQ"))


def test_products_at_the_slot_boundary():
    # every product coefficient is as large as the slot allows for its sign
    for bits in (7, 8, 15, 16, 63, 64):
        for n in (1, 2, 3, 8):
            for c in (2**bits, -(2**bits), 2**bits - 1, -(2**bits - 1)):
                p = Poly([c] * n)
                q = Poly([(-1) ** i * c for i in range(n)])
                for a, b in ((p, p), (p, q), (q, q)):
                    assert agree(a * b, to_sympy(a) * to_sympy(b))


def test_products_with_inner_zeros_and_constants():
    p = Poly([5, 0, 0, -(2**64), 0, 1])
    for q in (Poly.zero(), Poly.one(), Poly.constant(-(2**70)), Poly([0, 0, 3]), p):
        assert agree(p * q, to_sympy(p) * to_sympy(q))


def test_constants_hash_like_their_scalars():
    assert len({Poly.constant(3), 3}) == 1
    assert len({Poly.zero(), 0}) == 1
    assert len({RatFunc(Poly.constant(3)), 3}) == 1
    assert hash(Poly.constant(rat(-7, 2))) == hash(rat(-7, 2))
    assert hash(RatFunc(Poly.constant(rat(1, 3)))) == hash(rat(1, 3))
    x = Poly.x()
    assert hash(RatFunc(x + 1)) == hash(x + 1)
    assert len({RatFunc(x**2 - 1, x - 1), x + 1}) == 1
