"""The integer polynomial kernel against sympy as an independent oracle.

Every operation of ``Poly`` runs on integer numerators over one common
denominator, with products by Kronecker substitution (one big-integer
product, read back in signed slots) and gcds by a primitive remainder
sequence.  A sum of products of several polynomials takes one substitution
for the whole sum.  These tests compare each operation with sympy's dense
polynomials over QQ on random rational polynomials, including the inputs
where a packed product is most fragile: negative coefficients, zeros in the
middle, constant and zero operands, and coefficients at and around powers
of two near the slot width.  Operator application, one such sum over the
coefficients' common denominator, is compared with the term-by-term sum in
RatFunc arithmetic.
"""
from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

import pytest

from xoppak.exact import (
    SHORT_SLOTS,
    DomainError,
    Poly,
    RatFunc,
    Rational,
    _pack,
    _unpack,
    _zmul,
    interpolate_at_zero,
    poly_det,
    poly_gcd,
    rat,
    ratfunc_of_sums,
    rational_det,
    sum_of_products,
    top_row_minors,
)
from xoppak.operators import DifferenceOperator, DifferentialOperator

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
    # shifts are by integers only: a proper rational is refused, even on a
    # constant or zero polynomial
    with pytest.raises(DomainError):
        p.shift(j)


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


@st.composite
def rational_matrices(draw):
    """Square matrices of sizes 0 to 6 with rational entries, zero often.

    From size 2 on, one in four gets a zero first pivot, which needs a row
    swap when the column has another nonzero entry, one in four a zero row,
    and one in four a row that is a multiple of another, which is singular.
    """
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), rationals())
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2:
        shape = draw(st.sampled_from(["plain", "zero pivot", "zero row", "dependent"]))
        i, j = draw(st.permutations(range(n)))[:2]
        if shape == "zero pivot":
            rows[0][0] = Fraction(0)
        elif shape == "zero row":
            rows[i] = [Fraction(0)] * n
        elif shape == "dependent":
            factor = draw(entry)
            rows[i] = [factor * v for v in rows[j]]
    return rows


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
@example([[Fraction(0), Fraction(1, 2)], [Fraction(3), Fraction(5, 7)]])  # swap, then scale
@example([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]])  # no pivot in column 0
def test_rational_determinant(rows):
    n = len(rows)
    want = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator)
                               for r in rows for v in r]).det()
    got = rational_det(rows)
    assert got == Fraction(int(want.p), int(want.q)), (rows, got, want)


H = sympy.Symbol("h")


def sympy_interpolation(nodes, values):
    """(value at 0, top coefficient) by sympy's Lagrange interpolation, one
    coefficient of the Poly values at a time."""
    width = max(len(v.coeffs) for v in values)
    at_zero, top = [], []
    for i in range(width):
        points = [(sympy.Rational(h.numerator, h.denominator), sympy.Rational(str(v.coeff(i))))
                  for h, v in zip(nodes, values)]
        fit = sympy.Poly(sympy.interpolate(points, H), H, domain="QQ")
        at_zero.append(fit.eval(0))
        top.append(fit.coeff_monomial(H ** (len(nodes) - 1)))
    return [Poly([Fraction(int(c.p), int(c.q)) for c in cs]) for cs in (at_zero, top)]


@st.composite
def interpolation_points(draw):
    """One to six distinct small rational nodes with a Poly value at each."""
    count = draw(st.integers(1, 6))
    nodes = draw(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=count,
                          max_size=count, unique=True))
    return nodes, draw(st.lists(polys(max_deg=3), min_size=count, max_size=count))


@settings(max_examples=40, deadline=None)
@given(interpolation_points())
def test_interpolation_at_zero(points):
    nodes, values = points
    assert list(interpolate_at_zero(nodes, values)) == sympy_interpolation(nodes, values)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_interpolation_top_coefficient_checks_the_degree(degree):
    # p(h) = c_0 + c_1 h + ... + c_degree h^degree at the nodes 1/2, 1/3, ...
    cs = [Poly([rat(i + 1), rat(-1, i + 2)]) for i in range(degree + 1)]
    nodes = [rat(1, m) for m in range(2, degree + 4)]
    values = [sum((c * h**i for i, c in enumerate(cs)), Poly.zero()) for h in nodes]
    # degree + 2 nodes: the bound holds and the top coefficient is 0
    assert interpolate_at_zero(nodes, values) == (cs[0], Poly.zero())
    # degree + 1 nodes: a bound one below the degree leaves c_degree on top
    got = interpolate_at_zero(nodes[:-1], values[:-1])
    assert got == (cs[0], cs[-1])
    assert list(got) == sympy_interpolation(nodes[:-1], values[:-1])


def test_interpolation_needs_distinct_nodes():
    with pytest.raises(DomainError):
        interpolate_at_zero([rat(1, 2), rat(1, 2)], [Poly.one(), Poly.x()])
    with pytest.raises(DomainError):
        interpolate_at_zero([], [])


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


def edge_polynomial(n, start):
    """n coefficients taken in turn from EDGES, from index start on."""
    return [EDGES[(start + i) % len(EDGES)] for i in range(n)]


def test_packing_round_trips_on_both_sides_of_the_short_path():
    # the narrowest slot that holds the largest coefficient, so the EDGES
    # values 2^(8w - 1) - 1 and -(2^(8w - 1) - 1) fill their slots
    assert 1 < SHORT_SLOTS < 40
    for n in range(1, 41):
        for start in range(0, len(EDGES), 5):
            a = edge_polynomial(n, start)
            width = (max(map(abs, a)).bit_length() + 8) // 8
            value = _pack(a, width)
            assert value == sum(c << (8 * width * i) for i, c in enumerate(a))
            assert _unpack(value, n, width) == a
            # a zero polynomial of the same length and one padded with zeros
            assert _unpack(_pack([0] * n, width), n, width) == [0] * n
            assert _unpack(value, n + 2, width) == a + [0, 0]


def test_integer_products_across_the_short_path():
    for n in range(1, 41):
        a = edge_polynomial(n, n)
        for b in (a, edge_polynomial(41 - n, 3 * n), edge_polynomial(n, 7)[::-1], [-1]):
            want = sympy.Poly(a[::-1], X, domain="ZZ") * sympy.Poly(b[::-1], X, domain="ZZ")
            assert _zmul(a, b) == [int(c) for c in want.all_coeffs()[::-1]]


def sympy_det(rows):
    want = sympy.Matrix([[to_sympy(e).as_expr() for e in r] for r in rows]).det(method="berkowitz")
    return sympy.Poly(sympy.expand(want), X, domain="QQ")


def test_determinant_rows_with_mixed_denominators_and_contents():
    x = Poly.x()
    third = Poly([rat(1, 3), rat(2, 3)])  # already over the row's lcm 3
    sixth = Poly([rat(5, 6), rat(-1, 6)])  # over 6, the lcm of its row
    rows = [
        [third, Poly([1, -2]), 6 * x + 3, Poly([rat(2, 3)])],  # lcm 3, one entry at it
        [sixth, Poly([rat(1, 2), 0, rat(3, 2)]), Poly([rat(1, 3)]), x],  # 2 and 3 rescale to 6
        [Poly([4, 8]), Poly([-12]), Poly([0, 0, 20]), Poly([8, 4])],  # content 4
        [Poly([rat(6, 7), rat(9, 7)]), Poly([rat(3, 7)]), x * 3, Poly([-3])],  # content 3 over 7
    ]
    assert agree(poly_det(rows), sympy_det(rows))
    for i in range(len(rows)):
        singular = [r if j != i else [Poly.zero()] * len(r) for j, r in enumerate(rows)]
        assert poly_det(singular).is_zero
    # a row whose every entry is at its lcm, scaled by an integer content
    assert poly_det([[Poly([rat(2, 5), rat(4, 5)])]]) == Poly([rat(2, 5), rat(4, 5)])
    assert poly_det([[Poly([rat(2, 5)]), Poly([rat(4, 5)])], [Poly([6]), Poly([9])]]) == Poly([rat(-6, 5)])


SCALARS = list(range(-6, 7)) + [2**70, -(2**70)]


@settings(max_examples=30, deadline=None)
@given(polys())
def test_integer_scalars_agree_with_the_rational_path(p):
    for j in SCALARS:
        q = Fraction(j)
        assert p.shift(j) == p.shift(q)
        assert p * j == p * q == j * p == q * p
        assert p + j == p + q == j + p and p - j == p - q and j - p == q - p
        assert agree(p * j, to_sympy(p) * j)
        value = p(j)
        assert type(value) is Rational
        assert value == p(q)
        want = to_sympy(p).eval(j)
        assert value == Fraction(int(want.p), int(want.q))
    assert agree(p.shift(2**70), to_sympy(p).shift(2**70))
    # bool is not int, so True takes the rational path and means 1
    assert p(True) == p(1) and p * True == p and p.shift(True) == p.shift(1)
    assert p(False) == p(0) and (p * False).is_zero and p.shift(False) == p


@settings(max_examples=30, deadline=None)
@given(st.lists(numerators(), max_size=9))
def test_integer_coefficients_agree_with_the_rational_path(ints):
    # an all-int coefficient list and the int constructors skip the Rationals
    # and give the same fields as the rational path
    assert Poly(ints) == Poly([Fraction(c) for c in ints])
    for j in ints:
        assert Poly.constant(j) == Poly([Fraction(j)])
    assert Poly.monomial(len(ints)) == Poly([Fraction(0)] * len(ints) + [Fraction(1)])
    for made, want in ((Poly.zero(), []), (Poly.one(), [1]), (Poly.x(), [0, 1])):
        assert made == Poly([Fraction(c) for c in want])


# -- sums of products by one substitution ---------------------------------------


def naive_sum(terms) -> Poly:
    """The sum of products by Poly arithmetic, one product and one sum at a time."""
    total = Poly.zero()
    for s, factors in terms:
        prod = Poly.constant(s)
        for f in factors:
            prod = prod * f
        total = total + prod
    return total


def scalars():
    return st.one_of(st.just(0), st.integers(-6, 6), rationals(), st.just(Fraction(-1, 3)))


@st.composite
def product_sums(draw):
    """Terms over a small pool of polynomials, so that terms share factors by
    identity; the pool holds zero and constant polynomials too."""
    pool = draw(st.lists(polys(max_deg=5), min_size=1, max_size=4))
    factors = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    return draw(st.lists(st.tuples(scalars(), factors), max_size=5))


@EXAMPLES
@given(product_sums())
def test_sum_of_products_matches_the_naive_sum(terms):
    got = sum_of_products(terms)
    assert got == naive_sum(terms)
    # every term again with its scalar negated cancels the whole sum
    assert sum_of_products(terms + [(-s, f) for s, f in terms]).is_zero
    assert sum_of_products([(-s, f) for s, f in terms]) == -got


def test_sum_of_products_of_nothing_and_of_zeros_is_zero():
    p = Poly([1, rat(2, 3)])
    assert sum_of_products([]).is_zero
    assert sum_of_products([(0, (p, p)), (5, (p, Poly.zero())), (rat(1, 2), ())]) == Poly.constant(
        rat(1, 2))
    assert sum_of_products([(3, ()), (-3, ())]).is_zero
    assert sum_of_products([(1, (p,)), (-1, (Poly([1, rat(2, 3)]),))]).is_zero


def test_sum_of_products_at_the_slot_boundary():
    # single-coefficient factors make the bound equal to a coefficient of the
    # sum, so these values fill their slots exactly
    for c in EDGES:
        for n in (1, 3, 20):
            mono = Poly([0] * (n - 1) + [c])
            wide = Poly([c] * n)
            alt = Poly([(-1) ** i * c for i in range(n)])
            terms = [(1, (mono,)), (-1, (Poly.constant(c),)), (rat(1, 2), (wide, alt)),
                     (-2, (alt, mono, Poly.x()))]
            assert sum_of_products(terms) == naive_sum(terms)
            assert sum_of_products([(1, (mono,))]) == mono
            assert sum_of_products([(1, (wide, alt))]) == wide * alt


def test_sum_of_products_against_sympy():
    third = Poly([rat(1, 3), 0, rat(-5, 7)])
    big = Poly([2**64 + 1, -(2**63), 0, 0, 7])
    x = Poly.x()
    cases = [
        [(rat(3, 4), (third, third, big)), (-5, (x, big)), (rat(-2, 9), ())],
        [(1, (big,) * 3), (rat(1, 2**64 + 1), (third, x, x))],
        [(rat(7, 3), (Poly([rat(1, 6), rat(5, 4)]),) * 5), (-1, (third, Poly.constant(rat(1, 5))))],
    ]
    for terms in cases:
        want = sum(sympy.Rational(int(Rational(s).numerator), int(Rational(s).denominator))
                   * sympy.prod([to_sympy(f).as_expr() for f in fs]) for s, fs in terms)
        assert agree(sum_of_products(terms), sympy.Poly(sympy.expand(want), X, domain="QQ"))


def test_ratfunc_of_sums_cancels_shared_factors_to_the_same_quotient():
    p, q = Poly([1, rat(2, 3), 4]), Poly([-5, 1])
    x = Poly.x()
    num, den = [(1, (x, q, q))], [(rat(1, 2), (p, q))]
    assert ratfunc_of_sums(num, den) == RatFunc(x * q * q, p * q / 2) == RatFunc(x * q, p / 2)
    # a factor only some terms share stays; an equal copy cancels like the factor
    num = [(1, (x, p)), (-2, (q, Poly([-5, 1])))]
    assert ratfunc_of_sums(num, den) == RatFunc(x * p - 2 * q * q, p * q / 2)
    num = [(1, (x, Poly([-5, 1]))), (3, (q, q))]
    assert ratfunc_of_sums(num, den) == RatFunc(x + 3 * q, p / 2)


def _derivative(p: Poly, j: int) -> Poly:
    for _ in range(j):
        p = p.derivative()
    return p


@st.composite
def coefficient_maps(draw, keys):
    """{key: RatFunc} whose denominators are products of subsets of a pool of
    three: equal subsets give equal denominators, overlapping ones a shared
    factor, disjoint ones distinct denominators and the empty one a
    polynomial coefficient; no key, or only zero numerators, give the zero
    operator."""
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    pool = draw(st.lists(st.lists(small, min_size=2, max_size=3).map(Poly)
                         .filter(lambda d: d.degree >= 1), min_size=3, max_size=3))
    out = {}
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))):
        den = Poly.one()
        for i in draw(st.lists(st.integers(0, 2), unique=True)):
            den = den * pool[i]
        out[key] = RatFunc(draw(st.lists(small, max_size=3).map(Poly)), den)
    return out


@pytest.mark.parametrize("kind, keys, image", [
    (DifferenceOperator, range(-2, 3), Poly.shift),
    (DifferentialOperator, range(4), _derivative),
], ids=["difference", "differential"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_is_the_sum_of_its_terms(kind, keys, image, data):
    # the oracle sums a_j * image_j term by term in RatFunc arithmetic, which
    # reduces after every addition and never goes through ratfunc_of_sums
    coeffs = data.draw(coefficient_maps(keys))
    p = data.draw(polys(max_deg=5))
    want = RatFunc(Poly.zero())
    for j, a in coeffs.items():
        want = want + a * RatFunc(image(p, j))
    assert kind(coeffs).apply(p) == want
    assert kind({}).apply(p) == RatFunc(Poly.zero())
