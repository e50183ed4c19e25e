from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from xoppak.exact import DomainError, ParameterError, pochhammer, rat
from xoppak.pairs import (
    FiniteSet,
    PairSpec,
    admissibility_witnesses,
    enumerate_pairs,
    hat_c,
    involute,
    is_admissible,
)

E = FiniteSet(())


def P(f1, f2):
    return PairSpec(FiniteSet(f1), FiniteSet(f2))


def all_subsets(max_elem, max_card=None):
    universe = range(1, max_elem + 1)
    out = []
    for r in range(0, (max_card or max_elem) + 1):
        out.extend(FiniteSet(c) for c in combinations(universe, r))
    return out


# -- finite sets --------------------------------------------------------------


def test_finite_set_validation():
    assert FiniteSet([3, 1]).elems == (1, 3)
    with pytest.raises(ParameterError):
        FiniteSet([0, 1])
    with pytest.raises(ParameterError):
        FiniteSet([1, 1])


def test_empty_set_sentinels():
    assert E.max_elem == -1
    assert E.card == 0


# -- index data ---------------------------------------------------------------


def test_u_of_examples():
    assert P([1, 2], []).u == 0
    assert P([], [1]).u == 1
    assert P([1], []).u == 0
    # max of F2 alone sets u for singletons
    assert P([], [2]).u == 2
    assert P([1, 2], [1, 3]).u == 3


def test_sigma_of_examples():
    assert P([1], []).sigma_first(4) == [0, 2, 3, 4]
    assert P([1, 2], []).sigma_first(3) == [0, 3, 4]
    # u for ([], {2}) is 2 by the index formula; nothing is removed
    assert P([], [2]).sigma_first(3) == [2, 3, 4]


def test_v_is_u_plus_max_plus_one():
    for pair in enumerate_pairs(4, 3):
        assert pair.v == pair.u + pair.F1.max_elem + 1
        for n in range(pair.u, pair.u + 6):
            assert pair.sigma_contains(n) == ((n - pair.u) not in pair.F1)


def test_empty_pair_is_the_classical_pair():
    pair = PairSpec([], [])
    assert pair == PairSpec(E, E)
    assert pair.is_trivial
    assert pair.u == 0 and pair.v == 0
    assert pair.sigma_first(3) == [0, 1, 2]
    assert not PairSpec([1], []).is_trivial and not PairSpec([], [1]).is_trivial


# -- involution ---------------------------------------------------------------


def test_involute_examples():
    assert involute(FiniteSet([2])) == FiniteSet([1, 2])
    for k in range(1, 6):
        assert involute(FiniteSet(range(1, k + 1))) == FiniteSet([k])
    # the order-4 representation example: F1={1..k}, F2={1..k-2, k}
    k = 4
    f1 = FiniteSet(range(1, k + 1))
    f2 = FiniteSet([1, 2, 4])
    assert involute(f1) == FiniteSet([4])
    assert involute(f2) == FiniteSet([1, 4])
    assert involute(E) == E


def test_involute_is_involution():
    for F in all_subsets(8):
        assert involute(involute(F)) == F


def test_remove_f2_max():
    f, low = P([], [1, 4]).remove_f2_max()
    assert f == 4 and low == P([], [1])
    f, low = P([], [2]).remove_f2_max()
    assert f == 2 and low == PairSpec([], [])
    f, low = P([1, 3], [2, 5]).remove_f2_max()
    assert f == 5 and low == P([1, 3], [2])


def test_without_drops_one_element_of_one_set():
    pair = P([1, 3], [2, 5])
    assert pair.without("F1", 3) == P([1], [2, 5])
    assert pair.without("F2", 2) == P([1, 3], [5])
    assert pair.without("F2", 5) == pair.remove_f2_max()[1]


@pytest.mark.parametrize("f1", [[], [1, 3]])
def test_remove_f2_max_refuses_an_empty_second_set(f1):
    with pytest.raises(DomainError, match="^Darboux step needs a nonempty second set$"):
        PairSpec(f1, []).remove_f2_max()


# -- admissibility ------------------------------------------------------------


def _oracle_hat(c):
    """Least h >= 0 with c + h > 0, checked against the sign law for (x+c)_h."""
    h = 0
    while c + h <= 0:
        h += 1
    for x in range(0, h + 6):
        p = pochhammer(x + c, h)
        sign = 1 if p > 0 else (-1 if p < 0 else 0)
        expected = (-1) ** (h - x) if x <= h else 1
        assert sign == expected, (c, h, x)
    return h


def test_hat_c_matches_sign_law_oracle():
    for c in [rat(3, 2), rat(-1, 2), rat(-7, 2), rat(5), rat(-9, 4), rat(-1, 3)]:
        assert hat_c(c) == _oracle_hat(c)
    # frozen oracle outputs
    assert hat_c(rat(3, 2)) == 0
    assert hat_c(rat(-1, 2)) == 1
    assert hat_c(rat(-7, 2)) == 4
    with pytest.raises(ParameterError):
        hat_c(rat(-2))
    with pytest.raises(ParameterError):
        hat_c(0)


def test_admissibility_examples():
    assert not is_admissible(rat(-7, 2), P([1], []))
    assert admissibility_witnesses(rat(-7, 2), P([1], [])) == [0, 3]
    assert is_admissible(rat(-1, 2), P([1], []))
    assert is_admissible(rat(3, 2), P([1, 2], []))


def test_admissible_interval_for_single_gap():
    # ({1}, {}) is admissible precisely for c in (-1, 0)
    for c, expect in [
        (rat(3, 2), False),
        (rat(1, 2), False),
        (rat(-1, 4), True),
        (rat(-1, 2), True),
        (rat(-3, 4), True),
        (rat(-3, 2), False),
        (rat(-5, 2), False),
        (rat(-7, 2), False),
    ]:
        assert is_admissible(c, P([1], [])) == expect, c


def test_ladm_properties():
    cs = [rat(-7, 2), rat(-5, 2), rat(-3, 2), rat(-1, 2), rat(-1, 4), rat(1, 2), rat(3, 2), rat(3)]
    pairs = enumerate_pairs(4, 3)
    for c in cs:
        for pair in pairs:
            adm = is_admissible(c, pair)
            if adm:
                # admissible forces c + k > 0
                assert c + pair.k > 0, (c, pair)
            if not pair.F1.elems:
                # empty first set: admissible exactly for positive c
                assert adm == (c > 0), (c, pair)


def product_form_witnesses(c, pair):
    """The x >= 0 with prod_{F1}(x-f) prod_{F2}(x+c+f) / (x+c)_hat < 0, each
    quotient multiplied out, over a window past every factor's last sign change."""
    h = hat_c(c)
    out = []
    for x in range(pair.F1.max_elem + h + pair.k + 10):
        num = rat(1)
        for v in [x - f for f in pair.F1] + [x + c + f for f in pair.F2]:
            num *= v
        if num / pochhammer(x + c, h) < 0:
            out.append(x)
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(enumerate_pairs(4, 4)),
    st.integers(1, 7).flatmap(lambda q: st.tuples(st.integers(-40 * q, 40 * q), st.just(q))),
)
def test_admissibility_witnesses_match_the_product_form(pair, pq):
    c = rat(*pq)
    if c <= 0 and c.denominator == 1:
        with pytest.raises(ParameterError):
            admissibility_witnesses(c, pair)
        return
    assert admissibility_witnesses(c, pair) == product_form_witnesses(c, pair)


def test_enumerate_pairs_counts():
    assert len(enumerate_pairs(5, 4)) == 385
    assert len(enumerate_pairs(4, 4)) == 162
    pairs = enumerate_pairs(3, 2)
    assert all(not p.is_trivial for p in pairs)
    keys = [(p.F1.elems, p.F2.elems) for p in pairs]
    assert keys == sorted(keys)
