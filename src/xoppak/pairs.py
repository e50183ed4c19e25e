"""Finite index sets, set pairs, and admissibility.

A pair of finite sets of positive integers drives every exceptional family:
it fixes the determinant shape, the degree offset u, the skipped degrees,
and (together with the parameter c) whether the orthogonality measure is
positive.  Everything here is exact integer/rational combinatorics.
"""
from __future__ import annotations

from math import comb

from .exact import (
    DomainError,
    InternalInconsistencyError,
    ParameterError,
    is_integer,
    pochhammer,
    rat,
    rat_ceil,
)


class FiniteSet:
    """Strictly increasing finite set of positive integers (possibly empty)."""

    __slots__ = ("elems",)

    def __init__(self, elems=()):
        raw = [int(e) for e in elems]
        elems = tuple(sorted(set(raw)))
        if len(elems) != len(raw):
            raise ParameterError(f"duplicate elements in {raw}")
        if elems and elems[0] < 1:
            raise ParameterError(f"set elements must be positive: {list(elems)}")
        self.elems = elems

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, v):
        return v in self.elems

    def __eq__(self, other):
        if isinstance(other, FiniteSet):
            return self.elems == other.elems
        return NotImplemented

    def __hash__(self):
        return hash(self.elems)

    def __repr__(self):
        return f"FiniteSet({list(self.elems)})"

    @property
    def card(self) -> int:
        return len(self.elems)

    @property
    def max_elem(self) -> int:
        """Largest element, -1 for the empty set."""
        return self.elems[-1] if self.elems else -1

    @property
    def total(self) -> int:
        return sum(self.elems)


def involute(F: FiniteSet) -> FiniteSet:
    """The dual set {1..M} minus {M - f : f in F}; empty maps to empty."""
    if not F.elems:
        return FiniteSet(())
    M = F.max_elem
    removed = {M - f for f in F.elems}
    return FiniteSet(e for e in range(1, M + 1) if e not in removed)


class PairSpec:
    """Ordered pair of finite sets; (empty, empty) is the classical family,
    where Darboux descent ends."""

    __slots__ = ("F1", "F2")

    def __init__(self, F1, F2):
        self.F1 = F1 if isinstance(F1, FiniteSet) else FiniteSet(F1)
        self.F2 = F2 if isinstance(F2, FiniteSet) else FiniteSet(F2)

    @property
    def is_trivial(self) -> bool:
        return not self.F1.elems and not self.F2.elems

    def __eq__(self, other):
        if isinstance(other, PairSpec):
            return self.F1 == other.F1 and self.F2 == other.F2
        return NotImplemented

    def __hash__(self):
        return hash((self.F1, self.F2))

    def __repr__(self):
        return f"PairSpec({list(self.F1.elems)}, {list(self.F2.elems)})"

    @property
    def k1(self) -> int:
        return self.F1.card

    @property
    def k2(self) -> int:
        return self.F2.card

    @property
    def k(self) -> int:
        return self.k1 + self.k2

    @property
    def u(self) -> int:
        val = self.F1.total + self.F2.total - comb(self.k1 + 1, 2) - comb(self.k2, 2)
        if val < 0:
            raise InternalInconsistencyError(
                f"degree offset must be nonnegative, got {val} for {self!r}"
            )
        return val

    @property
    def v(self) -> int:
        return self.u + self.F1.max_elem + 1

    def sigma_contains(self, n: int) -> bool:
        return n >= self.u and (n - self.u) not in self.F1

    def sigma_first(self, count: int):
        """First `count` admissible degrees (the index set has gaps at u + F1)."""
        out = []
        n = self.u
        while len(out) < count:
            if self.sigma_contains(n):
                out.append(n)
            n += 1
        return out

    def without(self, set_name: str, f: int) -> "PairSpec":
        """The pair with f dropped from set_name, "F1" or "F2"."""
        drop = [e for e in getattr(self, set_name) if e != f]
        return PairSpec(drop, self.F2) if set_name == "F1" else PairSpec(self.F1, drop)

    def remove_f2_max(self) -> tuple[int, "PairSpec"]:
        """Darboux descent step: (dropped element, pair without max of F2)."""
        if not self.F2.elems:
            raise DomainError("Darboux step needs a nonempty second set")
        return self.F2.max_elem, self.without("F2", self.F2.max_elem)


def hat_c(c) -> int:
    """Smallest shift making the rising factorial (x+c)_hat eventually positive.

    For c < 0 this is ceil(-c); for c > 0 it is 0.  Validated by the sign
    law sign((x+c)_hat) = (-1)^(hat - x) for integer 0 <= x <= hat.
    """
    c = rat(c)
    if is_integer(c) and c <= 0:
        raise ParameterError(f"parameter c must not be a nonpositive integer: {c}")
    if c > 0:
        return 0
    return rat_ceil(-c)


def admissibility_witnesses(c, pair: PairSpec):
    """Integers x where the defining quotient goes negative (empty = admissible).

    The quotient prod_{F1}(x-f) prod_{F2}(x+c+f) / (x+c)_hat has constant
    sign behaviour beyond a finite bound, so a finite scan decides; factor
    positivity just past the bound is checked as well.
    """
    c = rat(c)
    h = hat_c(c)
    bound = pair.F1.max_elem + h + pair.k + 1
    witnesses = []
    for x in range(0, bound + 1):
        num = rat(1)
        for f in pair.F1:
            num *= x - f
        for f in pair.F2:
            num *= x + c + f
        val = num / pochhammer(x + c, h)
        if val < 0:
            witnesses.append(x)
    xb = bound + 1
    if not (
        all(xb - f > 0 for f in pair.F1)
        and all(xb + c + f > 0 for f in pair.F2)
        and pochhammer(xb + c, h) > 0
    ):
        raise InternalInconsistencyError(f"factors not positive past the scan bound {bound}")
    return witnesses


def is_admissible(c, pair: PairSpec) -> bool:
    return not admissibility_witnesses(c, pair)


def enumerate_pairs(max_elem: int, max_card: int):
    """All pairs with elements <= max_elem and total cardinality <= max_card.

    Deterministic order: sorted by (F1 elements, F2 elements).
    """
    from itertools import combinations

    universe = range(1, max_elem + 1)
    subsets = []
    for r in range(0, max_card + 1):
        subsets.extend(combinations(universe, r))
    out = []
    for s1 in subsets:
        for s2 in subsets:
            if not s1 and not s2:
                continue
            if len(s1) + len(s2) > max_card:
                continue
            out.append(PairSpec(FiniteSet(s1), FiniteSet(s2)))
    out.sort(key=lambda p: (p.F1.elems, p.F2.elems))
    return out
