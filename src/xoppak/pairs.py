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
            raise ParameterError(f"set elements must be positive: {elems}")
        self.elems = elems

    @classmethod
    def parse(cls, text: str) -> "FiniteSet":
        text = text.strip()
        if not text:
            return cls(())
        try:
            return cls(int(t) for t in text.split(","))
        except ValueError as exc:
            raise ParameterError(f"not a finite set: {text!r}") from exc

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

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

    def __str__(self):
        return "{" + ",".join(str(e) for e in self.elems) + "}"

    @property
    def card(self) -> int:
        return len(self.elems)

    @property
    def max_elem(self) -> int:
        """Largest element, -1 for the empty set."""
        return self.elems[-1] if self.elems else -1

    @property
    def min_elem(self) -> int:
        return self.elems[0] if self.elems else -1

    @property
    def total(self) -> int:
        return sum(self.elems)

    def blocks(self):
        """Maximal runs of consecutive integers, as a list of lengths."""
        out = []
        run = 0
        prev = None
        for e in self.elems:
            if prev is not None and e == prev + 1:
                run += 1
            else:
                if run:
                    out.append(run)
                run = 1
            prev = e
        if run:
            out.append(run)
        return out


def involute(F: FiniteSet) -> FiniteSet:
    """The dual set {1..M} minus {M - f : f in F}; empty maps to empty."""
    if not F.elems:
        return FiniteSet(())
    M = F.max_elem
    removed = {M - f for f in F.elems}
    return FiniteSet(e for e in range(1, M + 1) if e not in removed)


def vandermonde(F: FiniteSet):
    """Product of pairwise differences (f_j - f_i), i < j; 1 for card <= 1."""
    out = rat(1)
    elems = F.elems
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            out *= elems[j] - elems[i]
    return out


def s_number(F: FiniteSet) -> int:
    """First index where the set departs from 1,2,3,...; card+1 if it never does."""
    if not F.elems:
        return 1
    for s, f in enumerate(F.elems, start=1):
        if s < f:
            return s
    return F.card + 1


def lowered(F: FiniteSet) -> FiniteSet:
    """Drop the leading consecutive run and translate the tail down."""
    s = s_number(F)
    if s > F.card:
        return FiniteSet(())
    return FiniteSet(f - s for f in F.elems[s - 1 :])


def charlier_admissible(F: FiniteSet) -> bool:
    """True when every maximal consecutive block of F has even length."""
    return all(b % 2 == 0 for b in F.blocks())


class PairSpec:
    """Ordered pair of finite sets, at least one nonempty.

    The degenerate both-empty pair denotes the classical (non-exceptional)
    system; it can arise from lowering/descent and is built with
    :meth:`trivial`, but the public constructor rejects it.
    """

    __slots__ = ("F1", "F2")

    def __init__(self, F1, F2):
        F1 = F1 if isinstance(F1, FiniteSet) else FiniteSet(F1)
        F2 = F2 if isinstance(F2, FiniteSet) else FiniteSet(F2)
        if not F1.elems and not F2.elems:
            raise ParameterError("at least one of the two sets must be nonempty")
        self.F1 = F1
        self.F2 = F2

    @classmethod
    def trivial(cls) -> "PairSpec":
        p = object.__new__(cls)
        p.F1 = FiniteSet(())
        p.F2 = FiniteSet(())
        return p

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

    @property
    def s(self) -> int:
        return s_number(self.F1)

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

    def down(self) -> tuple[int, "PairSpec"]:
        """Lowering step: (s, pair with F1 replaced by its lowered set)."""
        low = lowered(self.F1)
        if not low.elems and not self.F2.elems:
            return self.s, PairSpec.trivial()
        return self.s, PairSpec(low, self.F2)

    def remove_f2_max(self) -> tuple[int, "PairSpec"]:
        """Darboux descent step: (dropped element, pair without max of F2)."""
        if not self.F2.elems:
            raise DomainError("descent needs a nonempty second set")
        f = self.F2.max_elem
        rest = FiniteSet(e for e in self.F2 if e != f)
        if not self.F1.elems and not rest.elems:
            return f, PairSpec.trivial()
        return f, PairSpec(self.F1, rest)


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
