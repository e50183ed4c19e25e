"""The family core both kinds share (`Family`: the block's top-row minors,
Omega, Omega's root cells and the member memo), and exact squared norms along
a Darboux chain down to the classical family.

A first order step takes a family to a lower one without an element f of F1
or F2; each kind builds it with `step(fam, set_name, f)`.  Its operator A
takes the lower member m_s, s = n - u + u_low, to the member m_n above, so
the degree d = n - u is the same at every step.  B solves
B A = op_low + C with a constant shift C (`down_operator`), and the adjoint
A* of A between the two weights (`adjoint`) is kappa B.  Then

    <m_n, m_n> = <A m_s, A m_s> = <m_s, A* A m_s>_low
               = kappa (lambda_s + C) <m_s, m_s>_low,

with lambda_s the eigenvalue of m_s under op_low.  This is Crum's argument
for Wronskians (Gomez-Ullate, Kamran & Milson, J. Phys. A 43 (2010) 434016)
and its Casoratian analogue (Duran, arXiv:1310.4658).  A chain of steps down
to (empty; empty) gives the squared norm as the product of its step factors
kappa (lambda_s + C) times the classical norm at degree d.  The closed form
is right when that product equals `norm_quotient`, the closed form over the
classical one, which is a rational.  Everything is exact.

The argument needs every weight along the chain to be defined and every
boundary term to vanish (`weight_refusal`, `boundary_refusal`).  The order of
the steps is free, so `find_route` tries the orders until one meets them.

The coefficients a step keeps, of B, rest and A*, are each reduced once
(ratfunc_of_quotients in the kinds' `down_operator` and `adjoint`).  The
identities that are only compared are zero tests on cleared numerators, with
no gcd: A m_s = m_n (`lifts`) and A* = kappa B (`_ratio`, kappa read from the
leading coefficients).
"""
from __future__ import annotations

from functools import cached_property

from .exact import (
    AdmissibilityRefusal,
    DomainError,
    RatFunc,
    nonneg_root_cells,
    rat,
    sum_of_products,
    top_row_minors,
)
from .pairs import is_admissible


class Family:
    """An exceptional family's core for one parameter set and one pair.

    rows, the kind's block of k classical rows and k+1 columns, gives its k+1
    top-row minors once: each member is the kind's top row against them
    (`_member`), and the last is, up to sign, Omega (columns 0..k-1).
    """

    def __init__(self, params, pair, rows):
        self.params = params
        self.pair = pair
        self._minors = top_row_minors(rows)
        self.omega = -self._minors[-1] if pair.k % 2 else self._minors[-1]
        self._members = {}
        self._op_terms = None  # the kind's _operator_terms, once needed
        self._steps = {}  # (set, element) -> its first order step

    def __repr__(self):
        return f"{type(self).__name__}({self.params!r}, {self.pair!r})"

    @cached_property
    def omega_cells(self) -> list:
        """Omega's root cells on [0, inf) (nonneg_root_cells), isolated once,
        when first read: Omega's zeros there and the weight's signs are
        decided from them.  Raises on Omega = 0."""
        return nonneg_root_cells(self.omega)

    def _member(self, n: int, top):
        """Member n, kept once built: the top row top(n - u, k + 1) against
        the minors; the zero polynomial off the index set."""
        if n < 0:
            raise DomainError(f"family members need a nonnegative degree, got {n}")
        got = self._members.get(n)
        if got is None:
            row = top(n - self.pair.u, len(self._minors))
            got = self._members[n] = sum_of_products(
                [(1, (t, minor)) for t, minor in zip(row, self._minors)])
        return got

    def _refuse_unless_admissible(self, name: str, offset) -> None:
        """Refuse unless parameter name + offset (a kind's ADMISSIBILITY) is admissible."""
        value = getattr(self.params, name)
        if not is_admissible(value + offset, self.pair):
            raise AdmissibilityRefusal(
                f"a positive weight needs an admissible {name}; {name}={value} is not "
                f"admissible for {self.pair!r}")


class Step:
    """One first order step from fam down to low, which lacks f of set_name.

    A takes low's members to fam's.  down, (B, rest) with B A = op_low + rest,
    is solved when first read; A_star, the adjoint of A, is set by
    `find_route` once low's weight is defined.
    """

    __slots__ = ("set_name", "f", "fam", "low", "A", "A_star", "_solve", "_down")

    def __init__(self, set_name, f, fam, low, A, solve):
        self.set_name = set_name
        self.f = f
        self.fam = fam
        self.low = low
        self.A = A
        self.A_star = None
        self._solve = solve
        self._down = None

    @property
    def down(self):
        if self._down is None:
            self._down = self._solve()
        return self._down


class ChainNorm:
    """The chain's verdict on the squared norm of member n.

    steps holds, per step: set, f, kappa, shift, factor (None where the
    step's identities give no constant) and holds (A m_s = m_n and m_s is an
    eigenfunction of op_low).  product is None when a factor is.
    """

    __slots__ = ("n", "base_degree", "steps", "product", "quotient", "ok")

    def __init__(self, n, base_degree, steps, product, quotient):
        self.n = n
        self.base_degree = base_degree
        self.steps = steps
        self.product = product
        self.quotient = quotient
        self.ok = product == quotient and all(step["holds"] for step in steps)


def _constant(r: RatFunc):
    """The rational r is, or None when r is not a constant."""
    return r.num.coeff(0) if r.num.degree <= 0 and r.den.degree == 0 else None


def _ratio(P, Q):
    """The constant kappa with P = kappa Q, or None.

    kappa is read from the leading coefficients of one key's numerators and
    checked at every key by one zero test, P_num Q_den - kappa Q_num P_den."""
    if set(P.coeffs) != set(Q.coeffs) or not P.coeffs:
        return None
    pairs = [(p, Q.coeffs[key]) for key, p in P.coeffs.items()]
    kappa = pairs[0][0].num.leading / pairs[0][1].num.leading
    same = all(sum_of_products([(1, (p.num, q.den)), (-kappa, (q.num, p.den))]).is_zero
               for p, q in pairs)
    return kappa if same else None


def _candidates(mod, fam):
    # F1 from its largest element down, then max(F2); each built when tried
    for set_name, elems in (("F1", fam.pair.F1.elems[::-1]), ("F2", fam.pair.F2.elems[-1:])):
        for f in elems:
            yield mod.step(fam, set_name, f)


def find_route(mod, fam):
    """(steps from fam down to the classical family, None), every step
    meeting its premises, or (None, why no order does)."""
    why = mod.weight_refusal(fam)
    if why is not None:
        return None, why
    if fam.pair.is_trivial:
        return None, "the classical family has no step; its norm is the textbook one"
    reasons, dead = [], set()

    def walk(up):
        if up.pair.is_trivial:
            return []
        if up.pair in dead:
            return None
        for step in _candidates(mod, up):
            why = mod.weight_refusal(step.low)
            if why is None:
                step.A_star = mod.adjoint(step.A, up, step.low)
                why = mod.boundary_refusal(step.A_star, up, step.low)
            if why is not None:
                if why not in reasons:
                    reasons.append(why)
                continue
            rest = walk(step.low)
            if rest is not None:
                return [step] + rest
        dead.add(up.pair)
        return None

    route = walk(fam)
    if route is None:
        return None, "no step order to the classical family meets its premises: " + "; ".join(
            reasons)
    return route, None


def step_constants(step):
    """(kappa, shift) of one step: A* = kappa B and B A = op_low + shift for
    the step's B; either is None when no constant does."""
    B, rest = step.down
    return _ratio(step.A_star, B), _constant(rest)


def lifts(step, n):
    """Whether the step's A takes low's member s = n - u + u_low to fam's
    member n; below degree 0 member n must vanish."""
    fam, low = step.fam, step.low
    s = n - fam.pair.u + low.pair.u
    if s < 0:
        return fam.member(n).is_zero
    return step.A.sends(low.member(s), fam.member(n))


def norms(mod, fam, ns):
    """(ChainNorm per degree of ns, None), or (None, why no chain applies).

    norm_quotient refuses a weight that is not positive first, as the
    numeric norms do.
    """
    quotients = [mod.norm_quotient(n, fam) for n in ns]
    route, why = find_route(mod, fam)
    if route is None:
        return None, why
    sign = mod.OPERATOR_PAYLOAD[1]  # op m_s = sign * s * m_s
    constants = [step_constants(step) for step in route]
    out = []
    for n, quotient in zip(ns, quotients):
        d = n - fam.pair.u
        steps, product = [], rat(1)
        for step, (kappa, shift) in zip(route, constants):
            s = d + step.low.pair.u
            holds = lifts(step, d + step.fam.pair.u) and mod.eigen_residual(s, step.low).is_zero
            factor = None
            if kappa is not None and shift is not None:
                factor = kappa * (sign * s + shift)
            product = None if product is None or factor is None else product * factor
            steps.append({"set": step.set_name, "f": step.f, "kappa": kappa, "shift": shift,
                          "factor": factor, "holds": holds})
        out.append(ChainNorm(n, d, steps, product, quotient))
    return out, None
