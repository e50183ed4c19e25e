"""Difference and differential operators with rational-function coefficients.

A difference operator is a finite sum of coefficients times integer shifts,
(A f)(x) = sum_j a_j(x) f(x+j); a differential operator is a finite sum of
coefficients times derivatives.  Both support exact composition, which is
what the factorization checks need: two operators are equal exactly when
their reduced coefficient maps coincide.

Each coefficient an operator keeps, of a composition or an application, is
one ratfunc_of_quotients over the cleared numerators of its quotient terms,
reduced once.  An identity that is only compared, A p = q (`sends`) or
A B = C (`compose_equals`), is one quotients_vanish zero test per key, with
no gcd.  The operators' +, -, apply and compose are reached from the
tests only, as their reference arithmetic, and bench/tracing.py names the
spans operators.apply and operators.compose, so they stay.
"""
from __future__ import annotations

from math import comb

from .exact import (
    Poly,
    RatFunc,
    _coerce_ratfunc,
    quotients_vanish,
    rat,
    ratfunc_of_quotients,
    scale_terms,
    sum_of_products,
)

_ZERO = RatFunc(Poly.zero())


def quotient_terms(op_terms) -> dict:
    """{key: quotient terms} of an operator given as numerator term lists
    over one denominator term, the form of a kind's _operator_terms."""
    nums, [(s, dens)] = op_terms
    return {key: [(rat(t) / s, factors, dens) for t, factors in terms]
            for key, terms in nums.items()}


class _OperatorBase:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cleaned = {}
        for key, val in dict(coeffs).items():
            val = _coerce_ratfunc(val)
            if not val.is_zero:
                cleaned[int(key)] = val
        self.coeffs = cleaned

    def coeff(self, key: int) -> RatFunc:
        return self.coeffs.get(key, _ZERO)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def _binop(self, other, sub: bool):
        if isinstance(other, type(self)):
            out = dict(self.coeffs)
            for k, v in other.coeffs.items():
                out[k] = out.get(k, _ZERO) + (-v if sub else v)
            return type(self)(out)
        # a bare scalar/function acts as that multiple of the identity
        v = _coerce_ratfunc(other)
        if v is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        out[0] = out.get(0, _ZERO) + (-v if sub else v)
        return type(self)(out)

    def __add__(self, other):
        return self._binop(other, sub=False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, sub=True)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _terms(self, p: Poly) -> list:
        """sum_j a_j * image_j(p) as quotient terms."""
        image = self._image(p)
        return [(1, (a.num, image(j)), (a.den,)) for j, a in self.coeffs.items()]

    def sends(self, p: Poly, q: Poly) -> bool:
        """Whether this operator takes p to q."""
        return quotients_vanish(self._terms(p) + [(-1, (q,), ())])

    def compose_equals(self, other, terms) -> bool:
        """Whether self composed with other is the operator with the quotient
        terms terms[key] at each key."""
        composed = self._composed(other)
        return all(quotients_vanish(composed.get(key, []) + scale_terms(terms.get(key, []), -1))
                   for key in {*composed, *terms})

    # apply and compose are defined on each class, where bench/tracing.py
    # looks them up by name
    def _compose(self, other):
        return type(self)({key: ratfunc_of_quotients(terms)
                           for key, terms in self._composed(other).items()})


class DifferenceOperator(_OperatorBase):
    """sum_j a_j(x) Sh_j with (Sh_j f)(x) = f(x+j)."""

    def _image(self, p: Poly):
        return p.shift

    def apply(self, p: Poly) -> RatFunc:
        return ratfunc_of_quotients(self._terms(p))

    def _composed(self, other) -> dict:
        """{key: quotient terms} of self composed with other: a_i Sh_i b_j Sh_j
        is a_i b_j(x+i) Sh_(i+j)."""
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                out.setdefault(i + j, []).append(
                    (1, (a.num, b.num.shift(i)), (a.den, b.den.shift(i))))
        return out

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self._compose(other)

    __matmul__ = compose

    def __repr__(self):
        inner = ", ".join(f"{j}: {c}" for j, c in sorted(self.coeffs.items()))
        return f"DifferenceOperator({{{inner}}})"


class DifferentialOperator(_OperatorBase):
    """sum_i a_i(x) d^i/dx^i."""

    def _image(self, p: Poly):
        derivs = [p]
        while len(derivs) <= max(self.coeffs, default=0):
            derivs.append(derivs[-1].derivative())
        return derivs.__getitem__

    def apply(self, p: Poly) -> RatFunc:
        return ratfunc_of_quotients(self._terms(p))

    def _composed(self, other) -> dict:
        """{key: quotient terms} of self composed with other: d^i (b g^(j)) is
        sum_t C(i,t) b^(i-t) g^(j+t), and b = n/e has b^(r) = n_r / e^(r+1)
        with n_(r+1) = n_r' e - (r+1) n_r e'."""
        out = {}
        top = max(self.coeffs, default=0)
        for j, b in other.coeffs.items():
            e, e1 = b.den, b.den.derivative()
            nums = [b.num]
            for r in range(top):
                nums.append(sum_of_products(
                    [(1, (nums[r].derivative(), e)), (-(r + 1), (nums[r], e1))]))
            for i, a in self.coeffs.items():
                for t in range(i + 1):
                    out.setdefault(j + t, []).append(
                        (comb(i, t), (a.num, nums[i - t]), (a.den, *[e] * (i - t + 1))))
        return out

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        return self._compose(other)

    __matmul__ = compose

    def __repr__(self):
        inner = ", ".join(f"{i}: {c}" for i, c in sorted(self.coeffs.items()))
        return f"DifferentialOperator({{{inner}}})"
