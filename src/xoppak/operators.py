"""Difference and differential operators with rational-function coefficients.

A difference operator is a finite sum of coefficients times integer shifts,
(A f)(x) = sum_j a_j(x) f(x+j); a differential operator is a finite sum of
coefficients times derivatives.  Both support exact composition, which is
what the factorization checks need: two operators are equal exactly when
their reduced coefficient maps coincide.
"""
from __future__ import annotations

from math import comb

from .exact import Poly, RatFunc, _coerce_ratfunc, ratfunc_of_sums


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
        return self.coeffs.get(key, RatFunc(Poly.zero()))

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def _binop(self, other, sub: bool):
        if isinstance(other, type(self)):
            out = dict(self.coeffs)
            for k, v in other.coeffs.items():
                out[k] = out.get(k, RatFunc(Poly.zero())) + (-v if sub else v)
            return type(self)(out)
        # a bare scalar/function acts as that multiple of the identity
        v = _coerce_ratfunc(other)
        if v is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        out[0] = out.get(0, RatFunc(Poly.zero())) + (-v if sub else v)
        return type(self)(out)

    def __add__(self, other):
        return self._binop(other, sub=False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, sub=True)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _apply(self, image) -> RatFunc:
        """sum_j a_j * image(j): each numerator times the other denominators,
        over all of them, as one ratfunc_of_sums."""
        dens = [a.den for a in self.coeffs.values()]
        return ratfunc_of_sums(
            [(1, (a.num, image(j), *dens[:i], *dens[i + 1 :]))
             for i, (j, a) in enumerate(self.coeffs.items())],
            [(1, dens)],
        )


class DifferenceOperator(_OperatorBase):
    """sum_j a_j(x) Sh_j with (Sh_j f)(x) = f(x+j)."""

    def apply(self, p: Poly) -> RatFunc:
        return self._apply(p.shift)

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                key = i + j
                term = a * b.shift(i)
                out[key] = out.get(key, RatFunc(Poly.zero())) + term
        return DifferenceOperator(out)

    __matmul__ = compose

    def __repr__(self):
        inner = ", ".join(f"{j}: {c}" for j, c in sorted(self.coeffs.items()))
        return f"DifferenceOperator({{{inner}}})"


class DifferentialOperator(_OperatorBase):
    """sum_i a_i(x) d^i/dx^i."""

    def apply(self, p: Poly) -> RatFunc:
        derivs = [p]
        while len(derivs) <= max(self.coeffs, default=0):
            derivs.append(derivs[-1].derivative())
        return self._apply(derivs.__getitem__)

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                # d^i (b g^(j)) = sum_t C(i,t) b^(i-t) g^(j+t)
                deriv = b
                derivs = [deriv]
                for _ in range(i):
                    deriv = deriv.derivative()
                    derivs.append(deriv)
                for t in range(i + 1):
                    key = j + t
                    term = a * comb(i, t) * derivs[i - t]
                    out[key] = out.get(key, RatFunc(Poly.zero())) + term
        return DifferentialOperator(out)

    __matmul__ = compose

    def __repr__(self):
        inner = ", ".join(f"{i}: {c}" for i, c in sorted(self.coeffs.items()))
        return f"DifferentialOperator({{{inner}}})"
