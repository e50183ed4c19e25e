"""Checks of xoppak's outputs made apart from the program.

Members and Omega values are rebuilt as sympy determinants from the
definitions: the explicit hypergeometric sum for Meixner polynomials (in
the normalization ``a^n/(1-a)^n`` the program documents) and sympy's
generalized Laguerre polynomials.  Norms are summed or integrated with
plain mpmath and compared with the closed forms of the paper.  Operators
are applied with ``fractions.Fraction`` to the emitted JSON alone.

sympy is imported inside the functions that need it, so that it is not
loaded, and does not count toward the peak memory, until the timed part
of a run is over.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath as mp


def degree_offset(f1, f2) -> int:
    """u = sum F1 + sum F2 - C(k1 + 1, 2) - C(k2, 2)."""
    return sum(f1) + sum(f2) - comb(len(f1) + 1, 2) - comb(len(f2), 2)


# -- sympy determinants --------------------------------------------------------


def _binom(y, j):
    import sympy as sp

    out = sp.Integer(1)
    for i in range(j):
        out *= y - i
    return out / sp.factorial(j)


def _meixner(n, a, c, y):
    if n < 0:
        return 0
    return (a / (1 - a)) ** n * sum(
        a ** (-j) * _binom(y, j) * _binom(-y - c, n - j) for j in range(n + 1)
    )


def _laguerre(n, alpha, y):
    import sympy as sp

    return sp.assoc_laguerre(n, alpha, y) if n >= 0 else sp.Integer(0)


def _block(kind, f1, f2, params, y, cols):
    """Rows of the defining determinant for F1 then F2, columns 0..cols-1."""
    import sympy as sp

    if kind == "meixner":
        a, c = params
        return [[_meixner(f, a, c, y + j) for j in range(cols)] for f in f1] + [
            [_meixner(f, 1 / a, c, y + j) * a ** (-j) for j in range(cols)] for f in f2
        ]
    (alpha,) = params
    return [[sp.diff(_laguerre(f, alpha, y), y, j) for j in range(cols)] for f in f1] + [
        [_laguerre(f, alpha + j, -y) for j in range(cols)] for f in f2
    ]


def _rationals(params):
    import sympy as sp

    return tuple(sp.Rational(str(v)) for v in params)


def member_by_determinant(kind, f1, f2, params, n):
    """Coefficients (lowest first) of the degree-n member as a sympy
    Casorati (meixner) or Wronskian (laguerre) determinant."""
    import sympy as sp

    x = sp.Symbol("x")
    params = _rationals(params)
    k = len(f1) + len(f2)
    m = n - degree_offset(f1, f2)
    if kind == "meixner":
        top = [_meixner(m, *params, x + j) for j in range(k + 1)]
    else:
        top = [sp.diff(_laguerre(m, *params, x), x, j) for j in range(k + 1)]
    rows = [top] + _block(kind, f1, f2, params, x, k + 1)
    det = sp.Poly(sp.expand(sp.Matrix(rows).det(method="berkowitz")), x)
    return [Fraction(int(q.p), int(q.q)) for q in reversed(det.all_coeffs())]


def omega_at(kind, f1, f2, params, point) -> Fraction:
    """Exact value of Omega at a rational point, as a sympy determinant."""
    import sympy as sp

    y = sp.Symbol("y")
    params = _rationals(params)
    k = len(f1) + len(f2)
    entries = sp.Matrix(_block(kind, f1, f2, params, y, k))
    value = sp.Rational(entries.subs(y, sp.Rational(str(point))).det())
    return Fraction(int(value.p), int(value.q))


# -- norms -----------------------------------------------------------------------


def _coeffs(strings):
    return [Fraction(s) for s in strings]


def _mpf(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def _mpeval(coeffs, t):
    return mp.polyval([_mpf(q) for q in reversed(coeffs)], t)


def meixner_norm_error(payload, r) -> float:
    """Relative gap between the sum over x >= 0 of m_r(x)^2 times the
    weight a^x Gamma(x+c+k) / (x! Omega(x) Omega(x+1)), summed term by term,
    and the closed form of the paper."""
    f1, f2 = payload["f1"], payload["f2"]
    u, k1, k = payload["u"], len(f1), len(f1) + len(f2)
    member = next(_coeffs(m["coeffs"]) for m in payload["members"] if m["n"] == r)
    omega = _coeffs(payload["omega"])
    with mp.workdps(40):
        a, c = _mpf(payload["a"]), _mpf(payload["c"])
        total, x = mp.mpf(0), 0
        while True:
            term = (_mpeval(member, x) ** 2 * a**x * mp.gamma(x + c + k)
                    / (mp.factorial(x) * _mpeval(omega, x) * _mpeval(omega, x + 1)))
            total += term
            if x > 50 and abs(term) < abs(total) * mp.mpf(10) ** -36:
                break
            x += 1
        d = r - u
        prefactor = mp.mpf(1)
        for f in f1:
            prefactor *= d - f
        for f in f2:
            prefactor *= d + c + f
        closed = (a ** (k1 - 2 * k) * (1 - a) ** (-(c + 2 * r - 2 * u - k)) * prefactor
                  * mp.gamma(d + c) * a**d / mp.factorial(d))
        return float(abs(total / closed - 1))


def laguerre_norm_error(payload, r) -> float:
    """Relative gap between the integral over (0, inf) of L_r(x)^2 times the
    weight x^(alpha+k) e^-x / Omega(x)^2, by mpmath quadrature, and the
    closed form pi(d) Gamma(d+alpha+1) / d! of the paper, d = r - u."""
    f1, f2 = payload["f1"], payload["f2"]
    k = len(f1) + len(f2)
    member = next(_coeffs(m["coeffs"]) for m in payload["members"] if m["n"] == r)
    omega = _coeffs(payload["omega"])
    with mp.workdps(40):
        alpha = _mpf(payload["alpha"])
        value = mp.quad(
            lambda t: _mpeval(member, t) ** 2 * t ** (alpha + k) * mp.exp(-t)
            / _mpeval(omega, t) ** 2,
            [0, 1, mp.inf],
        )
        d = r - payload["u"]
        prefactor = mp.mpf(1)
        for f in f1:
            prefactor *= d - f
        for f in f2:
            prefactor *= d + alpha + f + 1
        closed = prefactor * mp.gamma(d + alpha + 1) / mp.factorial(d)
        return float(abs(value / closed - 1))


# -- operators on the emitted JSON ---------------------------------------------------


def _eval(coeffs, t):
    out = Fraction(0)
    for q in reversed(coeffs):
        out = out * t + q
    return out


def _derivative(coeffs):
    return [i * q for i, q in enumerate(coeffs)][1:]


MEIXNER_POINTS = tuple(Fraction(v) for v in range(8))
LAGUERRE_POINTS = (Fraction(1, 3), Fraction(5, 2), Fraction(-7, 4), Fraction(11, 3), Fraction(13, 7))


def construct_problems(payload) -> list:
    """Properties every `xoppak construct` report must have.

    deg Omega = u + k1; each included member has its degree; and the
    emitted operator maps member n to n times it (meixner, a difference
    operator checked at integer points) or to -n times it (laguerre, a
    differential operator checked at rational points).
    """
    problems = []
    label = f"{payload['kind']} F1={payload['f1']} F2={payload['f2']}"
    f1, f2 = payload["f1"], payload["f2"]
    u = degree_offset(f1, f2)
    omega = _coeffs(payload["omega"])
    if payload["u"] != u or len(omega) - 1 != u + len(f1):
        problems.append(f"{label}: deg Omega {len(omega) - 1}, u {payload['u']}; "
                        f"expected u={u} and deg Omega={u + len(f1)}")
    terms = {int(j): (_coeffs(t["num"]), _coeffs(t["den"]))
             for j, t in payload["operator"]["terms"].items()}
    meixner = payload["kind"] == "meixner"
    points = MEIXNER_POINTS if meixner else LAGUERRE_POINTS
    usable = [t for t in points if all(_eval(den, t) != 0 for _, den in terms.values())]
    if len(usable) < 3:
        problems.append(f"{label}: fewer than 3 points off the poles of the operator")
    for member in payload["members"]:
        if not member["included"]:
            continue
        n, p = member["n"], _coeffs(member["coeffs"])
        if len(p) - 1 != n:
            problems.append(f"{label}: member {n} has degree {len(p) - 1}")
            continue
        derivs = [p, _derivative(p), _derivative(_derivative(p))]
        for t in usable:
            if meixner:
                got = sum(_eval(num, t) / _eval(den, t) * _eval(p, t + j)
                          for j, (num, den) in terms.items())
                want = n * _eval(p, t)
            else:
                got = sum(_eval(num, t) / _eval(den, t) * _eval(derivs[i], t)
                          for i, (num, den) in terms.items())
                want = -n * _eval(p, t)
            if got != want:
                problems.append(f"{label}: operator on member {n} at x={t} gives {got}, "
                                f"expected {want}")
    return problems
