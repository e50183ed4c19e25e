"""Fixtures shared by the test modules."""
import pytest

from xoppak import chain
from xoppak.exact import rat


@pytest.fixture
def perturb_chain(monkeypatch):
    """perturb(mod, what) puts every Darboux chain row of kind module mod off
    by 10^-30 of one ingredient: each step's kappa or shift, the closed-form
    quotient, or the zeroth coefficient of each `darboux_pair`'s A, with B and
    rest solved again from the planted A."""
    eps = rat(1, 10**30)

    def perturb(mod, what):
        if what == "A":
            pair = mod.darboux_pair

            def planted(fam):
                A, *_, low = pair(fam)
                A = type(A)({**A.coeffs, 0: A.coeff(0) * (1 + eps)})
                return (A, *mod.down_operator(A, mod.operator(low)), low)

            monkeypatch.setattr(mod, "darboux_pair", planted)
            return
        if what == "quotient":
            original = mod.norm_quotient
            monkeypatch.setattr(mod, "norm_quotient", lambda n, fam: original(n, fam) * (1 + eps))
            return
        constants = chain.step_constants

        def perturbed(mod, step):
            kappa, shift = constants(mod, step)
            return (kappa * (1 + eps), shift) if what == "kappa" else (kappa, shift + eps)

        monkeypatch.setattr(chain, "step_constants", perturbed)

    return perturb
