"""Fixtures shared by the test modules."""
import pytest

from xoppak import chain
from xoppak.exact import rat


@pytest.fixture
def perturb_chain(monkeypatch):
    """perturb(mod, what) puts every Darboux chain row of kind module mod off
    by 10^-30 of one ingredient: each step's kappa or shift, the closed-form
    quotient, or the zeroth coefficient of the A of every step that the kind's
    `step` builds, with B and rest solved from the planted A."""
    eps = rat(1, 10**30)

    def perturb(mod, what):
        if what == "A":
            build = mod.step

            def planted(fam, set_name, f):
                step = build(fam, set_name, f)
                A, low = step.A, step.low
                A = type(A)({**A.coeffs, 0: A.coeff(0) * (1 + eps)})
                return chain.Step(set_name, f, fam, low, A,
                                  lambda: mod.down_operator(A, low))

            monkeypatch.setattr(mod, "step", planted)
            return
        if what == "quotient":
            original = mod.norm_quotient
            monkeypatch.setattr(mod, "norm_quotient", lambda n, fam: original(n, fam) * (1 + eps))
            return
        constants = chain.step_constants

        def perturbed(step):
            kappa, shift = constants(step)
            return (kappa * (1 + eps), shift) if what == "kappa" else (kappa, shift + eps)

        monkeypatch.setattr(chain, "step_constants", perturbed)

    return perturb
