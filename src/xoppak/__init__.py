"""Exceptional Meixner and Laguerre orthogonal polynomial families.

Members come from Casorati or Wronskian determinants over a pair of finite
index sets, with exact rational arithmetic throughout.  Submodules:

- exact: rationals, polynomials, rational functions, Sturm root cells
  (nonneg_root_cells)
- classical: the classical Meixner and Laguerre bases
- pairs: index pairs, the degree set sigma, admissibility
- meixner, laguerre: the exceptional families and their identity checks
- chain: the families' shared core (Family) and the Darboux chain's exact norms
- operators: difference and differential operator algebra
- numerics: certified sums and quadrature on top of mpmath, loaded on the
  first float
- sweep: conjecture sweeps over enumerated pairs
- cli: the xoppak command line tool
"""
from .classical import LaguerreParams, MeixnerParams
from .exact import (
    AdmissibilityRefusal,
    DomainError,
    InternalInconsistencyError,
    ParameterError,
    PoleError,
    Poly,
    RatFunc,
    rat,
)
from .laguerre import LaguerreExcFamily
from .meixner import MeixnerExcFamily
from .pairs import FiniteSet, PairSpec, enumerate_pairs, is_admissible

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityRefusal",
    "DomainError",
    "FiniteSet",
    "InternalInconsistencyError",
    "LaguerreExcFamily",
    "LaguerreParams",
    "MeixnerExcFamily",
    "MeixnerParams",
    "PairSpec",
    "ParameterError",
    "PoleError",
    "Poly",
    "RatFunc",
    "enumerate_pairs",
    "is_admissible",
    "rat",
    "__version__",
]
