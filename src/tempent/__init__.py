"""tempent: two-parameter tempered entropy and its verification toolkit.

Modules:
  core      entropy evaluation (generator, entropy, bounds)
  axioms    structural property checks with thresholds and witnesses
  lesche    perturbation families, stability ratios, adversarial search
  fracderiv fractional-derivative quadrature vs. closed form
  cli       the `tempent` command
"""

from .core import (
    DimensionMismatch,
    DomainError,
    EntropyParams,
    NegativeWeight,
    ProbDist,
    SumNotOne,
    TooFewOutcomes,
    entropy,
    generator,
    make_dist,
    max_entropy,
    shannon_entropy,
    ubriaco_entropy,
)
from .axioms import Axiom, AxiomReport, run_axiom_suite, sample_simplex
from .lesche import (
    Family,
    PerturbPair,
    StabilityRecord,
    family_a_pair,
    family_b_pair,
    random_pair_search,
    renyi_entropy,
    stability_ratio,
    sweep,
)
from .fracderiv import (
    FracParams,
    QuadResult,
    ToleranceNotReached,
    closed_form_derivative,
    gamma_fn,
    laplace_singular_quad,
    tempered_derivative_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "DomainError",
    "EntropyParams",
    "NegativeWeight",
    "ProbDist",
    "SumNotOne",
    "TooFewOutcomes",
    "entropy",
    "generator",
    "make_dist",
    "max_entropy",
    "shannon_entropy",
    "ubriaco_entropy",
    "Axiom",
    "AxiomReport",
    "run_axiom_suite",
    "sample_simplex",
    "Family",
    "PerturbPair",
    "StabilityRecord",
    "family_a_pair",
    "family_b_pair",
    "random_pair_search",
    "renyi_entropy",
    "stability_ratio",
    "sweep",
    "FracParams",
    "QuadResult",
    "ToleranceNotReached",
    "closed_form_derivative",
    "gamma_fn",
    "laplace_singular_quad",
    "tempered_derivative_numeric",
    "__version__",
]
