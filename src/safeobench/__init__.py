"""Safe-optimization toolkit and benchmark harness.

Converts box-constrained black-box problems into safe optimization
problems (noisy oracle, percentile safety threshold, evaluation and
safety budgets, initial safe seeds) and benchmarks six optimizers on
them: SafeOpt, Safe-UCB, their Lipschitz-free modifications, a
violation-avoidance EA, and a safety-blind (mu+lambda)-ES baseline.
"""

__version__ = "0.1.0"

from .problems import Objective, Scenario, make_objective
from .safeop import (
    Grid,
    Observation,
    Oracle,
    SafeOpProblem,
    discretize,
    estimate_lipschitz,
    percentile_threshold,
    sample_safe_seeds,
)

__all__ = [
    "__version__",
    "Objective",
    "Scenario",
    "make_objective",
    "Grid",
    "Observation",
    "Oracle",
    "SafeOpProblem",
    "discretize",
    "estimate_lipschitz",
    "percentile_threshold",
    "sample_safe_seeds",
]
