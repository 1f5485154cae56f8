"""Random-sampling experiments around isotropic position.

Library layout, one module per concern:

  symlin     operator norm and inverse square root of symmetric arrays (LAPACK)
  geometry   convex bodies, oracles, John decomposition fixtures
  samplers   seedable uniform and point-mass samplers
  moments    empirical second moments, deviation, whitening
  johnsparse randomized sparsification of John decompositions
  bernoulli  Rademacher rank-one sums and symmetrization
  harness    experiment configs, the grid runner, CSV/JSON output
  cli        the `isotropy` command
"""

from .symlin import operator_norm, inv_sqrt
from .geometry import (
    Body,
    Cube,
    Ball,
    Simplex,
    Ellipsoid,
    HPolytope,
    Truncated,
    JohnDecomposition,
    isotropic_normalization,
    canonical_john,
)
from .samplers import (
    RandomStream,
    SampleBatch,
    sample_hit_and_run,
)
from .moments import (
    DeviationReport,
    empirical_second_moment,
    deviation,
    log_moment,
    concentration_report,
    whiten,
)
from .johnsparse import ApproxJohn, choose_M, sparsify, verify
from .bernoulli import (
    SignedSumReport,
    rademacher_exact,
    bound_ratio,
    symmetrization_check,
)

__version__ = "0.1.0"
