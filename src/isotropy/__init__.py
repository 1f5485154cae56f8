"""Random-sampling experiments around isotropic position.

Library layout, one module per concern:

  symlin     dense symmetric linear algebra (LAPACK spectra, inv sqrt)
  geometry   convex bodies, oracles, John decomposition fixtures
  samplers   seedable uniform and point-mass samplers
  moments    empirical second moments, deviation, whitening
  johnsparse randomized sparsification of John decompositions
  bernoulli  Rademacher rank-one sums and symmetrization
  harness    experiment configs, the grid runner, CSV/JSON output
  cli        the `isotropy` command
"""

from .symlin import (
    SymMatrix,
    EigenDecomposition,
    eigen,
    operator_norm,
    inv_sqrt,
)
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
    epsilon_isotropy_check,
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
