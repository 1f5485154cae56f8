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

__version__ = "0.1.0"
