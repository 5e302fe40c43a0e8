"""Monte Carlo simulation on the Stiefel manifold via polar expansion."""

from .expansion import (
    StiefelTarget,
    UnconstrainedTarget,
    check_gradient,
    expand_general,
    expand_macg_posterior,
    polar_vjp,
)
from .hmc import ChainOutput, HmcConfig, leapfrog, run_chains
from .matcore import (
    DegenerateMatrixError,
    IllConditionedError,
    PolarPair,
    SpdMatrix,
    log_multigamma,
    log_polar_jacobian,
    polar_decompose,
    thin_svd,
)

__version__ = "0.1.0"

__all__ = [
    "StiefelTarget",
    "UnconstrainedTarget",
    "check_gradient",
    "expand_general",
    "expand_macg_posterior",
    "polar_vjp",
    "ChainOutput",
    "HmcConfig",
    "leapfrog",
    "run_chains",
    "DegenerateMatrixError",
    "IllConditionedError",
    "PolarPair",
    "SpdMatrix",
    "log_multigamma",
    "log_polar_jacobian",
    "polar_decompose",
    "thin_svd",
    "__version__",
]
