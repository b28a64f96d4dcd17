"""Run configuration (seed and acceptance tolerance) and the fixed tolerances.

The construction is fixed, and its tolerances are not caller choices: they
are tuned so that each stage leaves roughly a factor of ten of headroom for
the next one.  Each module imports the constants it reads.  A caller
chooses only what `Config` holds.
"""

import dataclasses

# root engine
# how far below 0 a critical point in t^2 may lie (it reads 0); a multiple one
# that close to 0 needs no Horner test of the critical-point polynomial
TOL_ROOT = 1e-8
# a conjugate pair with 2 |Im| <= CLUSTER_RADIUS (1 + |root|) is a double real
# root, and real roots that close, scaled by (1 + the larger modulus), merge
CLUSTER_RADIUS = 1e-6
# numerical ranges
TOL_RANGE = 1e-9        # support functions this close mean equal numerical ranges
# construction stages
TOL_VAN = 1e-7
TOL_NOETHER = 1e-8
TOL_PENCIL = 1e-7
TOL_PATTERN = 1e-6
DROP_TOL = 1e-12        # sparse polynomial coefficient cleanup; s below it is zero
MAX_RETRIES = 5         # spectral-route starts; the equal-moduli one runs only below LM_LINE
# spectral route, in units of the equal moduli
LM_STEPS = 100          # Levenberg-Marquardt steps per start
LM_CONVERGED = 1e-10    # residual norm below which a rejected step ends a start
LM_STALL = 1e-3         # above it, a start ends when a step shrinks the residual less
LM_LINE = 1e-3          # the equal-moduli start runs only if its residual is below it


@dataclasses.dataclass(frozen=True)
class Config:
    """The caller's choices: the seed of the spectral route's random
    restarts (the direct route draws nothing at random) and the relative
    coefficient error at which a representation is accepted."""

    seed: int = 7
    tol_final: float = 1e-6

    def __post_init__(self):
        if self.tol_final <= 0:
            raise ValueError("tol_final must be positive")


DEFAULT_CONFIG = Config()
