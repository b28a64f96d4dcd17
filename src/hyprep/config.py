"""Run configuration: seed, tolerances and the perturbation schedule."""

import dataclasses
import json


@dataclasses.dataclass(frozen=True)
class Config:
    """Tolerances and knobs shared across the pipeline.

    Defaults are tuned so that each stage leaves roughly a factor of ten
    of headroom for the next one.
    """

    seed: int = 7
    # root engine
    tol_root: float = 1e-8        # |Im| <= tol_root * (1 + |root|) counts as real
    cluster_radius: float = 1e-6  # multiplicity clustering, scaled by (1 + |root|)
    # intersection points
    tol_pt: float = 1e-8          # residual budget, scaled by (1 + coefficient scale)
    tol_sep: float = 1e-6         # pairwise point separation
    # construction stages
    tol_van: float = 1e-7
    tol_noether: float = 1e-8
    tol_pencil: float = 1e-7
    tol_pattern: float = 1e-6
    tol_final: float = 1e-6
    drop_tol: float = 1e-12       # sparse polynomial coefficient cleanup
    # perturbation schedule: eps_k = eps0 * eps_ratio**k
    eps0: float = 1e-1
    eps_ratio: float = 10.0 ** -0.5
    eps_max_steps: int = 12
    conv_tol: float = 1e-5        # successive gauge-data difference
    max_retries: int = 5

    def __post_init__(self):
        for name in ("tol_root", "cluster_radius", "tol_pt", "tol_sep", "tol_van",
                     "tol_noether", "tol_pencil", "tol_pattern", "tol_final",
                     "drop_tol", "eps0", "conv_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.eps_ratio < 1:
            raise ValueError("eps_ratio must lie in (0, 1)")
        if self.eps_max_steps < 1 or self.max_retries < 1:
            raise ValueError("step counts must be at least 1")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "Config":
        with open(path) as fh:
            data = json.load(fh)
        data.update(overrides)
        return cls(**data)


DEFAULT_CONFIG = Config()
