"""Exception types raised by the pipeline.

Everything numerical derives from HyprepError so callers can distinguish
"the math said no / the solver gave up" from ordinary usage errors.
"""


class HyprepError(Exception):
    """Base class for all pipeline failures."""


class DegenerateInput(HyprepError):
    """All polynomial coefficients below tolerance; no roots to report."""


class NotHyperbolic(HyprepError):
    """Operation requires a hyperbolic input form."""


class HypothesisViolated(HyprepError):
    """An interlacing endpoint polynomial is not real rooted."""


class SolveFailed(HyprepError):
    """Intersection points not found: non-finite circle coefficients, or a
    stored point whose residual is above budget."""


class LeadingZero(HyprepError):
    """Points at infinity requested while both top coefficients vanish."""


class AmbiguousOrbit(HyprepError):
    """A point at infinity with vanishing u, or a circle degenerated to t^2 on an
    odd-degree form: no orbit census; reroute to the spectral route rather than guess."""


class NoVanishingForm(HyprepError):
    """No vanishing form found in an eigenspace where one must exist; point data is corrupt."""


class NoetherResidual(HyprepError):
    """Curve fit or division residual above tolerance."""


class AdjugateMismatch(HyprepError):
    """Fitted linear pencil fails the holdout residual check."""


class PatternViolation(HyprepError):
    """Pencil entries fall outside the cyclic shift sparsity pattern."""


class IndefiniteDiagonal(HyprepError):
    """Pencil diagonal has mixed signs; cannot normalize."""


class NotDihedral(HyprepError):
    """Weight product has a nonreal phase; no real-weight dephasing exists."""


class OracleDisagreement(HyprepError):
    """The two independent forward oracles disagree; indicates an implementation bug."""


class ConvergenceFailed(HyprepError):
    """The spectral route found no representation within the acceptance tolerance."""
