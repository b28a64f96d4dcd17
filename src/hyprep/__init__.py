"""Cyclic weighted shift determinantal representations of invariant hyperbolic curves."""

from .config import Config, DEFAULT_CONFIG
from .construct import (HermitianPencil, assemble_form_matrix, extract_shift,
                        noether_division, normalize_pencil, pencil_from_adjugate,
                        represent, vanishing_form)
from .forward import (VerifyReport, forward_interpolate, forward_matching,
                      realize_real, verify)
from .hyperbolicity import (Classification, Kind, classify, interlace_check,
                            is_hyperbolic)
from .intersection import (CircleFactorization, IntersectionSet, Point,
                           circle_factors, circle_intersect,
                           compute_intersections, infinity_points)
from .invariants import (InvariantForm, eigenspace_basis, eigenspace_dim_formula,
                         invariant_dim)
from .numrange import BoundarySample, boundary_sample, curve_sample, range_equal
from .poly import TrivariatePoly, conj_involution, rotate
from .shift import ShiftMatrix

__version__ = "0.1.0"

__all__ = [
    "Config", "DEFAULT_CONFIG",
    "TrivariatePoly", "rotate", "conj_involution",
    "InvariantForm", "eigenspace_basis",
    "eigenspace_dim_formula", "invariant_dim",
    "Classification", "Kind", "is_hyperbolic",
    "classify", "interlace_check",
    "ShiftMatrix",
    "CircleFactorization", "IntersectionSet", "Point", "circle_factors",
    "circle_intersect", "infinity_points", "compute_intersections",
    "HermitianPencil", "vanishing_form", "noether_division",
    "assemble_form_matrix", "pencil_from_adjugate", "normalize_pencil",
    "extract_shift", "represent",
    "VerifyReport", "forward_matching", "forward_interpolate", "verify",
    "realize_real",
    "BoundarySample", "boundary_sample", "range_equal",
    "curve_sample",
    "__version__",
]
