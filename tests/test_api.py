"""The package's public surface."""

import hyprep

PUBLIC_NAMES = [
    "BoundarySample", "CircleFactorization", "Classification", "Config",
    "DEFAULT_CONFIG", "HermitianPencil", "IntersectionSet",
    "InvariantForm", "Kind", "Point",
    "ShiftMatrix", "TrivariatePoly", "VerifyReport", "__version__",
    "assemble_form_matrix", "boundary_sample", "circle_factors",
    "circle_intersect", "classify", "compute_intersections",
    "conj_involution", "curve_sample", "eigenspace_basis",
    "eigenspace_dim_formula", "extract_shift", "forward_interpolate",
    "forward_matching", "infinity_points", "interlace_check", "invariant_dim",
    "is_hyperbolic", "noether_division", "normalize_pencil",
    "pencil_from_adjugate", "range_equal", "realize_real",
    "represent", "rotate", "split_conjugate", "vanishing_form",
    "verify",
]


def test_public_names():
    # a new export is a decision: add it here on purpose
    assert sorted(hyprep.__all__) == PUBLIC_NAMES
    for name in hyprep.__all__:
        assert getattr(hyprep, name) is not None
