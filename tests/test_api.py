"""The package's public surface."""

import os
import pathlib
import subprocess
import sys

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
    "represent", "rotate", "vanishing_form",
    "verify",
]


def test_public_names():
    # a new export is a decision: add it here on purpose
    assert sorted(hyprep.__all__) == PUBLIC_NAMES
    for name in hyprep.__all__:
        assert getattr(hyprep, name) is not None


def test_import_leaves_numpy_random_out():
    # only the spectral route's restarts draw at random, and they make their
    # generator when they first draw: importing the package loads no
    # numpy.random
    src = pathlib.Path(hyprep.__file__).parent.parent
    code = "import sys, hyprep; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "False\n"
