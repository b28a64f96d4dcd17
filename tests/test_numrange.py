"""Numerical range sampling and real curve sampling."""

import math

import numpy as np
import pytest

from hyprep import (ShiftMatrix, boundary_sample, curve_sample, range_equal,
                    support)
from hyprep.forward import forward_matching
from tests.conftest import random_shift


def test_support_single_weight():
    a = 1.8
    h, _ = support(ShiftMatrix([a, 0.0, 0.0]), 0.0)
    assert h == pytest.approx(a / 2)     # top eigenvalue of the 2x2 corner block


def test_support_zero_matrix():
    for theta in (0.0, 1.0, 2.5):
        h, pt = support(ShiftMatrix([0.0, 0.0, 0.0]), theta)
        assert h == 0.0 and pt == (0.0, 0.0)


def test_support_touch_point_consistency(quartic_shift):
    sample = boundary_sample(quartic_shift, 64)
    for theta, h, (x, y) in zip(sample.angles, sample.support, sample.points):
        assert abs(x * math.cos(theta) + y * math.sin(theta) - h) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_boundary_sample_matches_per_angle_reference(n):
    rng = np.random.default_rng(4100 + n)
    W = random_shift(rng, n)
    A = W.matrix()
    s = boundary_sample(W, 96)
    ReA, ImA = (A + A.conj().T) / 2, (A - A.conj().T) / 2j
    tol = 1e-14 * max(1.0, max(W.moduli()))
    for k, theta in enumerate(s.angles):
        top = np.linalg.eigh(math.cos(theta) * ReA + math.sin(theta) * ImA)[0][-1]
        x, y = s.points[k]
        assert abs(s.support[k] - top) <= tol
        assert abs(x * math.cos(theta) + y * math.sin(theta) - s.support[k]) <= tol
        assert support(W, theta) == (s.support[k], s.points[k])


def test_unitary_gauge_preserves_range(quartic_shift, quartic_shift_phased):
    assert range_equal(quartic_shift, quartic_shift_phased, 180, 1e-9)


def test_different_ranges_detected(quartic_shift):
    other = ShiftMatrix([4.0, 4.0, 6.0, 5.0])
    assert not range_equal(quartic_shift, other, 64, 1e-9)


def test_real_weights_give_mirror_symmetric_sample(quartic_shift):
    m = 90
    s = boundary_sample(quartic_shift, m)
    for k in range(m):
        assert abs(s.support[k] - s.support[(m - k) % m]) < 1e-9


def test_support_function_is_convex(quintic_shift):
    m = 360
    s = boundary_sample(quintic_shift, m)
    h = s.support
    step = 2 * math.pi / m
    # discrete support function inequality on consecutive angle triples
    for k in range(m):
        h1, h2, h3 = h[(k - 1) % m], h[k], h[(k + 1) % m]
        assert h2 * math.sin(2 * step) <= (h1 + h3) * math.sin(step) + 1e-9


def test_hull_contains_eigenvalues(quintic_shift):
    s = boundary_sample(quintic_shift, 360)
    eigs = np.linalg.eigvals(quintic_shift.matrix())
    for lam in eigs:
        for theta, h in zip(s.angles, s.support):
            assert lam.real * math.cos(theta) + lam.imag * math.sin(theta) <= h + 1e-9


def test_curve_sample_residuals(quartic_form):
    pts = curve_sample(quartic_form, 360)
    f = quartic_form.expand()
    worst = max(abs(f.evaluate(1.0, complex(x, y), complex(x, -y))) for x, y in pts)
    assert worst < 1e-8


def test_curve_sample_rotation_symmetry():
    rng = np.random.default_rng(83)
    form = forward_matching(random_shift(rng, 5))
    pts = curve_sample(form, 400)
    c, s = math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)
    for x, y in pts[:80]:
        rx, ry = c * x - s * y, s * x + c * y
        nearest = min(math.hypot(rx - a, ry - b) for a, b in pts)
        assert nearest < 1e-8


def test_curve_sample_point_count_per_angle(quintic_form):
    m = 64
    pts = curve_sample(quintic_form, m)
    assert len(pts) <= m * quintic_form.n


def test_curve_radii_are_reciprocal_roots(quintic_form):
    # along each ray the radius polynomial is the reversal of the pencil
    # restriction, so every sampled radius is bounded by the largest
    # reciprocal of a nonzero restriction root
    p = quintic_form.univariate()
    s = quintic_form.s
    alpha = math.atan2(quintic_form.ct0, quintic_form.c0)
    bound = 0.0
    for k in range(720):
        theta = 2 * math.pi * k / 720
        coeffs = list(p)
        coeffs[-1] += s * math.cos(alpha - quintic_form.n * theta)
        roots = np.roots(coeffs)
        roots = roots[np.abs(roots) > 1e-12]
        bound = max(bound, float(np.max(1.0 / np.abs(roots))))
    pts = curve_sample(quintic_form, 720)
    worst = max(math.hypot(x, y) for x, y in pts)
    assert worst <= bound * (1 + 1e-9)


def test_csv_and_svg_writers(tmp_path, quartic_shift, quartic_form):
    from hyprep.numrange import write_boundary_csv, write_curve_csv, write_svg
    s = boundary_sample(quartic_shift, 16)
    csv_path = tmp_path / "range.csv"
    write_boundary_csv(s, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta,h,x,y"
    assert len(lines) == 17

    pts = curve_sample(quartic_form, 32)
    curve_path = tmp_path / "curve.csv"
    write_curve_csv(pts, str(curve_path))
    assert curve_path.read_text().splitlines()[0] == "x,y"

    svg_path = tmp_path / "out.svg"
    write_svg([list(s.points), pts], str(svg_path))
    body = svg_path.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
