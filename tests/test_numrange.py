"""Numerical range sampling and real curve sampling."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from hyprep import InvariantForm, ShiftMatrix, boundary_sample, curve_sample, range_equal
from hyprep.errors import DegenerateInput
from hyprep.forward import forward_matching
from hyprep.config import CLUSTER_RADIUS, TOL_ROOT
from hyprep.hyperbolicity import _root_profiles, cluster_roots
from tests.conftest import random_shift
from tests.test_construct import singular_form


def test_support_single_weight():
    a = 1.8
    s = boundary_sample(ShiftMatrix([a, 0.0, 0.0]), 8)
    assert s.angles[0] == 0.0
    assert s.support[0] == pytest.approx(a / 2)     # top eigenvalue of the 2x2 corner block


def test_support_zero_matrix():
    s = boundary_sample(ShiftMatrix([0.0, 0.0, 0.0]), 8)
    assert set(s.support) == {0.0} and set(s.points) == {(0.0, 0.0)}


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


def test_unitary_gauge_preserves_range(quartic_shift, quartic_shift_phased):
    assert range_equal(quartic_shift, quartic_shift_phased, 180)


def test_different_ranges_detected(quartic_shift):
    other = ShiftMatrix([4.0, 4.0, 6.0, 5.0])
    assert not range_equal(quartic_shift, other, 64)


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


GOLDEN_CURVES = pathlib.Path(__file__).with_name("curve_golden.json")


@pytest.mark.parametrize("case", json.loads(GOLDEN_CURVES.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_curve_sample_golden(case, quartic_form, quintic_form):
    # sha256 of repr(curve_sample(form, 720)), so that any change to the
    # arithmetic of the root solver shows; the input is the forward image of
    # a seeded shift, or one of the two worked examples
    form = _golden_form(case, quartic_form, quintic_form)
    digest = hashlib.sha256(repr(curve_sample(form, 720)).encode()).hexdigest()
    assert digest == case["sha256"]


def _golden_form(case, quartic_form, quintic_form):
    if case["kind"] == "forward":
        return forward_matching(random_shift(np.random.default_rng(case["seed"]), case["n"]))
    return {"quartic": quartic_form, "quintic": quintic_form}[case["kind"]]


def _complex_companion_rays(form, m):
    """(theta, real roots) of each ray that is not constant, solved as the
    golden sums were first recorded: a complex companion matrix per ray."""
    rays = []
    for k in range(m):
        theta = 2 * math.pi * k / m
        coeffs = np.asarray(_ray_coeffs(form, theta), dtype=complex)
        size = np.abs(coeffs)
        if size[:-1].max() == 0.0:
            continue
        raw = np.roots(coeffs[np.argmax(size > 1e-14 * size.max()):])
        rays.append((theta, [(z.real, mult) for z, mult in cluster_roots(raw, CLUSTER_RADIUS)
                             if abs(z.imag) <= TOL_ROOT * (1.0 + abs(z))]))
    return rays


@pytest.mark.parametrize("case", json.loads(GOLDEN_CURVES.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_curve_sample_golden_stays_near_the_complex_companion_solve(
        case, quartic_form, quintic_form):
    # the golden sums were recorded again when real rows got real companion
    # matrices; against the complex solve they replaced (its sums are kept as
    # complex_sha256), every ray keeps its point count and every point moves
    # by at most 1e-9 of its radius
    form = _golden_form(case, quartic_form, quintic_form)
    old = _complex_companion_rays(form, 720)
    digest = hashlib.sha256(repr(_per_angle_points(old)).encode()).hexdigest()
    assert digest == case["complex_sha256"]
    assert [len(roots) for _, roots in _per_angle_rays(form, 720)] == \
        [len(roots) for _, roots in old]
    got = np.array(curve_sample(form, 720))
    want = np.array(_per_angle_points(old))
    assert got.shape == want.shape
    assert np.all(np.hypot(*(got - want).T) <= 1e-9 * np.hypot(*want.T))


# -- curve_sample against the per-angle loop it replaced ----------------------
# The reference solves each ray on its own with a one-row _root_profiles, as
# curve_sample did before it batched the rays; the one-row solve is pinned to
# a scalar reference in test_hyperbolicity.  The points must agree in repr,
# element types included.

def _ray_coeffs(form, theta):
    n = form.n
    coeffs = [0.0] * (n + 1)
    coeffs[0] = form.c0 * math.cos(n * theta) + form.ct0 * math.sin(n * theta)
    for r, cr in enumerate(form.c, start=1):
        coeffs[n - 2 * r] += cr
    coeffs[n] = 1.0
    return coeffs


def _per_angle_rays(form, m):
    """(theta, real roots) of each ray that is not constant, one solve per ray."""
    rays = []
    for k in range(m):
        theta = 2 * math.pi * k / m
        coeffs = _ray_coeffs(form, theta)
        if max(abs(c) for c in coeffs[:-1]) == 0.0:
            continue
        rays.append((theta, _root_profiles([coeffs])[0].roots))
    return rays


def _per_angle_points(rays):
    pts = []
    for theta, roots in rays:
        for rho, _ in roots:
            pts.append((rho * math.cos(theta), rho * math.sin(theta)))
    return pts


def _assert_matches_per_angle_reference(form):
    for m in (-1, 0, 1, 8, 33, 720):
        assert repr(curve_sample(form, m)) == repr(_per_angle_points(_per_angle_rays(form, m)))


def _mixed_degree_form(n, seed):
    """A forward image with c0 = -c_{n/2}: the rho^n coefficient
    c0 cos n theta + c_{n/2} vanishes where cos n theta = 1, so those rows
    strip to a lower degree than the rest."""
    form = forward_matching(random_shift(np.random.default_rng(seed), n))
    return InvariantForm(n, form.c, -form.c[-1], 0.0)


@pytest.mark.parametrize("n", range(3, 25))
def test_curve_sample_matches_per_angle_reference(n):
    _assert_matches_per_angle_reference(
        forward_matching(random_shift(np.random.default_rng(5200 + n), n)))


@pytest.mark.parametrize("kind", ["zero_weight", "equal_moduli", "even_repeated"])
@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_curve_sample_matches_per_angle_reference_on_singular_forms(kind, n):
    # repeated roots along some rays: the close-pair rows take the union-find
    _assert_matches_per_angle_reference(singular_form(kind, n, np.random.default_rng([n, 77])))


@pytest.mark.parametrize("form", [
    InvariantForm(5, [-3.0, 1.5], 0.0, 0.0),    # the rho^5 coefficient is 0 on every ray
    _mixed_degree_form(4, 61),
    _mixed_degree_form(6, 62),
    # (1 - 2 rho^2)^2 where cos 4 theta = 1, distinct roots on every other ray:
    # a batch that mixes close-pair rows with singleton rows
    InvariantForm(4, [-4.0, 2.0], 2.0, 0.0),
], ids=["odd-no-top-pair", "mixed-degree-n4", "mixed-degree-n6", "double-root-rays"])
def test_curve_sample_matches_per_angle_reference_on_special_rows(form):
    _assert_matches_per_angle_reference(form)


@pytest.mark.parametrize("form", [
    InvariantForm(4, [1e-20, 1e-20], 1e-20, 0.0),   # every ray
    InvariantForm(4, [0.0, 0.0], 1.0, 0.0),         # only where cos 4 theta ~ 6e-17
])
def test_curve_sample_raises_as_the_per_angle_loop(form):
    with pytest.raises(DegenerateInput) as expected:
        _per_angle_rays(form, 720)
    with pytest.raises(DegenerateInput) as raised:
        curve_sample(form, 720)
    assert str(raised.value) == str(expected.value) == "polynomial is constant after stripping"


def test_curve_sample_solves_once_per_stripped_degree(monkeypatch):
    form = _mixed_degree_form(6, 62)
    degrees = set()
    for k in range(720):
        coeffs = _ray_coeffs(form, 2 * math.pi * k / 720)
        big = max(abs(c) for c in coeffs)
        degrees.add(len(coeffs) - 1 - next(i for i, c in enumerate(coeffs) if abs(c) > 1e-14 * big))
    assert len(degrees) == 2
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert curve_sample(form, 720)
    assert len(calls) <= len(degrees)
