"""Numerical range sampling and real curve sampling."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from hyprep import (InvariantForm, ShiftMatrix, boundary_sample, curve_sample, numrange,
                    range_equal)
from hyprep.numrange import samples_agree
from hyprep.errors import DegenerateInput
from hyprep.forward import forward_matching
from hyprep.config import CLUSTER_RADIUS, TOL_ROOT
from hyprep.hyperbolicity import _root_profiles, cluster_roots
from hyprep.shift import hermitian_slices
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


@pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [1.8, 0.0, 0.0], [0.0, 2.0, 1.0 - 1.0j, 3.0]])
@pytest.mark.parametrize("m", [8, 9, 720])
def test_supports_of_a_shift_with_a_zero_weight_are_not_negative_zeros(weights, m):
    # a shift has trace 0, so 0 lies in its range and every support value is
    # at least +0.0; an exact zero, negated at theta + pi or taken from a
    # slice of -0 entries, must come out as +0.0
    s = boundary_sample(ShiftMatrix(weights), m)
    assert all(math.copysign(1.0, h) == 1.0 for h in s.support)


def test_support_touch_point_consistency(quartic_shift):
    sample = boundary_sample(quartic_shift, 64)
    for theta, h, (x, y) in zip(sample.angles, sample.support, sample.points):
        assert abs(x * math.cos(theta) + y * math.sin(theta) - h) < 1e-9


@pytest.mark.parametrize("n", range(3, 25))
def test_boundary_sample_matches_per_angle_reference(n):
    # for even m the second half of the grid is read off the bottom eigenpairs
    # of the first: its supports and touch-point lines stay within 1e-14 of
    # an eigvalsh of H(theta) at the angle itself
    rng = np.random.default_rng(4100 + n)
    W = random_shift(rng, n)
    A = W.matrix()
    ReA, ImA = (A + A.conj().T) / 2, (A - A.conj().T) / 2j
    tol = 1e-14 * max(1.0, max(W.moduli()))
    for m in (8, 64, 720, 33, 721):
        s = boundary_sample(W, m)
        assert s.angles == tuple(2 * math.pi * k / m for k in range(m))
        for k, theta in enumerate(s.angles):
            top = np.linalg.eigvalsh(math.cos(theta) * ReA + math.sin(theta) * ImA)[-1]
            x, y = s.points[k]
            assert abs(s.support[k] - top) <= tol
            assert abs(x * math.cos(theta) + y * math.sin(theta) - top) <= tol


def _counting_eigh(monkeypatch):
    """Patch np.linalg.eigh to record how many slices each call gets."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.mark.parametrize("m", [8, 64, 720, 9, 33, 721])
def test_boundary_sample_solves_one_slice_per_half_turn(monkeypatch, m):
    # H(theta + pi) = -H(theta): for even m one eigh of m / 2 slices serves
    # the whole grid, for odd m one of m slices
    W = random_shift(np.random.default_rng(4300), 6)
    calls = _counting_eigh(monkeypatch)
    assert len(boundary_sample(W, m).support) == m
    assert calls == [m // 2 if m % 2 == 0 else m]


@pytest.mark.parametrize("n", [3, 4, 7, 12, 18])
def test_samplers_match_their_per_angle_references_at_odd_m(n):
    # no grid angle is another turned by pi: one slice per angle, whose top
    # eigenvalue is that of an eigh of the slice alone, bit for bit, and the
    # curve keeps each ray's half-ray
    W = random_shift(np.random.default_rng(4400 + n), n)
    form = forward_matching(W)
    for m in (9, 33, 721):
        s = boundary_sample(W, m)
        tops = [np.linalg.eigh(hermitian_slices(W.matrix(), [theta]))[0][0, -1]
                for theta in s.angles]
        assert list(s.support) == tops
        assert repr(curve_sample(form, m)) == repr(_per_angle_points(_per_angle_rays(form, m)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20])
def test_boundary_sample_has_the_rotation_symmetry(n):
    # A is unitarily similar to e^(2 pi i / n) A, so for n | m the support
    # function repeats every m / n angles and the touch points rotate by
    # e^(2 pi i / n)
    W = random_shift(np.random.default_rng(4200 + n), n)
    s = boundary_sample(W, 720)
    tol = 1e-12 * max(W.moduli())
    h = np.array(s.support)
    z = np.array([complex(x, y) for x, y in s.points])
    step = 720 // n
    assert np.max(np.abs(np.roll(h, -step) - h)) <= tol
    assert np.max(np.abs(np.roll(z, -step) - np.exp(2j * math.pi / n) * z)) <= tol


def test_samples_on_different_angle_grids_are_not_compared(quartic_shift):
    with pytest.raises(ValueError, match="different angle grids"):
        samples_agree(boundary_sample(quartic_shift, 64), boundary_sample(quartic_shift, 96))
    assert samples_agree(boundary_sample(quartic_shift, 64), boundary_sample(quartic_shift, 64))


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


@pytest.mark.parametrize("case", json.loads(GOLDEN_CURVES.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_curve_sample_golden_with_own_rows(case, quartic_form, quintic_form):
    # the odd-degree sums were recorded again when the ray at theta + pi came
    # to take the row at theta read at -rho; the per-angle loop that solves
    # every ray's own row still gives the old sums, kept as own_row_sha256,
    # and the even-degree sums did not move
    form = _golden_form(case, quartic_form, quintic_form)
    own = _per_angle_points(_per_angle_rays(form, 720, twin=False))
    assert hashlib.sha256(repr(own).encode()).hexdigest() == \
        case.get("own_row_sha256", case["sha256"])
    assert ("own_row_sha256" in case) == (case["n"] % 2 == 1)


@pytest.mark.parametrize("case", json.loads(GOLDEN_CURVES.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_curve_sample_golden_on_the_full_circle(case, quartic_form, quintic_form):
    # the golden sums were recorded again when each ray came to keep its
    # positive radii alone; the per-angle loop that keeps every real radius
    # still gives the old sums, kept as full_circle_sha256
    form = _golden_form(case, quartic_form, quintic_form)
    signed = _per_angle_points(_per_angle_rays(form, 720, twin=False), signed=True)
    assert hashlib.sha256(repr(signed).encode()).hexdigest() == case["full_circle_sha256"]


def _golden_form(case, quartic_form, quintic_form):
    if case["kind"] == "forward":
        return forward_matching(random_shift(np.random.default_rng(case["seed"]), case["n"]))
    return {"quartic": quartic_form, "quintic": quintic_form}[case["kind"]]


def _float64_digest(points):
    """sha256 of the repr the points had while curve_sample returned numpy
    float64 pairs, as the complex_sha256 and product_phase_sha256 sums were
    recorded."""
    return hashlib.sha256(repr([(np.float64(x), np.float64(y))
                                for x, y in points]).encode()).hexdigest()


def _complex_companion_rays(form, m):
    """(theta, real roots) of each ray that is not constant, solved as the
    golden sums were first recorded: a complex companion matrix per ray, at
    the phase n theta."""
    rays = []
    for k in range(m):
        theta = 2 * math.pi * k / m
        coeffs = np.asarray(_ray_coeffs(form, _product_phase(form.n, k, m)), dtype=complex)
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
    assert _float64_digest(_per_angle_points(old, signed=True)) == case["complex_sha256"]
    assert [len(roots) for _, roots in _per_angle_rays(form, 720)] == \
        [len(roots) for _, roots in old]
    got = np.array(curve_sample(form, 720))
    want = np.array(_per_angle_points(old))
    assert got.shape == want.shape
    assert np.all(np.hypot(*(got - want).T) <= 1e-9 * np.hypot(*want.T))


# -- curve_sample against the per-angle loop it replaced ----------------------
# The reference solves each ray on its own with a one-row _root_profiles, as
# curve_sample did before it batched the rays; the one-row solve is pinned to
# a scalar reference in test_hyperbolicity.  It keeps each ray's positive
# radii, the half-ray rule.  The points must agree in repr, element types
# included.

def _reduced_phase(n, k, m):
    """n theta_k reduced exactly: 2 pi ((n k) mod m) / m, as curve_sample
    takes it, so that rays one period apart share their row bit for bit."""
    return 2 * math.pi * (n * k % m) / m


def _product_phase(n, k, m):
    """n theta_k as the rounded product, as curve_sample took it until the
    rays were solved once per rotation class (the product_phase_sha256 sums)."""
    return n * (2 * math.pi * k / m)


def _ray_coeffs(form, phase):
    n = form.n
    coeffs = [0.0] * (n + 1)
    coeffs[0] = form.c0 * math.cos(phase) + form.ct0 * math.sin(phase)
    for r, cr in enumerate(form.c, start=1):
        coeffs[n - 2 * r] += cr
    coeffs[n] = 1.0
    return coeffs


def _twin_of(form, k, m):
    """The ray whose row, read at -rho, curve_sample gives ray k, or None when
    ray k keeps its own row: for odd n with c0, ct0 not both 0 and an even
    period m / gcd(m, n), ray k + period / 2 has the phase of ray k plus pi,
    and so the row of ray k at -rho."""
    n = form.n
    period = m // math.gcd(m, n)
    if n % 2 == 0 or period % 2 or not (form.c0 or form.ct0) or k % period < period // 2:
        return None
    return k - period // 2


def _per_angle_rays(form, m, phase=_reduced_phase, twin=True):
    """(theta, real roots) of each ray that is not constant, one solve per ray.

    With twin=True, as curve_sample solves them, a ray that has a twin takes
    the negated roots of the twin's row, in ascending order; with twin=False
    every ray solves its own row, as curve_sample did before (the own_row
    sums)."""
    rays = []
    for k in range(m):
        theta = 2 * math.pi * k / m
        source = _twin_of(form, k, m) if twin else None
        coeffs = _ray_coeffs(form, phase(form.n, k if source is None else source, m))
        if max(abs(c) for c in coeffs[:-1]) == 0.0:
            continue
        roots = _root_profiles([coeffs])[0].roots
        if source is not None:
            roots = tuple((-r, mult) for r, mult in reversed(roots))
        rays.append((theta, roots))
    return rays


def _per_angle_points(rays, signed=False):
    """(x, y) of each ray's positive radii at the ray's angle, as curve_sample
    returns them; with signed=True, of every real radius, as it returned them
    before each ray kept its half-ray alone (the full_circle sums)."""
    pts = []
    for theta, roots in rays:
        for rho, _ in roots:
            if signed or rho > 0:
                pts.append((float(rho) * math.cos(theta), float(rho) * math.sin(theta)))
    return pts


def _assert_matches_per_angle_reference(form):
    for m in (-1, 0, 1, 8, 33, 720):
        assert repr(curve_sample(form, m)) == repr(_per_angle_points(_per_angle_rays(form, m)))


def _assert_near_the_product_phase(form, tol=1e-9):
    # the reduced phase moves each row's top coefficient by the rounding of
    # n theta_k: every ray keeps its point count, and every point moves by at
    # most tol of its radius
    new, old = _per_angle_rays(form, 720), _per_angle_rays(form, 720, _product_phase, twin=False)
    assert [(theta, len(roots)) for theta, roots in new] == \
        [(theta, len(roots)) for theta, roots in old]
    got, want = np.array(curve_sample(form, 720)), np.array(_per_angle_points(old))
    assert np.all(np.hypot(*(got - want).T) <= tol * np.hypot(*want.T))


@pytest.mark.parametrize("case", json.loads(GOLDEN_CURVES.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_curve_sample_golden_stays_near_the_product_phase(case, quartic_form, quintic_form):
    # the golden sums were recorded again when the phase was reduced exactly;
    # the per-angle loop at the product phase still gives the old sums, kept
    # as product_phase_sha256
    form = _golden_form(case, quartic_form, quintic_form)
    old = _per_angle_points(_per_angle_rays(form, 720, _product_phase, twin=False), signed=True)
    assert _float64_digest(old) == case["product_phase_sha256"]
    _assert_near_the_product_phase(form)


@pytest.mark.parametrize("n", range(3, 25))
def test_curve_sample_stays_near_the_product_phase(n):
    # above n = 20 a ray's radii can cluster so tightly that the companion
    # solve at either phase is itself off by a few 1e-9 of a radius (at n = 23
    # up to 3.9e-9 against a 60-digit solve, where the two phases differ by
    # 6.0e-9), so the bound there is 1e-8
    _assert_near_the_product_phase(
        forward_matching(random_shift(np.random.default_rng(5200 + n), n)),
        1e-9 if n <= 20 else 1e-8)


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


def _counting_root_profiles(monkeypatch):
    """Patch numrange's _root_profiles to record how many rows each call gets."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return _root_profiles(rows)

    monkeypatch.setattr(numrange, "_root_profiles", counting)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 18])
def test_curve_sample_solves_one_row_per_rotation_class(monkeypatch, n):
    # the rays fall into 720 / gcd(720, n) classes; rays one period apart
    # have equal radii bit for bit, and curve_sample matches the per-angle
    # loop.  For odd n the period is even, and its second half takes the rows
    # of its first at -rho: one row per pair of classes
    form = forward_matching(random_shift(np.random.default_rng(5300 + n), n))
    period = 720 // math.gcd(720, n)
    rays = _per_angle_rays(form, 720)
    assert len(rays) == 720
    for k in range(720):
        assert rays[k][1] == rays[(k + period) % 720][1]
    calls = _counting_root_profiles(monkeypatch)
    assert repr(curve_sample(form, 720)) == repr(_per_angle_points(rays))
    assert calls == [period // 2 if n % 2 else period]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 13, 17, 23])
def test_curve_sample_reads_the_opposite_ray_off_the_row_at_minus_rho(n):
    # for odd n the phase of ray k + period / 2 is that of ray k plus pi, so
    # its row is ray k's at -rho: its radii are the negated negative roots of
    # ray k's row, in ascending order, and as many as its own row's positive
    # roots
    form = forward_matching(random_shift(np.random.default_rng(5500 + n), n))
    for m in (8, 96, 720):
        period = m // math.gcd(m, n)
        half = period // 2
        roots = [_root_profiles([_ray_coeffs(form, _reduced_phase(n, k, m))])[0].roots
                 for k in range(period)]
        radii = [[r for r, _ in ray if r > 0] for ray in roots[:half]]
        radii += [sorted(-r for r, _ in ray if r < 0) for ray in roots[:half]]
        assert [len(ray) for ray in radii] == \
            [sum(r > 0 for r, _ in ray) for ray in roots]
        thetas = [2 * math.pi * k / m for k in range(m)]
        want = [(float(rho) * math.cos(theta), float(rho) * math.sin(theta))
                for k, theta in enumerate(thetas) for rho in radii[k % period]]
        assert repr(curve_sample(form, m)) == repr(want)


# worst point move of the twin rows against the own-row solve, relative to the
# radius, on the forward images below: 1.3e-13 at n <= 9, 2.7e-12 at n = 11,
# 2.4e-11 at 13, 7.1e-12 at 15, 1.6e-10 at 17, 2.6e-9 at 19, 4.6e-10 at 21 and
# 2.7e-8 at 23.  On the most-moved ray of each n = 17..23 a 60-digit solve of
# the exact-phase row finds the own-row and the twin radii off by errors of
# the size of the move, neither rule the more accurate.  Even n have no twin
# rows, and keep their bits (test_curve_sample_matches_per_angle_reference)
TWIN_ROW_BOUNDS = {3: 1e-12, 5: 1e-12, 7: 1e-12, 9: 1e-12, 11: 1e-10, 13: 1e-10,
                   15: 1e-10, 17: 1e-9, 19: 1e-8, 21: 1e-8, 23: 1e-7}


@pytest.mark.parametrize("n", sorted(TWIN_ROW_BOUNDS))
def test_twin_rows_stay_near_the_own_rows(n):
    # every point moves by at most the bound of its radius
    for k in range(5):
        form = forward_matching(random_shift(np.random.default_rng(5200 + 100 * n + k), n))
        got = np.array(curve_sample(form, 720))
        want = np.array(_per_angle_points(_per_angle_rays(form, 720, twin=False)))
        assert got.shape == want.shape
        assert np.all(np.hypot(*(got - want).T) <= TWIN_ROW_BOUNDS[n] * np.hypot(*want.T))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 18])
def test_curve_sample_returns_each_point_once(n):
    # for even m the point of radius -rho at theta_k is the point of radius
    # rho at theta_k + pi: curve_sample is the signed-radius loop with its
    # rho <= 0 entries dropped, bit for bit, and the dropped radii are the
    # kept radii of the opposite ray
    form = forward_matching(random_shift(np.random.default_rng(5400 + n), n))
    for m in (8, 720):
        rays = _per_angle_rays(form, m)
        assert len(rays) == m
        signed = _per_angle_points(rays, signed=True)
        radii = [rho for _, roots in rays for rho, _ in roots]
        got = curve_sample(form, m)
        assert repr(got) == repr([p for p, rho in zip(signed, radii) if rho > 0])
        assert len(set(got)) == len(got) == len(signed) // 2
        for k in range(m):
            dropped = sorted(-rho for rho, _ in rays[k][1] if rho < 0)
            kept = sorted(rho for rho, _ in rays[(k + m // 2) % m][1] if rho > 0)
            assert len(dropped) == len(kept)
            assert np.allclose(dropped, kept, rtol=1e-9, atol=0.0)


def test_curve_sample_solves_one_row_when_s_is_zero(monkeypatch):
    # c0 = ct0 = 0: every ray has the same row, and for odd n no twin rows
    calls = _counting_root_profiles(monkeypatch)
    for n in (12, 13):
        form = forward_matching(random_shift(np.random.default_rng(5300 + n), n))
        zero = InvariantForm(n, form.c, 0.0, 0.0)
        calls.clear()
        points = curve_sample(zero, 720)
        assert calls == [1]
        assert len(points) % 720 == 0
        assert repr(points) == repr(_per_angle_points(_per_angle_rays(zero, 720)))


def test_curve_sample_solves_once_per_stripped_degree(monkeypatch):
    form = _mixed_degree_form(6, 62)
    degrees = set()
    for k in range(720):
        coeffs = _ray_coeffs(form, _reduced_phase(6, k, 720))
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
