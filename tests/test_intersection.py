"""Intersection of a form with its t-derivative: circles, orbits, conjugate split."""

import math
import warnings

import numpy as np
import pytest

from hyprep import (DEFAULT_CONFIG, InvariantForm, circle_factors, circle_intersect,
                    compute_intersections, hyperbolicity, infinity_points)
from hyprep.construct import _represent_direct
from hyprep.config import CLUSTER_RADIUS
from hyprep.errors import HyprepError, LeadingZero, NonrealCircle, RealSimplePoint
from hyprep.forward import forward_matching
from hyprep.hyperbolicity import Kind, classify, cluster_roots
from hyprep.invariants import eigenspace_basis
from hyprep.poly import TrivariatePoly
from tests.conftest import random_shift
from tests.test_construct import singular_form
from tests.test_hyperbolicity import _form_at_scale


def reconstruct_derivative(form, fac):
    """n * t^k * prod (t^2 - s_j uv) as a sparse polynomial."""
    n = form.n
    out = TrivariatePoly(fac.k, {(fac.k, 0, 0): float(n)})
    for s in fac.s:
        out = out * TrivariatePoly(2, {(2, 0, 0): 1.0, (0, 1, 1): -s})
    return out


def test_circle_factors_quartic(quartic_form):
    fac = circle_factors(quartic_form)
    assert fac.k == 1
    assert len(fac.s) == 1
    assert fac.s[0] == pytest.approx(13.0)
    df = quartic_form.expand().dt()
    assert reconstruct_derivative(quartic_form, fac).distance(df) < 1e-9 * df.max_abs_coeff()


def test_circle_factors_quintic(quintic_form):
    fac = circle_factors(quintic_form)
    assert fac.k == 0
    # roots of T^2 - 7.5 T + 6.75 by the quadratic formula
    expect = sorted([(15 + 3 * math.sqrt(13)) / 4, (15 - 3 * math.sqrt(13)) / 4])
    assert sorted(fac.s) == pytest.approx(expect)
    df = quintic_form.expand().dt()
    assert reconstruct_derivative(quintic_form, fac).distance(df) < 1e-9 * df.max_abs_coeff()


def test_circle_factors_single_circle_cubic():
    a = 2.4
    form = InvariantForm(3, [-a * a / 4], 0.0, 0.0)
    fac = circle_factors(form)
    assert fac.k == 0
    assert fac.s == (pytest.approx(a * a / 12),)


def test_circle_factors_reuse_the_classify_solve(monkeypatch, quartic_form, quintic_form):
    # the circle parameters are the critical points classify solved for:
    # the points of a classified form take no further polynomial solve
    calls = []

    def counting(name, solve):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        return wrapped

    forms = (quartic_form, quintic_form)
    for form in forms:
        classify(form)
    monkeypatch.setattr(np, "roots", counting("np.roots", np.roots))
    monkeypatch.setattr("hyprep.hyperbolicity._root_profiles",
                        counting("_root_profiles", hyperbolicity._root_profiles))
    for form in forms:
        assert compute_intersections(form).total_multiplicity() == form.n * (form.n - 1)
    assert calls == []


def test_negative_circle_parameter_is_nonreal_circle():
    # p = t^4 + 2 t^2 + 1 has its critical point in t^2 at x = -1: not a
    # circle, and not clamped to one at infinity
    form = InvariantForm(4, [2.0, 1.0], 0.5, 0.0)
    with pytest.raises(NonrealCircle):
        circle_factors(form)
    with pytest.raises(NonrealCircle):
        compute_intersections(form)


def _reference_circle_parameters(form):
    """The circle parameters solved apart from classify: np.roots of
    T^m + sum_r (n - 2r) c_r / n T^(m - r), m = (n - 1) // 2, clustered by
    single linkage in T / 2^e, 2^e above the largest root, descending."""
    n, m = form.n, (form.n - 1) // 2
    raw = np.roots([1.0] + [(n - 2 * r) * cr / n for r, cr in enumerate(form.c[:m], start=1)])
    unit = 2.0 ** math.frexp(float(np.max(np.abs(raw))))[1]
    return sorted((z.real * unit for z, mult in cluster_roots(raw / unit, CLUSTER_RADIUS)
                   for _ in range(mult)), reverse=True)


@pytest.mark.parametrize("n", range(3, 13))
def test_circle_factors_match_the_np_roots_reference(n):
    for k in range(10):
        forms = (forward_matching(random_shift(np.random.default_rng(5000 + 100 * n + k), n)),
                 singular_form("equal_moduli", n, np.random.default_rng([n, k, 12])))
        for form in forms:
            got, want = circle_factors(form).s, _reference_circle_parameters(form)
            assert len(got) == len(want) == (n - 1) // 2
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * want[0]


def test_circle_intersect_counts_and_residuals(quintic_form):
    f = quintic_form.expand()
    for s in circle_factors(quintic_form).s:
        pts = circle_intersect(quintic_form, s)
        assert len(pts) == 2 * quintic_form.n
        for p in pts:
            assert abs(f.evaluate(*p.coords())) < 1e-8
            assert abs(p.t ** 2 - s * p.u * p.v) < 1e-8


def test_circle_intersect_contains_published_point(quartic_form):
    pts = circle_intersect(quartic_form, 13.0)
    u = (1 + 1j) / math.sqrt(39)
    v = math.sqrt(3) / (2 * math.sqrt(13)) * (1 - 1j)
    best = min(abs(p.u - u) + abs(p.v - v) for p in pts)
    assert best < 1e-10


def test_infinity_points_quartic(quartic_form):
    pts = infinity_points(quartic_form)
    assert sorted(m for _, m in pts) == [2, 2]
    slopes = sorted((p.v.real, p.v.imag) for p, _ in pts)
    assert slopes[0] == pytest.approx((-1.0, 0.0))
    assert slopes[1] == pytest.approx((1.0, 0.0))


def test_infinity_points_reject_zero_top_pair():
    with pytest.raises(LeadingZero):
        infinity_points(InvariantForm(4, [-2.0, 1.0], 0.0, 0.0))


def test_infinity_points_generic_even():
    rng = np.random.default_rng(31)
    W = random_shift(rng, 4)
    form = forward_matching(W)
    pts = infinity_points(form)
    assert sum(m for _, m in pts) == 4
    assert all(m == 1 for _, m in pts)


def test_split_quintic(quintic_form):
    iset = compute_intersections(quintic_form)
    assert len(iset.reps) == (quintic_form.n - 1) // 2
    assert not any(iset.at_infinity)
    assert iset.total_multiplicity() == 20


def test_split_quartic_borderline(quartic_form):
    iset = compute_intersections(quartic_form)
    assert len(iset.reps) == 2
    assert list(iset.at_infinity) == [False, True]
    # the infinity orbit {[0:1:1], [0:1:-1]} carries multiplicity two and is
    # split one copy to each conjugate half
    assert list(iset.orbit_mult) == [1, 1]
    inf_rep = iset.reps[1]
    assert inf_rep.t == 0 and inf_rep.u == 1.0 and abs(inf_rep.v - 1.0) < 1e-9
    assert iset.total_multiplicity() == 12


def test_conjugation_pairing(quintic_form):
    iset = compute_intersections(quintic_form)
    assert len(iset.S) == len(iset.Sbar)
    for (p, mp), (q, mq) in zip(iset.S, iset.Sbar):
        assert mp == mq
        c = p.conjugated()
        assert abs(c.u - q.u) < 1e-12 and abs(c.v - q.v) < 1e-12


def test_orbit_closure_under_rotation(quintic_form):
    iset = compute_intersections(quintic_form)
    n = quintic_form.n
    pts = [p for p, _ in iset.S]
    for p in pts:
        r = p.rotated(1, n)
        assert min(abs(r.u - q.u) + abs(r.v - q.v) for q in pts) < 1e-9


def test_odd_degree_points_are_affine():
    rng = np.random.default_rng(37)
    for n in (3, 5, 7):
        for _ in range(5):
            form = forward_matching(random_shift(rng, n))
            if classify(form).kind is not Kind.SMOOTH:
                continue
            iset = compute_intersections(form)
            assert iset.total_multiplicity() == n * (n - 1)
            assert all(p.t == 1.0 for p, _ in iset.S + iset.Sbar)


def test_census_with_multiplicity_even():
    rng = np.random.default_rng(41)
    for _ in range(5):
        form = forward_matching(random_shift(rng, 6))
        if classify(form).kind is not Kind.SMOOTH:
            continue
        iset = compute_intersections(form)
        assert iset.total_multiplicity() == 30


def test_eigenclass_span_vanishing_extends_to_whole_orbit(quintic_form):
    # any class-ell combination vanishing on the representatives vanishes on
    # every point of the kept half
    iset = compute_intersections(quintic_form)
    n = quintic_form.n
    rng = np.random.default_rng(3)
    for ell in range(n):
        basis = eigenspace_basis(n, n - 1, ell)
        E = np.array([[rep.t ** e[0] * rep.u ** e[1] * rep.v ** e[2]
                       for e in basis] for rep in iset.reps])
        _, _, Vh = np.linalg.svd(E)
        g = Vh[-1].conj()
        poly = TrivariatePoly(n - 1, dict(zip(basis, g)))
        worst = max(abs(poly.evaluate(*p.coords())) for p, _ in iset.S)
        assert worst < 1e-8


def test_real_simple_point_reroutes():
    # a self-conjugate orbit of odd multiplicity is a real intersection
    # point; the split must refuse it and send the caller to the
    # spectral route
    from hyprep import Point, split_conjugate
    n = 4
    seed = Point(1.0 + 0j, 0.5 + 0j, 0.5 + 0j)      # real affine point
    orbit = [(seed.rotated(k, n), 1) for k in range(n)]
    with pytest.raises(RealSimplePoint):
        split_conjugate(orbit, n)


@pytest.mark.parametrize("scale", [1e16, 1e48])
@pytest.mark.parametrize("n", [15, 18, 21, 24])
def test_high_degree_points_certify_at_large_scales(n, scale):
    # the n-th roots of the quadratic's two roots are each circle's two
    # orbits, exactly, so every orbit has its full size at any degree.  At
    # scale 1 these forms still miss the residual budget (SolveFailed)
    iset = compute_intersections(_form_at_scale(n, 0, scale))
    assert iset.total_multiplicity() == n * (n - 1)


@pytest.mark.parametrize("n", range(6, 25, 3))
def test_small_scale_circles_stay_apart(n):
    # circle parameters of 1e-15 to 5e-13 are the critical points solved in
    # units of a power of two above the largest of them, and not clustered,
    # so they do not merge into one repeated circle.
    # From n = 15 on the points still fail, typed: the stored-point budget
    # (n = 15, 18) or the circle trinomial overflows (n = 21, 24).  The
    # direct route may fail on these forms too, but only typed
    form = _form_at_scale(n, 0, 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fac = circle_factors(form)
        try:
            iset = compute_intersections(form)
        except HyprepError:
            assert n >= 15
        else:
            assert iset.total_multiplicity() == n * (n - 1)
        try:
            _represent_direct(form, DEFAULT_CONFIG.tol_final,
                              np.random.default_rng(DEFAULT_CONFIG.seed))
        except HyprepError:
            pass
    assert len(set(fac.s)) == len(fac.s) == (n - 1) // 2
