"""Intersection of a form with its t-derivative: circles, orbits, conjugate split."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hyprep import (DEFAULT_CONFIG, InvariantForm, circle_factors, circle_intersect,
                    compute_intersections, hyperbolicity, infinity_points, intersection,
                    is_hyperbolic)
from hyprep.construct import _represent_direct
from hyprep.config import CLUSTER_RADIUS
from hyprep.errors import AmbiguousOrbit, HyprepError, LeadingZero, NotHyperbolic, SolveFailed
from hyprep.forward import forward_matching
from hyprep.hyperbolicity import Kind, classify
from hyprep.invariants import eigenspace_basis
from hyprep.poly import TrivariatePoly
from tests.conftest import _reference_cluster_roots, random_shift
from tests.test_construct import singular_form
from tests.test_hyperbolicity import SWEEP_SCALES, _form_at_scale


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
    # p = t^4 + 2 t^2 + 1 has its critical point in t^2 at x = -1: a circle
    # with no real points, not clamped to one at infinity; the form is not
    # hyperbolic, and both calls say so
    form = InvariantForm(4, [2.0, 1.0], 0.5, 0.0)
    with pytest.raises(NotHyperbolic):
        circle_factors(form)
    with pytest.raises(NotHyperbolic):
        compute_intersections(form)


def _reference_circle_parameters(form):
    """The circle parameters solved apart from classify: np.roots of
    T^m + sum_r (n - 2r) c_r / n T^(m - r), m = (n - 1) // 2, clustered by
    single linkage in T / 2^e, 2^e above the largest root, descending."""
    n, m = form.n, (form.n - 1) // 2
    raw = np.roots([1.0] + [(n - 2 * r) * cr / n for r, cr in enumerate(form.c[:m], start=1)])
    unit = 2.0 ** math.frexp(float(np.max(np.abs(raw))))[1]
    return sorted((z.real * unit for z, mult in _reference_cluster_roots(raw / unit, CLUSTER_RADIUS)
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


@pytest.mark.parametrize("scale", SWEEP_SCALES)
@pytest.mark.parametrize("n", [15, 18, 21, 24])
def test_high_degree_points_certify_at_large_scales(n, scale):
    # the n-th roots of the quadratic's two roots are each circle's two
    # orbits, exactly, so every orbit has its full size at any degree, and
    # every stored point is within its residual budget, which is relative to
    # the Horner bound of each value.  The points are solved on the unit
    # form, so no circle trinomial overflows, at small scales either
    iset = compute_intersections(_form_at_scale(n, 0, scale))
    assert iset.total_multiplicity() == n * (n - 1)


@pytest.mark.parametrize("n", [4, 5, 8, 12, 13])
def test_a_moved_stored_point_fails_its_residual_budget(n):
    # the budget, 64 n eps of the Horner bound, is no blanket: any one stored
    # point moved by 1e-10 relative in u is caught.  From n = 16 on the bound
    # outgrows the derivative at some points, and such a move is caught at
    # only part of them (84 of the 276 at n = 24)
    form = forward_matching(random_shift(np.random.default_rng(5000 + 100 * n), n))
    iset = compute_intersections(form)
    for k, (point, mult) in enumerate(iset.S):
        moved = dataclasses.replace(point, u=point.u * (1.0 + 1e-10))
        S = iset.S[:k] + ((moved, mult),) + iset.S[k + 1:]
        with pytest.raises(SolveFailed, match="^stored point residual"):
            intersection._check_residuals(form, dataclasses.replace(iset, S=S))


@pytest.mark.parametrize("n", range(6, 25, 3))
def test_small_scale_circles_stay_apart(n):
    # circle parameters of 1e-15 to 5e-13 are the critical points solved on
    # the unit form and scaled back by 4^k, not clustered, so they do not
    # merge into one repeated circle.  The points are solved on the unit
    # form too, where no circle trinomial overflows: at every degree they
    # pass their budget.  Up to n = 18 the direct route certifies; at n = 21
    # and 24 it may fail, but only typed
    form = _form_at_scale(n, 0, 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fac = circle_factors(form)
        assert compute_intersections(form).total_multiplicity() == n * (n - 1)
        if n <= 18:
            _, err = _represent_direct(form, DEFAULT_CONFIG.tol_final)
            assert err <= DEFAULT_CONFIG.tol_final
        else:
            try:
                _represent_direct(form, DEFAULT_CONFIG.tol_final)
            except HyprepError:
                pass
    assert len(set(fac.s)) == len(fac.s) == (n - 1) // 2


def test_an_overflowing_circle_root_fails_typed():
    # this Singular cubic's unit form has a subnormal top coefficient, 1.6e-314,
    # against a middle coefficient of order 1: the root q / A of the circle
    # quadratic overflows.  The solve fails typed, with no numpy warning
    # (warnings are errors here)
    form = InvariantForm(3, [-4.77e87], -1.11e-182, -8.66e-216)
    assert classify(form).kind == Kind.SINGULAR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveFailed, match="^circle trinomial roots are not finite$"):
            compute_intersections(form)


def test_an_overflowing_circle_point_fails_typed(quintic_form):
    # the roots u of the circle at s_j = 0.01 have modulus 10, which a back
    # scale of 2^1023 takes past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert intersection._circle_orbits(quintic_form, 0.01)
        with pytest.raises(SolveFailed, match="^circle points are not finite$"):
            intersection._circle_orbits(quintic_form, 0.01, back=2.0 ** 1023)


# The census as it was read before it came from the closed-gap flags: every
# circle's 2n points and the clustered points at infinity, grouped into
# orbits by matching the keys u^n, v^n (or v^(n/2) at infinity) within 1e-6 n
# relative, and paired with conjugates by matching keys within 1e-5 n.
def _reference_points(form):
    n = form.n
    pts = [(p, 1) for s in circle_factors(form).s if s > 0.0
           for p in circle_intersect(form, s)]
    if n % 2 == 0:
        A = complex(form.c0, -form.ct0) / 2
        roots = intersection._trinomial_roots(A, form.c[-1], A.conjugate(), n // 2, False)
        pts += [(intersection._normalize(0j, u, 1.0 + 0j), m)
                for u, m in _reference_cluster_roots(np.concatenate(roots), CLUSTER_RADIUS)]
    return pts


def _reference_key(p, n):
    if p.at_infinity:
        return (0, p.v ** (n // 2), 0.0 + 0j)
    return (1, p.u ** n, p.v ** n)


def _reference_keys_match(ka, kb, tol):
    if ka[0] != kb[0]:
        return False
    return all(abs(a - b) <= tol * max(abs(a), abs(b), 1e-280)
               for a, b in zip(ka[1:], kb[1:]))


def _reference_split(points, n):
    buckets = []
    for p, mult in points:
        key = _reference_key(p, n)
        for b in buckets:
            if _reference_keys_match(b["key"], key, 1e-6 * n):
                b["members"].append(p)
                b["mult"] += mult
                break
        else:
            buckets.append({"key": key, "members": [p], "mult": mult})
    orbits = []
    for b in buckets:
        at_inf = b["members"][0].at_infinity
        size = n // 2 if at_inf else n
        if b["mult"] % size != 0:
            raise AmbiguousOrbit("orbit multiplicity not divisible by orbit size")
        rep = intersection._canonical_rep(b["members"][0], n)
        orbits.append(intersection.Orbit(rep, intersection._orbit_members(rep, n),
                                         b["mult"] // size, at_inf))
    keys = [_reference_key(o.rep, n) for o in orbits]
    conj_keys = [_reference_key(o.rep.conjugated(), n) for o in orbits]
    paired = [next(j for j in range(len(orbits))
                   if _reference_keys_match(keys[j], conj_keys[i], 1e-5 * n))
              for i in range(len(orbits))]
    chosen, seen = [], set()
    for i, o in enumerate(orbits):
        j = paired[i]
        if i in seen or j in seen:
            continue
        if i == j:
            if o.mult % 2 == 1:
                raise AssertionError("self-conjugate orbit of odd multiplicity")
            chosen.append(intersection.Orbit(o.rep, o.points, o.mult // 2, o.at_infinity))
            seen.add(i)
        else:
            other = orbits[j]
            assert o.mult == other.mult
            key = intersection._lex_key
            chosen.append(o if key(o.rep) <= key(other.rep) else other)
            seen.update((i, j))
    chosen.sort(key=lambda o: (o.at_infinity, intersection._lex_key(o.rep)))
    S = tuple((p, o.mult) for o in chosen for p in o.points)
    return intersection.IntersectionSet(
        n=n, orbits=tuple(chosen), reps=tuple(o.rep for o in chosen),
        orbit_mult=tuple(o.mult for o in chosen),
        at_infinity=tuple(o.at_infinity for o in chosen),
        S=S, Sbar=tuple((p.conjugated(), m) for p, m in S))


def _bits(value):
    """Every number in an IntersectionSet with its type and exact bits."""
    if isinstance(value, (tuple, list)):
        return tuple(_bits(x) for x in value)
    if isinstance(value, (intersection.Point, intersection.Orbit, intersection.IntersectionSet)):
        return _bits(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    if isinstance(value, (complex, np.complexfloating)):
        return type(value).__name__, float(value.real).hex(), float(value.imag).hex()
    return value


@pytest.mark.parametrize("n", range(3, 15))
def test_census_equals_the_key_matching_split_on_open_gaps(n):
    # on forward images every gap is open: the closed-gap census is the
    # key-matching one, bit for bit, and fails the residual budget with it.
    # Both run on the unit form (test_outputs_scale_exactly_with_the_input
    # holds the way back)
    for k in range(10):
        form = forward_matching(random_shift(np.random.default_rng(5000 + 100 * n + k), n))
        unit = form._unit[0]
        assert not any(form._gaps[0])
        want = _reference_split(_reference_points(unit), n)
        try:
            got = compute_intersections(unit)
        except SolveFailed:
            with pytest.raises(SolveFailed):
                intersection._check_residuals(unit, want)
        else:
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n, draws", [(n, range(10)) for n in (16, 18, 20)])
def test_closed_gaps_of_high_degree_give_full_census(n, draws):
    # every gap of an equal-moduli form is closed.  Roundoff in the
    # discriminant split each of these double roots into two orbits that
    # the key matching read as two real orbits of odd multiplicity; the
    # exact double root gives one self-conjugate orbit per circle, whose
    # points pass the residual budget on every draw
    for k in draws:
        form = singular_form("equal_moduli", n, np.random.default_rng([n, k, 12]))
        assert all(form._gaps[0])
        iset = compute_intersections(form)
        assert iset.total_multiplicity() == n * (n - 1)
        assert iset.orbit_mult == (1,) * (n // 2)


def test_points_of_a_nonhyperbolic_form_raise_not_hyperbolic():
    # the quartic with s = 100 above |p(0)| = 72: the gap at t = 0 is
    # negative, so there is no census, whatever the roots at infinity are
    form = InvariantForm(4, [-26.0, 72.0], -100.0, 0.0)
    assert not is_hyperbolic(form)
    with pytest.raises(NotHyperbolic):
        compute_intersections(form)
    with pytest.raises(NotHyperbolic):
        infinity_points(form)


def test_classify_and_points_evaluate_the_critical_values_once(monkeypatch, quartic_form,
                                                              quintic_form):
    calls = []

    def counting(form):
        calls.append(form)
        return gaps(form)

    gaps = hyperbolicity._gaps
    monkeypatch.setattr(hyperbolicity, "_gaps", counting)
    for fixture in (quartic_form, quintic_form):
        form = InvariantForm.from_json(fixture.to_json())
        classify(form)
        compute_intersections(form)
        assert is_hyperbolic(form)
        assert calls == [form._unit[0]]
        calls.clear()
