"""Root engine, hyperbolicity certificate, classification and perturbation."""

import math

import numpy as np
import pytest

from hyprep import (Config, InvariantForm, Kind, classify, interlace_check,
                    is_hyperbolic, perturb, real_roots)
from hyprep.errors import DegenerateInput, HypothesisViolated, NotHyperbolic
from hyprep.forward import forward_matching
from hyprep.hyperbolicity import cluster_roots
from tests.conftest import random_shift


def test_real_roots_simple_quartic():
    # t^4 - 26 t^2 + 144 factors through T^2 - 26 T + 144, T = 8 and 18
    prof = real_roots([1.0, 0.0, -26.0, 0.0, 144.0])
    assert prof.all_real
    got = sorted(r for r, m in prof.roots)
    expect = sorted([-math.sqrt(18), -math.sqrt(8), math.sqrt(8), math.sqrt(18)])
    assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-9
    assert all(m == 1 for _, m in prof.roots)


def test_real_roots_double_zero():
    prof = real_roots([1.0, 0.0, -26.0, 0.0, 0.0])
    mults = {round(r, 6): m for r, m in prof.roots}
    assert mults[0.0] == 2
    assert prof.degree() == 4
    s26 = math.sqrt(26)
    assert any(abs(r - s26) < 1e-9 for r, _ in prof.roots)
    assert any(abs(r + s26) < 1e-9 for r, _ in prof.roots)


def test_real_roots_triple_zero():
    prof = real_roots([1.0, 0.0, 0.0, 0.0])
    assert prof.roots == ((0.0, 3),) or (len(prof.roots) == 1 and prof.roots[0][1] == 3)


def test_real_roots_degenerate_input():
    with pytest.raises(DegenerateInput):
        real_roots([0.0, 0.0])
    with pytest.raises(DegenerateInput):
        real_roots([])


def test_multiplicity_stable_under_squaring():
    rng = np.random.default_rng(17)
    for _ in range(20):
        deg = int(rng.integers(2, 6))
        roots = np.sort(rng.uniform(-3, 3, size=deg))
        # keep the roots separated so clustering is unambiguous
        roots += 0.3 * np.arange(deg)
        p = np.poly(roots)
        p2 = np.polymul(p, p)
        prof = real_roots(p2)
        assert prof.all_real
        assert prof.degree() == 2 * deg
        assert all(m == 2 for _, m in prof.roots)


def test_is_hyperbolic_examples(quartic_form):
    assert is_hyperbolic(quartic_form)
    assert not is_hyperbolic(InvariantForm(3, [0.0], 1.0, 0.0))
    assert is_hyperbolic(InvariantForm(3, [-3.0], 0.0, 0.0))


def test_classify_quartic_is_singular(quartic_form):
    cls = classify(quartic_form)
    assert cls.kind is Kind.SINGULAR
    assert cls.s == 72.0
    assert cls.witnesses["minus"]      # t^4 - 26 t^2 has a double root
    assert not cls.witnesses["plus"]   # t^4 - 26 t^2 + 144 has simple roots


def test_classify_quintic_is_smooth(quintic_form):
    cls = classify(quintic_form)
    assert cls.kind is Kind.SMOOTH
    assert not cls.witnesses["plus"] and not cls.witnesses["minus"]


def test_classify_zero_top_pair_is_singular():
    cls = classify(InvariantForm(4, [-2.0, 1.0], 0.0, 0.0))
    assert cls.kind is Kind.SINGULAR
    assert cls.s == 0.0


def test_interlace_check_examples():
    # the quartic's even part: both endpoint polynomials are real rooted and
    # the midpoint has four distinct roots
    assert interlace_check([1.0, 0.0, -26.0, 0.0, 72.0], -72.0, 72.0, 0.0)
    with pytest.raises(HypothesisViolated):
        interlace_check([1.0, 0.0, 0.0], -1.0, 1.0, 0.0)   # t^2 + 1 not real rooted
    assert interlace_check([1.0, 0.0, -3.0, 0.0], -2.0, 2.0, 1.0)


def test_perturb_quartic_shrinks_top_pair(quartic_form):
    out = perturb(quartic_form, 1e-2)
    assert out.c == quartic_form.c
    assert out.c0 == pytest.approx(-71.99)
    assert out.ct0 == 0.0        # sign(0) = 0: zero coefficients never move
    assert classify(out).kind is Kind.SMOOTH


def test_perturb_zero_top_branch():
    form = InvariantForm(4, [-2.0, 1.0], 0.0, 0.0)
    out = perturb(form, 1e-2)
    assert out.c0 > 0.0
    assert classify(out).kind is Kind.SMOOTH
    prof = real_roots(out.univariate())
    assert prof.all_real and prof.max_multiplicity() == 1


def test_perturb_rejects_smooth_input(quintic_form):
    with pytest.raises(ValueError):
        perturb(quintic_form, 1e-3)


def test_perturb_converges_linearly_in_s_branch(quartic_form):
    for eps in (1e-2, 1e-4, 1e-6):
        out = perturb(quartic_form, eps)
        assert abs(out.c0 - quartic_form.c0) == pytest.approx(eps)


def test_forward_images_are_hyperbolic():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        W = random_shift(rng, n)
        assert is_hyperbolic(forward_matching(W))


def test_smooth_restrictions_have_positive_root_gap(quintic_form):
    # strict interlacing: on an angular grid every restriction has simple roots
    p = quintic_form.univariate()
    s = quintic_form.s
    alpha = math.atan2(quintic_form.ct0, quintic_form.c0)
    min_gap = math.inf
    for k in range(721):
        theta = 2 * math.pi * k / 720
        coeffs = list(p)
        coeffs[-1] += s * math.cos(alpha - quintic_form.n * theta)
        roots = np.sort(np.roots(coeffs).real)
        min_gap = min(min_gap, float(np.min(np.diff(roots))))
    assert min_gap > 1e-3


# -- the root solver against a scalar reference ------------------------------
# A scalar reference for real_roots and cluster_roots: np.roots, and a
# pure-Python union-find over every pair with Python's abs.  The vectorised
# solver must give the same roots and n_complex bit for bit.

def _reference_cluster(points, radius_fn):
    m = len(points)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(m):
        for b in range(a + 1, m):
            if abs(points[a] - points[b]) <= radius_fn(points[a], points[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for a in range(m):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


def _reference_cluster_roots(roots, radius):
    if len(roots) == 0:
        return []
    groups = _reference_cluster(np.asarray(roots, dtype=complex),
                                lambda a, b: radius * (1.0 + max(abs(a), abs(b))))
    out = []
    for g in groups:
        pts = [roots[i] for i in g]
        out.append((sum(pts) / len(pts), len(pts)))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _reference_real_roots(coeffs, config=Config()):
    arr = np.asarray(list(coeffs), dtype=complex)
    if len(arr) == 0 or not np.all(np.isfinite(arr)):
        raise DegenerateInput("empty or non-finite coefficient list")
    biggest = np.max(np.abs(arr))
    if biggest == 0.0:
        raise DegenerateInput("all coefficients vanish")
    start = 0
    while start < len(arr) - 1 and abs(arr[start]) <= 1e-14 * biggest:
        start += 1
    arr = arr[start:]
    if len(arr) <= 1:
        raise DegenerateInput("polynomial is constant after stripping")
    raw = np.roots(arr)
    if np.any(~np.isfinite(raw)):
        raise DegenerateInput("root solve returned non-finite values")
    reals, n_complex = [], 0
    for z, m in _reference_cluster_roots(raw, config.cluster_radius):
        if abs(z.imag) <= config.tol_root * (1.0 + abs(z)):
            reals.append((z.real, m))
        else:
            n_complex += 1
    return tuple(reals), n_complex


def _assert_same_profile(coeffs):
    try:
        expect = _reference_real_roots(coeffs)
    except DegenerateInput as exc:
        with pytest.raises(DegenerateInput) as raised:
            real_roots(coeffs)
        assert str(raised.value) == str(exc)
        return
    prof = real_roots(coeffs)
    assert (prof.roots, prof.n_complex) == expect
    assert repr(prof.roots) == repr(expect[0])


def _clustered_roots(rng, deg):
    """Real or complex roots with clusters, repeats and near-threshold gaps."""
    roots = list(rng.uniform(-3, 3, size=deg))
    if rng.random() < 0.5:
        roots = [r + 1j * rng.uniform(-2, 2) if rng.random() < 0.3 else r for r in roots]
    for i in range(1, deg):
        pick = rng.random()
        if pick < 0.2:
            roots[i] = roots[i - 1] + 10.0 ** rng.uniform(-12, -3)
        elif pick < 0.3:
            roots[i] = roots[i - 1]
        elif pick < 0.4:
            # about the clustering radius apart
            gap = 1e-6 * (1 + abs(roots[i - 1])) * rng.uniform(0.5, 1.5)
            roots[i] = roots[i - 1] + gap
    return roots


def test_real_roots_is_bit_identical_to_the_scalar_reference():
    rng = np.random.default_rng(2024)
    for deg in range(1, 25):
        for trial in range(12):
            coeffs = np.poly(_clustered_roots(rng, deg))
            if trial % 3 == 1:
                coeffs = coeffs * (rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 6.3)))
            if trial % 4 == 2:
                # zero constant terms: exact zero roots appended by the solver
                coeffs = np.concatenate([coeffs, np.zeros(int(rng.integers(1, 4)))])
            if trial % 6 == 5:
                # negligible leading coefficients, stripped before the solve
                coeffs = np.concatenate([[1e-17, 0.0], coeffs])
            _assert_same_profile(list(coeffs))
        _assert_same_profile(list(rng.standard_normal(deg + 1)))
        _assert_same_profile(list(rng.standard_normal(deg + 1)
                                  + 1j * rng.standard_normal(deg + 1)))


def test_real_roots_matches_the_reference_on_edge_cases():
    cases = [
        [], [0.0, 0.0], [float("nan"), 1.0], [1.0, float("inf")],
        [1e-20, 1.0], [2.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0],
        [1.0, 2.0], [1.0, 0.0, 1.0], [1.0, -2.0, 1.0, 0.0, 0.0],
        [1e-15, 1.0, -3.0, 2.0], [1.0j, 0.0, 1.0], [1.0, 0.0, -26.0, 0.0, 144.0],
    ]
    for coeffs in cases:
        _assert_same_profile(coeffs)


def test_cluster_roots_is_bit_identical_to_the_scalar_reference():
    rng = np.random.default_rng(2025)
    radius = Config().cluster_radius
    for m in range(0, 25):
        for _ in range(10):
            pts = np.asarray(_clustered_roots(rng, m) if m else [], dtype=complex)
            rng.shuffle(pts)
            for roots in (pts, pts.real.copy()):
                got = cluster_roots(roots, radius)
                expect = _reference_cluster_roots(roots, radius)
                assert got == expect
                assert repr(got) == repr(expect)
    # a pair just inside the threshold, and signed zeros in the centroids
    a = 1.0 + 0j
    edge = a + radius * (1.0 + abs(a + radius * 2))
    for roots in (np.array([a, edge, -0.0 + 0j, complex(-0.0, -0.0)]),
                  np.array([edge, a, a, complex(0.0, -0.0)])):
        assert repr(cluster_roots(roots, radius)) == repr(_reference_cluster_roots(roots, radius))


def test_cluster_roots_matches_the_reference_at_the_threshold():
    # radii one ulp below, at and above the distance of each pair, so that a
    # last-bit difference in either modulus or in |a - b| flips the merge
    rng = np.random.default_rng(7)
    for _ in range(1500):
        roots = 10.0 ** rng.uniform(-3, 6, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        a, b = roots.tolist()
        exact = abs(a - b) / (1.0 + max(abs(a), abs(b)))
        for radius in (np.nextafter(exact, 0.0), exact, np.nextafter(exact, np.inf)):
            got = cluster_roots(roots, float(radius))
            assert repr(got) == repr(_reference_cluster_roots(roots, float(radius)))


def test_hypot_equals_python_abs_on_complex_values():
    rng = np.random.default_rng(99)
    z = 10.0 ** rng.uniform(-300, 300, size=10**6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10**6))
    expect = np.array([abs(w) for w in z.tolist()])
    assert np.array_equal(np.hypot(z.real, z.imag), expect)


def test_classify_solves_each_endpoint_once(monkeypatch, quintic_form):
    seen = []

    def counting(coeffs, config=Config()):
        seen.append(list(coeffs))
        return real_roots(coeffs, config)

    monkeypatch.setattr("hyprep.hyperbolicity.real_roots", counting)
    classify(quintic_form)
    assert len(seen) == 2
    assert seen[0][-1] - seen[1][-1] == pytest.approx(2 * quintic_form.s)
    # p + s is solved first; p - s is not solved once p + s fails
    seen.clear()
    with pytest.raises(NotHyperbolic, match="form is not hyperbolic"):
        classify(InvariantForm(3, [0.0], 1.0, 0.0))
    assert len(seen) == 1
