"""Root engine, hyperbolicity certificate and classification."""

import math
import warnings

import numpy as np
import pytest

from hyprep import (Classification, InvariantForm, Kind, ShiftMatrix, classify,
                    compute_intersections, curve_sample, interlace_check,
                    is_hyperbolic, represent)
from hyprep import hyperbolicity
from hyprep.config import CLUSTER_RADIUS, TOL_ROOT
from hyprep.errors import DegenerateInput, HyprepError, HypothesisViolated, NotHyperbolic
from hyprep.forward import forward_matching
from hyprep.hyperbolicity import _root_profiles
from tests.conftest import _reference_cluster_roots, random_shift


def test_real_roots_simple_quartic():
    # t^4 - 26 t^2 + 144 factors through T^2 - 26 T + 144, T = 8 and 18
    prof = _root_profiles([[1.0, 0.0, -26.0, 0.0, 144.0]])[0]
    assert prof.all_real
    got = sorted(r for r, m in prof.roots)
    expect = sorted([-math.sqrt(18), -math.sqrt(8), math.sqrt(8), math.sqrt(18)])
    assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-9
    assert all(m == 1 for _, m in prof.roots)


def test_real_roots_double_zero():
    prof = _root_profiles([[1.0, 0.0, -26.0, 0.0, 0.0]])[0]
    mults = {round(r, 6): m for r, m in prof.roots}
    assert mults[0.0] == 2
    assert sum(m for _, m in prof.roots) == 4
    s26 = math.sqrt(26)
    assert any(abs(r - s26) < 1e-9 for r, _ in prof.roots)
    assert any(abs(r + s26) < 1e-9 for r, _ in prof.roots)


def test_real_roots_triple_zero():
    prof = _root_profiles([[1.0, 0.0, 0.0, 0.0]])[0]
    assert prof.roots == ((0.0, 3),) or (len(prof.roots) == 1 and prof.roots[0][1] == 3)


def test_real_roots_degenerate_input():
    with pytest.raises(DegenerateInput):
        _root_profiles([[0.0, 0.0]])
    with pytest.raises(DegenerateInput):
        _root_profiles([[]])


def test_multiplicity_stable_under_squaring():
    rng = np.random.default_rng(17)
    for _ in range(20):
        deg = int(rng.integers(2, 6))
        roots = np.sort(rng.uniform(-3, 3, size=deg))
        # keep the roots separated so clustering is unambiguous
        roots += 0.3 * np.arange(deg)
        p = np.poly(roots)
        p2 = np.polymul(p, p)
        prof = _root_profiles([p2])[0]
        assert prof.all_real
        assert sum(m for _, m in prof.roots) == 2 * deg
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


@pytest.mark.parametrize("n", range(4, 25))
def test_generic_forward_images_classify_smooth(n):
    # double roots are decided by critical values within roundoff of their
    # Horner bound, so the coefficient scale of a generic form cannot make it
    # read Singular
    for k in range(10):
        form = forward_matching(random_shift(np.random.default_rng(5000 + 100 * n + k), n))
        cls = classify(form)
        assert cls.kind is Kind.SMOOTH, k
        assert not cls.witnesses["plus"] and not cls.witnesses["minus"]


def test_forward_images_are_hyperbolic():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        W = random_shift(rng, n)
        assert is_hyperbolic(forward_matching(W))


def test_critical_points_spread_over_decades_stay_apart():
    # P has roots 1, 1e-7, 1.2e-7 and 3e-7, so two critical points x of
    # p(t) = P(t^2) lie near 1.1e-7 and 2.4e-7, closer than any clustering
    # radius in x / 2^k; at their centroid p is neither a minimum nor a maximum
    P = np.poly([1.0, 1e-7, 1.2e-7, 3e-7])
    want = Classification(Kind.SINGULAR, 0.0, {"plus": False, "minus": False})
    assert classify(InvariantForm(8, P[1:], 0.0, 0.0)) == want
    # shifts with five or six weights near 1e-4 put two or three pairs of
    # roots of p within 1e-4 of 0.  Every critical value of these forms is at
    # least 1% away from -s and s (80-digit mpmath on the float coefficients),
    # and s vanishes
    for n in range(15, 20):
        for small in (5, 6):
            weights = np.array(random_shift(np.random.default_rng([n, small, 77]), n).weights)
            idx = np.arange(small) * n // small
            weights[idx] *= 1e-4 * (1 + 0.3 * np.arange(small)) / np.abs(weights[idx])
            form = forward_matching(ShiftMatrix(weights))
            want = Classification(Kind.SINGULAR, form.s, {"plus": False, "minus": False})
            assert classify(form) == want, (n, small)


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
# A scalar reference for _root_profiles: np.roots, and single linkage in the
# complex plane (tests/conftest.py) with a realness tolerance on each
# centroid.  On these rows the pair rule and the runs along the real axis
# must give the same roots and n_complex bit for bit.

def _reference_root_profile(coeffs, radius=CLUSTER_RADIUS):
    # np.roots of a real row, in real arithmetic
    arr = np.asarray(list(coeffs), dtype=float)
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
    raw = np.roots(arr).astype(complex)
    if np.any(~np.isfinite(raw)):
        raise DegenerateInput("root solve returned non-finite values")
    reals, n_complex = [], 0
    for z, m in _reference_cluster_roots(raw, radius):
        if abs(z.imag) <= TOL_ROOT * (1.0 + abs(z)):
            reals.append((z.real, m))
        else:
            n_complex += 1
    return tuple(reals), n_complex


def _assert_same_profile(coeffs):
    try:
        expect = _reference_root_profile(coeffs)
    except DegenerateInput as exc:
        with pytest.raises(DegenerateInput) as raised:
            _root_profiles([list(coeffs)])
        assert str(raised.value) == str(exc)
        return
    prof = _root_profiles([list(coeffs)])[0]
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
            # a real row: the real part of the coefficients of a complex root
            # set, or those of a real root set, which keeps its clusters
            coeffs = np.poly(_clustered_roots(rng, deg)).real
            if trial % 3 == 1:
                coeffs = coeffs * rng.uniform(0.1, 10)
            if trial % 4 == 2:
                # zero constant terms: exact zero roots appended by the solver
                coeffs = np.concatenate([coeffs, np.zeros(int(rng.integers(1, 4)))])
            if trial % 6 == 5:
                # negligible leading coefficients, stripped before the solve
                coeffs = np.concatenate([[1e-17, 0.0], coeffs])
            _assert_same_profile(list(coeffs))
        _assert_same_profile(list(rng.standard_normal(deg + 1)))


def test_real_roots_matches_the_reference_on_edge_cases():
    cases = [
        [], [0.0, 0.0], [float("nan"), 1.0], [1.0, float("inf")],
        [1e-20, 1.0], [2.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0],
        [1.0, 2.0], [1.0, 0.0, 1.0], [1.0, -2.0, 1.0, 0.0, 0.0],
        [1e-15, 1.0, -3.0, 2.0], [1.0, 0.0, -26.0, 0.0, 144.0],
    ]
    for coeffs in cases:
        _assert_same_profile(coeffs)


def _near_double_root_rows(rng, count, deg):
    """Real polynomials with a double root somewhere, which roundoff splits."""
    rows = []
    for _ in range(count):
        roots = list(rng.uniform(-3, 3, size=deg - 1))
        rows.append(np.poly(roots + roots[:1]))
    return rows


def test_real_rows_keep_split_double_roots_paired():
    # a real row is solved in real arithmetic, so a split double root stays
    # symmetric about the axis and non-real clusters pair up
    rng = np.random.default_rng(31)
    for deg in range(2, 21):
        for row in _near_double_root_rows(rng, 5, deg):
            assert _root_profiles([row])[0].n_complex % 2 == 0
            _assert_same_profile(row)


def test_root_profiles_of_mixed_rows_equal_per_row_solves():
    # one call with rows of mixed stripped degree and trailing zeros gives
    # each row's one-row solve bit for bit
    rng = np.random.default_rng(32)
    width = 9
    rows = []
    for k in range(60):
        coeffs = np.poly(_clustered_roots(rng, int(rng.integers(1, width)))).real
        if k % 3 == 1:
            coeffs = coeffs * rng.uniform(0.1, 10)
        if k % 4 == 2:
            coeffs = np.concatenate([coeffs, np.zeros(int(rng.integers(1, 3)))])
        if k % 5 == 3:
            coeffs = np.concatenate([[1e-17], coeffs])
        coeffs = coeffs[-width:]
        rows.append(np.concatenate([np.zeros(width - len(coeffs)), coeffs]))
    rows = np.array(rows)
    got = hyperbolicity._root_profiles(rows)
    assert repr(got) == repr([hyperbolicity._root_profiles([row])[0] for row in rows])
    # the first row that cannot be solved raises, whichever test fails it
    bad = rows.copy()
    bad[[7, 11, 40]] = [np.zeros(width), [np.nan] * width, [0.0] * (width - 1) + [1.0]]
    with pytest.raises(DegenerateInput, match="all coefficients vanish"):
        hyperbolicity._root_profiles(bad)
    bad[7] = rows[7]
    with pytest.raises(DegenerateInput, match="empty or non-finite coefficient list"):
        hyperbolicity._root_profiles(bad)


def test_root_profiles_merge_real_neighbours_as_the_reference_does():
    # two neighbouring real roots of a real-rooted row, their gap within a
    # part in 1e3 of the CLUSTER_RADIUS threshold, and the same row read at
    # radii one ulp below, at and above the gap, so that a last-bit
    # difference in either modulus or in the gap flips the merge
    rng = np.random.default_rng(7)
    merged, at_radius = set(), set()
    for _ in range(300):
        a = float(rng.uniform(-4.0, 4.0))
        gap = CLUSTER_RADIUS * (1.0 + abs(a)) * float(rng.uniform(1.0 - 1e-3, 1.0 + 1e-3))
        others = list(rng.uniform(-4.0, 4.0, int(rng.integers(0, 5))) + 20.0)
        row = np.poly([a, a + gap] + others)
        raw = np.roots(row)
        assert not raw.imag.any()
        prof = _root_profiles([row])[0]
        assert repr((prof.roots, prof.n_complex)) == repr(_reference_root_profile(row))
        at_radius.add(prof.roots[0][1])
        x, y = sorted(raw.real.tolist())[:2]
        exact = (y - x) / (1.0 + max(abs(x), abs(y)))
        for radius in (np.nextafter(exact, 0.0), exact, np.nextafter(exact, np.inf)):
            prof = _root_profiles([row], float(radius))[0]
            assert repr((prof.roots, prof.n_complex)) == repr(_reference_root_profile(row, float(radius)))
            merged.add(prof.roots[0][1])
    assert merged == at_radius == {1, 2}


def test_root_profiles_read_near_axis_pairs_as_the_reference_does():
    # a double root that roundoff split into a conjugate pair: one double
    # root when 2 |Im| <= CLUSTER_RADIUS (1 + |z|), two roots off the axis
    # above; the pairs straddle that threshold within a part in 1e4
    rng = np.random.default_rng(8)
    doubled = set()
    for _ in range(400):
        a = float(rng.uniform(-4.0, 4.0))
        eps = 0.5 * CLUSTER_RADIUS * (1.0 + abs(a)) * float(rng.uniform(1.0 - 1e-4, 1.0 + 1e-4))
        others = list(rng.uniform(-4.0, 4.0, int(rng.integers(0, 5))) + 20.0)
        row = np.polymul([1.0, -2.0 * a, a * a + eps * eps], np.poly(others))
        prof = _root_profiles([row])[0]
        assert repr((prof.roots, prof.n_complex)) == repr(_reference_root_profile(row))
        doubled.add(prof.n_complex)
    assert doubled == {0, 2}


@pytest.mark.parametrize("e", [40, 42, 44, 46])
def test_near_axis_critical_pair_off_a_root_of_q_is_not_hyperbolic(e):
    # P = (x - 1)((x - 1)^2 + 2^-e), exact, has the real root 1 and the
    # non-real pair 1 +/- i 2^(-e/2); Q ~ P' has a pair about 1 +/- i 2^(-e/2)
    # / sqrt(3), within CLUSTER_RADIUS of the axis, read as a double point at
    # 1, where P(1) = 0.  It is a double critical point only if Q vanishes
    # there within its Horner rounding bound, and Q(1) is 2^-e (5 ulps of
    # that bound at e = 46, 341 at e = 40)
    form = InvariantForm(6, [-3.0, 3.0 + 2.0 ** -e, -(1.0 + 2.0 ** -e)], 0.0, 0.0)
    q = [1.0] + [(6 - 2 * j) * cj / 6 for j, cj in enumerate(form.c[:2], start=1)]
    assert [m for _, m in _root_profiles([q], 0.0)[0].roots] == [2]
    assert form._critical_points is None and not is_hyperbolic(form)
    with pytest.raises(NotHyperbolic):
        classify(form)


def test_double_critical_point_at_zero_stands_without_the_horner_test():
    # Q = x^3 - 0.678 x^2 + 1.4e-265 has roots at +/- 4.5e-133, which the
    # solve returns as a double 0: Q(0) is its whole Horner bound there, but
    # within TOL_ROOT of 0 the tolerance is absolute
    form = InvariantForm(7, [-0.9495521837844181, -0.0, 9.606790286994652e-265], 0.0, 0.0)
    assert form._critical_points[-1] == (0.0, 2)
    assert classify(form).kind is Kind.SINGULAR


def test_hypot_equals_python_abs_on_complex_values():
    rng = np.random.default_rng(99)
    z = 10.0 ** rng.uniform(-300, 300, size=10**6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10**6))
    expect = np.array([abs(w) for w in z.tolist()])
    assert np.array_equal(np.hypot(z.real, z.imag), expect)


def test_classify_solves_each_endpoint_once(monkeypatch, quintic_form):
    solve = hyperbolicity._root_profiles
    calls = []

    def counting(rows, *radius):
        calls.append([list(row) for row in rows])
        return solve(rows, *radius)

    monkeypatch.setattr("hyprep.hyperbolicity._root_profiles", counting)
    classify(quintic_form)
    # the critical points of p, for p + s and p - s alike: one row of
    # degree (n - 1) // 2
    assert [len(rows) for rows in calls] == [1] and len(calls[0][0]) - 1 == 2
    calls.clear()
    # p = t^3 - t has its minimum -0.38 above -s = -1
    with pytest.raises(NotHyperbolic, match="form is not hyperbolic"):
        classify(InvariantForm(3, [-1.0], 1.0, 0.0))
    assert [len(rows) for rows in calls] == [1] and len(calls[0][0]) - 1 == 1
    calls.clear()
    # c_1 = 0 leaves only p = t^n with s = 0: the size alone decides
    with pytest.raises(NotHyperbolic, match="form is not hyperbolic"):
        classify(InvariantForm(3, [0.0], 1.0, 0.0))
    assert calls == []


def test_classify_solves_once_when_s_vanishes(monkeypatch):
    forms = [InvariantForm(4, [-2.0, 0.0], 0.0, 0.0),
             InvariantForm(5, [-5.0, 4.0], 0.0, 0.0),
             forward_matching(ShiftMatrix([0.8, 0.0, 1.1, 0.6]))]
    solve = hyperbolicity._root_profiles
    calls = []

    def counting(rows, *radius):
        calls.append(rows)
        return solve(rows, *radius)

    monkeypatch.setattr("hyprep.hyperbolicity._root_profiles", counting)
    for form in forms:
        assert form.s == 0.0
        repeated = solve([form.univariate()])[0].max_multiplicity() > 1
        want = Classification(Kind.SINGULAR, 0.0, {"plus": repeated, "minus": repeated})
        calls.clear()
        assert classify(form) == want
        assert is_hyperbolic(form)
        # one solve for the pair: is_hyperbolic reads the one classify made
        assert len(calls) == 1


def test_is_hyperbolic_and_classify_share_one_solve(monkeypatch, quintic_form):
    solve = hyperbolicity._root_profiles
    calls = []

    def counting(rows, *radius):
        calls.append(rows)
        return solve(rows, *radius)

    monkeypatch.setattr("hyprep.hyperbolicity._root_profiles", counting)
    assert is_hyperbolic(quintic_form)
    assert classify(quintic_form).kind is Kind.SMOOTH
    assert len(calls) == 1


def test_real_roots_of_a_subnormal_leading_coefficient():
    # the companion row is divided by the leading coefficient; scaled by a
    # power of two first, 1e-320 no longer overflows the complex division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = _root_profiles([[1e-320, 1e-307]])[0]
    assert prof.n_complex == 0 and len(prof.roots) == 1
    root, mult = prof.roots[0]
    assert mult == 1 and root == pytest.approx(-1e-307 / 1e-320, rel=1e-15)


def _first_gap(form):
    """min |p(mu_k)| over the critical points mu_k of p, computed apart from
    the code under test: the roots lam of p from np.roots of P(t^2), and mu
    the eigenvalues of the compression of diag(lam) to the complement of
    the ones vector, which are the critical points of prod (t - lam_j)."""
    n = form.n
    lam = np.sqrt(np.maximum(np.roots([1.0, *form.c]).real, 0.0))
    lam = np.concatenate([lam, -lam, [0.0] * (n % 2)])
    V = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    mu = np.linalg.eigvalsh(V.T @ np.diag(lam) @ V)
    return min(abs(np.prod(m - lam)) for m in mu)


@pytest.mark.parametrize("n", range(3, 21))
def test_classify_near_the_first_closing_gap(n):
    # s a relative 1e-6 short of the smallest critical value |p(mu)| keeps
    # every gap open (Smooth, no witness); 1e-6 past it closes one gap and
    # p + s or p - s loses two real roots
    for k in range(10):
        form = forward_matching(random_shift(np.random.default_rng(5000 + 100 * n + k), n))
        gap, phase = float(_first_gap(form)), math.atan2(form.ct0, form.c0)

        def at(s):
            return InvariantForm(n, form.c, s * math.cos(phase), s * math.sin(phase))

        cls = classify(at(gap * (1 - 1e-6)))
        assert cls.kind is Kind.SMOOTH, k
        assert cls.witnesses == {"plus": False, "minus": False}, k
        with pytest.raises(NotHyperbolic):
            classify(at(gap * (1 + 1e-6)))


# -- the exception boundary at every coefficient scale -----------------------

SWEEP_SCALES = (1e-12, 1e-3, 1.0, 1e3, 1e16, 1e48)


def _form_at_scale(n, k, scale):
    """The forward image of a seeded shift with k zero weights, its weights
    scaled so that its largest coefficient is about scale.  c_r has degree 2r
    in the weights and c0, ct0 degree n, so each coefficient bounds the
    factor; the tightest bound puts that coefficient at scale."""
    rng = np.random.default_rng([n, k, 700])
    W = random_shift(rng, n)
    weights = np.array(W.weights)
    weights[rng.choice(n, size=k, replace=False)] = 0.0
    form = forward_matching(ShiftMatrix(weights))
    terms = [(abs(c), 2 * r) for r, c in enumerate(form.c, start=1)]
    terms += [(abs(form.c0), n), (abs(form.ct0), n)]
    factor = min((scale / size) ** (1.0 / degree) for size, degree in terms if size > 0.0)
    return forward_matching(ShiftMatrix(factor * weights))


@pytest.mark.parametrize("scale", SWEEP_SCALES)
def test_classify_and_curve_sample_fail_only_typed(scale):
    # each call returns or raises a HyprepError: no overflow, no internal
    # ValueError or LinAlgError, and no numpy warning on the way.  classify
    # finds every forward image hyperbolic at every scale, and one with no
    # zero weight (k = 0) free of double roots.  At n = 24 and scale 1e-12
    # the smallest circle overflows s_j^-n in the circle solve
    for n in range(3, 25, 3):
        for k in range(3):
            form = _form_at_scale(n, k, scale)
            size = max(abs(x) for x in [*form.c, form.c0, form.ct0])
            assert scale / 2 <= size <= 2 * scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                witnesses = classify(form).witnesses
            if k == 0:
                assert witnesses == {"plus": False, "minus": False}
            for call in (curve_sample, compute_intersections, represent):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        call(form)
                    except HyprepError:
                        pass
