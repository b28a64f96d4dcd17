"""The construction pipeline: vanishing forms, curve fit and division, pencil, weights."""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from hyprep import (DEFAULT_CONFIG, Config, InvariantForm, Kind, ShiftMatrix,
                    classify, compute_intersections, extract_shift, noether_division,
                    normalize_pencil, represent, vanishing_form, verify)
from hyprep import construct, hyperbolicity
from hyprep.config import LM_LINE, TOL_PATTERN
from hyprep.construct import (_represent_direct, _represent_spectral, assemble_form_matrix,
                              pencil_from_adjugate)
from hyprep.errors import (AdjugateMismatch, ConvergenceFailed, HyprepError,
                           NoetherResidual, PatternViolation)
from hyprep.forward import coefficient_error, forward_matching, realize_real
from hyprep.invariants import eigenspace_basis
from hyprep.poly import TrivariatePoly, conj_involution
from tests.conftest import random_shift
from tests.test_hyperbolicity import SWEEP_SCALES, _form_at_scale
from tests.test_poly import agrees_with_reference

PUBLISHED_G12_QUARTIC = TrivariatePoly(3, {(2, 0, 1): -4.0, (0, 3, 0): -36.0, (0, 1, 2): 36.0})


def quintic_published_g12():
    s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
    return TrivariatePoly(4, {
        (3, 0, 1): -1.0,
        (1, 1, 2): 3.0,
        (0, 4, 0): -(3 * s3 / 2) * (1 - 1j) * (s2 + 1j),
    })


def test_vanishing_form_class_zero_is_derivative(quartic_form):
    iset = compute_intersections(quartic_form)
    v0 = vanishing_form(iset, 0)
    target = quartic_form.expand().dt().monic()
    assert v0.distance(target) < 1e-10


def test_vanishing_form_quartic_matches_published(quartic_form):
    iset = compute_intersections(quartic_form)
    got = vanishing_form(iset, (0 - 1) % 4)      # class of the (1,2) entry
    assert got.distance(PUBLISHED_G12_QUARTIC.monic()) < 1e-10


def test_vanishing_form_vanishes_on_kept_half(quartic_form, quintic_form):
    for form in (quartic_form, quintic_form):
        iset = compute_intersections(form)
        for ell in range(form.n):
            g = vanishing_form(iset, ell)
            worst = max(abs(g.evaluate(*p.coords())) for p, _ in iset.S)
            assert worst < 1e-7 * max(1.0, g.max_abs_coeff())


def test_published_quintic_g12_vanishes_on_a_conjugate_split(quintic_form_flipped):
    # the published working set mixes the two conjugate choices pair by
    # pair, so the printed form annihilates exactly one orbit of each pair
    g12 = quintic_published_g12()
    iset = compute_intersections(quintic_form_flipped)
    for orbit in iset.orbits:
        ours = max(abs(g12.evaluate(*p.coords())) for p in orbit.points)
        conj = max(abs(g12.evaluate(*p.conjugated().coords())) for p in orbit.points)
        assert min(ours, conj) < 1e-6


def test_noether_division_quartic_published_cofactors(quartic_form):
    f = quartic_form.expand()
    g11 = f.dt()
    h = conj_involution(PUBLISHED_G12_QUARTIC) * PUBLISHED_G12_QUARTIC
    a_hat, b_hat = noether_division(f, g11, h, 0, 4)
    assert a_hat.distance(TrivariatePoly(2, {(2, 0, 0): -4.0, (0, 1, 1): 36.0})) < 1e-6
    assert b_hat.distance(TrivariatePoly(3, {(3, 0, 0): 1.0, (1, 1, 1): -18.0})) < 1e-6


def test_noether_division_quintic_published_cofactor(quintic_form_flipped):
    # the published quintic identity is stated against the monic derivative
    # (the quartic one against the raw derivative); division against df/dt
    # returns the same cofactor scaled by the leading coefficient
    f = quintic_form_flipped.expand()
    g11 = f.dt()
    g12 = quintic_published_g12()
    h = conj_involution(g12) * g12
    _, b_hat = noether_division(f, g11, h, 0, 5)
    expect = TrivariatePoly(4, {(4, 0, 0): 1.0, (2, 1, 1): -7.0, (0, 2, 2): 6.0})
    assert b_hat.monic().distance(expect) < 1e-6
    assert abs(b_hat.leading()[1] - 0.2) < 1e-9     # 1 / lc(df/dt) = 1/5


def test_noether_division_trivial_multiple(quintic_form):
    f = quintic_form.expand()
    g11 = f.dt()
    q = TrivariatePoly(3, {(3, 0, 0): 2.0, (1, 1, 1): -1.0})   # class 0, degree n-2
    h = q * f
    a_hat, b_hat = noether_division(f, g11, h, 0, 5)
    assert a_hat.distance(q) < 1e-9
    assert b_hat.max_abs_coeff() < 1e-9


def test_form_matrix_invariants(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    n = quartic_form.n
    f = quartic_form.expand()
    assert G[0][0].distance(f.dt()) == 0.0
    for i in range(n):
        for j in range(n):
            gij = G[i][j]
            # hermitian symmetry under the conjugation involution
            assert conj_involution(gij).distance(G[j][i]) < 1e-12
            # eigenspace discipline is structural
            assert all((e[1] - e[2]) % n == (i - j) % n for e in gij.terms)
    # the division identity g11 gij - conj(g1i) g1j in <f>, checked as residual
    for i in range(1, n):
        for j in range(i, n):
            h = G[i][0] * G[0][j]
            lhs = G[0][0] * G[i][j] - h
            _, b = noether_division(f, G[0][0], h, (i - j) % n, n)
            assert b.distance(G[i][j]) < 1e-8 * max(1.0, b.max_abs_coeff())


def counting(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_form_matrix_solves_each_class_once(monkeypatch, quartic_form, quintic_form):
    # the n(n-1)/2 divisions fall into the n - 1 classes 0, 2, ..., n - 1
    for form in (quartic_form, quintic_form):
        iset = compute_intersections(form)
        lstsq = counting(monkeypatch, np.linalg, "lstsq")
        assemble_form_matrix(form, iset)
        assert len(lstsq) == form.n - 1
        monkeypatch.undo()


def test_pencil_fit_makes_one_det_and_one_inv(monkeypatch, quartic_form, quintic_form):
    for form in (quartic_form, quintic_form):
        G = assemble_form_matrix(form, compute_intersections(form))
        det = counting(monkeypatch, np.linalg, "det")
        inv = counting(monkeypatch, np.linalg, "inv")
        pencil_from_adjugate(G, form)
        assert (len(det), len(inv)) == (1, 1)
        monkeypatch.undo()


def test_form_matrix_makes_one_root_solve(monkeypatch, quartic_form, quintic_form):
    # the curve points of every class fit come from one root solve of the
    # three rows p + s cos(n theta - phi), each of degree n
    for form in (quartic_form, quintic_form):
        iset = compute_intersections(form)
        solves = []

        def counted(rows, *args, real=construct._root_profiles):
            solves.append(np.shape(rows))
            return real(rows, *args)
        monkeypatch.setattr(construct, "_root_profiles", counted)
        assemble_form_matrix(form, iset)
        assert solves == [(3, form.n + 1)]
        monkeypatch.undo()


def test_curve_fit_agrees_with_noether_division(quartic_form, quintic_form):
    # in exact arithmetic the fitted entry is the b of the division
    # g_i1 g_1j = a f + b g_11; the two solves differ in roundoff only, so
    # each fitted entry is within 1e-8 of the division's, relative to its
    # largest coefficient
    rng = np.random.default_rng(43)
    forms = [quartic_form, quintic_form] + [forward_matching(random_shift(rng, n)) for n in (6, 7)]
    for form in forms:
        n = form.n
        G = assemble_form_matrix(form, compute_intersections(form))
        f = form.expand()
        for i in range(1, n):
            for j in range(i, n):
                _, b = noether_division(f, G[0][0], G[i][0] * G[0][j], (i - j) % n, n)
                if i == j:
                    b = 0.5 * (b + conj_involution(b))
                assert b.distance(G[i][j]) <= 1e-8 * b.max_abs_coeff(), (n, i, j)


def test_form_matrix_reports_the_row_major_first_division_failure(monkeypatch, quartic_form):
    # a vanishing form moved off the points spoils every target in column 3
    # and in row 3: G[1][3] of class 2, G[2][3] of class 3 and G[3][3] of
    # class 0.  Classes are fitted together, but the failure reported is the
    # first in row-major order, and a division of that target fails too
    vanishing = construct.vanishing_form

    def moved(iset, ell):
        p = vanishing(iset, ell)
        if ell == 1:
            e = eigenspace_basis(4, 3, 1)[-1]
            p = p + TrivariatePoly.monomial(e, 1e-3)
        return p
    monkeypatch.setattr(construct, "vanishing_form", moved)
    iset = compute_intersections(quartic_form)
    with pytest.raises(NoetherResidual, match=r"^curve fit residual .* at G\[1\]\[3\]$"):
        assemble_form_matrix(quartic_form, iset)
    f = quartic_form.expand()
    with pytest.raises(NoetherResidual, match="^division residual"):
        noether_division(f, f.dt(), conj_involution(moved(iset, 3)) * moved(iset, 1), 2, 4)


@pytest.mark.parametrize("scale", SWEEP_SCALES)
@pytest.mark.parametrize("n", [4, 6, 9, 15, 24])
def test_sample_points_keep_f_within_its_factor_bounds(n, scale):
    # f = prod (1 - r x_k) on the sample circle, each factor in [1/2, 3/2]:
    # the points are fixed by c_1, and f stays inside [2^-n, (3/2)^n] at
    # every coefficient scale, without a rejection test
    form = _form_at_scale(n, 0, scale)
    count = max(8, n + 4) + 3
    pts, vals = construct._sample_points(form, count)
    assert pts == construct._sample_points(form, count)[0]
    assert len(pts) == count and vals.shape == (1, count)
    f = form.expand()
    assert all(agrees_with_reference(f, p, x) for p, x in zip(pts, vals[0].tolist()))
    assert np.all(np.abs(vals[0].imag) <= 1e-12 * vals[0].real)
    assert np.all((2.0 ** -n <= vals[0].real) & (vals[0].real <= 1.5 ** n))


def test_sample_points_of_a_form_without_a_sample_circle_fail_typed():
    # c_1 >= 0: no hyperbolic form with s > 0, and no circle to sample on
    form = InvariantForm(4, [1.0, 0.5], 0.5, 0.0)
    with pytest.raises(HyprepError):
        construct._sample_points(form, 11)


def test_form_matrix_quartic_g22(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    expect = TrivariatePoly(3, {(3, 0, 0): 1.0, (1, 1, 1): -18.0})
    assert G[1][1].monic().distance(expect) < 1e-9
    assert conj_involution(G[1][1]).distance(G[1][1]) < 1e-12


def test_fitted_pencil_determinant_reproduces_form(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    P = normalize_pencil(pencil_from_adjugate(G, quartic_form))
    f = quartic_form.expand()
    check = np.random.default_rng(1)
    for _ in range(10):
        t, x, y = check.normal(size=3)
        u = complex(x, y)
        got = np.linalg.det(P.value(t, u, u.conjugate()))
        want = f.evaluate(t, u, u.conjugate())
        assert abs(got - want) < 1e-7 * max(1.0, abs(want))


def test_singular_form_matrix_fails_typed(quartic_form):
    # a form matrix that is singular at every sample point has no adjugate
    # quotient to fit: a typed failure, not numpy's LinAlgError (a
    # ValueError) and not an all-zero pencil
    zero = TrivariatePoly(3)
    G = tuple((zero,) * 4 for _ in range(4))
    with pytest.raises(AdjugateMismatch):
        pencil_from_adjugate(G, quartic_form)


def _pattern_by_entry_loop(Mt, Mu, tol):
    """The shift-pattern check entry by entry, as pencil_from_adjugate first
    wrote it: the message of the first entry outside the pattern in
    row-major order, or None, and the cleaned (M_t, M_u)."""
    n = len(Mt)
    for i in range(n):
        for j in range(n):
            d = (i - j) % n
            if d == 0:
                bad = abs(Mu[i, j])
            elif d == 1:
                bad = abs(Mt[i, j])          # u-positions: subdiagonal and corner
            else:
                bad = max(abs(Mt[i, j]), abs(Mu[i, j]))
            if bad > tol:
                return f"entry ({i + 1},{j + 1}) outside shift pattern", None
    Mu_clean = np.zeros_like(Mu)
    for i in range(n):
        Mu_clean[i, (i - 1) % n] = Mu[i, (i - 1) % n]
    return None, (np.diag(np.diag(Mt).real.astype(complex)), Mu_clean)


@pytest.mark.parametrize("hits, entry", [
    ([], None),
    ([("t", 0, 1)], "(1,2)"),                   # t off the diagonal
    ([("u", 2, 2)], "(3,3)"),                   # u on the diagonal
    ([("u", 3, 1), ("t", 1, 3)], "(2,4)"),      # the first in row-major order
    ([("u", 0, 1), ("u", 1, 3)], "(1,2)"),
    ([("t", 2, 2), ("u", 1, 0), ("u", 0, 3)], None),    # inside the pattern
])
def test_pencil_pattern_check_matches_the_entry_loop(monkeypatch, quartic_form, hits, entry):
    # the fitted coefficient matrices are moved off the shift pattern at the
    # given entries (u and v as an adjoint pair); the holdout check is off so
    # that the pattern check sees them
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    n = len(G)
    lstsq, fitted = np.linalg.lstsq, []

    def moved(a, b, rcond=None):
        sol, *rest = lstsq(a, b, rcond=rcond)
        sol = sol.copy()
        step = 1e-3 * np.max(np.abs(sol))
        for which, i, j in hits:
            if which == "t":
                sol[0, i * n + j] += step
            else:
                sol[1, i * n + j] += step
                sol[2, j * n + i] += step
        fitted.append(sol)
        return (sol, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", moved)
    monkeypatch.setattr(construct, "TOL_PENCIL", np.inf)
    try:
        P = pencil_from_adjugate(G, quartic_form)
        message = None
    except PatternViolation as exc:
        message = str(exc)
    Mt, Mu, Mv = (m.reshape(n, n) for m in fitted[0])
    want, clean = _pattern_by_entry_loop(0.5 * (Mt + Mt.conj().T), 0.5 * (Mu + Mv.conj().T),
                                         TOL_PATTERN * max(np.max(np.abs(fitted[0])), 1e-300))
    assert message == want == (entry and f"entry {entry} outside shift pattern")
    if message is None:
        assert np.array_equal(P.M_t, clean[0]) and np.array_equal(P.M_u, clean[1])


def test_pencil_rotation_covariance(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    P = normalize_pencil(pencil_from_adjugate(G, quartic_form))
    n = quartic_form.n
    w = np.exp(2j * np.pi / n)
    Om = np.diag([w ** k for k in range(n)])
    t, x, y = 0.3, 0.7, -0.4
    u = complex(x, y)
    lhs = Om.conj().T @ P.value(t, w * u, u.conjugate() / w) @ Om
    rhs = P.value(t, u, u.conjugate())
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_normalize_and_extract_published_quartic(quartic_pencil, quartic_form):
    Pn = normalize_pencil(quartic_pencil)
    assert np.max(np.abs(Pn.M_t - np.eye(4))) == 0.0
    W = extract_shift(Pn)
    expect = [4.0,
              4.0 * np.exp(1j * np.pi / 12),
              6.0 * np.exp(1j * np.pi / 4),
              6.0 * np.exp(-1j * np.pi / 3)]
    assert max(abs(a - b) for a, b in zip(W.weights, expect)) < 1e-12
    assert verify(quartic_form, W).max_abs_err < 1e-12
    B = realize_real(W)
    assert [w.real for w in B.weights] == pytest.approx([4.0, 4.0, 6.0, 6.0])


def test_normalize_and_extract_published_quintic(quintic_pencil, quintic_form_flipped):
    W = extract_shift(normalize_pencil(quintic_pencil))
    s2, s6 = np.sqrt(2.0), np.sqrt(6.0)
    # the printed matrix corner carries +4i, consistent with the printed form
    expect = [2.0, 3.0 + 3.0j, s6, s2 + 2.0j, 4.0j]
    assert max(abs(a - b) for a, b in zip(W.weights, expect)) < 1e-12
    assert verify(quintic_form_flipped, W).max_abs_err < 1e-12


def test_normalize_rejects_mixed_signs():
    from hyprep.construct import HermitianPencil
    from hyprep.errors import IndefiniteDiagonal
    Mt = np.diag([1.0, -2.0, 3.0]).astype(complex)
    with pytest.raises(IndefiniteDiagonal):
        normalize_pencil(HermitianPencil(Mt, np.zeros((3, 3), dtype=complex)))


def test_normalize_is_idempotent(quartic_pencil):
    Pn = normalize_pencil(quartic_pencil)
    Pnn = normalize_pencil(Pn)
    assert np.max(np.abs(Pnn.M_u - Pn.M_u)) < 1e-14


def test_extract_requires_normalized_pencil(quartic_pencil):
    with pytest.raises(PatternViolation):
        extract_shift(quartic_pencil)


def test_represent_quartic(quartic_form):
    W = represent(quartic_form)
    assert verify(quartic_form, W).max_abs_err < 1e-8
    assert sorted(round(abs(w), 6) for w in W.weights) == [4.0, 4.0, 6.0, 6.0]


def test_represent_quintic(quintic_form):
    W = represent(quintic_form)
    assert verify(quintic_form, W).max_abs_err < 1e-8


def test_represent_roundtrip_random():
    rng = np.random.default_rng(73)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            form = forward_matching(random_shift(rng, n))
            W = represent(form)
            assert verify(form, W).max_abs_err < 1e-6


def assert_certified(form, W, headroom=1.0):
    bound = Config().tol_final * max(1.0, form.coefficient_scale())
    assert coefficient_error(form, W) <= bound / headroom


def direct_route(form):
    """The direct route alone."""
    return _represent_direct(form, DEFAULT_CONFIG.tol_final)[0]


def runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("k", range(10))
def test_represent_degree_16_fails_typed_and_quietly(monkeypatch, k):
    # at n = 16 the sample circle keeps f inside [2^-16, 1.5^16], so the
    # adjugate quotient stays finite: the direct route fails on none of
    # these ten draws, typed or not.  Each certifies after one attempt, with
    # no numpy RuntimeWarning on the way
    calls = []

    def counted(*args, assemble=construct.assemble_form_matrix):
        calls.append(1)
        return assemble(*args)
    monkeypatch.setattr(construct, "assemble_form_matrix", counted)
    form = forward_matching(random_shift(np.random.default_rng(1760 + k), 16))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_certified(form, direct_route(form))
    assert not runtime_warnings(caught)
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e6])
def test_represent_certifies_large_scale_forward_images(scale):
    # coefficients up to scale^n: classify solves for the critical points
    # scaled by a power of two, so a generic form reads Smooth at every scale
    for n in range(3, 13):
        for k in range(3):
            W = random_shift(np.random.default_rng([n, k, 600]), n)
            form = forward_matching(ShiftMatrix([w * scale for w in W.weights]))
            assert classify(form).kind is Kind.SMOOTH
            assert_certified(form, represent(form))


def test_represent_routes(monkeypatch, quartic_form, quintic_form):
    seen = []
    for name in ("_represent_direct", "_represent_spectral"):
        def traced(*args, route=getattr(construct, name), name=name):
            seen.append(name)
            return route(*args)
        monkeypatch.setattr(construct, name, traced)
    zero_weight = forward_matching(ShiftMatrix([0.8, 0.0, 1.1, 0.6]))
    cases = [   # (form, routes run): quintic smooth, quartic singular with s > 0
        (quintic_form, ["_represent_spectral"]),
        (quartic_form, ["_represent_direct"]),
        (zero_weight, ["_represent_spectral"]),
    ]
    for form, routes in cases:
        seen.clear()
        assert_certified(form, represent(form))
        assert seen == routes


def test_represent_falls_back_to_the_direct_route(monkeypatch, quintic_form):
    def failing(*args):
        raise ConvergenceFailed("spectral route error")
    monkeypatch.setattr(construct, "_represent_spectral", failing)
    assert represent(quintic_form).weights == direct_route(quintic_form).weights
    monkeypatch.setattr(construct, "_represent_direct", failing)
    with pytest.raises(ConvergenceFailed):
        represent(quintic_form)


def test_represent_solves_for_the_critical_points_once(monkeypatch):
    # an equal-moduli image at kappa = 1000 takes the direct route; its
    # critical points are solved once, on the unit form, the form rescaled
    # by 2^-10, which classify and the direct route share
    phases = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=9)
    form = forward_matching(ShiftMatrix(1e3 * np.exp(1j * phases)))
    solves = []

    def counted(rows, *args, real=hyperbolicity._root_profiles):
        solves.append(np.shape(rows))
        return real(rows, *args)
    monkeypatch.setattr(hyperbolicity, "_root_profiles", counted)
    seen = []

    def traced(*args, route=construct._represent_direct):
        seen.append(args[0])
        return route(*args)
    monkeypatch.setattr(construct, "_represent_direct", traced)
    assert_certified(form, represent(form))
    assert seen == [form] and solves == [(1, 5)]
    assert form._unit[1] == 10


@pytest.mark.parametrize("n", range(3, 13))
def test_direct_route_certifies_equal_moduli_near_roundoff(n):
    # every gap of these forms is closed: each circle and the line at
    # infinity carry one self-conjugate orbit, at the exact double root
    for k in range(10):
        form = singular_form("equal_moduli", n, np.random.default_rng([n, k, 12]))
        _, err = _represent_direct(form, DEFAULT_CONFIG.tol_final)
        assert err <= 1e-8 * max(1.0, form.coefficient_scale()), (n, k)


@pytest.mark.parametrize("scale", SWEEP_SCALES)
@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_direct_route_certifies_sweep_forms_at_every_scale(n, scale):
    # the construction runs at unit equal moduli, whatever the coefficient
    # scale of the form
    form = _form_at_scale(n, 0, scale)
    _, err = _represent_direct(form, DEFAULT_CONFIG.tol_final)
    assert err <= DEFAULT_CONFIG.tol_final * max(1.0, form.coefficient_scale())


@pytest.mark.parametrize("n", range(4, 25))
def test_represent_certifies_forward_images_of_high_degree(n):
    # smooth forms: the spectral route runs first, its errors near roundoff
    # (the worst is 5.3e-15 relative), far inside the gate, and with no
    # numpy RuntimeWarning on the way
    for k in range(3):
        form = forward_matching(random_shift(np.random.default_rng(5000 + 100 * n + k), n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            W = represent(form)
        assert not runtime_warnings(caught)
        assert coefficient_error(form, W) <= 1e-13 * max(1.0, form.coefficient_scale())


def singular_form(kind, n, rng):
    """A singular hyperbolic form: the forward image of a shift with one
    zero weight (s = 0) or with equal moduli (repeated roots of p +/- s),
    or an even part p(t) = t^(n mod 2) P(t^2) alone whose P has a double
    root (T = 0 for n = 3)."""
    if kind == "zero_weight":
        weights = list(random_shift(rng, n).weights)
        weights[int(rng.integers(n))] = 0j
        return forward_matching(ShiftMatrix(weights))
    if kind == "equal_moduli":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return forward_matching(ShiftMatrix(rng.uniform(0.5, 2.0) * np.exp(1j * phases)))
    mu = rng.uniform(0.25, 4.0, size=n // 2)
    if n >= 4:
        mu[1] = mu[0]
    else:
        mu[0] = 0.0
    return InvariantForm(n, np.poly(mu)[1:], 0.0, 0.0)


@pytest.mark.parametrize("kind", ["zero_weight", "equal_moduli", "even_repeated"])
@pytest.mark.parametrize("n", range(3, 11))
def test_represent_certifies_singular_forms_with_headroom(kind, n):
    for k in range(10):
        form = singular_form(kind, n, np.random.default_rng([n, k, len(kind)]))
        assert classify(form).kind is Kind.SINGULAR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_certified(form, represent(form), headroom=10.0)


@pytest.mark.parametrize("kind", ["equal_moduli", "even_repeated"])
def test_closed_gaps_read_singular_and_certify_to_n24(kind):
    # a double root of p + s or p - s is a critical value of p at -s or s:
    # every draw has both witnesses, and above n = 10, where the test above
    # stops, each certifies at the plain tol_final gate
    for n in range(3, 25):
        for k in range(10):
            form = singular_form(kind, n, np.random.default_rng([n, k, len(kind)]))
            cls = classify(form)
            assert cls.kind is Kind.SINGULAR, (n, k)
            assert cls.witnesses == {"plus": True, "minus": True}, (n, k)
            if n > 10:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert_certified(form, represent(form))


# p = t^(n mod 2) P(t^2), s = 0, with a triple root a of P and dyadic roots,
# so the float64 coefficients are exact and the form is hyperbolic: (n, c, a)
TRIPLE_ROOT_FORMS = [
    (8, [-7.5, 20.25, -23.625, 10.125], 1.5),          # (x - 1.5)^3 (x - 3)
    (9, [-11.5, 48.75, -90.625, 62.5], 2.5),           # (x - 2.5)^3 (x - 4)
    (11, [-9.5, 32.5, -50.5, 36.5, -10.0], 1.0),       # (x - 1)^3 (x - 2.5) (x - 4)
]


@pytest.mark.parametrize("n, c, a", TRIPLE_ROOT_FORMS)
def test_triple_roots_of_the_even_part_read_singular_and_certify(n, c, a):
    # a triple root of P is a double root of Q, which the critical-point
    # solve splits into a conjugate pair about 1e-8 off the axis: Q vanishes
    # at its real part within a fraction of the Horner rounding bound, so the
    # pair is one double critical point, not a form that is not hyperbolic
    form = InvariantForm(n, c, 0.0, 0.0)
    double = [x for x, mult in form._critical_points if mult == 2]
    assert len(double) == 1 and abs(double[0] - a) <= 1e-12 * a
    assert classify(form).kind is Kind.SINGULAR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_certified(form, represent(form), headroom=10.0)


def test_spectral_route_gives_real_weights_when_ct0_vanishes():
    # with ct0 = 0 the weight product is real, so the product phase the
    # spectral route puts on a_n is exactly 0 or pi (the dihedral case)
    forms = [forward_matching(ShiftMatrix([1.3, -1.3, 1.3, 1.3, 1.3])),    # s > 0
             forward_matching(ShiftMatrix([0.8, 0.0, 1.1, 0.6]))]          # s = 0
    for form in forms:
        assert form.ct0 == 0.0 and classify(form).kind is Kind.SINGULAR
        W, _ = _represent_spectral(form, Config().tol_final, np.random.default_rng(7))
        assert_certified(form, W)
        assert all(w.imag == 0.0 for w in W.weights)
        assert realize_real(W).weights == W.weights


def test_represent_zero_weight_cubic():
    a = 1.7
    form = forward_matching(ShiftMatrix([a, 0.0, 0.0]))
    W = represent(form)
    got = forward_matching(W)
    # asserted through gauge invariants only: the coefficient data agrees
    assert abs(got.c[0] - form.c[0]) < 1e-9
    assert abs(got.c0) < 1e-9 and abs(got.ct0) < 1e-9


def test_represent_singular_even_part():
    form = InvariantForm(4, [-2.0, 0.0], 0.0, 0.0)
    W = represent(form)
    assert verify(form, W).max_abs_err < 1e-4


def test_represent_is_deterministic(quintic_form):
    W1 = represent(quintic_form, Config(seed=123))
    W2 = represent(quintic_form, Config(seed=123))
    assert W1.weights == W2.weights


GOLDEN_WEIGHTS = pathlib.Path(__file__).with_name("represent_golden.json")


@pytest.mark.parametrize("case", json.loads(GOLDEN_WEIGHTS.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}-seed{case['seed']}")
def test_represent_golden_weights(case):
    # weights pinned as repr strings, so that any change to the arithmetic
    # of the construction shows; the input is the forward image of a seeded
    # shift, or (zero_weight) of one with its second weight set to zero,
    # which takes the spectral route; the forward images were recorded when
    # the direct route came first for them, and are checked on it alone.  They
    # were recorded again when the intersection points got their closed-form
    # solve; the weights of the complex companion solve are kept next to them.
    # Seven (n = 7..12) were recorded once more when the circle parameters
    # became the critical points classify solves for, with the weights from
    # the np.roots solve of the circles kept as np_roots_circle_weights.  All
    # fourteen were recorded again when poly._evaluate_many became one matrix
    # product, with the weights of the scalar-arithmetic evaluator kept as
    # scalar_evaluator_weights.  All fourteen were recorded again when a curve
    # fit replaced the curve division and the direct route came to run at unit
    # equal moduli, with the weights of the division kept as division_weights.
    # The forward images were recorded again when the pencil fit's sample
    # points moved from a seeded random box to one fixed circle, with the
    # weights of the box kept as random_box_weights.  The cases whose bits
    # moved when every solve came to run on the unit form (the critical
    # points, before, on the raw form) were recorded again, with the earlier
    # weights kept as raw_form_weights
    rng = np.random.default_rng(case["seed"])
    W = random_shift(rng, case["n"])
    if case["kind"] == "zero_weight":
        W = represent(forward_matching(ShiftMatrix(W.weights[:1] + (0j,) + W.weights[2:])))
    else:
        W = direct_route(forward_matching(W))
    assert [repr(w) for w in W.weights] == case["weights"]


@pytest.mark.parametrize("case", [case for case in json.loads(GOLDEN_WEIGHTS.read_text())
                                  if "exact_weights" in case],
                         ids=lambda case: f"n{case['n']}-seed{case['seed']}")
def test_golden_weights_stay_near_the_companion_solve(case):
    # exact_weights are the weights of the same construction on the same
    # float64 inputs (row one, curve points, sample points), with every later
    # step in 60 digits: tests/make_exact_weights.py writes them.  The older
    # weight lists of the case are history; the division's are up to 2.7e-10
    # from exact_weights, and the random box's up to 7.2e-12
    new = np.array([complex(w) for w in case["weights"]])
    exact = np.array([complex(w) for w in case["exact_weights"]])
    assert np.max(np.abs(new - exact)) <= 1e-10 * np.max(np.abs(exact))


SPECTRAL_GOLDEN = pathlib.Path(__file__).with_name("spectral_golden.json")


@pytest.mark.parametrize("case", [case for path in (GOLDEN_WEIGHTS, SPECTRAL_GOLDEN)
                                  for case in json.loads(path.read_text())
                                  if "raw_form_weights" in case],
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_golden_weights_stay_near_the_raw_form_solve(case):
    # the unit form moves the direct route's weights by up to 1.8e-13
    # relative (n = 12), and the spectral route's by up to 8.5e-16
    new = np.array([complex(w) for w in case["weights"]])
    old = np.array([complex(w) for w in case["raw_form_weights"]])
    bound = 1e-12 if case["kind"] == "forward" else 1e-14
    assert np.max(np.abs(new - old)) <= bound * np.max(np.abs(old))


@pytest.mark.parametrize("case", json.loads(SPECTRAL_GOLDEN.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_spectral_golden_weights(case):
    # spectral-route weights pinned as repr strings: represent on the forward
    # image of a seeded shift (complex) or of its real parts (real), both
    # smooth, so the spectral route runs first; and the spectral route alone,
    # from represent's seeded generator, on equal-moduli images with s > 0,
    # where represent tries the direct route first.  The forms with k != 0
    # whose bits moved when the route came to run on the unit form, not in
    # units of the equal moduli of the raw form, were recorded again, with the
    # earlier weights kept as raw_form_weights; every form with k = 0 kept
    # its bits
    rng = np.random.default_rng(case["seed"])
    if case["kind"] == "equal_moduli":
        form = singular_form("equal_moduli", case["n"], rng)
        W, _ = _represent_spectral(form, DEFAULT_CONFIG.tol_final,
                                   np.random.default_rng(DEFAULT_CONFIG.seed))
    else:
        W = random_shift(rng, case["n"])
        if case["kind"] == "real":
            W = ShiftMatrix([w.real for w in W.weights])
        W = represent(forward_matching(W))
    assert [repr(w) for w in W.weights] == case["weights"]


def times_power_of_two(form, j):
    """The form of 2^j W, where W represents this one: c_r 4^(rj) and
    (c0, ct0) 2^(nj), exactly."""
    n = form.n
    return InvariantForm(n, [math.ldexp(cr, 2 * r * j) for r, cr in enumerate(form.c, 1)],
                         math.ldexp(form.c0, n * j), math.ldexp(form.ct0, n * j))


def exact_bits(values):
    return [(float(z.real).hex(), float(z.imag).hex()) for z in values]


@pytest.mark.parametrize("j", [-20, 3, 30])
def test_outputs_scale_exactly_with_the_input(j, quartic_form, quintic_form):
    # a form and the image of its weights times 2^j share one unit form, on
    # which every solve runs: each route's weights come back times 2^j, bit
    # for bit, and so do u and v of every affine intersection point, while
    # the points at infinity stay as they are.  The equal moduli kappa of
    # these forms are not powers of two, so this fails where a route works
    # in units of kappa itself
    smooth = forward_matching(random_shift(np.random.default_rng(5012), 12))
    zero_weight = singular_form("zero_weight", 7, np.random.default_rng([7, 0, 11]))
    routes = [
        (smooth, lambda form: next(construct._modulus_weights(form, DEFAULT_CONFIG.seed))),
        (quintic_form, lambda form: next(construct._modulus_weights(form, DEFAULT_CONFIG.seed))),
        (zero_weight, construct._path_weights),
        (quintic_form, direct_route),
        (quartic_form, direct_route),
    ]
    for form, route in routes:
        scaled = times_power_of_two(form, j)
        assert scaled._unit[0] == form._unit[0] and scaled._unit[1] == form._unit[1] + j
        want = [w * 2.0 ** j for w in route(form).weights]
        assert exact_bits(route(scaled).weights) == exact_bits(want)
    for form in (quartic_form, quintic_form, smooth):
        iset, scaled = compute_intersections(form), compute_intersections(times_power_of_two(form, j))
        assert (scaled.orbit_mult, scaled.at_infinity) == (iset.orbit_mult, iset.at_infinity)
        for (p, m), (q, mq) in zip(iset.S + iset.Sbar, scaled.S + scaled.Sbar):
            back = 1.0 if p.at_infinity else 2.0 ** -j
            assert m == mq
            assert exact_bits(q.coords()) == exact_bits((p.t, p.u * back, p.v * back))


@pytest.mark.parametrize("n", range(3, 21))
def test_equal_moduli_start_stays_on_its_line(n):
    # at r = 1 H(theta*) is a circulant with Fourier eigenvectors, so every
    # Jacobian row is constant: the columns agree and every least-norm step
    # is a multiple of 1; on a generic form (n >= 4) the start is skipped
    for k in range(3):
        form = forward_matching(random_shift(np.random.default_rng([n, k, 77]), n))
        F, J = construct._modulus_system(form)[0](np.ones(n))
        assert np.max(np.abs(J - J[:, :1])) <= 1e-13
        if n >= 4:
            assert np.linalg.norm(F) > LM_LINE


@pytest.mark.parametrize("n", range(3, 21))
def test_equal_moduli_images_certify_from_the_first_start(n):
    # equal-moduli images lie on the line of the first start, which draws
    # nothing from the generator
    for k in range(3):
        form = singular_form("equal_moduli", n, np.random.default_rng([n, k, 12]))
        assert form.s > 0
        rng = np.random.default_rng(DEFAULT_CONFIG.seed)
        state = rng.bit_generator.state
        W, err = _represent_spectral(form, DEFAULT_CONFIG.tol_final, rng)
        assert rng.bit_generator.state == state
        assert err == coefficient_error(form, W)
        assert_certified(form, W)


def test_spectral_route_with_every_start_skipped_fails_typed(monkeypatch):
    # one start, skipped on a generic form: no candidate, a typed failure;
    # the direct route fails on this form too (NoetherResidual), so
    # represent raises
    monkeypatch.setattr(construct, "MAX_RETRIES", 1)
    form = forward_matching(random_shift(np.random.default_rng([20, 2, 7]), 20))
    assert classify(form).kind is Kind.SMOOTH
    with pytest.raises(ConvergenceFailed):
        _represent_spectral(form, DEFAULT_CONFIG.tol_final, np.random.default_rng(7))
    with pytest.raises(HyprepError):
        represent(form)
