"""The construction pipeline: vanishing forms, curve division, pencil, weights."""

import json
import pathlib
import warnings

import numpy as np
import pytest

from hyprep import (DEFAULT_CONFIG, Config, InvariantForm, Kind, ShiftMatrix,
                    classify, compute_intersections, extract_shift, noether_division,
                    normalize_pencil, represent, vanishing_form, verify)
from hyprep import construct
from hyprep.config import LM_LINE, TOL_PATTERN
from hyprep.construct import (_division_layout, _division_matrix, _represent_direct,
                              _represent_spectral, assemble_form_matrix,
                              pencil_from_adjugate)
from hyprep.errors import (AdjugateMismatch, ConvergenceFailed, HyprepError,
                           NoetherResidual, PatternViolation)
from hyprep.forward import coefficient_error, forward_matching, realize_real
from hyprep.invariants import eigenspace_basis
from hyprep.poly import DROP_TOL, TrivariatePoly, conj_involution
from tests.conftest import random_shift
from tests.test_hyperbolicity import _form_at_scale

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


def division_matrix_from_products(f, g11, ell, n):
    """The class-ell division matrix built column by column from the
    products monomial * f and monomial * g11."""
    mon_rows = eigenspace_basis(n, 2 * (n - 1), ell)
    cols = [TrivariatePoly.monomial(e) * f for e in eigenspace_basis(n, n - 2, ell)]
    cols += [TrivariatePoly.monomial(e) * g11 for e in eigenspace_basis(n, n - 1, ell)]
    A = np.zeros((len(mon_rows), len(cols)), dtype=complex)
    for jcol, prod in enumerate(cols):
        for e, c in prod.terms.items():
            A[mon_rows.index(e), jcol] = c
    return A


def test_division_matrix_equals_the_product_built_one(quintic_form):
    rng = np.random.default_rng(41)
    tiny = InvariantForm(6, [-3.0, 1e-13, 2.0], 5.0, 1.0)      # c2 falls below the cut
    forms = [quintic_form, tiny] + [forward_matching(random_shift(rng, n)) for n in (4, 7, 8)]
    for form in forms:
        n = form.n
        f = form.expand()
        every = _division_matrix(f, f.dt(), n)
        for ell in range(n):
            want = division_matrix_from_products(f, f.dt(), ell, n)
            got = every[_division_layout(n, ell)[4]]
            assert got.shape == want.shape
            assert np.array_equal(got.view(float), want.view(float))
    # the coefficient of t^2 (uv)^2 in f and of t (uv)^2 in df/dt is cut
    f = tiny.expand()
    assert abs(f.coeff((2, 2, 2))) < DROP_TOL * f.max_abs_coeff()
    A = _division_matrix(f, f.dt(), 6)[_division_layout(6, 0)[4]]
    assert np.count_nonzero(A[:, 0]) == len(f.terms) - 1


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
        pencil_from_adjugate(G, form, np.random.default_rng(Config().seed))
        assert (len(det), len(inv)) == (1, 1)
        monkeypatch.undo()


def same_bits(p, q):
    return p.degree == q.degree and list(p.terms.items()) == list(q.terms.items())


def test_noether_division_equals_the_batched_column(quartic_form, quintic_form):
    # one division on its own gives the column of the batched class solve
    # bit for bit, for every entry of the form matrix
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
                assert same_bits(b, G[i][j]), (n, i, j)


def test_form_matrix_reports_the_row_major_first_division_failure(monkeypatch, quartic_form):
    # a vanishing form moved off the points spoils every target in column 3
    # and in row 3: (1,3) of class 2, (2,3) of class 3 and (3,3) of class 0.
    # Classes are solved together, but the failure reported is the first in
    # row-major order, with the message a division by itself gives
    vanishing = construct.vanishing_form

    def moved(iset, ell):
        p = vanishing(iset, ell)
        if ell == 1:
            e = eigenspace_basis(4, 3, 1)[-1]
            p = p + TrivariatePoly.monomial(e, 1e-3)
        return p
    monkeypatch.setattr(construct, "vanishing_form", moved)
    iset = compute_intersections(quartic_form)
    with pytest.raises(NoetherResidual) as caught:
        assemble_form_matrix(quartic_form, iset)
    f = quartic_form.expand()
    g03 = moved(iset, 1)
    with pytest.raises(NoetherResidual) as alone:
        noether_division(f, f.dt(), conj_involution(moved(iset, 3)) * g03, 2, 4)
    assert str(caught.value) == str(alone.value) == "division residual 4.47e-05"


def reference_sample_points(form, count, rng):
    """The sample points drawn one candidate at a time, as the pencil fit
    first drew them."""
    f = form.expand()
    scale = form.coefficient_scale()
    radius = 1.0 + scale
    pts = [(1.0, 0.0, 0.0)]
    for _ in range(200 * count):
        if len(pts) == count:
            return pts
        t = float(rng.uniform(-2.0, 2.0)) * radius
        x, y = (float(z) for z in rng.uniform(-1.0, 1.0, size=2) * radius)
        if abs(f.evaluate(t, complex(x, y), complex(x, -y))) >= 0.1 * scale:
            pts.append((t, x, y))
    return pts if len(pts) == count else None


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e16, 1e48])
@pytest.mark.parametrize("n", [4, 6, 9])
def test_sample_points_leave_the_generator_as_one_draw_at_a_time(n, scale):
    # the block draws give the same points and leave the generator in the
    # state of the one-at-a-time loop, also when no point is found (n = 6
    # and 9 at scale 1e48)
    form = _form_at_scale(n, 0, scale)
    count = max(8, n + 4) + 3
    want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
    want = reference_sample_points(form, count, want_rng)
    if want is None:
        with pytest.raises(AdjugateMismatch):
            construct._sample_points(form, count, got_rng)
    else:
        pts, vals = construct._sample_points(form, count, got_rng)
        assert pts == [(t, complex(x, y), complex(x, -y)) for t, x, y in want]
        f = form.expand()
        assert vals.shape == (1, count)
        assert vals[0].tolist() == [f.evaluate(*p) for p in pts]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()


def test_form_matrix_quartic_g22(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    expect = TrivariatePoly(3, {(3, 0, 0): 1.0, (1, 1, 1): -18.0})
    assert G[1][1].monic().distance(expect) < 1e-9
    assert conj_involution(G[1][1]).distance(G[1][1]) < 1e-12


def test_fitted_pencil_determinant_reproduces_form(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    rng = np.random.default_rng(Config().seed)
    P = normalize_pencil(pencil_from_adjugate(G, quartic_form, rng))
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
        pencil_from_adjugate(G, quartic_form, np.random.default_rng(Config().seed))


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
        P = pencil_from_adjugate(G, quartic_form, np.random.default_rng(Config().seed))
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
    rng = np.random.default_rng(Config().seed)
    P = normalize_pencil(pencil_from_adjugate(G, quartic_form, rng))
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
    """The direct route alone, from the seeded generator represent starts from."""
    return _represent_direct(form, DEFAULT_CONFIG.tol_final,
                             np.random.default_rng(DEFAULT_CONFIG.seed))[0]


def runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("k", range(10))
def test_represent_degree_16_fails_typed_and_quietly(monkeypatch, k):
    # at n = 16 the direct route's adjugate quotient overflows or turns
    # non-finite: a typed failure, after one attempt, with no numpy
    # RuntimeWarning on the way
    calls = []

    def counted(*args, assemble=construct.assemble_form_matrix):
        calls.append(1)
        return assemble(*args)
    monkeypatch.setattr(construct, "assemble_form_matrix", counted)
    form = forward_matching(random_shift(np.random.default_rng(1760 + k), 16))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(HyprepError):
            direct_route(form)
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


@pytest.mark.parametrize("n, k", [(12, 5), (14, 3)])
def test_represent_prefers_near_roundoff_and_keeps_a_certified_result(monkeypatch, n, k):
    # equal-moduli draws whose direct-route error lies in (1e-8, 1e-6] * scale:
    # certified, but short of roundoff, so the spectral route runs next
    form = singular_form("equal_moduli", n, np.random.default_rng([n, k, 12]))
    scale = max(1.0, form.coefficient_scale())
    W_direct = direct_route(form)
    assert 1e-8 * scale < coefficient_error(form, W_direct) <= 1e-6 * scale
    assert coefficient_error(form, represent(form)) <= 1e-8 * scale

    def failing(*args):
        raise ConvergenceFailed("spectral route error")
    monkeypatch.setattr(construct, "_represent_spectral", failing)
    assert represent(form).weights == W_direct.weights


@pytest.mark.parametrize("n", range(3, 12))
def test_direct_route_certifies_equal_moduli_near_roundoff(n):
    # every gap of these forms is closed: each circle and the line at
    # infinity carry one self-conjugate orbit, at the exact double root
    for k in range(10):
        form = singular_form("equal_moduli", n, np.random.default_rng([n, k, 12]))
        _, err = _represent_direct(form, DEFAULT_CONFIG.tol_final,
                                   np.random.default_rng(DEFAULT_CONFIG.seed))
        assert err <= 1e-8 * max(1.0, form.coefficient_scale()), (n, k)


@pytest.mark.parametrize("n", range(4, 25))
def test_represent_certifies_forward_images_of_high_degree(n):
    # smooth forms: the spectral route runs first, its errors near roundoff,
    # far inside the gate, and with no numpy RuntimeWarning on the way
    for k in range(3):
        form = forward_matching(random_shift(np.random.default_rng(5000 + 100 * n + k), n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            W = represent(form)
        assert not runtime_warnings(caught)
        assert_certified(form, W, headroom=100.0)


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
    # the np.roots solve of the circles kept as np_roots_circle_weights
    rng = np.random.default_rng(case["seed"])
    W = random_shift(rng, case["n"])
    if case["kind"] == "zero_weight":
        W = represent(forward_matching(ShiftMatrix(W.weights[:1] + (0j,) + W.weights[2:])))
    else:
        W = direct_route(forward_matching(W))
    assert [repr(w) for w in W.weights] == case["weights"]


@pytest.mark.parametrize("case", [case for case in json.loads(GOLDEN_WEIGHTS.read_text())
                                  if "companion_weights" in case],
                         ids=lambda case: f"n{case['n']}-seed{case['seed']}")
def test_golden_weights_stay_near_the_companion_solve(case):
    new = np.array([complex(w) for w in case["weights"]])
    for key in ("companion_weights", "np_roots_circle_weights"):
        if key in case:
            old = np.array([complex(w) for w in case[key]])
            assert np.max(np.abs(new - old)) <= 1e-10 * np.max(np.abs(old))


SPECTRAL_GOLDEN = pathlib.Path(__file__).with_name("spectral_golden.json")


@pytest.mark.parametrize("case", json.loads(SPECTRAL_GOLDEN.read_text()),
                         ids=lambda case: f"{case['kind']}-n{case['n']}")
def test_spectral_golden_weights(case):
    # spectral-route weights pinned as repr strings: represent on the forward
    # image of a seeded shift (complex) or of its real parts (real), both
    # smooth, so the spectral route runs first; and the spectral route alone,
    # from represent's seeded generator, on equal-moduli images with s > 0,
    # where represent tries the direct route first
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
    # the direct route fails on this form too, so represent raises
    monkeypatch.setattr(construct, "MAX_RETRIES", 1)
    form = forward_matching(random_shift(np.random.default_rng(1760), 13))
    assert classify(form).kind is Kind.SMOOTH
    with pytest.raises(ConvergenceFailed):
        _represent_spectral(form, DEFAULT_CONFIG.tol_final, np.random.default_rng(7))
    with pytest.raises(HyprepError):
        represent(form)
