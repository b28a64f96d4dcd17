"""The construction pipeline: vanishing forms, curve division, pencil, weights."""

import json
import pathlib
import warnings

import numpy as np
import pytest

from hyprep import (Config, InvariantForm, ShiftMatrix, compute_intersections,
                    extract_shift, noether_division, normalize_pencil,
                    represent, vanishing_form, verify)
from hyprep.construct import _DivisionMemo, assemble_form_matrix, pencil_from_adjugate
from hyprep.errors import HyprepError, PatternViolation
from hyprep.forward import forward_matching, realize_real
from hyprep.invariants import eigenspace_basis
from hyprep.poly import DROP_TOL, TrivariatePoly, conj_involution
from tests.conftest import random_shift

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
    mon_rows = eigenspace_basis(n, 2 * (n - 1), ell).monomials
    cols = [TrivariatePoly.monomial(e) * f for e in eigenspace_basis(n, n - 2, ell).monomials]
    cols += [TrivariatePoly.monomial(e) * g11 for e in eigenspace_basis(n, n - 1, ell).monomials]
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
        memo = _DivisionMemo(f, f.dt(), n)
        for ell in range(n):
            want = division_matrix_from_products(f, f.dt(), ell, n)
            got = memo.system(ell)[0]
            assert got.shape == want.shape
            assert np.array_equal(got.view(float), want.view(float))
    # the coefficient of t^2 (uv)^2 in f and of t (uv)^2 in df/dt is cut
    f = tiny.expand()
    assert abs(f.coeff((2, 2, 2))) < DROP_TOL * f.max_abs_coeff()
    A = _DivisionMemo(f, f.dt(), 6).system(0)[0]
    assert np.count_nonzero(A[:, 0]) == len(f.terms) - 1
    with pytest.raises(ValueError):       # a memo of another form
        noether_division(f, f.dt(), f * f.dt().dt(), 0, 6, memo=memo)


def test_form_matrix_invariants(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    n = quartic_form.n
    f = quartic_form.expand()
    assert G.entry(0, 0).distance(f.dt()) == 0.0
    for i in range(n):
        for j in range(n):
            gij = G.entry(i, j)
            # hermitian symmetry under the conjugation involution
            assert conj_involution(gij).distance(G.entry(j, i)) < 1e-12
            # eigenspace discipline is structural
            assert all((e[1] - e[2]) % n == (i - j) % n for e in gij.terms)
    # the division identity g11 gij - conj(g1i) g1j in <f>, checked as residual
    for i in range(1, n):
        for j in range(i, n):
            h = G.entry(i, 0) * G.entry(0, j)
            lhs = G.entry(0, 0) * G.entry(i, j) - h
            _, b = noether_division(f, G.entry(0, 0), h, (i - j) % n, n)
            assert b.distance(G.entry(i, j)) < 1e-8 * max(1.0, b.max_abs_coeff())


def test_form_matrix_quartic_g22(quartic_form):
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    expect = TrivariatePoly(3, {(3, 0, 0): 1.0, (1, 1, 1): -18.0})
    assert G.entry(1, 1).monic().distance(expect) < 1e-9
    assert conj_involution(G.entry(1, 1)).distance(G.entry(1, 1)) < 1e-12


def test_fitted_pencil_determinant_reproduces_form(quartic_form):
    cfg = Config()
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    rng = np.random.default_rng(cfg.seed)
    P = normalize_pencil(pencil_from_adjugate(G, quartic_form, cfg, rng), cfg)
    f = quartic_form.expand()
    check = np.random.default_rng(1)
    for _ in range(10):
        t, x, y = check.normal(size=3)
        u = complex(x, y)
        got = np.linalg.det(P.value(t, u, u.conjugate()))
        want = f.evaluate(t, u, u.conjugate())
        assert abs(got - want) < 1e-7 * max(1.0, abs(want))


def test_pencil_rotation_covariance(quartic_form):
    cfg = Config()
    iset = compute_intersections(quartic_form)
    G = assemble_form_matrix(quartic_form, iset)
    rng = np.random.default_rng(cfg.seed)
    P = normalize_pencil(pencil_from_adjugate(G, quartic_form, cfg, rng), cfg)
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


@pytest.mark.parametrize("k", range(10))
def test_represent_degree_16_fails_typed_and_quietly(k):
    # at n = 16 the adjugate quotient overflows or turns non-finite; that
    # must end in a HyprepError, with no numpy RuntimeWarning on the way
    form = forward_matching(random_shift(np.random.default_rng(1760 + k), 16))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            represent(form)
        except HyprepError:
            pass
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
    # which takes the perturbation route and the polish
    rng = np.random.default_rng(case["seed"])
    W = random_shift(rng, case["n"])
    if case["kind"] == "zero_weight":
        W = ShiftMatrix(W.weights[:1] + (0j,) + W.weights[2:])
    W = represent(forward_matching(W))
    assert [repr(w) for w in W.weights] == case["weights"]
