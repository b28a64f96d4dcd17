"""Forward oracles, verification reports and the real-weight dephasing."""

import cmath
import math

import numpy as np
import pytest

from hyprep import (InvariantForm, ShiftMatrix, forward_interpolate,
                    forward_matching, realize_real, verify)
from hyprep.errors import NotDihedral, OracleDisagreement
from tests.conftest import random_shift


def test_matching_quartic_exact(quartic_shift):
    form = forward_matching(quartic_shift)
    # matching arithmetic: (16+16+36+36)/4, (16*36+16*36)/16, -576/8
    assert form.c == (-26.0, 72.0)
    assert form.c0 == -72.0
    assert form.ct0 == 0.0


def test_matching_single_weight():
    a = 1.3
    form = forward_matching(ShiftMatrix([a, 0.0, 0.0]))
    assert form.c == (pytest.approx(-a * a / 4),)
    assert form.c0 == 0.0 and form.ct0 == 0.0


def test_matching_quintic_product(quintic_shift):
    form = forward_matching(quintic_shift)
    assert form.c[0] == pytest.approx(-12.5)
    assert form.c[1] == pytest.approx(33.75)
    prod = quintic_shift.product()
    s6, s3 = math.sqrt(6), math.sqrt(3)
    assert prod.real == pytest.approx(48 * s6 + 48 * s3)
    assert prod.imag == pytest.approx(48 * s6 - 48 * s3)
    assert form.c0 + 1j * form.ct0 == pytest.approx(prod / 16)


def test_matching_zero_shift():
    form = forward_matching(ShiftMatrix([0.0] * 6))
    assert all(c == 0.0 for c in form.c)
    assert form.c0 == form.ct0 == 0.0


def assert_oracles_agree(W):
    got = forward_interpolate(W)     # raises OracleDisagreement on mismatch
    want = forward_matching(W)
    scale = max(1.0, want.coefficient_scale())
    assert max(abs(a - b) for a, b in zip(got.c, want.c)) < 1e-9 * scale
    assert abs(got.c0 - want.c0) < 1e-9 * scale
    assert abs(got.ct0 - want.ct0) < 1e-9 * scale


def test_interpolate_agrees_with_matching():
    rng = np.random.default_rng(51)
    for _ in range(40):
        n = int(rng.integers(3, 11))
        assert_oracles_agree(random_shift(rng, n))


@pytest.mark.parametrize("n", [19, 20, 24, 30])
def test_interpolate_agrees_with_matching_high_degree(n):
    # a monomial least-squares fit of sampled determinants raised false
    # OracleDisagreement from n = 19 on
    rng = np.random.default_rng(1900 + n)
    for _ in range(10):
        assert_oracles_agree(random_shift(rng, n))


@pytest.mark.parametrize("n", [3, 6, 11, 20])
def test_interpolate_flags_a_coefficient_moved_by_1e_6(monkeypatch, n):
    W = random_shift(np.random.default_rng(4100 + n), n)
    form = forward_matching(W)
    # the coefficients that a move of 1e-6 relative takes past 1e-9 of the scale
    large = [r for r, c in enumerate(form.c) if abs(c) >= 1e-3 * form.coefficient_scale()]
    assert large
    for r in large:
        def moved(W, match=forward_matching, r=r):
            form = match(W)
            c = list(form.c)
            c[r] *= 1 + 1e-6
            return InvariantForm(form.n, c, form.c0, form.ct0)

        monkeypatch.setattr("hyprep.forward.forward_matching", moved)
        with pytest.raises(OracleDisagreement):
            forward_interpolate(W)


def test_interpolate_quartic(quartic_shift):
    got = forward_interpolate(quartic_shift)
    assert got.c[0] == pytest.approx(-26.0, abs=1e-9)
    assert got.c[1] == pytest.approx(72.0, abs=1e-9)
    assert got.c0 == pytest.approx(-72.0, abs=1e-9)


def test_gauge_invariance():
    rng = np.random.default_rng(57)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        W = random_shift(rng, n)
        thetas = rng.uniform(0, 2 * np.pi, size=n)
        gauged = [w * cmath.exp(1j * (thetas[j] - thetas[(j + 1) % n]))
                  for j, w in enumerate(W.weights)]
        a, b = forward_matching(W), forward_matching(ShiftMatrix(gauged))
        scale = max(1.0, a.coefficient_scale())
        assert max(abs(x - y) for x, y in zip(a.c, b.c)) < 1e-12 * scale
        assert abs(a.c0 - b.c0) < 1e-12 * scale
        assert abs(a.ct0 - b.ct0) < 1e-12 * scale


def test_real_weights_give_dihedral_form():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        W = ShiftMatrix(rng.uniform(-2, 2, size=n))
        assert forward_matching(W).ct0 == 0.0


def test_verify_report(quartic_form, quartic_shift):
    rep = verify(quartic_form, quartic_shift)
    assert rep.max_abs_err == 0.0
    assert rep.hyperbolic and rep.dihedral and not rep.zero_weight
    wrong = ShiftMatrix([4.0, 4.0, 6.0, 5.0])
    rep = verify(quartic_form, wrong)
    assert rep.max_abs_err > 1.0


def test_realize_real_quartic(quartic_shift_phased, quartic_form):
    B = realize_real(quartic_shift_phased)
    assert B.is_real()
    assert [w.real for w in B.weights] == pytest.approx([4.0, 4.0, 6.0, 6.0])
    assert verify(quartic_form, B).max_abs_err < 1e-12


def test_realize_real_idempotent(quartic_shift):
    B = realize_real(quartic_shift)
    C = realize_real(B)
    assert max(abs(b - c) for b, c in zip(B.weights, C.weights)) < 1e-12


def test_realize_real_random_with_real_product():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = 6
        mods = rng.uniform(0.5, 2.0, size=n)
        phases = rng.uniform(0, 2 * np.pi, size=n - 1)
        last = -np.sum(phases)             # force a real, positive product
        W = ShiftMatrix(mods * np.exp(1j * np.append(phases, last)))
        B = realize_real(W)
        assert B.is_real(tol=1e-12)
        a, b = forward_matching(W), forward_matching(B)
        scale = max(1.0, a.coefficient_scale())
        assert max(abs(x - y) for x, y in zip(a.c + (a.c0, a.ct0),
                                              b.c + (b.c0, b.ct0))) < 1e-9 * scale


def test_realize_real_rejects_complex_product():
    W = ShiftMatrix([1.0, 1.0, cmath.exp(0.7j)])
    with pytest.raises(NotDihedral):
        realize_real(W)


def test_shift_json_roundtrip(quintic_shift):
    back = ShiftMatrix.from_json(quintic_shift.to_json())
    assert back == quintic_shift
    with pytest.raises(ValueError):
        ShiftMatrix.from_json({"n": 4, "weights": [[1, 0], [2, 0], [3, 0]]})


def test_shift_matrix_rejects_short_weight_lists():
    with pytest.raises(ValueError):
        ShiftMatrix([1.0, 2.0])
