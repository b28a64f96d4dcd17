"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with pytest -s); the
assertions carry the same bounds, so the suite is the gate either way.
"""

import math
import time

import numpy as np
import pytest

from hyprep import (InvariantForm, ShiftMatrix, classify, compute_intersections,
                    eigenspace_basis, eigenspace_dim_formula, forward_interpolate,
                    forward_matching, invariant_dim, is_hyperbolic, range_equal,
                    realize_real, represent, verify)
from hyprep.hyperbolicity import Kind
from hyprep.poly import monomials_of_degree
from tests.conftest import random_shift

S2, S3, S6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)


def report(cid, ok, detail):
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_quartic_regression():
    start = time.time()
    form = InvariantForm(4, [-26.0, 72.0], -72.0, 0.0)
    W = represent(form)
    err = verify(form, W).max_abs_err
    B = realize_real(W)
    real_ok = B.is_real(tol=1e-12)
    fwd = forward_matching(ShiftMatrix([4.0, 4.0, 6.0, 6.0]))
    exact = max(abs(fwd.c[0] + 26.0), abs(fwd.c[1] - 72.0),
                abs(fwd.c0 + 72.0), abs(fwd.ct0))
    elapsed = time.time() - start
    ok = err <= 1e-6 and real_ok and exact <= 1e-12 and elapsed < 5.0
    report(1, ok, f"verify {err:.2e}, realize real {real_ok}, "
                  f"forward exact {exact:.2e}, {elapsed:.2f}s")


def test_criterion_2_quintic_regression():
    start = time.time()
    # top pair anchored on the forward oracle (the published pairing has one
    # sign flipped relative to the published weights)
    printed = ShiftMatrix([2.0, 3.0 + 3.0j, S6, S2 + 2.0j, -4.0j])
    oracle = forward_matching(printed)
    form = InvariantForm(5, [-12.5, 33.75], 3 * (S6 + S3), 3 * (S6 - S3))
    fwd_err = max(abs(oracle.c[0] + 12.5), abs(oracle.c[1] - 33.75),
                  abs(oracle.c0 - form.c0), abs(oracle.ct0 - form.ct0))
    W = represent(form)
    err = verify(form, W).max_abs_err
    elapsed = time.time() - start
    ok = err <= 1e-6 and fwd_err <= 1e-9 and elapsed < 10.0
    report(2, ok, f"verify {err:.2e}, forward vs oracle {fwd_err:.2e}, {elapsed:.2f}s")


def test_criterion_3_roundtrip_property():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (3, 4, 5, 6, 7):
        for _ in range(20):
            form = forward_matching(random_shift(rng, n))
            W = represent(form)
            worst = max(worst, verify(form, W).max_abs_err)
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed < 180.0
    report(3, ok, f"worst roundtrip error {worst:.2e} over 100 draws, {elapsed:.1f}s")


def test_criterion_4_dimension_formulas():
    ok = True
    for n in range(3, 13):
        ok &= invariant_dim(n) == n // 2 + 3
        mons = monomials_of_degree(n)
        w = np.exp(2j * np.pi / n)
        count = sum(w ** (ell * (j - k)) for ell in range(n)
                    for _, j, k in mons).real / n
        ok &= round(count) == invariant_dim(n)
        for ell in range(n):
            brute = sum(1 for _, j, k in monomials_of_degree(n - 1)
                        if (j - k) % n == ell)
            ok &= eigenspace_dim_formula(n, ell) == brute
            ok &= len(eigenspace_basis(n, n - 1, ell)) == brute
    report(4, ok, "invariant and eigenspace dimensions exact for all n <= 12")


def test_criterion_5_intersection_census():
    rng = np.random.default_rng(99)
    checked = 0
    worst_res = 0.0
    for n in (3, 5, 7):
        done = 0
        while done < 10:
            form = forward_matching(random_shift(rng, n))
            if classify(form).kind is not Kind.SMOOTH:
                continue
            iset = compute_intersections(form)
            assert iset.total_multiplicity() == n * (n - 1)
            f = form.expand()
            df = f.dt()
            for p, _ in iset.S + iset.Sbar:
                assert p.t == 1.0          # odd degree: no points at infinity
                worst_res = max(worst_res,
                                abs(f.evaluate(*p.coords())),
                                abs(df.evaluate(*p.coords())))
            done += 1
            checked += 1
    ok = checked == 30 and worst_res <= 1e-8
    report(5, ok, f"30 smooth forms, census exact, worst residual {worst_res:.2e}")


def test_criterion_6_hyperbolicity_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 9))
        ok &= is_hyperbolic(forward_matching(random_shift(rng, n)))
    ok &= not is_hyperbolic(InvariantForm(3, [0.0], 1.0, 0.0))
    report(6, ok, "100 forward images accepted, constant-shift cubic rejected")


def test_criterion_7_singular_path():
    form = InvariantForm(4, [-2.0, 0.0], 0.0, 0.0)   # p(t) = t^4 - 2 t^2, s = 0
    W = represent(form)
    err = verify(form, W).max_abs_err
    ok = err <= 1e-4
    report(7, ok, f"spectral route roundtrip error {err:.2e}")


def test_criterion_8_numerical_range_equality():
    A = ShiftMatrix([4.0, 4.0, 6.0, 6.0])
    B = ShiftMatrix([4.0,
                     4.0 * np.exp(1j * np.pi / 12),
                     6.0 * np.exp(1j * np.pi / 4),
                     6.0 * np.exp(-1j * np.pi / 3)])
    ok = range_equal(A, B, 720)
    report(8, ok, "sampled support functions agree to 1e-9 on 720 angles")


def test_criterion_9_two_oracle_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        W = random_shift(rng, n)
        got = forward_interpolate(W)     # fatal OracleDisagreement on mismatch
        want = forward_matching(W)
        scale = max(1.0, want.coefficient_scale())
        worst = max(worst,
                    max(abs(a - b) for a, b in zip(got.c, want.c)) / scale,
                    abs(got.c0 - want.c0) / scale,
                    abs(got.ct0 - want.ct0) / scale)
    ok = worst <= 1e-9
    report(9, ok, f"200 draws, worst relative disagreement {worst:.2e}")
