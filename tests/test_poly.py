"""Polynomial core: arithmetic and group actions."""

import sys

import numpy as np
import pytest

from hyprep.poly import (TrivariatePoly, _evaluate_many, conj_involution,
                         monomials_of_degree, rotate)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        TrivariatePoly(3, {(1, 1, 0): 1.0})


def test_mul_and_evaluate():
    p = TrivariatePoly(1, {(1, 0, 0): 1.0, (0, 1, 0): 2.0})
    q = TrivariatePoly(1, {(0, 0, 1): 1.0})
    pq = p * q
    assert pq.degree == 2
    assert pq.coeff((1, 0, 1)) == 1.0
    assert pq.coeff((0, 1, 1)) == 2.0
    t, u, v = 0.3, 1.0 + 2.0j, -0.5j
    assert abs(pq.evaluate(t, u, v) - (t + 2 * u) * v) < 1e-14


def test_dt():
    p = TrivariatePoly(3, {(3, 0, 0): 1.0, (1, 1, 1): -26.0})
    dp = p.dt()
    assert dp.coeff((2, 0, 0)) == 3.0
    assert dp.coeff((0, 1, 1)) == -26.0


def test_leading_follows_global_order():
    # graded lex with t > u > v
    p = TrivariatePoly(3, {(0, 3, 0): 5.0, (1, 1, 1): 2.0, (0, 1, 2): 1.0})
    e, c = p.leading()
    assert e == (1, 1, 1) and c == 2.0
    assert p.monic().coeff((1, 1, 1)) == 1.0


def test_rotate_examples():
    uv = TrivariatePoly(2, {(0, 1, 1): 1.0})
    assert rotate(uv, 1, 5).distance(uv) < 1e-15

    un = TrivariatePoly(5, {(0, 5, 0): 1.0})
    assert rotate(un, 1, 5).distance(un) < 1e-14

    u = TrivariatePoly(1, {(0, 1, 0): 1.0})
    w = np.exp(2j * np.pi / 5)
    assert abs(rotate(u, 1, 5).coeff((0, 1, 0)) - w) < 1e-15


def test_conj_involution_fixed_points():
    # i (u - v) is fixed: conj swaps u and v and conjugates coefficients
    p = TrivariatePoly(1, {(0, 1, 0): 1j, (0, 0, 1): -1j})
    assert conj_involution(p).distance(p) == 0.0
    # generic coefficient moves to the swapped slot, conjugated
    q = TrivariatePoly(1, {(0, 1, 0): 2.0 + 3.0j})
    img = conj_involution(q)
    assert img.coeff((0, 0, 1)) == 2.0 - 3.0j
    # involution
    r = TrivariatePoly(2, {(1, 1, 0): 1 + 2j, (0, 0, 2): -3j})
    assert conj_involution(conj_involution(r)).distance(r) == 0.0


def test_conj_fixed_set_closed_under_real_combination():
    a = TrivariatePoly(2, {(0, 1, 1): 2.0})
    b = TrivariatePoly(2, {(2, 0, 0): 1.0, (0, 2, 0): 1j, (0, 0, 2): -1j})
    for p in (a, b):
        assert conj_involution(p).distance(p) == 0.0
    combo = a + 3.5 * b
    assert conj_involution(combo).distance(combo) == 0.0


def reference_value(p, t, u, v):
    """p at (t, u, v) term by term in Python's complex arithmetic, and the
    bound sum |c| |t^i u^j v^k| that scales the rounding error of either
    evaluation."""
    value = bound = 0.0
    for (i, j, k), c in p.terms.items():
        value += c * t ** i * u ** j * v ** k
        bound += abs(c) * abs(t) ** i * abs(u) ** j * abs(v) ** k
    return value, bound


def agrees_with_reference(p, point, value):
    """Within 2 (degree + terms) eps of the bound: each of the two
    evaluations rounds about once per power step and once per term."""
    want, bound = reference_value(p, *point)
    tol = 2 * (p.degree + len(p.terms)) * sys.float_info.epsilon * bound
    return abs(value - want) <= tol


def test_evaluate_many_agrees_with_the_term_by_term_reference():
    # random sparse polynomials of mixed degrees and term counts, each built
    # from its terms in shuffled order, at real and complex t and |u| up to
    # 1e3; the zero polynomial gives exact zeros
    rng = np.random.default_rng(31)
    for _ in range(60):
        polys = [TrivariatePoly(int(rng.integers(0, 23)))]
        for _ in range(int(rng.integers(1, 7))):
            deg = int(rng.integers(0, 23))
            mons = monomials_of_degree(deg)
            take = rng.permutation(len(mons))[: int(rng.integers(0, 16))]
            scales = 10.0 ** rng.integers(-3, 4, size=len(take))
            polys.append(TrivariatePoly(deg, {
                mons[k]: complex(*rng.normal(size=2)) * s for k, s in zip(take, scales)}))
        points = []
        for _ in range(int(rng.integers(1, 9))):
            t = float(rng.uniform(-2, 2))
            if rng.random() < 0.5:
                t = complex(t, rng.uniform(-2, 2))
            u = complex(*rng.uniform(-1, 1, size=2)) * 10.0 ** rng.uniform(-3, 3)
            v = u.conjugate() if rng.random() < 0.5 else complex(*rng.normal(size=2))
            points.append((t, u, v))
        got = _evaluate_many(polys, points)
        assert got.shape == (len(polys), len(points))
        assert not got[0].any()
        for p, row in zip(polys, got):
            for pt, value in zip(points, row.tolist()):
                assert agrees_with_reference(p, pt, value)
                assert agrees_with_reference(p, pt, p.evaluate(*pt))


def test_evaluate_many_reads_an_overflow_as_nan():
    # an overflowing monomial makes every value at its point nan, also that
    # of a polynomial without it; the other points keep their values
    p = TrivariatePoly(2, {(2, 0, 0): 1.0})
    q = TrivariatePoly(2, {(0, 1, 1): 1.0})
    got = _evaluate_many([p, q], [(1e200, 1.0, 1.0), (2.0, 3.0, 1.0)])
    assert np.isnan(got[:, 0]).all()
    assert got[:, 1].tolist() == [4.0, 3.0]
    assert np.isnan(p.evaluate(1e200, 0.0, 0.0))
