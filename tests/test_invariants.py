"""Invariant coefficient form, eigenspace bases and the dimension formulas."""

import numpy as np
import pytest

from hyprep import (InvariantForm, eigenspace_basis, eigenspace_dim_formula,
                    invariant_dim)
from hyprep.poly import TrivariatePoly, conj_involution, monomials_of_degree, rotate


def brute_force_invariant_dim(n):
    """Average of the rotation character over the group on degree-n monomials."""
    w = np.exp(2j * np.pi / n)
    total = 0.0 + 0.0j
    for ell in range(n):
        total += sum(w ** (ell * (j - k)) for _, j, k in monomials_of_degree(n))
    count = total.real / n
    assert abs(count - round(count)) < 1e-9
    return round(count)


def test_expand_quartic(quartic_form):
    f = quartic_form.expand()
    assert f.coeff((4, 0, 0)) == 1.0
    assert f.coeff((2, 1, 1)) == -26.0
    assert f.coeff((0, 2, 2)) == 72.0
    assert f.coeff((0, 4, 0)) == -36.0
    assert f.coeff((0, 0, 4)) == -36.0


def test_expand_trivial_cubic():
    f = InvariantForm(3, [0.0], 0.0, 0.0).expand()
    assert f.terms == {(3, 0, 0): 1.0 + 0.0j}


def test_expand_quintic_top_coefficient(quintic_form):
    f = quintic_form.expand()
    expect = complex(quintic_form.c0, -quintic_form.ct0) / 2
    assert abs(f.coeff((0, 5, 0)) - expect) < 1e-14
    assert abs(f.coeff((0, 0, 5)) - expect.conjugate()) < 1e-14


def test_form_validation():
    with pytest.raises(ValueError):
        InvariantForm(2, [], 0.0, 0.0)
    with pytest.raises(ValueError):
        InvariantForm(4, [1.0], 0.0, 0.0)
    with pytest.raises(ValueError):
        InvariantForm(4, [1.0, float("nan")], 0.0, 0.0)


def test_rotation_invariance_exact():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6, 7):
        c = rng.normal(size=n // 2)
        form = InvariantForm(n, c, rng.normal(), rng.normal())
        f = form.expand()
        for ell in range(n):
            # coefficient-level identity: every monomial has j - k = 0 mod n
            assert all((e[1] - e[2]) % n == 0 for e in f.terms)
            assert rotate(f, ell, n).distance(f) < 1e-12 * f.max_abs_coeff()


def test_reflection_invariance_when_ct0_vanishes():
    form = InvariantForm(6, [1.0, -2.0, 0.5], 3.0, 0.0)
    f = form.expand()
    swapped = TrivariatePoly(6, {(i, k, j): c for (i, j, k), c in f.terms.items()})
    assert swapped.distance(f) == 0.0
    # and a nonzero ct0 breaks it
    g = InvariantForm(6, [1.0, -2.0, 0.5], 3.0, 1.0).expand()
    swapped = TrivariatePoly(6, {(i, k, j): c for (i, j, k), c in g.terms.items()})
    assert swapped.distance(g) > 0.1


def test_expanded_forms_are_conj_fixed():
    rng = np.random.default_rng(8)
    for n in (3, 4, 5, 8):
        form = InvariantForm(n, rng.normal(size=n // 2), rng.normal(), rng.normal())
        f = form.expand()
        assert conj_involution(f).distance(f) < 1e-15 * max(1.0, f.max_abs_coeff())


def test_eigenspace_basis_examples():
    b = eigenspace_basis(5, 4, 0)
    assert b == ((4, 0, 0), (2, 1, 1), (0, 2, 2))

    b = eigenspace_basis(4, 3, 0)
    assert b == ((3, 0, 0), (1, 1, 1))
    assert all(e[0] >= 1 for e in b)   # every member divisible by t

    assert len(eigenspace_basis(4, 3, 1)) == 3


@pytest.mark.parametrize("n,ell,expected", [(5, 2, 3), (4, 0, 2), (4, 1, 3)])
def test_dim_formula_examples(n, ell, expected):
    assert eigenspace_dim_formula(n, ell) == expected


def test_dim_formula_matches_basis_all_n():
    for n in range(3, 13):
        for ell in range(n):
            assert eigenspace_dim_formula(n, ell) == len(eigenspace_basis(n, n - 1, ell))


def test_eigenspaces_partition_monomials():
    for n in (3, 4, 5, 7):
        for k in (n - 1, n, n + 2):
            total = sum(len(eigenspace_basis(n, k, ell)) for ell in range(n))
            assert total == (k + 1) * (k + 2) // 2


@pytest.mark.parametrize("n,expected", [(5, 5), (4, 5), (12, 9)])
def test_invariant_dim_examples(n, expected):
    assert invariant_dim(n) == expected
    assert brute_force_invariant_dim(n) == expected


def test_invariant_dim_brute_force_all_n():
    for n in range(3, 13):
        assert invariant_dim(n) == n // 2 + 3 == brute_force_invariant_dim(n)


def test_form_json_roundtrip(quintic_form):
    back = InvariantForm.from_json(quintic_form.to_json())
    assert back == quintic_form
