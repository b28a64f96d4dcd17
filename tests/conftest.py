"""Shared fixtures: the two worked examples and their published matrices,
and a pure-Python reference for root multiplicities."""

import numpy as np
import pytest

from hyprep import InvariantForm, ShiftMatrix
from hyprep.construct import HermitianPencil

S2, S3, S5, S6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0), np.sqrt(6.0)


@pytest.fixture
def quartic_form():
    return InvariantForm(4, [-26.0, 72.0], -72.0, 0.0)


@pytest.fixture
def quintic_form():
    # top pair resolved through the forward oracle from the published weights
    return InvariantForm(5, [-12.5, 33.75], 3 * (S6 + S3), 3 * (S6 - S3))


@pytest.fixture
def quintic_form_flipped():
    # the same curve data with the top pair negated, as published
    return InvariantForm(5, [-12.5, 33.75], -3 * S3 * (1 + S2), 3 * S3 * (1 - S2))


@pytest.fixture
def quartic_shift():
    return ShiftMatrix([4.0, 4.0, 6.0, 6.0])


@pytest.fixture
def quartic_shift_phased():
    return ShiftMatrix([4.0,
                        4.0 * np.exp(1j * np.pi / 12),
                        6.0 * np.exp(1j * np.pi / 4),
                        6.0 * np.exp(-1j * np.pi / 3)])


@pytest.fixture
def quintic_shift():
    return ShiftMatrix([2.0, 3.0 + 3.0j, S6, S2 + 2.0j, -4.0j])


@pytest.fixture
def quartic_pencil():
    """Published quartic pencil, with the (2,3)/(3,2) coefficients in the
    orientation that actually satisfies 1728 f = det (the printed matrix
    has them swapped)."""
    Mt = np.diag([3.0, 12.0, 4.0, 12.0]).astype(complex)
    Mu = np.zeros((4, 4), dtype=complex)
    Mu[1, 0] = 12.0
    Mu[2, 1] = 6 * S2 * (1 - 1j) + 2 * S6 * (1 + 1j)
    Mu[3, 2] = 6 * S6 * (1 - 1j)
    Mu[0, 3] = 9.0 + 9.0 * S3 * 1j
    return HermitianPencil(Mt, Mu)


@pytest.fixture
def quintic_pencil():
    """Published quintic pencil, verbatim (its corner gives a last weight of
    +4i, consistent with the published polynomial)."""
    Mt = np.diag([2.0, 10.0, 5.0, 10.0, 10.0]).astype(complex)
    Mu = np.zeros((5, 5), dtype=complex)
    Mu[1, 0] = 2 * S5
    Mu[2, 1] = (15.0 - 15.0j) / S2
    Mu[3, 2] = 5 * S3
    Mu[4, 3] = 5 * (S2 - 2.0j)
    Mu[0, 4] = -4j * S5
    return HermitianPencil(Mt, Mu)


def random_shift(rng, n, lo=0.5, hi=2.0):
    mods = rng.uniform(lo, hi, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return ShiftMatrix(mods * np.exp(1j * phases))


# A reference for root multiplicities that does not use the package: single
# linkage in the complex plane, a pure-Python union-find over every pair of
# roots with Python's abs, and each cluster's centroid.

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
