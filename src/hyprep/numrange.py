"""Numerical range sampling through support functions.

The numerical range of A is compact and convex, and its support function
in direction theta is the top eigenvalue of H(theta) = cos(theta) Re(A) +
sin(theta) Im(A); a maximizing unit eigenvector x touches the boundary at
the point x* A x.  Two matrices have equal ranges iff their support
functions agree.  H(theta + pi) = -H(theta), so on a grid of an even
number of angles one eigensolve serves theta and theta + pi: the bottom
eigenpair at theta gives the support and the touch point at theta + pi.
The real points of the associated curve are sampled separately in the
t = 1 chart: along each ray the curve restricts to a real univariate
polynomial in the radius, and the point of radius -rho at theta is the
point of radius rho at theta + pi, so each ray keeps its positive radii
alone, the points of its half-ray.  The form is invariant under rotation
by 2 pi / n, so the polynomial depends on the ray's angle only through
n theta mod 2 pi; with that phase reduced exactly, the m grid rays fall
into m / gcd(m, n) classes of equal rows, and one period of classes is
solved as the rows of one batch, one stacked companion eigensolve per
degree.  The rows are real, so their companion matrices are float64, as
np.roots takes a real polynomial.  Points are returned as Python floats.
"""

import dataclasses
import itertools
import math

import numpy as np

from .config import TOL_RANGE
from .hyperbolicity import _root_profiles
from .invariants import InvariantForm
from .shift import ShiftMatrix, hermitian_slices


@dataclasses.dataclass(frozen=True)
class BoundarySample:
    angles: tuple
    support: tuple
    points: tuple   # (x, y) touch points from maximizing eigenvectors


def _support_batch(W: ShiftMatrix, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Support values and complex touch points x* A x on the uniform grid
    thetas = [2 pi k / m], one eigh for all angles.

    For even m the second half of the grid is the first turned by pi, and
    H(theta + pi) = -H(theta): the eigh runs on the first half alone, and
    theta + pi takes minus the bottom eigenvalue of H(theta), touched by
    its bottom eigenvector.  x* A x does not depend on the phase of x.
    """
    A = W.matrix()
    m = len(thetas)
    half = m // 2 if m % 2 == 0 else m
    vals, vecs = np.linalg.eigh(hermitian_slices(A, thetas[:half]))
    h, x = vals[:, -1], vecs[:, :, -1]
    if half < m:
        h = np.concatenate((h, -vals[:, 0]))
        x = np.concatenate((x, vecs[:, :, 0]))
    # one matrix-vector product per angle: the last bits of the touch points
    # depend on this arithmetic, so keep it
    touch = np.sum(x.conj() * (A @ x[:, :, None])[:, :, 0], axis=1)
    # + 0.0 turns an exact zero support, negated or not, into +0.0
    return h + 0.0, touch


def boundary_sample(W, m: int = 720) -> BoundarySample:
    """Support function and touch points on the grid theta_k = 2 pi k / m.

    For even m one eigh of m / 2 slices serves theta_k and theta_k + pi.
    """
    if m < 8:
        raise ValueError("need at least 8 angles")
    thetas = [2 * math.pi * k / m for k in range(m)]
    h, z = _support_batch(W, thetas)
    return BoundarySample(
        angles=tuple(thetas),
        support=tuple(h.tolist()),
        points=tuple(zip(z.real.tolist(), z.imag.tolist())),
    )


def samples_agree(s1: BoundarySample, s2: BoundarySample) -> bool:
    """Two boundary samples on the same angle grid agree within TOL_RANGE.

    Samples on different angle grids cannot be compared: ValueError.
    """
    if s1.angles != s2.angles:
        raise ValueError("boundary samples have different angle grids")
    return max(abs(a - b) for a, b in zip(s1.support, s2.support)) <= TOL_RANGE


def range_equal(W1, W2, m: int = 720) -> bool:
    """Numerical ranges agree iff the sampled support functions agree."""
    return samples_agree(boundary_sample(W1, m), boundary_sample(W2, m))


def curve_sample(form: InvariantForm, m: int = 720) -> list[tuple[float, float]]:
    """Real points of the curve in the t = 1 chart, sampled by angle.

    Restricting to the ray (1, rho e^(i theta), rho e^(-i theta)) at
    theta_k = 2 pi k / m gives the real polynomial 1 + sum_r c_r rho^(2r) +
    (c0 cos phi_k + ct0 sin phi_k) rho^n, with the phase phi_k = n theta_k
    reduced exactly to 2 pi ((n k) mod m) / m.  Rays k and k + m / gcd(m, n)
    then share a row bit for bit, so only one period of m / gcd(m, n) rows is
    solved: rows equal bit for bit are solved once, and the rest share one
    stacked real companion eigensolve per degree.  The point of radius -rho
    at theta is the point of radius rho at theta + pi, so each ray keeps its
    positive real roots alone, the points of its half-ray; for even m that
    returns each point once.  They are emitted at the ray's own angle as
    (x, y) pairs of Python floats, in angle order.
    """
    if m < 1:
        return []
    n = form.n
    period = m // math.gcd(m, n)
    rows = np.zeros((period, n + 1))
    phases = [2 * math.pi * (n * k % m) / m for k in range(period)]
    rows[:, 0] = [form.c0 * math.cos(p) + form.ct0 * math.sin(p) for p in phases]
    for r, cr in enumerate(form.c, start=1):
        # for even n the r = n/2 term shares the rho^n slot with the top pair
        rows[:, n - 2 * r] += cr
    rows[:, n] = 1.0
    # rows equal bit for bit are solved once, in order of first appearance, so
    # that the first row that cannot be solved raises, as it would alone
    keys = {k: rows[k].tobytes() for k in rows[:, :-1].any(axis=1).nonzero()[0].tolist()}
    first = {}
    for k, key in keys.items():
        first.setdefault(key, k)
    solved = dict(zip(first, _root_profiles(rows[list(first.values())])))
    # a constant row has no points, and the constant term 1 no zero root; the
    # period repeats m / period times around the circle
    radii = [[r for r, _ in solved[keys[k]].roots if r > 0] if k in keys else []
             for k in range(period)]
    counts = [len(ray) for ray in radii] * (m // period)
    rho = np.tile(np.fromiter(itertools.chain.from_iterable(radii), float), m // period)
    # math.cos and math.sin of each ray's own angle, repeated over its radii;
    # a numpy float64 product equals Python's bit for bit
    thetas = [2 * math.pi * k / m for k in range(m)]
    cos = np.repeat([math.cos(t) for t in thetas], counts)
    sin = np.repeat([math.sin(t) for t in thetas], counts)
    return list(zip((rho * cos).tolist(), (rho * sin).tolist()))


def write_boundary_csv(sample: BoundarySample, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write("theta,h,x,y\n")
        for th, h, (x, y) in zip(sample.angles, sample.support, sample.points):
            fh.write(f"{th:.17g},{h:.17g},{x:.17g},{y:.17g}\n")


def write_curve_csv(points: list[tuple[float, float]], path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for x, y in points:
            fh.write(f"{x:.17g},{y:.17g}\n")


def write_svg(point_sets: list[list[tuple[float, float]]], path: str):
    """Plain polyline/point rendering; no interactivity."""
    size, colors = 600, ("#1f77b4", "#d62728", "#2ca02c")
    allpts = [p for ps in point_sets for p in ps]
    if not allpts:
        raise ValueError("nothing to draw")
    xs = [p[0] for p in allpts]
    ys = [p[1] for p in allpts]
    lo, hi = min(min(xs), min(ys)), max(max(xs), max(ys))
    span = max(hi - lo, 1e-12)
    pad = 0.05 * span

    def sx(x):
        return (x - lo + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - lo + pad) / (span + 2 * pad) * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for ps, color in zip(point_sets, colors):
        for x, y in ps:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.5" '
                         f'fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
