"""Numerical range sampling through support functions.

The numerical range of A is compact and convex, and its support function
in direction theta is the top eigenvalue of cos(theta) Re(A) +
sin(theta) Im(A); a maximizing unit eigenvector x touches the boundary at
the point x* A x.  Two matrices have equal ranges iff their support
functions agree.  The real points of the associated curve are sampled
separately in the t = 1 chart: along each ray the curve restricts to a
real univariate polynomial in the radius, and the rays are solved as rows
of one batch, one stacked companion eigensolve per degree.  The rows are
real, so their companion matrices are float64, as np.roots takes a real
polynomial.
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
    """Support values and complex touch points x* A x, one eigh for all angles.

    x* A x does not depend on the phase of the eigenvector x.
    """
    A = W.matrix()
    vals, vecs = np.linalg.eigh(hermitian_slices(A, thetas))
    x = vecs[:, :, -1]
    # one matrix-vector product per angle: the last bits of the touch points
    # depend on this arithmetic, so keep it
    touch = np.sum(x.conj() * (A @ x[:, :, None])[:, :, 0], axis=1)
    return vals[:, -1], touch


def boundary_sample(W, m: int = 720) -> BoundarySample:
    """Support function and touch points on a uniform angle grid."""
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
    """Two boundary samples on the same angle grid agree within TOL_RANGE."""
    return max(abs(a - b) for a, b in zip(s1.support, s2.support)) <= TOL_RANGE


def range_equal(W1, W2, m: int = 720) -> bool:
    """Numerical ranges agree iff the sampled support functions agree."""
    return samples_agree(boundary_sample(W1, m), boundary_sample(W2, m))


def curve_sample(form: InvariantForm, m: int = 720) -> list[tuple[float, float]]:
    """Real points of the curve in the t = 1 chart, sampled by angle.

    Restricting to the ray (1, rho e^(i theta), rho e^(-i theta)) gives the
    real polynomial 1 + sum_r c_r rho^(2r) + (c0 cos n theta +
    ct0 sin n theta) rho^n; its real roots are emitted as (x, y) points, in
    angle order.  The rays are solved together: rows that are equal bit for
    bit are solved once, and the rest share one stacked real companion
    eigensolve per degree.
    """
    n = form.n
    thetas = [2 * math.pi * k / m for k in range(m)]
    rows = np.zeros((len(thetas), n + 1))
    rows[:, 0] = [form.c0 * math.cos(n * t) + form.ct0 * math.sin(n * t) for t in thetas]
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
    radii = [[r for r, _ in solved[key].roots] for key in keys.values()]
    counts = [len(ray) for ray in radii]
    rho = np.fromiter(itertools.chain.from_iterable(radii), float, sum(counts))
    # math.cos and math.sin of each ray's angle, repeated over its radii; a
    # numpy float64 product equals Python's bit for bit
    cos = np.repeat([math.cos(thetas[k]) for k in keys], counts)
    sin = np.repeat([math.sin(thetas[k]) for k in keys], counts)
    return list(zip(rho * cos, rho * sin))


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
