"""Hyperbolicity certification and the smooth/singular classification.

For an invariant form with p(t) = t^n + sum_r c_r t^(n-2r) and
s = sqrt(c0^2 + ct0^2), hyperbolicity collapses to p + s and p - s being
real rooted: every local minimum of p is at most -s and every local
maximum at least s.  A critical value at -s (or s) is a double root of
p + s (or p - s), which makes the form singular, as s = 0 does.  The
critical points are solved once per form, on its unit rescaling, and
distinct real ones are never merged: an error in one moves its value only
to second order.  Whether the gap of p +/- s closes at each is decided
there once too (_gaps): classify and is_hyperbolic read the verdict, and
intersection reads its circles and its census off the same numbers.

Every polynomial solved here is real, and real rooted when the form is
hyperbolic, so root multiplicities are read along the real axis alone
(_axis_roots): a near-axis conjugate pair is one double root, any other
non-real root is off the axis, and neighbouring real roots merge into runs.
"""

import dataclasses
import enum
import math
import sys

import numpy as np

from .config import CLUSTER_RADIUS, DROP_TOL
from .errors import DegenerateInput, HypothesisViolated, NotHyperbolic
from .invariants import InvariantForm


@dataclasses.dataclass(frozen=True)
class RootProfile:
    """Real roots with multiplicities, and the count of non-real ones."""

    roots: tuple            # ((value, multiplicity), ...) sorted ascending
    n_complex: int          # count of roots off the real axis (see _axis_roots)

    @property
    def all_real(self) -> bool:
        return self.n_complex == 0

    def max_multiplicity(self) -> int:
        return max((m for _, m in self.roots), default=0)


class Kind(enum.Enum):
    SMOOTH = "Smooth"
    SINGULAR = "Singular"


@dataclasses.dataclass(frozen=True)
class Classification:
    kind: Kind
    s: float
    witnesses: dict  # {"plus": bool, "minus": bool} repeated-root flags


def _axis_roots(roots, radius: float, pair: float) -> tuple[list, int]:
    """The real roots of one real polynomial's solve, as ascending (value,
    multiplicity) pairs, and the count of its roots off the real axis.

    The solve of a real polynomial gives each real root with Im exactly 0
    and every other root in an exact conjugate pair, so a multiple real root
    that roundoff split is a near-axis pair or neighbouring real roots.  A
    pair with 2 |Im z| <= pair (1 + |z|) is one double root at Re z; any
    other non-real root is off the axis.  The values on the axis, ascending,
    merge into runs: a value within radius (1 + the larger modulus) of the
    previous one joins its run, whose value is the multiplicity-weighted
    mean (radius 0 merges only equal values).
    """
    axis, off = [], 0
    for z in roots:
        if not z.imag:
            axis.append((z.real, 1))
        elif 2 * abs(z.imag) <= pair * (1.0 + abs(z)):
            if z.imag > 0.0:        # its conjugate is the other half
                axis.append((z.real, 2))
        else:
            off += 1
    runs, prev = [], None       # [multiplicity-weighted sum, multiplicity]
    for x, m in sorted(axis):
        if runs and x - prev <= radius * (1.0 + max(abs(x), abs(prev))):
            runs[-1][0] += x * m
            runs[-1][1] += m
        else:
            runs.append([0 + x * m, m])     # from 0, so a value of -0.0 reads 0.0
        prev = x
    return [(total / m, m) for total, m in runs], off


def _root_profiles(rows, radius: float = CLUSTER_RADIUS) -> list[RootProfile]:
    """Root profiles of the rows of a 2-D real coefficient array, leading first.

    Each row gets a float64 companion matrix, as in np.roots, so complex
    roots come in exact conjugate pairs; rows that keep the same columns
    after stripping share one stacked eigensolve.  Each row's roots are read
    by _axis_roots: a pair within CLUSTER_RADIUS is a double root, and the
    values on the axis merge into runs within radius (radius 0 merges only
    equal values).  Rows with no such pair and no such run, decided for the
    whole stack at once, are read off the sorted solve directly.
    The first row that cannot be solved raises its DegenerateInput.
    """
    arr = np.asarray(rows, dtype=float)
    n_rows, width = arr.shape
    if width == 0:
        raise DegenerateInput("empty or non-finite coefficient list")
    sizes = np.abs(arr)
    bigs = sizes.max(axis=1, keepdims=True)
    # strip negligible leading coefficients so the companion matrix is sane:
    # start at the first coefficient above 1e-14 of the largest, or else at
    # the constant term, where a row that vanishes or is not finite starts too
    keep = sizes > 1e-14 * bigs
    keep[:, -1] = True
    starts = keep.argmax(axis=1).tolist()
    # np.roots' recipe: exact zero roots for the trailing zero coefficients,
    # the eigenvalues of the companion matrix of the rest
    stops = (width - 1 - (arr != 0)[:, ::-1].argmax(axis=1)).tolist()
    failed, groups = {}, {}
    for i, (start, stop) in enumerate(zip(starts, stops)):
        if start < width - 1:
            groups.setdefault((start, stop), []).append(i)
        elif not math.isfinite(bigs[i, 0]):
            failed[i] = "empty or non-finite coefficient list"
        elif bigs[i, 0] == 0.0:
            failed[i] = "all coefficients vanish"
        else:
            failed[i] = "polynomial is constant after stripping"
    profiles = [None] * n_rows
    for (lead, stop), g in groups.items():
        k, block = stop - lead, arr.take(g, axis=0)[:, lead:stop + 1]
        # each row times the power of two that puts its largest coefficient
        # in [0.5, 1): exact, so the quotients keep their bits, and a
        # subnormal leading coefficient no longer overflows the division
        scaled = np.ldexp(block, -np.frexp(bigs.take(g, axis=0))[1])
        companion = np.zeros((len(g), k * k))
        companion[:, k::k + 1] = 1.0
        companion[:, :k] = -scaled[:, 1:] / scaled[:, :1]
        raw = np.linalg.eigvals(companion.reshape(len(g), k, k)).astype(complex, copy=False)
        if stop < width - 1:
            raw = np.concatenate((raw, np.zeros((len(g), width - 1 - stop), dtype=complex)), axis=1)
        if not np.isfinite(raw).all():
            finite = np.isfinite(raw).all(axis=1)
            failed.update((i, "root solve returned non-finite values")
                          for i, ok in zip(g, finite) if not ok)
            g, raw = [i for i, ok in zip(g, finite) if ok], raw[finite]
        # rows with no pair and no run, which _axis_roots would return as
        # they are, are read off the sorted solve directly: reading every
        # row through _axis_roots took curve_sample over the 300 seed-1
        # perfbench inspect forms at 720 angles from 1.47-1.57 s to
        # 1.90-1.97 s (best of 5, 2-core Xeon).  The values on the axis,
        # ascending, are padded with nan: nan - nan is quiet where inf - inf
        # warns, and a nan gap merges nothing
        axis = np.where(raw.imag == 0.0, raw.real + 0.0, np.nan)
        axis.sort(axis=1)
        gap = axis[:, 1:] - axis[:, :-1]
        near = gap <= radius * (1.0 + np.maximum(np.abs(axis[:, 1:]), np.abs(axis[:, :-1])))
        mod = np.hypot(raw.real, raw.imag)
        paired = (raw.imag != 0.0) & (2 * np.abs(raw.imag) <= CLUSTER_RADIUS * (1.0 + mod))
        slow = (near.any(axis=1) | paired.any(axis=1)).tolist()
        counts = (raw.imag == 0.0).sum(axis=1).tolist()
        for j, i in enumerate(g):
            if slow[j]:
                roots, off = _axis_roots(raw[j].tolist(), radius, CLUSTER_RADIUS)
                roots = tuple((np.float64(x), m) for x, m in roots)
            else:
                roots, off = tuple((x, 1) for x in axis[j, :counts[j]]), raw.shape[1] - counts[j]
            profiles[i] = RootProfile(roots, off)
    if failed:
        raise DegenerateInput(failed[min(failed)])
    return profiles


def _horner(coeffs, x: float) -> tuple[float, float]:
    """The polynomial with these coefficients, leading first, at x by
    Horner's rule, and sum |c_j| |x|^j: its rounding error is at most deg
    eps times that (Higham's gamma_2deg, unit roundoff eps / 2)."""
    value = bound = 0.0
    for cj in coeffs:
        value, bound = value * x + cj, bound * abs(x) + abs(cj)
    return value, bound


def _gaps(form: InvariantForm):
    """Whether the gap p +/- s closes at each critical point of p; None when
    the form is not hyperbolic.  InvariantForm._gaps holds it, once per form.

    Returns (closed, plus, minus).  closed has one flag per point of
    form._critical_points, then one for t = 0 when n is even; plus and
    minus say whether p + s and p - s have a double root.  The critical
    points are +/- sqrt(x) over the x of form._critical_points, and t = 0
    for even n; p is not real rooted when that solve fails.  p is even or
    odd, so t >= 0 decides: from the largest down, minima and maxima
    alternate (a multiple root is both), starting with a minimum.  Each
    critical value p(sqrt(x)) = sqrt(x)^e P(x) is compared with s within
    64 eps of its Horner bound.  For odd n a double root of p + s at t is one
    of p - s at -t; for s = 0 the two coincide.
    """
    points, e, s = form._critical_points, form.n % 2, form.s
    if points is None:
        return None
    if not e:
        points += ((0.0, 1),)
    closed = []
    ends = {-1: False, 1: False}    # -1: a minimum at -s, 1: a maximum at s
    side = -1
    for x, mult in points:
        value, bound = _horner((1.0,) + form.c, x)
        root = math.sqrt(x) if e else 1.0
        value, tol = value * root, 64 * sys.float_info.epsilon * bound * root
        here = False
        for kind in (side, -side)[:mult]:
            margin = kind * value - s    # the gap p +/- s keeps here
            if margin < -tol:
                return None
            if margin <= tol:
                ends[kind] = here = True
        closed.append(here)
        side *= (-1) ** mult
    if e or s == 0.0:
        return (tuple(closed),) + (ends[-1] or ends[1],) * 2
    return tuple(closed), ends[-1], ends[1]


def _s_vanishes(form: InvariantForm) -> bool:
    """c0 = ct0 = 0 up to DROP_TOL of the coefficient scale."""
    return form.s <= DROP_TOL * form.coefficient_scale()


def is_hyperbolic(form: InvariantForm) -> bool:
    """True iff both p(t) + s and p(t) - s have all real roots."""
    return form._gaps is not None


def classify(form: InvariantForm) -> Classification:
    """Smooth/singular classification.

    Singular when either endpoint polynomial p +/- s has a double root,
    that is, when a critical value of p equals -s or s, or when
    c0 = ct0 = 0.  A real intersection point is no third trigger: it lies
    on a self-conjugate orbit, that is on a closed gap.
    """
    if form._gaps is None:
        raise NotHyperbolic("form is not hyperbolic")
    _, plus, minus = form._gaps
    singular = _s_vanishes(form) or plus or minus
    return Classification(Kind.SINGULAR if singular else Kind.SMOOTH, form.s,
                          {"plus": plus, "minus": minus})


def interlace_check(coeffs, a: float, b: float, c: float) -> bool:
    """Check that p + c has all real distinct roots for c strictly between
    endpoints a < b at which p + a and p + b are real rooted."""
    if not (a < c < b):
        raise ValueError("need a < c < b")
    rows = np.array([list(coeffs)] * 3, dtype=float)
    rows[:, -1] += (a, b, c)
    *ends, profile = _root_profiles(rows)
    for endpoint, end in zip((a, b), ends):
        if not end.all_real:
            raise HypothesisViolated(f"p + {endpoint} is not real rooted")
    return profile.all_real and profile.max_multiplicity() == 1
