"""Hyperbolicity certification and the smooth/singular classification.

For an invariant form with p(t) = t^n + sum_r c_r t^(n-2r) and
s = sqrt(c0^2 + ct0^2), hyperbolicity collapses to p + s and p - s being
real rooted: every local minimum of p is at most -s and every local
maximum at least s.  A critical value at -s (or s) is a double root of
p + s (or p - s), which makes the form singular, as s = 0 does.  The
critical points are solved once per form, on its unit rescaling, and not
clustered: an error in one moves its value only to second order.  Whether
the gap of p +/- s closes at each is decided there once too (_gaps):
classify and is_hyperbolic read the verdict, and intersection reads its
circles and its census off the same numbers.
"""

import dataclasses
import enum
import functools
import itertools
import math
import sys

import numpy as np

from .config import CLUSTER_RADIUS, DROP_TOL, TOL_ROOT
from .errors import DegenerateInput, HypothesisViolated, NotHyperbolic
from .invariants import InvariantForm


@dataclasses.dataclass(frozen=True)
class RootProfile:
    """Real roots with multiplicities, and the count of non-real ones."""

    roots: tuple            # ((value, multiplicity), ...) sorted ascending
    n_complex: int          # count of root clusters judged non-real

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


@functools.lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle index pairs (a, b), a < b, in row-major order."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.setflags(write=False)     # shared by every caller
    return pairs


def _close_pairs(z: np.ndarray, radius: float) -> np.ndarray:
    """Which pairs of _pairs(m) are close, along the last axis of z.

    a and b are close when |a - b| <= radius (1 + max(|a|, |b|)).  Moduli come
    from np.hypot, which equals Python's abs bit for bit (numpy's array abs
    of a complex array does not).
    """
    ia, ib = _pairs(z.shape[-1])
    mod = np.hypot(z.real, z.imag)
    d = z.take(ia, axis=-1) - z.take(ib, axis=-1)
    far = np.maximum(mod.take(ia, axis=-1), mod.take(ib, axis=-1))
    return np.hypot(d.real, d.imag) <= radius * (1.0 + far)


def _link(roots, close: np.ndarray) -> list[tuple[complex, int]]:
    """Single linkage of roots over the close pairs, as (centroid, multiplicity)."""
    m = len(roots)
    ia, ib = _pairs(m)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # union-find over the close pairs only, in the order the pairs were tested
    for a, b in zip(ia[close].tolist(), ib[close].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict = {}
    for a in range(m):
        groups.setdefault(find(a), []).append(a)
    out = []
    for g in groups.values():
        pts = [roots[i] for i in g]
        out.append((sum(pts) / len(pts), len(pts)))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def cluster_roots(roots: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Cluster raw solver output into (centroid, multiplicity) pairs by
    single linkage over the close pairs of _close_pairs."""
    return _link(roots, _close_pairs(np.asarray(roots, dtype=complex), radius))


def _is_real(z, modulus):
    """|Im z| <= TOL_ROOT (1 + |z|): the root cluster at z counts as real.  The
    modulus is np.hypot(z.real, z.imag), or abs(z) on a scalar (the same bits)."""
    return abs(z.imag) <= TOL_ROOT * (1.0 + modulus)


def _root_profiles(rows, radius: float = CLUSTER_RADIUS) -> list[RootProfile]:
    """Root profiles of the rows of a 2-D real coefficient array, leading first.

    Each row gets a float64 companion matrix, as in np.roots, so complex
    roots come in exact conjugate pairs; rows that keep the same columns
    after stripping share one stacked eigensolve.  Roots within radius
    (1 + larger modulus) of each other are clustered into multiplicities (a
    row with no close pair skips the union-find; radius 0 merges only equal
    roots), and a cluster is real when |Im| <= TOL_ROOT (1 + |root|) at its
    centroid.
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
        close = _close_pairs(raw, radius)
        merged = close.any(axis=1).tolist()
        if not all(merged):
            # a singleton's centroid is (0 + z) / 1, which is z + 0 bit for bit;
            # equal centroids are equal bit for bit, so the sort need not be stable
            single = raw + 0
            single.sort(axis=1)
            on_axis = _is_real(single, np.hypot(single.real, single.imag))
        for j, i in enumerate(g):
            if merged[j]:
                clusters = _link(raw[j], close[j])
                roots = tuple((z.real, m) for z, m in clusters if _is_real(z, abs(z)))
            else:
                clusters = single[j]
                roots = tuple((x, 1) for x in itertools.compress(clusters.real, on_axis[j]))
            profiles[i] = RootProfile(roots, len(clusters) - len(roots))
    if failed:
        raise DegenerateInput(failed[min(failed)])
    return profiles


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
        value = bound = 0.0
        for cj in (1.0,) + form.c:
            value, bound = value * x + cj, bound * x + abs(cj)
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
