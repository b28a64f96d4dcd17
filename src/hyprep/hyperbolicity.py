"""Hyperbolicity certification and the smooth/singular classification.

For an invariant form the full hyperbolicity condition collapses to a pair
of univariate checks: with p(t) = t^n + sum_r c_r t^(n-2r) and
s = sqrt(c0^2 + ct0^2), the form is hyperbolic iff p + s and p - s have
all real roots.  Repeated roots of either polynomial (or s = 0) make the
form singular; the representation pipeline routes on the kind and on s.
Multiplicities come from single-linkage clustering: two roots a, b merge
when |a - b| <= CLUSTER_RADIUS (1 + max(|a|, |b|)).  The endpoint solves
keep the full degree n at every coefficient scale.  As in np.roots, a
polynomial whose coefficients are all real is solved in real arithmetic,
so a double root that roundoff splits stays an exact conjugate pair (or
two real roots); only one with a non-zero imaginary part gets a complex
companion matrix.
"""

import dataclasses
import enum
import functools
import itertools
import math

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

    def degree(self) -> int:
        return sum(m for _, m in self.roots)

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


def _root_profiles(rows) -> list[RootProfile]:
    """Root profiles of the rows of a 2-D coefficient array, each leading first.

    Each row is solved as real_roots describes: a row whose imaginary parts
    are all zero gets a float64 companion matrix, whatever the dtype of
    rows, and its roots are cast to complex.  Rows that keep the same
    coefficient columns after stripping, and are both real or both complex,
    share one stacked companion eigensolve.  The roots of a row with no close
    pair are its clusters, one root each; only the other rows go through the
    union-find.  The first row that cannot be solved raises its
    DegenerateInput.
    """
    arr = np.asarray(rows)
    n_rows, width = arr.shape
    if width == 0:
        raise DegenerateInput("empty or non-finite coefficient list")
    if np.iscomplexobj(arr):
        real_rows = (~arr.imag.any(axis=1)).tolist()
        # np.hypot is Python's abs bit for bit; numpy's array abs is not
        sizes, bigs = np.hypot(arr.real, arr.imag), np.abs(arr).max(axis=1, keepdims=True)
    else:
        arr = arr.astype(float, copy=False)
        real_rows = [True] * n_rows
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
    for i, (start, stop, real) in enumerate(zip(starts, stops, real_rows)):
        if start < width - 1:
            groups.setdefault((start, stop, real), []).append(i)
        elif not math.isfinite(bigs[i, 0]):
            failed[i] = "empty or non-finite coefficient list"
        elif bigs[i, 0] == 0.0:
            failed[i] = "all coefficients vanish"
        else:
            failed[i] = "polynomial is constant after stripping"
    profiles = [None] * n_rows
    for (lead, stop, real), g in groups.items():
        k, block = stop - lead, arr.take(g, axis=0)[:, lead:stop + 1]
        # each row times the power of two that puts its largest coefficient
        # in [0.5, 1): exact, so the quotients keep their bits, and a
        # subnormal leading coefficient no longer overflows the division
        shift = -np.frexp(bigs.take(g, axis=0))[1]
        if real:
            # a real companion matrix, as in np.roots: its complex
            # eigenvalues come in exact conjugate pairs
            scaled = np.ldexp(block.real, shift)
        else:
            scaled = np.empty_like(block)
            scaled.real, scaled.imag = np.ldexp(block.real, shift), np.ldexp(block.imag, shift)
        companion = np.zeros((len(g), k * k), dtype=scaled.dtype)
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
        close = _close_pairs(raw, CLUSTER_RADIUS)
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


def real_roots(coeffs) -> RootProfile:
    """Roots of a univariate polynomial via its companion matrix.

    The companion matrix is float64 when every coefficient is real (a
    complex coefficient with a zero imaginary part included) and complex
    otherwise, as np.roots takes it.  Roots are clustered into
    multiplicities; a cluster counts as real when its centroid satisfies
    |Im| <= TOL_ROOT * (1 + |root|).  This is the one-row case of
    _root_profiles, which solves many polynomials at once bit for bit as
    this function solves each.
    """
    return _root_profiles([list(coeffs)])[0]


def _endpoint_profiles(form: InvariantForm) -> list[RootProfile]:
    """Root profiles of p + s and p - s, or of p alone when s = 0, from one
    _root_profiles call, each at its full degree n at every scale.

    _root_profiles strips leading coefficients below 1e-14 of the largest,
    so once a coefficient reaches 1e14 it would strip the monic t^n.  Such a
    row is solved in tau = t / 2^k, with 2^k at least the root bound
    max_j |a_j|^(1/j): the coefficients a_j 2^(-jk) are exact and about one
    at most, and the roots are scaled back by 2^k, exactly.  Below that
    scale a row keeps its coefficients as they are.
    """
    rows, shifts = [], []
    for sign in (+1.0, -1.0) if form.s != 0.0 else (+1.0,):
        coeffs = form.univariate()
        coeffs[-1] += sign * form.s
        big = max(abs(a) for a in coeffs)
        k = 0
        if math.isfinite(big) and 1.0 <= 1e-14 * big:
            k = max(math.ceil(math.log2(abs(a)) / j) for j, a in enumerate(coeffs) if j and a)
            coeffs = [math.ldexp(a, -j * k) for j, a in enumerate(coeffs)]
        rows.append(coeffs)
        shifts.append(k)
    return [RootProfile(tuple((math.ldexp(x, k), m) for x, m in profile.roots),
                        profile.n_complex) if k else profile
            for profile, k in zip(_root_profiles(rows), shifts)]


def _s_vanishes(form: InvariantForm) -> bool:
    """c0 = ct0 = 0 up to DROP_TOL of the coefficient scale."""
    return form.s <= DROP_TOL * form.coefficient_scale()


def is_hyperbolic(form: InvariantForm) -> bool:
    """True iff both p(t) + s and p(t) - s have all real roots."""
    return all(profile.all_real for profile in _endpoint_profiles(form))


def classify(form: InvariantForm) -> Classification:
    """Smooth/singular classification.

    Singular when either endpoint polynomial p +/- s has a repeated root,
    by root-cluster multiplicity, or when c0 = ct0 = 0.  A third singular
    trigger (a real or repeated intersection point discovered downstream)
    is handled by the representation pipeline, not here.
    """
    profiles = _endpoint_profiles(form)
    if not all(profile.all_real for profile in profiles):
        raise NotHyperbolic("form is not hyperbolic")
    witnesses = {"plus": profiles[0].max_multiplicity() > 1,
                 "minus": profiles[-1].max_multiplicity() > 1}
    singular = _s_vanishes(form) or any(witnesses.values())
    return Classification(Kind.SINGULAR if singular else Kind.SMOOTH, form.s, witnesses)


def interlace_check(coeffs, a: float, b: float, c: float) -> bool:
    """Check that p + c has all real distinct roots for c strictly between
    endpoints a < b at which p + a and p + b are real rooted."""
    if not (a < c < b):
        raise ValueError("need a < c < b")
    base = list(np.asarray(list(coeffs), dtype=float))
    for endpoint in (a, b):
        shifted = list(base)
        shifted[-1] += endpoint
        if not real_roots(shifted).all_real:
            raise HypothesisViolated(f"p + {endpoint} is not real rooted")
    shifted = list(base)
    shifted[-1] += c
    profile = real_roots(shifted)
    return profile.all_real and profile.max_multiplicity() == 1
