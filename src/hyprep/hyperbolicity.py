"""Hyperbolicity certification and the smooth/singular classification.

For an invariant form the full hyperbolicity condition collapses to a pair
of univariate checks: with p(t) = t^n + sum_r c_r t^(n-2r) and
s = sqrt(c0^2 + ct0^2), the form is hyperbolic iff p + s and p - s have
all real roots.  Repeated roots of either polynomial (or s = 0) make the
form singular; the representation pipeline routes on s alone, and the
spectral route of construct.py covers the singular forms that the direct
construction cannot certify.  Multiplicities come from single-linkage
clustering: two roots a, b merge when |a - b| <= CLUSTER_RADIUS (1 + max(|a|, |b|)).
"""

import dataclasses
import enum
import functools

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


def cluster_roots(roots: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Cluster raw solver output into (centroid, multiplicity) pairs.

    Single linkage: a and b are close when |a - b| <= radius (1 + max(|a|, |b|)).
    Moduli come from np.hypot, which equals Python's abs bit for bit (numpy's
    array abs of a complex array does not).
    """
    m = len(roots)
    z = np.asarray(roots, dtype=complex)
    ia, ib = _pairs(m)
    mod = np.hypot(z.real, z.imag)
    d = z[ia] - z[ib]
    close = np.hypot(d.real, d.imag) <= radius * (1.0 + np.maximum(mod[ia], mod[ib]))
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


def real_roots(coeffs) -> RootProfile:
    """Roots of a univariate polynomial via its companion matrix.

    Roots are clustered into multiplicities; a cluster counts as real when
    its centroid satisfies |Im| <= TOL_ROOT * (1 + |root|).
    """
    arr = np.asarray(list(coeffs), dtype=complex)
    if len(arr) == 0 or not np.isfinite(arr).all():
        raise DegenerateInput("empty or non-finite coefficient list")
    biggest = np.abs(arr).max()
    if biggest == 0.0:
        raise DegenerateInput("all coefficients vanish")
    # strip negligible leading coefficients so the companion matrix is sane
    start = 0
    while start < len(arr) - 1 and abs(arr[start]) <= 1e-14 * biggest:
        start += 1
    arr = arr[start:]
    if len(arr) <= 1:
        raise DegenerateInput("polynomial is constant after stripping")
    # np.roots' recipe: exact zero roots for the trailing zero coefficients,
    # the eigenvalues of the companion matrix of the rest
    k = int(np.flatnonzero(arr)[-1])
    trailing = len(arr) - 1 - k
    companion = np.zeros((k, k), dtype=complex)
    companion.flat[k::k + 1] = 1.0
    companion[:1, :] = -arr[1:k + 1] / arr[0]    # k = 0: all roots are zero
    raw = np.concatenate((np.linalg.eigvals(companion), np.zeros(trailing, dtype=complex)))
    if not np.isfinite(raw).all():
        raise DegenerateInput("root solve returned non-finite values")

    clusters = cluster_roots(raw, CLUSTER_RADIUS)
    reals, n_complex = [], 0
    for z, m in clusters:
        if abs(z.imag) <= TOL_ROOT * (1.0 + abs(z)):
            reals.append((z.real, m))
        else:
            n_complex += 1
    return RootProfile(tuple(reals), n_complex)


def _endpoints(form: InvariantForm):
    """(sign, root profile) of p + s, then of p - s.

    Lazy: a caller that stops after p + s never solves p - s.
    """
    for sign in (+1.0, -1.0):
        coeffs = form.univariate()
        coeffs[-1] += sign * form.s
        yield sign, real_roots(coeffs)


def is_hyperbolic(form: InvariantForm) -> bool:
    """True iff both p(t) + s and p(t) - s have all real roots."""
    return all(profile.all_real for _, profile in _endpoints(form))


def classify(form: InvariantForm) -> Classification:
    """Smooth/singular classification.

    Singular when either endpoint polynomial p +/- s has a repeated root,
    by root-cluster multiplicity, or when c0 = ct0 = 0.  A third singular
    trigger (a real or repeated intersection point discovered downstream)
    is handled by the representation pipeline, not here.
    """
    witnesses = {}
    for sign, profile in _endpoints(form):
        if not profile.all_real:
            raise NotHyperbolic("form is not hyperbolic")
        witnesses["plus" if sign > 0 else "minus"] = profile.max_multiplicity() > 1
    singular = form.s <= DROP_TOL * form.coefficient_scale() or any(witnesses.values())
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
