"""Hyperbolicity certification and the smooth/singular classification.

For an invariant form the full hyperbolicity condition collapses to a pair
of univariate checks: with p(t) = t^n + sum_r c_r t^(n-2r) and
s = sqrt(c0^2 + ct0^2), the form is hyperbolic iff p + s and p - s have
all real roots.  Repeated roots of either polynomial (or s = 0) flag the
singular pipeline route; the perturbation below produces a nearby strictly
smooth form from a singular one.  Multiplicities come from single-linkage
clustering: two roots a, b merge when |a - b| <= cluster_radius (1 + max(|a|, |b|)).
"""

import dataclasses
import enum
import functools
import math

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import DegenerateInput, HypothesisViolated, NotHyperbolic, PerturbationFailed
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


def real_roots(coeffs, config: Config = DEFAULT_CONFIG) -> RootProfile:
    """Roots of a univariate polynomial via its companion matrix.

    Roots are clustered into multiplicities; a cluster counts as real when
    its centroid satisfies |Im| <= tol_root * (1 + |root|).
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

    clusters = cluster_roots(raw, config.cluster_radius)
    reals, n_complex = [], 0
    for z, m in clusters:
        if abs(z.imag) <= config.tol_root * (1.0 + abs(z)):
            reals.append((z.real, m))
        else:
            n_complex += 1
    return RootProfile(tuple(reals), n_complex)


def _p_plus_const(form: InvariantForm, const: float) -> list:
    coeffs = form.univariate()
    coeffs[-1] += const
    return coeffs


def is_hyperbolic(form: InvariantForm, config: Config = DEFAULT_CONFIG) -> bool:
    """True iff both p(t) + s and p(t) - s have all real roots."""
    s = form.s
    for sign in (+1.0, -1.0):
        if not real_roots(_p_plus_const(form, sign * s), config).all_real:
            return False
    return True


def _discriminant_small(coeffs, threshold_scale: float) -> bool:
    """Resultant-based repeated-root test: |disc| below threshold."""
    p = np.asarray(coeffs, dtype=float)
    dp = np.polyder(p)
    n, m = len(p) - 1, len(dp) - 1
    if n < 1:
        return False
    size = n + m
    syl = np.zeros((size, size))
    for i in range(m):
        syl[i, i:i + n + 1] = p
    for i in range(n):
        syl[m + i, i:i + m + 1] = dp
    res = np.linalg.det(syl)
    scale = max(1.0, float(np.max(np.abs(p))))
    return abs(res) < threshold_scale * scale ** (2 * n - 2)


def classify(form: InvariantForm, config: Config = DEFAULT_CONFIG) -> Classification:
    """Smooth/singular routing decision.

    Singular when either endpoint polynomial p +/- s has a repeated root,
    or when c0 = ct0 = 0.  A third singular trigger (a real or repeated
    intersection point discovered downstream) is handled by the
    representation pipeline, not here.
    """
    s = form.s
    endpoints = []
    for name, sign in (("plus", +1.0), ("minus", -1.0)):
        coeffs = _p_plus_const(form, sign * s)
        profile = real_roots(coeffs, config)
        if not profile.all_real:
            raise NotHyperbolic("form is not hyperbolic")
        endpoints.append((name, coeffs, profile))
    scale = form.coefficient_scale()
    witnesses = {}
    for name, coeffs, profile in endpoints:
        repeated = profile.max_multiplicity() > 1
        repeated = repeated or _discriminant_small(coeffs, 1e-10)
        witnesses[name] = bool(repeated)
    if s <= config.drop_tol * scale:
        kind = Kind.SINGULAR
    elif witnesses["plus"] or witnesses["minus"]:
        kind = Kind.SINGULAR
    else:
        kind = Kind.SMOOTH
    return Classification(kind, s, witnesses)


def interlace_check(coeffs, a: float, b: float, c: float,
                    config: Config = DEFAULT_CONFIG) -> bool:
    """Check that p + c has all real distinct roots for c strictly between
    endpoints a < b at which p + a and p + b are real rooted."""
    if not (a < c < b):
        raise ValueError("need a < c < b")
    base = list(np.asarray(list(coeffs), dtype=float))
    for endpoint in (a, b):
        shifted = list(base)
        shifted[-1] += endpoint
        if not real_roots(shifted, config).all_real:
            raise HypothesisViolated(f"p + {endpoint} is not real rooted")
    shifted = list(base)
    shifted[-1] += c
    profile = real_roots(shifted, config)
    return profile.all_real and profile.max_multiplicity() == 1


def _squared_roots(form: InvariantForm, config: Config) -> list[float]:
    """Roots of p viewed through T = t^2, clamped to be nonnegative.

    p(t) is t^k * P(t^2) with P monic of degree floor(n/2); for hyperbolic
    inputs the roots of P are real and nonnegative.
    """
    m = form.n // 2
    if m == 0:
        return []
    P = [1.0] + [0.0] * m
    for r, cr in enumerate(form.c, start=1):
        P[r] = cr
    prof = real_roots(P, config)
    if not prof.all_real:
        raise PerturbationFailed("even-part roots are not all real")
    mu = []
    for value, mult in prof.roots:
        mu.extend([max(value, 0.0)] * mult)
    mu.sort()
    return mu


def _zero_top_candidate(form: InvariantForm, eps: float,
                        config: Config) -> InvariantForm:
    """s = 0 branch: separate the squared roots, switch on a small top pair.

    The top coefficient must fit strictly beneath the extrema of the spread
    polynomial, which shrink much faster than the spread when roots were
    repeated, so it is chosen adaptively from the actual critical values.
    """
    mu = _squared_roots(form, config)
    scale = max([1.0] + mu)
    shifted = [x + (i + 1) * eps * scale for i, x in enumerate(mu)]
    coeffs = np.poly(shifted) if shifted else np.array([1.0])
    c = [float(coeffs[r]) for r in range(1, form.n // 2 + 1)]
    candidate = InvariantForm(form.n, c, 0.0, 0.0)
    p = np.array(candidate.univariate())
    crit = np.roots(np.polyder(p))
    crit = crit[np.abs(crit.imag) < 1e-6 * (1 + np.abs(crit))].real
    b = float(np.min(np.abs(np.polyval(p, crit)))) if len(crit) else eps
    eta = min(eps, 0.4 * b)
    if eta <= 0.0:
        raise PerturbationFailed("spread polynomial has vanishing extrema")
    return InvariantForm(form.n, c, eta, 0.0)


def _is_strictly_smooth(form: InvariantForm, config: Config) -> bool:
    """Validation for perturbation output: real rooted with simple roots.

    Deliberately uses only root clustering (not the discriminant heuristic
    of classify): honest tiny perturbations of very degenerate forms have
    tiny but nonzero discriminants.
    """
    if form.s <= 0.0:
        return False
    try:
        for sign in (+1.0, -1.0):
            profile = real_roots(_p_plus_const(form, sign * form.s), config)
            if not profile.all_real or profile.max_multiplicity() > 1:
                return False
    except DegenerateInput:
        return False
    return True


def perturb(form: InvariantForm, eps: float,
            config: Config = DEFAULT_CONFIG) -> InvariantForm:
    """Nearby strictly smooth hyperbolic form at distance O(eps).

    Requires a singular classification; raises PerturbationFailed when no
    candidate comes out strictly smooth (the caller halves eps and retries).
    """
    if classify(form, config).kind is not Kind.SINGULAR:
        raise ValueError("perturb requires a singular form")
    return smooth_neighbor(form, eps, config)


def smooth_neighbor(form: InvariantForm, eps: float,
                    config: Config = DEFAULT_CONFIG) -> InvariantForm:
    """The perturbation step itself, without the classification guard."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if form.s > 0.0:
        c0 = form.c0 - math.copysign(eps, form.c0) if form.c0 != 0.0 else 0.0
        ct0 = form.ct0 - math.copysign(eps, form.ct0) if form.ct0 != 0.0 else 0.0
        out = InvariantForm(form.n, form.c, c0, ct0)
        if _is_strictly_smooth(out, config):
            return out
        raise PerturbationFailed(f"eps={eps} did not produce a smooth form")
    out = _zero_top_candidate(form, eps, config)
    if _is_strictly_smooth(out, config):
        return out
    raise PerturbationFailed(f"eps={eps} did not produce a smooth form")
