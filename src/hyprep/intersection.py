"""Common zeros of a form and its t-derivative, organized by symmetry.

For an invariant hyperbolic form the t-derivative factors (up to the
scalar n and a possible factor of t) into circles t^2 - s_j uv with real
s_j >= 0: the critical points of p in t^2, read from the solve classify
makes once per form.  The n(n-1) common zeros come in closed form from a
quadratic in u^n per circle, plus one in u^(n/2) on the line at infinity
when n is even; every stored point is then checked against f and df/dt
once.  The points fall into rotation orbits, and the orbits into conjugate
pairs; one orbit per pair is kept in S, its mirror in Sbar, and a single
representative per kept orbit forms the working set used by the
construction.
"""

import cmath
import dataclasses
import math

import numpy as np

from .config import CLUSTER_RADIUS, TOL_PT, TOL_SEP
from .errors import (AmbiguousOrbit, LeadingZero, NonrealCircle,
                     RealSimplePoint, SolveFailed)
from .hyperbolicity import cluster_roots
from .invariants import InvariantForm
from .poly import _evaluate_many


@dataclasses.dataclass(frozen=True)
class Point:
    """Projective point, normalized to t = 1 (affine) or t = 0, u = 1."""

    t: complex
    u: complex
    v: complex

    @property
    def at_infinity(self) -> bool:
        return self.t == 0

    def coords(self) -> tuple:
        return (self.t, self.u, self.v)

    def rotated(self, ell: int, n: int) -> "Point":
        w = cmath.exp(2j * cmath.pi * ell / n)
        return Point(self.t, self.u * w, self.v / w)

    def conjugated(self) -> "Point":
        return _normalize(self.t.conjugate(), self.v.conjugate(), self.u.conjugate())

    def to_json(self) -> dict:
        return {"t": [self.t.real, self.t.imag],
                "u": [self.u.real, self.u.imag],
                "v": [self.v.real, self.v.imag]}


def _normalize(t: complex, u: complex, v: complex) -> Point:
    if abs(t) > 1e-10 * max(abs(u), abs(v), 1.0):
        return Point(1.0 + 0j, u / t, v / t)
    if abs(u) <= 1e-12 * abs(v):
        raise AmbiguousOrbit("point at infinity with vanishing u")
    return Point(0j, 1.0 + 0j, v / u)


@dataclasses.dataclass(frozen=True)
class CircleFactorization:
    """t-derivative written as n * t^k * prod (t^2 - s_j uv)."""

    k: int
    s: tuple  # one entry per factor, repeats allowed, descending


@dataclasses.dataclass(frozen=True)
class Orbit:
    rep: Point                # canonical representative
    points: tuple             # full rotation orbit, starting at rep
    mult: int
    at_infinity: bool


@dataclasses.dataclass(frozen=True)
class IntersectionSet:
    """Conjugate-split intersection points of (f, df/dt)."""

    n: int
    orbits: tuple             # Orbit instances assigned to S
    reps: tuple               # canonical representative per S-orbit
    orbit_mult: tuple
    at_infinity: tuple        # flag per S-orbit
    S: tuple                  # (Point, mult) across all S orbits
    Sbar: tuple               # (Point, mult), conjugates of S

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.S) + sum(m for _, m in self.Sbar)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "reps": [p.to_json() for p in self.reps],
            "orbit_mult": list(self.orbit_mult),
            "at_infinity": list(self.at_infinity),
            "S": [{"point": p.to_json(), "mult": m} for p, m in self.S],
            "Sbar": [{"point": p.to_json(), "mult": m} for p, m in self.Sbar],
        }


def circle_factors(form: InvariantForm) -> CircleFactorization:
    """Factor df/dt into circles: the s_j are the critical points of p in t^2."""
    if form._critical_points is None:
        raise NonrealCircle("a circle parameter is non-real or negative")
    k, points = form._critical_points
    s = tuple(math.ldexp(y, k) for y, mult in points for _ in range(mult))
    return CircleFactorization(1 - form.n % 2, s)


def _trinomial_roots(A: complex, B: complex, C: complex, n: int) -> np.ndarray:
    """Roots of A u^2n + B u^n + C via the quadratic in z = u^n.

    The two roots of the quadratic come from the cancellation-free formula,
    whatever decades A, B and C span, and the n-th roots of each are one
    rotation orbit, exactly.
    """
    disc = np.sqrt(B * B - 4.0 * A * C + 0j)
    if abs(B - disc) > abs(B + disc):
        q = -(B - disc) / 2.0
    else:
        q = -(B + disc) / 2.0
    if abs(q) == 0.0:   # B = 0 and A C = 0 is excluded by the caller
        z1 = np.sqrt(-C / A + 0j)
        z2 = -z1
    else:
        z1, z2 = q / A, C / q
    out = []
    for z in (z1, z2):
        mag = abs(z) ** (1.0 / n)
        arg = cmath.phase(z)
        out.extend(mag * cmath.exp(1j * (arg + 2 * math.pi * k) / n)
                   for k in range(n))
    return np.asarray(out)


def circle_intersect(form: InvariantForm, s_j: float) -> list[Point]:
    """The 2n common zeros of the form and one circle t^2 = s_j uv.

    In the chart t = 1 the circle forces v = 1/(s_j u), and clearing
    denominators from f(1, u, 1/(s_j u)) leaves a degree-2n trinomial in u,
    a quadratic in u^n whose two roots give two rotation orbits.
    """
    if s_j <= 0:
        raise ValueError("circle parameter must be positive")
    n = form.n
    A = complex(form.c0, -form.ct0) / 2
    # a small circle overflows s_j^-n in float64: a failed solve, not a
    # numpy warning, nor the OverflowError of a Python float power
    s_j = np.float64(s_j)
    with np.errstate(over="ignore", invalid="ignore"):
        B = 1.0 + sum(cr * s_j ** -r for r, cr in enumerate(form.c, start=1))
        C = complex(form.c0, form.ct0) / 2 * s_j ** -n
    if A == 0:
        raise LeadingZero("circle solve needs a nonzero top coefficient")
    if not all(map(cmath.isfinite, (A, B, C))):
        raise SolveFailed("circle trinomial coefficients are not finite")
    return [Point(1.0 + 0j, u, 1.0 / (s_j * u)) for u in _trinomial_roots(A, B, C, n)]


def infinity_points(form: InvariantForm) -> list[tuple[Point, int]]:
    """Zeros of the form on the line t = 0, with multiplicities (n even)."""
    n = form.n
    if n % 2 == 1:
        raise ValueError("points at infinity only arise for even degree")
    A = complex(form.c0, -form.ct0) / 2
    if abs(A) <= 1e-300:
        raise LeadingZero("both top coefficients vanish")
    # A u^n + c_(n/2) (uv)^(n/2) + conj(A) v^n in the chart v = 1
    roots = _trinomial_roots(A, form.c[-1], A.conjugate(), n // 2)
    clusters = cluster_roots(roots, CLUSTER_RADIUS)
    out = []
    for u, mult in clusters:
        out.append((_normalize(0j, u, 1.0 + 0j), mult))
    return out


def _orbit_key(p: Point, n: int) -> tuple:
    if p.at_infinity:
        return (0, p.v ** (n // 2), 0.0 + 0j)
    return (1, p.u ** n, p.v ** n)


def _keys_match(ka: tuple, kb: tuple, tol: float) -> bool:
    # relative comparison: orbit keys of near-degenerate forms collapse
    # toward zero together, and must still be told apart
    if ka[0] != kb[0]:
        return False
    return all(abs(a - b) <= tol * max(abs(a), abs(b), 1e-280)
               for a, b in zip(ka[1:], kb[1:]))


def _canonical_rep(members: list[Point], n: int) -> Point:
    """Rotate any member so that arg(u) (affine) or arg(v) (infinity) falls
    into the fundamental window of the rotation action on that stratum."""
    p = members[0]
    if not p.at_infinity:
        window = 2 * math.pi / n
        ell = int(math.floor((cmath.phase(p.u) % (2 * math.pi)) / window))
        return p.rotated(-ell, n)
    # the rotation acts on the slope v/u with a step of twice the base angle
    window = 4 * math.pi / n
    step = cmath.exp(-4j * math.pi / n)
    w = p.v
    for _ in range(n // 2):
        if 0 <= (cmath.phase(w) % (2 * math.pi)) < window:
            break
        w *= step
    return Point(0j, 1.0 + 0j, w)


def _orbit_members(rep: Point, n: int) -> tuple:
    if rep.at_infinity:
        return tuple(Point(0j, 1.0 + 0j, rep.v * cmath.exp(-4j * math.pi * k / n))
                     for k in range(n // 2))
    return tuple(rep.rotated(k, n) for k in range(n))


def _lex_key(p: Point) -> tuple:
    return (p.u.real, p.u.imag, p.v.real, p.v.imag)


def split_conjugate(points: list[tuple[Point, int]], n: int) -> IntersectionSet:
    """Group points into rotation orbits and split them into conjugate halves.

    Self-conjugate orbits of even multiplicity 2m contribute m copies to
    each half; a self-conjugate orbit of odd multiplicity means a real
    intersection point and reroutes the caller to the spectral route.
    """
    # cluster by rotation-invariant keys
    buckets: list[dict] = []
    for p, mult in points:
        key = _orbit_key(p, n)
        for b in buckets:
            if _keys_match(b["key"], key, TOL_SEP * n):
                b["members"].append(p)
                b["mult"] += mult
                break
        else:
            buckets.append({"key": key, "members": [p], "mult": mult})

    orbits = []
    for b in buckets:
        at_inf = b["members"][0].at_infinity
        size = n // 2 if at_inf else n
        if b["mult"] % size != 0:
            raise AmbiguousOrbit(
                f"orbit multiplicity {b['mult']} not divisible by orbit size {size}")
        rep = _canonical_rep(b["members"], n)
        orbits.append(Orbit(rep, _orbit_members(rep, n), b["mult"] // size, at_inf))

    # pair orbits with their conjugates
    keys = [_orbit_key(o.rep, n) for o in orbits]
    conj_keys = [_orbit_key(o.rep.conjugated(), n) for o in orbits]
    paired: list[int | None] = [None] * len(orbits)
    for i in range(len(orbits)):
        for j in range(len(orbits)):
            if _keys_match(keys[j], conj_keys[i], TOL_SEP * n * 10):
                paired[i] = j
                break
        if paired[i] is None:
            raise AmbiguousOrbit("orbit has no conjugate partner")

    chosen: list[Orbit] = []
    seen = set()
    for i, o in enumerate(orbits):
        j = paired[i]
        if i in seen or j in seen:
            continue
        if i == j:
            if o.mult % 2 == 1:
                raise RealSimplePoint(
                    f"self-conjugate orbit of odd multiplicity {o.mult} at {o.rep.coords()}")
            chosen.append(Orbit(o.rep, o.points, o.mult // 2, o.at_infinity))
            seen.add(i)
        else:
            other = orbits[j]
            if o.mult != other.mult:
                raise AmbiguousOrbit("conjugate orbits with unequal multiplicity")
            # which side of a conjugate pair is called S is a convention; the
            # published worked examples keep the lexicographically smaller
            # canonical representative
            chosen.append(o if _lex_key(o.rep) <= _lex_key(other.rep) else other)
            seen.update((i, j))

    chosen.sort(key=lambda o: (o.at_infinity, _lex_key(o.rep)))
    S = tuple((p, o.mult) for o in chosen for p in o.points)
    Sbar = tuple((p.conjugated(), m) for p, m in S)
    return IntersectionSet(
        n=n,
        orbits=tuple(chosen),
        reps=tuple(o.rep for o in chosen),
        orbit_mult=tuple(o.mult for o in chosen),
        at_infinity=tuple(o.at_infinity for o in chosen),
        S=S,
        Sbar=Sbar,
    )


def compute_intersections(form: InvariantForm) -> IntersectionSet:
    """Full intersection pipeline: circles, infinity points, conjugate split.

    Validates the total count n(n-1) and the residuals of every stored point.
    """
    n = form.n
    fac = circle_factors(form)
    zero_circles = sum(1 for s in fac.s if s == 0.0)
    pts: list[tuple[Point, int]] = []
    for s in fac.s:
        if s > 0.0:
            pts.extend((p, 1) for p in circle_intersect(form, s))
    inf_weight = fac.k + 2 * zero_circles
    if inf_weight > 0:
        if n % 2 == 1:
            # a circle degenerated to t^2 on an odd-degree form: the
            # affine-points guarantee failed, so reroute
            raise AmbiguousOrbit("degenerate circle on odd-degree form")
        pts.extend((p, m * inf_weight) for p, m in infinity_points(form))
    total = sum(m for _, m in pts)
    if total != n * (n - 1):
        raise AmbiguousOrbit(f"found {total} points, expected {n * (n - 1)}")
    iset = split_conjugate(pts, n)
    _check_residuals(form, iset)
    return iset


def _check_residuals(form: InvariantForm, iset: IntersectionSet):
    tol = TOL_PT * (1.0 + form.coefficient_scale()) * 100
    values = _evaluate_many([form.expand(), form._derivative],
                            [p.coords() for p, _ in iset.S + iset.Sbar])
    for res in map(abs, values.T.ravel().tolist()):    # point by point, f first
        if res > tol:
            raise SolveFailed(f"stored point residual {res:.2e} above budget")
