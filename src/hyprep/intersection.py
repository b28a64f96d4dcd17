"""Common zeros of a form and its t-derivative, organized by symmetry.

For an invariant hyperbolic form the t-derivative factors (up to the
scalar n and a possible factor of t) into circles t^2 - s_j uv with real
s_j >= 0: the critical points of p in t^2, read from the solve classify
makes once per form.  On each circle the common zeros are the n-th roots of
the roots of a quadratic in u^n whose discriminant is
s_j^-n (p(sqrt(s_j))^2 - s^2); on the line at infinity (n even) they are the
(n/2)-th roots of one in u^(n/2) whose discriminant is p(0)^2 - s^2.  So the
gap of p +/- s at each critical point, which classify tests once per form,
settles the census.  An open gap gives two rotation orbits, each the
conjugate of the other: one is kept in S, its mirror in Sbar.  A closed gap
gives one self-conjugate orbit at the exact double root, its multiplicity
split half to each.  Nothing is clustered or matched, and the count n(n-1)
holds by construction.  All of it runs on the form's unit rescaling, so a
small form's circles do not overflow s_j^-n, and the points scale back
exactly.  Every stored point is checked against f and df/dt once, relative
to the Horner bound of each value, and a single representative per kept
orbit forms the working set used by the construction.
"""

import cmath
import dataclasses
import math
import sys

import numpy as np

from .errors import AmbiguousOrbit, LeadingZero, NotHyperbolic, SolveFailed
from .invariants import InvariantForm
from .poly import TrivariatePoly, _evaluate_many


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
    """Factor df/dt into circles: the s_j are the critical points of p in t^2.
    Raises NotHyperbolic when they are not real and nonnegative."""
    if form._critical_points is None:
        raise NotHyperbolic("form is not hyperbolic")
    s = tuple(x for x, mult in form._critical_points for _ in range(mult))
    return CircleFactorization(1 - form.n % 2, s)


def _trinomial_roots(A: complex, B: complex, C: complex, n: int,
                     closed: bool) -> list[np.ndarray]:
    """Roots of A u^2n + B u^n + C via the quadratic in z = u^n, one array of
    n per root z: each is one rotation orbit, exactly.

    The two roots of the quadratic come from the cancellation-free formula,
    whatever decades A, B and C span.  On a closed gap the discriminant
    vanishes, and the one orbit is the n-th roots of the double root -B/(2A).
    A root that overflows, where A is tiny against B, fails the solve.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if closed:
            zs = (-B / (2.0 * A),)
        else:
            disc = np.sqrt(B * B - 4.0 * A * C + 0j)
            if abs(B - disc) > abs(B + disc):
                q = -(B - disc) / 2.0
            else:
                q = -(B + disc) / 2.0
            if abs(q) == 0.0:   # B = 0 and A C = 0 is excluded by the caller
                z1 = np.sqrt(-C / A + 0j)
                zs = (z1, -z1)
            else:
                zs = (q / A, C / q)
    if not all(map(cmath.isfinite, zs)):
        raise SolveFailed("circle trinomial roots are not finite")
    out = []
    for z in zs:
        mag = abs(z) ** (1.0 / n)
        arg = cmath.phase(z)
        out.append(np.asarray([mag * cmath.exp(1j * (arg + 2 * math.pi * k) / n)
                               for k in range(n)]))
    return out


def _circle_orbits(form: InvariantForm, s_j: float, closed: bool = False,
                   back: float = 1.0) -> list[list[Point]]:
    """The common zeros of the form and one circle t^2 = s_j uv, one list per
    rotation orbit, with u and v times back.

    In the chart t = 1 the circle forces v = 1/(s_j u), and clearing
    denominators from f(1, u, 1/(s_j u)) leaves A w^2 + B w + conj(A) s_j^-n
    in w = u^n, with B = p(sqrt(s_j)) s_j^(-n/2) and discriminant
    s_j^-n (p(sqrt(s_j))^2 - s^2): the gap of p +/- s at the critical point.
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
    roots = _trinomial_roots(A, B, C, n, closed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        orbits = [[Point(1.0 + 0j, u * back, back / (s_j * u)) for u in orbit]
                  for orbit in roots]
    if not all(cmath.isfinite(x) for orbit in orbits for p in orbit for x in (p.u, p.v)):
        raise SolveFailed("circle points are not finite")
    return orbits


def circle_intersect(form: InvariantForm, s_j: float) -> list[Point]:
    """The 2n common zeros of the form and one circle t^2 = s_j uv: the n-th
    roots of the two roots of a quadratic in u^n, two rotation orbits."""
    return [p for orbit in _circle_orbits(form, s_j) for p in orbit]


def _infinity_orbits(form: InvariantForm, closed: bool) -> list[list[Point]]:
    """The zeros of the form on the line t = 0 (n even), one list per
    rotation orbit; closed when the gap of p +/- s closes at t = 0."""
    n = form.n
    if n % 2 == 1:
        raise ValueError("points at infinity only arise for even degree")
    A = complex(form.c0, -form.ct0) / 2
    if abs(A) <= 1e-300:
        raise LeadingZero("both top coefficients vanish")
    # A u^n + c_(n/2) (uv)^(n/2) + conj(A) v^n in the chart v = 1
    orbits = _trinomial_roots(A, form.c[-1], A.conjugate(), n // 2, closed)
    if not closed:
        # an open-gap orbit starts at its lexicographically smallest u: the
        # last bits of the representative depend on the start, and the
        # goldens pin this one
        orbits = [sorted(roots, key=lambda u: (u.real, u.imag)) for roots in orbits]
    return [[_normalize(0j, u, 1.0 + 0j) for u in roots] for roots in orbits]


def infinity_points(form: InvariantForm) -> list[tuple[Point, int]]:
    """Zeros of a hyperbolic form on the line t = 0, with multiplicities (n
    even): double exactly where the gap of p +/- s closes at t = 0."""
    closed = _closed_gaps(form)[-1]
    return [(p, 2 if closed else 1)
            for orbit in _infinity_orbits(form._unit[0], closed) for p in orbit]


def _canonical_rep(p: Point, n: int) -> Point:
    """Rotate p so that arg(u) (affine) or arg(v) (infinity) falls into the
    fundamental window of the rotation action on that stratum."""
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


def _kept_orbit(orbits: list[list[Point]], mult: int, n: int) -> Orbit:
    """The orbit S keeps of one root pair of a quadratic, with multiplicity.

    Two roots (an open gap) are two distinct orbits, each the conjugate of
    the other: which is called S is a convention, and the published worked
    examples keep the lexicographically smaller canonical representative.
    One root (a closed gap) is a self-conjugate orbit of multiplicity 2 mult,
    split mult to each half.
    """
    rep = min((_canonical_rep(orbit[0], n) for orbit in orbits), key=_lex_key)
    return Orbit(rep, _orbit_members(rep, n), mult, rep.at_infinity)


def _closed_gaps(form: InvariantForm) -> tuple:
    """The closed-gap flags of hyperbolicity._gaps; raises NotHyperbolic."""
    if form._gaps is None:
        raise NotHyperbolic("form is not hyperbolic")
    return form._gaps[0]


def compute_intersections(form: InvariantForm) -> IntersectionSet:
    """Full intersection pipeline: circles, infinity points, conjugate split.

    Each critical point of p in t^2 is a circle, whose two orbits are
    conjugate, or one self-conjugate orbit where the gap of p +/- s closes.
    So are the points at infinity, at t = 0; there they carry the
    multiplicity 1 + 2 (critical points at 0).  The residuals of every
    stored point are checked.  All is solved on the unit form, whose affine
    points (1, u, v) are (1, u / 2^k, v / 2^k) here.
    """
    n = form.n
    closed = _closed_gaps(form)     # raises NotHyperbolic, also with no unit form
    unit, k = form._unit
    points = unit._critical_points
    chosen = []
    for (x, mult), shut in zip(points, closed):
        if x > 0.0:
            chosen.append(_kept_orbit(_circle_orbits(unit, x, shut, 2.0 ** -k), mult, n))
    zero_circles = sum(mult for x, mult in points if x == 0.0)
    if n % 2 == 0:
        chosen.append(_kept_orbit(_infinity_orbits(unit, closed[-1]), 1 + 2 * zero_circles, n))
    elif zero_circles:
        # a circle degenerated to t^2 on an odd-degree form: the
        # affine-points guarantee failed, so reroute
        raise AmbiguousOrbit("degenerate circle on odd-degree form")
    chosen.sort(key=lambda o: (o.at_infinity, _lex_key(o.rep)))
    S = tuple((p, o.mult) for o in chosen for p in o.points)
    Sbar = tuple((p.conjugated(), m) for p, m in S)
    iset = IntersectionSet(
        n=n,
        orbits=tuple(chosen),
        reps=tuple(o.rep for o in chosen),
        orbit_mult=tuple(o.mult for o in chosen),
        at_infinity=tuple(o.at_infinity for o in chosen),
        S=S,
        Sbar=Sbar,
    )
    _check_residuals(form, iset)
    return iset


def _check_residuals(form: InvariantForm, iset: IntersectionSet):
    """Every stored point is a zero of f and df/dt within 64 n eps of the
    value's Horner bound: the sum of |coefficient| |monomial| there, the
    absolute coefficients at the absolute coordinates, on the unit form (u
    and v times 2^k).  A nan fails."""
    unit, k = form._unit
    polys = [unit.expand(), unit._derivative]
    points = np.array([p.coords() for p, _ in iset.S + iset.Sbar]) * [1.0, 2.0 ** k, 2.0 ** k]
    absolute = [TrivariatePoly._unchecked(p.degree, {e: abs(c) for e, c in p.terms.items()})
                for p in polys]
    values = _evaluate_many(polys, points)
    bounds = _evaluate_many(absolute, np.abs(points))
    tol = 64 * form.n * sys.float_info.epsilon
    # point by point, f first
    for res, bound in zip(np.abs(values).T.ravel().tolist(), bounds.real.T.ravel().tolist()):
        if not res <= tol * bound:
            raise SolveFailed(f"stored point residual {res:.2e} above budget {tol * bound:.2e}")
