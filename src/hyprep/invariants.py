"""Rotation-invariant degree-n forms and eigenspaces of the rotation map.

A degree-n form invariant under u -> w u, v -> w^-1 v (w a primitive n-th
root of unity) that is monic in t is determined by floor(n/2) + 3 real
numbers: the coefficients c_r of t^(n-2r) (uv)^r, the coefficient c0 of
(u^n + v^n)/2 and the coefficient ct0 of (u^n - v^n)/(2i).  Every solve
runs on a form's one exact unit rescaling, InvariantForm._unit.
"""

import dataclasses
import functools
import math

from .config import TOL_ROOT
from .poly import TrivariatePoly, monomials_of_degree


@dataclasses.dataclass(frozen=True)
class InvariantForm:
    """Monic rotation-invariant form in its real coefficient coordinates."""

    n: int
    c: tuple
    c0: float
    ct0: float

    def __init__(self, n, c, c0, ct0):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "c", tuple(float(x) for x in c))
        object.__setattr__(self, "c0", float(c0))
        object.__setattr__(self, "ct0", float(ct0))
        if self.n < 3:
            raise ValueError("degree must be at least 3")
        if len(self.c) != self.n // 2:
            raise ValueError(f"expected {self.n // 2} coefficients, got {len(self.c)}")
        vals = self.c + (self.c0, self.ct0)
        if not all(math.isfinite(x) for x in vals):
            raise ValueError("coefficients must be finite")

    @property
    def s(self) -> float:
        """Magnitude of the top coefficient pair, sqrt(c0^2 + ct0^2)."""
        return math.hypot(self.c0, self.ct0)

    def expand(self) -> TrivariatePoly:
        """The form as a polynomial in (t, u, v), built once per form and
        shared by every caller, so it must not be mutated."""
        return self._expansion

    @functools.cached_property
    def _expansion(self) -> TrivariatePoly:
        n = self.n
        terms = {(n, 0, 0): 1.0 + 0.0j}
        for r, cr in enumerate(self.c, start=1):
            if cr != 0.0:
                terms[(n - 2 * r, r, r)] = complex(cr)
        # (u^n + v^n)/2 and (u^n - v^n)/(2i) merged per monomial
        top_u = (self.c0 - 1j * self.ct0) / 2
        top_v = (self.c0 + 1j * self.ct0) / 2
        if top_u != 0:
            terms[(0, n, 0)] = terms.get((0, n, 0), 0.0) + top_u
        if top_v != 0:
            terms[(0, 0, n)] = terms.get((0, 0, n), 0.0) + top_v
        return TrivariatePoly(n, terms)

    @functools.cached_property
    def _derivative(self) -> TrivariatePoly:
        """df/dt, built once per form and shared like expand()."""
        return self._expansion.dt()

    @functools.cached_property
    def _unit(self):
        """(unit, k): the form of W / 2^k, where W represents this one, k the
        nearest integer to log2 of the equal moduli sqrt(4 |c_1| / n); its
        coefficients c_r 4^(-rk) and (c0, ct0) 2^(-nk) are exact.  None when
        the size rules out hyperbolicity: the roots of p are real, with sum of
        squares -2 c_1 <= n on the unit form, so by Maclaurin's inequality
        the coefficient of t^(n-j) is at most binom(n, j) < 2^n there, and
        c_1 = 0 leaves p = t^n, s = 0."""
        n, c = self.n, self.c
        coeffs = c + (self.c0, self.ct0)
        if c[0] == 0.0:
            return None if any(coeffs) else (self, 0)
        k = round(0.5 * math.log2(4.0 * abs(c[0]) / n))
        shifts = [2 * r * k for r in range(1, len(c) + 1)] + [n * k] * 2
        if any(x and math.frexp(x)[1] - shift > n for x, shift in zip(coeffs, shifts)):
            return None
        if k == 0:
            return self, 0
        scaled = [math.ldexp(x, -shift) for x, shift in zip(coeffs, shifts)]
        unit = InvariantForm(n, scaled[:-2], *scaled[-2:])
        object.__setattr__(unit, "_unit", (unit, 0))
        return unit, k

    @functools.cached_property
    def _critical_points(self):
        """((x, multiplicity), ...): the critical points x of p in t^2,
        descending, 4^k times the unit form's, which are solved once; None
        when one is non-real or below -TOL_ROOT there (one just below 0 is
        0), or when there is no unit form.  With p(t) = t^e P(t^2), e = n
        mod 2, and p'(t) = t^(1-e) Q(t^2), Q_j = (n - 2j) c_j, they are the
        roots of Q, monic, as it stands on the unit form, where a hyperbolic
        form's lie in [0, n].  They are not clustered: a radius is absolute
        near 0 and would merge the small critical points of a p whose roots
        span decades."""
        from .hyperbolicity import _root_profiles   # it imports this module
        unit, k = self._unit or (None, 0)
        if unit is not self:
            points = unit and unit._critical_points
            return points and tuple((math.ldexp(x, 2 * k), mult) for x, mult in points)
        n = self.n
        q = [1.0] + [(n - 2 * j) * cj / n for j, cj in enumerate(self.c[:(n - 1) // 2], start=1)]
        profile = _root_profiles([q], 0.0)[0]
        if not profile.all_real or profile.roots[0][0] < -TOL_ROOT:
            return None
        return tuple((max(float(x), 0.0), mult) for x, mult in reversed(profile.roots))

    @functools.cached_property
    def _gaps(self):
        """hyperbolicity._gaps of the unit form, evaluated once: classify,
        is_hyperbolic and intersection.compute_intersections read it."""
        from .hyperbolicity import _gaps    # it imports this module
        unit = self._unit[0] if self._unit else self
        return _gaps(self) if unit is self else unit._gaps

    def univariate(self) -> list:
        """Coefficients (leading first) of p(t) = t^n + sum_r c_r t^(n-2r)."""
        coeffs = [0.0] * (self.n + 1)
        coeffs[0] = 1.0
        for r, cr in enumerate(self.c, start=1):
            coeffs[2 * r] = cr
        return coeffs

    def coefficient_scale(self) -> float:
        return max([1.0] + [abs(x) for x in self.c] + [abs(self.c0), abs(self.ct0)])

    def to_json(self) -> dict:
        return {"n": self.n, "c": list(self.c), "c0": self.c0, "ct0": self.ct0}

    @classmethod
    def from_json(cls, data: dict) -> "InvariantForm":
        return cls(data["n"], data["c"], data["c0"], data["ct0"])


@functools.lru_cache(maxsize=1024)
def eigenspace_basis(n: int, k: int, ell: int) -> tuple:
    """Monomials t^i u^j v^k' of degree k with j - k' = ell mod n, as
    exponent triples in global order.

    These span the eigenspace of the rotation map with eigenvalue w^ell
    restricted to forms of degree k.
    """
    if not 0 <= ell < n:
        raise ValueError("eigenvalue index out of range")
    return tuple(e for e in monomials_of_degree(k) if (e[1] - e[2]) % n == ell)


def eigenspace_dim_formula(n: int, ell: int) -> int:
    """Closed-form dimension of the degree n-1 rotation eigenspaces."""
    if n < 3:
        raise ValueError("degree must be at least 3")
    if not 0 <= ell < n:
        raise ValueError("eigenvalue index out of range")
    if n % 2 == 1:
        return (n + 1) // 2
    return n // 2 if ell % 2 == 0 else n // 2 + 1


def invariant_dim(n: int) -> int:
    """Dimension of the space of degree-n rotation-invariant forms."""
    if n < 3:
        raise ValueError("degree must be at least 3")
    return n // 2 + 3
