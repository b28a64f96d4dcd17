"""Sparse homogeneous polynomials in the three variables (t, u, v).

A polynomial is stored as a map from exponent triples (i, j, k) with
i + j + k = degree to complex coefficients.  The monomial order used
everywhere is graded lexicographic with t > u > v; within one degree this
is plain descending tuple order on (i, j, k), which pins down leading
coefficients and nullspace vectors deterministically.

The same module houses the group actions used downstream: the rotation
(t, u, v) -> (t, w u, w^-1 v) for w a primitive n-th root of unity, and
the conjugation involution [t:u:v] -> [tbar:vbar:ubar].
"""

import cmath

import numpy as np

from .config import DROP_TOL


def monomials_of_degree(degree: int) -> list[tuple[int, int, int]]:
    """All exponent triples of the given total degree, in the global order."""
    out = [(i, j, degree - i - j)
           for i in range(degree, -1, -1)
           for j in range(degree - i, -1, -1)]
    return out


class TrivariatePoly:
    """Homogeneous polynomial; immutable by convention (never mutate .terms).

    The constructor keeps every nonzero coefficient: the relative drop
    tolerance is applied only where floating noise is actually created
    (products), never to exact input data.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None,
                 drop_tol: float = 0.0):
        terms = dict(terms or {})
        for e in terms:
            if len(e) != 3 or min(e) < 0 or sum(e) != degree:
                raise ValueError(f"exponent {e} not homogeneous of degree {degree}")
        self.degree = degree
        self.terms = _cut(terms, drop_tol)

    @classmethod
    def _unchecked(cls, degree: int, terms: dict, drop_tol: float = 0.0) -> "TrivariatePoly":
        """The constructor without its exponent check, for internal results
        whose exponents are homogeneous of the degree by construction."""
        p = object.__new__(cls)
        p.degree = degree
        p.terms = _cut(terms, drop_tol)
        return p

    @classmethod
    def monomial(cls, e: tuple[int, int, int], coeff: complex = 1.0) -> "TrivariatePoly":
        return cls(sum(e), {tuple(e): coeff})

    def coeff(self, e) -> complex:
        return self.terms.get(tuple(e), 0.0 + 0.0j)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def leading(self) -> tuple[tuple[int, int, int], complex]:
        """Leading (exponent, coefficient) in the global monomial order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self) -> "TrivariatePoly":
        _, lc = self.leading()
        return self * (1.0 / lc)

    def __add__(self, other: "TrivariatePoly") -> "TrivariatePoly":
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("degree mismatch in addition")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return TrivariatePoly._unchecked(self.degree, out)

    def __sub__(self, other: "TrivariatePoly") -> "TrivariatePoly":
        return self + (-other)

    def __neg__(self) -> "TrivariatePoly":
        return TrivariatePoly._unchecked(self.degree, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TrivariatePoly):
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[e] = out.get(e, 0.0) + c1 * c2
            return TrivariatePoly._unchecked(self.degree + other.degree, out,
                                             drop_tol=DROP_TOL)
        return TrivariatePoly._unchecked(self.degree,
                                         {e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def evaluate(self, t: complex, u: complex, v: complex) -> complex:
        tp = _powers(t, self.degree)
        up = _powers(u, self.degree)
        vp = _powers(v, self.degree)
        return sum(c * tp[e[0]] * up[e[1]] * vp[e[2]]
                   for e, c in self.terms.items())

    def dt(self) -> "TrivariatePoly":
        """Partial derivative in t."""
        out = {}
        for (i, j, k), c in self.terms.items():
            if i > 0:
                out[(i - 1, j, k)] = out.get((i - 1, j, k), 0.0) + i * c
        return TrivariatePoly._unchecked(max(self.degree - 1, 0), out)

    def distance(self, other: "TrivariatePoly") -> float:
        """Max absolute coefficient difference."""
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.coeff(e) - other.coeff(e)) for e in keys), default=0.0)

    def __repr__(self):
        if not self.terms:
            return f"TrivariatePoly({self.degree}, 0)"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True)[:6]:
            bits.append(f"{c:.4g}*t^{e[0]}u^{e[1]}v^{e[2]}")
        more = "..." if len(self.terms) > 6 else ""
        return f"TrivariatePoly({self.degree}, {' + '.join(bits)}{more})"


def _cut(terms: dict, drop_tol: float) -> dict:
    """The terms as complex numbers, without those at most drop_tol times
    the largest modulus (exact zeros always go)."""
    if not terms:
        return terms
    cutoff = drop_tol * max(abs(c) for c in terms.values())
    return {e: complex(c) for e, c in terms.items() if abs(c) > cutoff}


def _powers(z: complex, upto: int) -> list[complex]:
    out = [1.0 + 0.0j]
    for _ in range(upto):
        out.append(out[-1] * z)
    return out


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on split float arrays, rounded as Python rounds
    a complex product; numpy's complex multiply may fuse a multiply-add."""
    return ar * br - ai * bi, ar * bi + ai * br


def _evaluate_many(polys, points) -> np.ndarray:
    """Values of the polynomials at the (t, u, v) points, one row per
    polynomial, equal bit for bit to TrivariatePoly.evaluate.

    The arithmetic is the same: the power recursion of _powers, each term
    ((c * t^i) * u^j) * v^k in dict order, and the terms added left to
    right from zero.  Polynomials with fewer terms skip the missing ones
    rather than add zeros, which keeps the sign of a zero sum.  This relies
    on `sum` adding complex numbers left to right and on `complex * float`
    promoting the float to a complex number, as CPython 3.11 does.
    """
    # terms in dict order, one row per polynomial, padded to the longest
    counts = np.array([len(p.terms) for p in polys], dtype=np.intp)
    owner = np.repeat(np.arange(len(polys)), counts)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    coef = np.zeros((len(polys), int(counts.max(initial=0))), dtype=complex)
    expo = np.zeros(coef.shape + (3,), dtype=np.intp)
    coef[owner, slot] = [c for p in polys for c in p.terms.values()]
    expo[owner, slot] = np.array([e for p in polys for e in p.terms],
                                 dtype=np.intp).reshape(-1, 3)
    z = np.array(points, dtype=complex).reshape(-1, 3).T     # (3, points)
    degree = max((p.degree for p in polys), default=0)
    pr = np.empty((degree + 1,) + z.shape)                  # powers of t, u, v
    pi = np.empty_like(pr)
    pr[0], pi[0] = 1.0, 0.0
    # Python's complex arithmetic overflows to inf and nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(degree):
            pr[k + 1], pi[k + 1] = _cmul(pr[k], pi[k], z.real, z.imag)
        tr, ti = coef.real[:, :, None], coef.imag[:, :, None]
        for var in range(3):
            tr, ti = _cmul(tr, ti, pr[expo[:, :, var], var], pi[expo[:, :, var], var])
        sr = np.zeros((len(polys), z.shape[1]))
        si = np.zeros_like(sr)
        for k in range(coef.shape[1]):
            has = counts > k
            if has.all():
                sr += tr[:, k]
                si += ti[:, k]
            else:
                sr[has] += tr[has, k]
                si[has] += ti[has, k]
    out = np.empty(sr.shape, dtype=complex)
    out.real, out.imag = sr, si
    return out


def rotate(p: TrivariatePoly, ell: int, n: int) -> TrivariatePoly:
    """Apply (t, u, v) -> (t, w^ell u, w^-ell v) with w = exp(2 pi i / n).

    The coefficient of t^i u^j v^k picks up the phase w^(ell (j - k)).
    """
    w = cmath.exp(2j * cmath.pi / n)
    out = {e: c * w ** (ell * (e[1] - e[2])) for e, c in p.terms.items()}
    return TrivariatePoly._unchecked(p.degree, out)


def conj_involution(p: TrivariatePoly) -> TrivariatePoly:
    """Coefficient-conjugating involution that also swaps u and v.

    Its fixed points are exactly the polynomials that take real values on
    real (t, x, y) points; the conjugate of a form vanishing on a point set
    vanishes on the conjugated point set.
    """
    out = {}
    for (i, j, k), c in p.terms.items():
        out[(i, k, j)] = c.conjugate()
    return TrivariatePoly._unchecked(p.degree, out)
