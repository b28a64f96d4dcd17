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
        return complex(_evaluate_many([self], [(t, u, v)])[0, 0])

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


def _evaluate_many(polys, points) -> np.ndarray:
    """Values of the polynomials at the (t, u, v) points, one row per
    polynomial: their coefficient matrix over the distinct monomials times
    the table of those monomials at the points, which comes from one
    cumulative power array of the coordinates.  Where a value or a monomial
    overflows, the values read nan (a monomial makes every value at its
    point nan): which parts the matrix product would leave inf and which
    nan depends on the kernel."""
    index = {}
    for p in polys:
        for e in p.terms:
            index.setdefault(e, len(index))
    coef = np.zeros((len(polys), len(index)), dtype=complex)
    owner = np.repeat(np.arange(len(polys)), [len(p.terms) for p in polys])
    coef[owner, [index[e] for p in polys for e in p.terms]] = [
        c for p in polys for c in p.terms.values()]
    expo = np.array(list(index), dtype=np.intp).reshape(-1, 3)
    z = np.asarray(points, dtype=complex).reshape(-1, 3).T         # (3, points)
    steps = np.ones((int(expo.max(initial=0)) + 1,) + z.shape, dtype=complex)
    steps[1:] = z
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.cumprod(steps, axis=0)              # powers[k, var] = z[var]^k
        table = powers[expo[:, 0], 0] * powers[expo[:, 1], 1] * powers[expo[:, 2], 2]
        values = coef @ table
    values[~np.isfinite(values)] = np.nan
    return values


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
