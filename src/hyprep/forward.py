"""Forward map from shift weights to invariant coefficients, two ways.

The determinant det(tI + (u/2) A* + (v/2) A) for a cyclic shift A expands
over the cycle graph on n edges: an r-edge matching contributes
(-1/4)^r (uv)^r t^(n-2r) times the product of the matched |a_j|^2, and the
two full cycles contribute the u^n / v^n terms through the weight product,

    c_r = (-1/4)^r * sum over r-matchings of prod |a_j|^2,
    c0 + i ct0 = (-1)^(n-1) * 2^(1-n) * a_1 a_2 ... a_n.

That closed form is the combinatorial oracle; the second oracle reads the
same coefficients off the spectra of the Hermitian slices H(theta) of
shift.py at four phases.  The two are compared on every call of the latter.
"""

import cmath
import dataclasses

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import NotDihedral, OracleDisagreement
from .hyperbolicity import is_hyperbolic
from .invariants import InvariantForm
from .shift import ShiftMatrix, hermitian_slices


def _matching_sums(xs: list[float]) -> list[float]:
    """Sums over r-edge matchings of the n-cycle of the edge-weight products.

    Returns [M_0, M_1, ..., M_floor(n/2)] with M_0 = 1.  Edge j joins
    vertices j, j+1 (edge n joins n, 1); a matching may not reuse a vertex.
    """
    n = len(xs)

    def path(ws: list[float]) -> list[float]:
        # generating coefficients for a path of consecutive edges
        prev2, prev1 = [1.0], [1.0]
        for w in ws:
            cur = list(prev1) + [0.0] * (1 + len(prev2) - len(prev1))
            for r, coef in enumerate(prev2):
                cur[r + 1] += w * coef
            prev2, prev1 = prev1, cur
        return prev1

    # split on the closing edge: either unused (path on edges 1..n-1) or
    # used (excludes its two neighbours, leaving the path on edges 2..n-2)
    without = path(xs[:-1])
    inner = path(xs[1:-2]) if n >= 4 else [1.0]
    total = list(without) + [0.0] * (n // 2 + 1 - len(without))
    for r, coef in enumerate(inner):
        if r + 1 < len(total):
            total[r + 1] += xs[-1] * coef
    return total[: n // 2 + 1]


def forward_matching(W: ShiftMatrix) -> InvariantForm:
    """Combinatorial forward oracle; exact floating arithmetic, no solver."""
    n = W.n
    xs = [abs(w) ** 2 for w in W.weights]
    sums = _matching_sums(xs)
    c = [(-0.25) ** r * sums[r] for r in range(1, n // 2 + 1)]
    top = (-1.0) ** (n - 1) * 2.0 ** (1 - n) * W.product()
    return InvariantForm(n, c, top.real, top.imag)


def forward_interpolate(W: ShiftMatrix) -> InvariantForm:
    """Eigenvalue oracle, cross-checked against the matching oracle.

    Four phases: at theta = 0, pi/n, pi/(2n) and 3 pi/(2n) the pair
    (cos n theta, sin n theta) is (1, 0), (-1, 0), (0, 1) and (0, -1), so the
    characteristic polynomials np.poly(-eigvalsh(H(theta))) are p + c0,
    p - c0, p + ct0 and p - ct0, with c0 and ct0 in the constant term.
    Their mean is p, whose even coefficients are the c_r (for even n the
    constant term is c_(n/2)); half the constant-term differences of the
    two pairs are c0 and ct0.  Disagreement with the combinatorial oracle
    beyond both 1e-9 of the coefficient scale and 16 times this oracle's
    own roundoff bound is fatal: it can only mean an implementation bug.
    """
    n = W.n
    thetas = np.pi / n * np.array([0.0, 1.0, 0.5, 1.5])
    spectra = np.linalg.eigvalsh(hermitian_slices(W.matrix(), thetas))
    polys = [np.poly(-lam) for lam in spectra]
    p = np.mean(polys, axis=0)
    d = [q[-1] for q in polys]
    got = InvariantForm(n, p[2::2], (d[0] - d[1]) / 2, (d[2] - d[3]) / 2)
    want = forward_matching(W)
    # the roundoff bound of np.poly(-lam), largest over the phases: n eps
    # (E_k + max|lam| E_(k-1)), with E = np.poly(-|lam|)
    E = np.array([np.poly(-lam) for lam in np.abs(spectra)])
    E[:, 1:] += np.abs(spectra).max(axis=1, keepdims=True) * E[:, :-1]
    bound = 16 * n * np.finfo(float).eps * E.max(axis=0)
    deltas = list(_coefficient_deltas(want, got).values())    # c_1.., c0, ct0
    limits = np.maximum(1e-9 * max(1.0, want.coefficient_scale()),
                        [*bound[2::2], bound[n], bound[n]])
    if (np.array(deltas) > limits).any():
        raise OracleDisagreement(f"oracles differ by {max(deltas):.3e}")
    return got


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    max_abs_err: float
    deltas: dict            # per-coefficient absolute differences
    hyperbolic: bool
    dihedral: bool          # ct0 of the realized form is (numerically) zero
    zero_weight: bool       # some weight vanished; the product condition is vacuous

    def to_json(self) -> dict:
        return {"max_abs_err": self.max_abs_err,
                "deltas": dict(self.deltas),
                "hyperbolic": self.hyperbolic,
                "dihedral": self.dihedral,
                "zero_weight": self.zero_weight}


def _coefficient_deltas(form: InvariantForm, got: InvariantForm) -> dict:
    """Absolute differences of the real coefficients, by name."""
    deltas = {f"c{r}": abs(x - y) for r, (x, y) in enumerate(zip(got.c, form.c), start=1)}
    deltas["c0"] = abs(got.c0 - form.c0)
    deltas["ct0"] = abs(got.ct0 - form.ct0)
    return deltas


def coefficient_error(form: InvariantForm, W: ShiftMatrix) -> float:
    """Largest absolute coefficient difference between a form and the
    forward image of W: the error that certifies a representation."""
    return max(_coefficient_deltas(form, forward_matching(W)).values())


def verify(form: InvariantForm, W: ShiftMatrix) -> VerifyReport:
    """Coefficient-level comparison of a form against the forward image of W."""
    got = forward_matching(W)
    scale = max(1.0, got.coefficient_scale())
    deltas = _coefficient_deltas(form, got)
    return VerifyReport(
        max_abs_err=max(deltas.values()),
        deltas=deltas,
        hyperbolic=is_hyperbolic(got),
        dihedral=abs(got.ct0) <= 1e-9 * scale,
        zero_weight=any(w == 0 for w in W.weights),
    )


def realize_real(W: ShiftMatrix, config: Config = DEFAULT_CONFIG) -> ShiftMatrix:
    """Dephase to all-real weights when the weight product is real.

    Writing a_j = r_j e^(i alpha_j) with the total phase absorbed into the
    last factor, the diagonal unitary with angles

        theta_j = -(alpha_j + alpha_(j+1) + ... + alpha_(n-1)),  theta_n = 0

    turns S(a_1, ..., a_n) into S(r_1, ..., r_n).  Every |a_j| and the
    product are preserved, so the forward invariants do not move.
    """
    n = W.n
    prod = W.product()
    scale = max(1.0, max(W.moduli()) ** n)
    if abs(prod.imag) > config.tol_final * scale:
        raise NotDihedral(f"weight product {prod} is not real")
    alphas = [cmath.phase(w) if w != 0 else 0.0 for w in W.weights[:-1]]
    alphas.append(-sum(alphas))   # force the phases to sum to zero exactly
    thetas = [-sum(alphas[j:-1]) for j in range(n - 1)] + [0.0]
    out = []
    for j in range(n):
        jn = (j + 1) % n
        w = W.weights[j] * cmath.exp(1j * (thetas[j] - thetas[jn]))
        if abs(w.imag) > 1e-9 * max(1.0, abs(w)):
            raise NotDihedral(f"weight {j + 1} failed to dephase: {w}")
        out.append(w.real)
    return ShiftMatrix(out)
