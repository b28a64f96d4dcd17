"""Determinantal representation of an invariant hyperbolic form.

The construction builds an n x n matrix of degree n-1 forms whose top-left
entry is df/dt, whose first row vanishes on the kept conjugate half of the
intersection points, and whose remaining entries are chosen so every 2x2
minor lies in the ideal of the form.  The adjugate of that matrix divided
by f^(n-2) is then linear in (t, u, v), Hermitian, and supported on the
cyclic shift pattern; normalizing its diagonal and reading off the
off-diagonal coefficients yields the shift weights.

Entries never get adjugated symbolically: the pencil is recovered by
evaluating adj at sample points and fitting the three coefficient matrices
of a linear pencil, which is exact in exact arithmetic since the target is
linear.  All n^2 entries and f are evaluated at a block of candidate
points in one batched pass (poly._evaluate_many), bit for bit as the
scalar TrivariatePoly.evaluate would give them, and the adjugate quotient
at every fit and holdout point comes from one stacked det and one stacked
inv.  The curve divisions of one form matrix take one least-squares solve
per eigenspace class, with one column per target, on a matrix cut out of
one matrix of every class, written straight from the coefficients of f
and df/dt by index arithmetic.

That is the direct route, the paper's construction.  The spectral route
is the second one: the weights of a Hermitian slice H(theta*) whose
spectrum is the root set of p, from a least-norm Levenberg-Marquardt solve
for the moduli (s > 0) or from Lanczos on the spectrum (s = 0).  No step
from equal moduli leaves them equal, so that start runs only when its line
meets the target (equal-moduli images); seeded restarts follow.  represent
tries the spectral route first on smooth forms and the direct route first
on singular forms with s > 0.  Forms with s = 0 take the spectral route
alone.  The direct route makes one attempt.  represent returns the first
result certified near roundoff (error at most NEAR_ROUNDOFF times the
scale), else the first certified one: a direct-route result short of
roundoff gives way to the spectral route, and is kept if that fails.
"""

import cmath
import dataclasses
import functools
import math

import numpy as np

from .config import (CLUSTER_RADIUS, DEFAULT_CONFIG, LM_CONVERGED, LM_LINE,
                     LM_STALL, LM_STEPS, MAX_RETRIES, NEAR_ROUNDOFF, TOL_NOETHER,
                     TOL_PATTERN, TOL_PENCIL, TOL_ROOT, TOL_VAN, Config)
from .errors import (AdjugateMismatch, ConvergenceFailed, HyprepError,
                     IndefiniteDiagonal, NoetherResidual, NoVanishingForm,
                     PatternViolation)
from .forward import coefficient_error
from .hyperbolicity import Kind, _s_vanishes, classify, cluster_roots
from .intersection import IntersectionSet, compute_intersections
from .invariants import InvariantForm, eigenspace_basis
from .poly import TrivariatePoly, _evaluate_many, conj_involution, monomials_of_degree
from .shift import ShiftMatrix


@dataclasses.dataclass(frozen=True)
class HermitianPencil:
    """Linear pencil t*M_t + u*M_u + v*M_u^dagger."""

    M_t: np.ndarray
    M_u: np.ndarray

    @property
    def n(self) -> int:
        return self.M_t.shape[0]

    def value(self, t: complex, u: complex, v: complex) -> np.ndarray:
        return t * self.M_t + u * self.M_u + v * self.M_u.conj().T


def vanishing_form(iset: IntersectionSet, ell: int) -> TrivariatePoly:
    """A nonzero class-ell form of degree n-1 vanishing on the kept points.

    Vanishing on the orbit representatives forces vanishing on their whole
    orbits, and the eigenspace dimension exceeds the condition count by at
    least one, so the nullspace of the evaluation matrix is nonempty.  The
    choice is its smallest-singular-value vector, normalized to leading
    coefficient one in the global monomial order.
    """
    n = iset.n
    basis = eigenspace_basis(n, n - 1, ell)
    rows = []
    for rep, at_inf in zip(iset.reps, iset.at_infinity):
        if at_inf and ell % 2 == 0:
            # every monomial in an even class of odd total degree carries a
            # factor of t, so points at infinity impose no condition
            continue
        t, u, v = rep.coords()
        rows.append([t ** e[0] * u ** e[1] * v ** e[2] for e in basis])
    if rows:
        # row scaling leaves the nullspace unchanged and tames points with
        # large coordinates
        E = np.asarray(rows, dtype=complex)
        norms = np.maximum(np.linalg.norm(E, axis=1), 1e-300)
        _, sing, Vh = np.linalg.svd(E / norms[:, None])
        if len(sing) == len(basis) and sing[-1] > max(TOL_VAN, TOL_VAN * sing[0]):
            raise NoVanishingForm(
                f"class {ell}: smallest singular value {sing[-1]:.2e} above tolerance")
        vec = Vh[-1].conj()        # right vector of the smallest singular value
    else:
        vec = np.eye(len(basis), dtype=complex)[-1]
    terms = {e: vec[i] for i, e in enumerate(basis) if abs(vec[i]) > 0}
    p = TrivariatePoly._unchecked(n - 1, terms)
    if p.is_zero():
        raise NoVanishingForm(f"class {ell}: nullspace vector vanished")
    return p.monic()


@functools.lru_cache(maxsize=256)
def _division_layout(n: int, ell: int):
    """Class-ell monomials of the two cofactors (degrees n-2 and n-1), the
    number of class-ell target monomials (degree 2(n-1)), the row table:
    rows[i, j] is the target row of t^i u^j v^(2n-2-i-j), or -1 outside the
    class, and the index that cuts the class-ell matrix out of the matrix of
    every class (_division_matrix)."""
    mon_a = eigenspace_basis(n, n - 2, ell)
    mon_b = eigenspace_basis(n, n - 1, ell)
    mon_rows = eigenspace_basis(n, 2 * (n - 1), ell)
    rows = np.full((2 * n - 1, 2 * n - 1), -1, dtype=np.intp)
    for r, e in enumerate(mon_rows):
        rows[e[0], e[1]] = r
    rows.flags.writeable = False
    every = [monomials_of_degree(d) for d in (2 * (n - 1), n - 2, n - 1)]
    cut = np.ix_([every[0].index(e) for e in mon_rows],
                 [every[1].index(e) for e in mon_a]
                 + [len(every[1]) + every[2].index(e) for e in mon_b])
    return mon_a, mon_b, len(mon_rows), rows, cut


@functools.lru_cache(maxsize=64)
def _every_class_layout(n: int):
    """The row table of every target monomial (degree 2(n-1)), as in
    _division_layout but over all classes, and the exponents of the
    monomials of degrees n-2 and n-1."""
    target = np.array(monomials_of_degree(2 * (n - 1)), dtype=np.intp)
    rows = np.full((2 * n - 1, 2 * n - 1), -1, dtype=np.intp)
    rows[target[:, 0], target[:, 1]] = np.arange(len(target))
    cols = tuple(np.array(monomials_of_degree(d), dtype=np.intp) for d in (n - 2, n - 1))
    for a in (rows, *cols):
        a.flags.writeable = False
    return rows, cols


def _division_matrix(f: TrivariatePoly, g11: TrivariatePoly, n: int) -> np.ndarray:
    """The division matrix of one (f, g11) pair over every class.

    Column e holds the coefficients of the monomial multiple e*f (or
    e*g11).  Every monomial multiple of g has the coefficients of the
    product 1*g, shifted, and keeps the same terms under the DROP_TOL cut of
    the product, so those two products are all the polynomial arithmetic
    the matrix needs; the rest is index arithmetic.  f and g11 are
    invariant, so e*f and e*g11 stay in the class of e: _divide cuts the
    class-ell matrix out of this one.
    """
    if f.degree != n or g11.degree != n - 1:
        raise ValueError("division needs deg f = n and deg g11 = n - 1")
    if any((e[1] - e[2]) % n for g in (f, g11) for e in g.terms):
        raise ValueError("division needs rotation-invariant f and g11")
    one = TrivariatePoly.monomial((0, 0, 0))
    rows, cols = _every_class_layout(n)
    every = np.zeros((rows.size, len(cols[0]) + len(cols[1])), dtype=complex)
    start = 0
    for mon, g in zip(cols, (f, g11)):
        terms = (one * g).terms
        exp = np.array(list(terms), dtype=np.intp).reshape(-1, 3)
        where = rows[mon[:, None, 0] + exp[None, :, 0], mon[:, None, 1] + exp[None, :, 1]]
        every[where, start + np.arange(len(mon))[:, None]] = list(terms.values())
        start += len(mon)
    return every


def _poly_from_vec(vec, monomials, degree) -> TrivariatePoly:
    terms = {e: c for e, c in zip(monomials, vec) if abs(c) > 0}
    return TrivariatePoly._unchecked(degree, terms)


def _divide(every: np.ndarray, n: int, ell: int, targets: list) -> tuple:
    """Write every class-ell target h as a*f + b*g11: one least-squares
    solve on the class-ell matrix cut out of _division_matrix, with one
    column per target.  Returns the coefficient vectors of a and b, stacked,
    one column per target, and each column's residual relative to its
    target."""
    _, _, nrows, rows, cut = _division_layout(n, ell)
    A = every[cut]
    # column equilibration: the system is consistent in exact arithmetic, so
    # rescaling only improves the conditioning of the solve
    col = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
    exp = np.array([e for h in targets for e in h.terms], dtype=np.intp).reshape(-1, 3)
    where = rows[exp[:, 0], exp[:, 1]]
    if np.any(where < 0):
        e = tuple(exp[int(np.argmax(where < 0))].tolist())
        raise ValueError(f"target monomial {e} outside class {ell}")
    rhs = np.zeros((nrows, len(targets)), dtype=complex)
    rhs[where, np.repeat(np.arange(len(targets)), [len(h.terms) for h in targets])] = [
        c for h in targets for c in h.terms.values()]
    sol, *_ = np.linalg.lstsq(A / col, rhs, rcond=None)
    sol = sol / col[:, None]
    resid = np.linalg.norm(A @ sol - rhs, axis=0)
    return sol, resid / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)


def _check_division(relative: float):
    if relative > TOL_NOETHER:
        raise NoetherResidual(f"division residual {relative:.2e}")


def noether_division(f: TrivariatePoly, g11: TrivariatePoly, h: TrivariatePoly,
                     ell: int, n: int) -> tuple[TrivariatePoly, TrivariatePoly]:
    """Write h = a*f + b*g11 with both cofactors confined to class ell.

    Group-averaging the classical cofactors lands them in the same
    eigenspace as h, so the unknowns can be restricted structurally to the
    class-ell monomials and solved as one least-squares system.
    """
    if h.degree != 2 * (n - 1):
        raise ValueError("division target must have degree 2(n-1)")
    sol, relative = _divide(_division_matrix(f, g11, n), n, ell, [h])
    _check_division(relative[0])
    mon_a, mon_b, _, _, _ = _division_layout(n, ell)
    return (_poly_from_vec(sol[: len(mon_a), 0], mon_a, n - 2),
            _poly_from_vec(sol[len(mon_a):, 0], mon_b, n - 1))


def assemble_form_matrix(form: InvariantForm, iset: IntersectionSet) -> tuple:
    """Build the full Hermitian grid of degree n-1 forms, as n rows of n;
    entry (i, j) lies in eigenspace class (i - j) mod n.

    Row one holds df/dt and the vanishing forms; the remaining upper
    triangle is filled by curve division (its df/dt cofactor), diagonals
    symmetrized to conjugation-fixed form (the averaging preserves the
    residual because the division target is itself conjugation fixed).
    Once row one is known every target g_i1 g_1j is, so each class is
    divided in one solve; the residuals are checked in row-major order.
    """
    n = form.n
    f = form.expand()
    g = [[None] * n for _ in range(n)]
    g[0][0] = form._derivative
    for j in range(1, n):
        g[0][j] = vanishing_form(iset, (0 - j) % n)
        g[j][0] = conj_involution(g[0][j])
    every = _division_matrix(f, g[0][0], n)
    classes = {}
    for i in range(1, n):
        for j in range(i, n):
            classes.setdefault((i - j) % n, []).append((i, j))
    cofactor = {}
    for ell, pairs in classes.items():
        sol, relative = _divide(every, n, ell, [g[i][0] * g[0][j] for i, j in pairs])
        for k, ij in enumerate(pairs):
            cofactor[ij] = sol[:, k], relative[k]
    for i in range(1, n):
        for j in range(i, n):
            vec, relative = cofactor[i, j]
            _check_division(relative)
            mon_a, mon_b, _, _, _ = _division_layout(n, (i - j) % n)
            b = _poly_from_vec(vec[len(mon_a):], mon_b, n - 1)
            if i == j:
                b = 0.5 * (b + conj_involution(b))
            g[i][j] = b
            if i != j:
                g[j][i] = conj_involution(b)
    return tuple(tuple(row) for row in g)


def _sample_points(form: InvariantForm, count: int, rng: np.random.Generator,
                   polys=()) -> tuple[list, np.ndarray]:
    """Deterministic real sample points (t, x + iy, x - iy) where |f| is
    comfortably large, starting with (1, 0, 0), and the values there of
    polys and then of f, one row per polynomial.

    Candidates (t, x, y) are drawn in blocks, and every polynomial is
    evaluated once per block.  Row (t, x, y) of a block is the next three
    draws in order, and 2 uniform(-1, 1) is uniform(-2, 2) bit for bit, so
    the candidates are those of one draw at a time; the generator is then
    rewound to end where that loop would have left it, after the last
    candidate used.
    """
    scale = form.coefficient_scale()
    radius = 1.0 + scale
    polys = [*polys, form.expand()]
    start = rng.bit_generator.state
    pts, cols, drawn, tries = [], [], 0, 200 * count
    while len(pts) < count:
        if drawn == tries:
            raise AdjugateMismatch("could not find well-separated sample points")
        need = count - len(pts)
        block = rng.uniform(-1.0, 1.0, size=(min(need + 2 + need // 4, tries - drawn), 3))
        block[:, 0] *= 2.0
        block *= radius
        head = [] if pts else [[1.0, 0.0, 0.0]]     # kept without a test
        z = [(t, complex(x, y), complex(x, -y)) for t, x, y in head + block.tolist()]
        vals = _evaluate_many(polys, z)
        # np.hypot is Python's abs bit for bit; np.abs of a complex array is not
        keep = np.hypot(vals[-1].real, vals[-1].imag) >= 0.1 * scale
        keep[:len(head)] = True
        used = np.flatnonzero(keep)[:need]
        pts.extend(z[k] for k in used.tolist())
        cols.append(vals[:, used])
        drawn += used[-1] + 1 - len(head) if len(pts) == count else len(block)
    rng.bit_generator.state = start
    rng.random(3 * drawn)
    return pts, np.concatenate(cols, axis=1)


def pencil_from_adjugate(G: tuple, form: InvariantForm,
                         rng: np.random.Generator) -> HermitianPencil:
    """Fit the linear pencil adj(G)/f^(n-2) from point evaluations.

    Because the true quotient is linear in (t, u, v), a least-squares fit of
    three coefficient matrices on enough sample points recovers it exactly
    up to roundoff; holdout points and the shift sparsity pattern are then
    checked before anything is returned.  The adjugate at a point is
    det(G) inv(G); an ill-conditioned point fails those checks.
    """
    n = len(G)
    n_fit, n_hold = max(8, n + 4), 3
    pts, vals = _sample_points(form, n_fit + n_hold, rng, [g for row in G for g in row])
    Gvals = vals[:-1].T.reshape(len(pts), n, n)
    # the adjugate quotient at every point at once.  A singular, overflowing
    # or non-finite quotient is a failed fit, not a crash; the last two are
    # reported for the first such point, as a point-by-point fit would
    try:
        with np.errstate(all="ignore"):
            adj = np.linalg.det(Gvals)[:, None, None] * np.linalg.inv(Gvals)
    except np.linalg.LinAlgError:
        raise AdjugateMismatch("form matrix is singular at a sample point") from None
    failed = [None] * len(pts)
    den = np.ones(len(pts), dtype=complex)
    for k, x in enumerate(vals[-1].tolist()):
        try:
            den[k] = x ** (n - 2)
        except OverflowError:
            failed[k] = "adjugate quotient overflows"
    with np.errstate(all="ignore"):
        Q = adj / den[:, None, None]
    for k in np.flatnonzero(~np.isfinite(Q).reshape(len(pts), -1).all(axis=1)).tolist():
        failed[k] = failed[k] or "adjugate quotient is not finite"
    for message in filter(None, failed[:n_fit]):
        raise AdjugateMismatch(message)

    Amat = np.asarray(pts[:n_fit])                                # (npts, 3)
    sol, *_ = np.linalg.lstsq(Amat, Q[:n_fit].reshape(n_fit, -1), rcond=None)
    Mt = sol[0].reshape(n, n)
    Mu = sol[1].reshape(n, n)
    Mv = sol[2].reshape(n, n)

    mscale = max(np.max(np.abs(sol)), 1e-300)
    for k in range(n_fit, n_fit + n_hold):
        if failed[k]:
            raise AdjugateMismatch(failed[k])
        t, u, v = pts[k]
        pred = t * Mt + u * Mu + v * Mv
        if np.max(np.abs(pred - Q[k])) > TOL_PENCIL * mscale * 100:
            raise AdjugateMismatch("holdout residual above tolerance")

    # Hermitian pairing and the cyclic sparsity pattern
    if np.max(np.abs(Mv - Mu.conj().T)) > TOL_PATTERN * mscale:
        raise PatternViolation("u and v coefficient matrices are not adjoint")
    Mu = 0.5 * (Mu + Mv.conj().T)
    Mt = 0.5 * (Mt + Mt.conj().T)
    # entry (i, j) of class d = (i - j) mod n: t sits on the diagonal (d = 0),
    # u on the subdiagonal and in the corner (d = 1), nothing anywhere else
    d = np.subtract.outer(np.arange(n), np.arange(n)) % n
    bad = np.maximum(np.where(d != 1, np.abs(Mu), 0.0), np.where(d != 0, np.abs(Mt), 0.0))
    outside = np.argwhere(bad > TOL_PATTERN * mscale)
    if len(outside):
        i, j = outside[0]
        raise PatternViolation(f"entry ({i + 1},{j + 1}) outside shift pattern")
    Mt_clean = np.diag(np.diag(Mt).real.astype(complex))
    Mu_clean = np.where(d == 1, Mu, 0.0)
    return HermitianPencil(Mt_clean, Mu_clean)


def normalize_pencil(P: HermitianPencil) -> HermitianPencil:
    """Scale by diag(1/sqrt(c_i)) so the diagonal becomes exactly t."""
    diag = np.diag(P.M_t).real.copy()
    Mu = P.M_u
    if np.all(diag < 0):
        diag, Mu = -diag, -Mu
    if np.any(diag <= 0):
        raise IndefiniteDiagonal(f"diagonal signs are mixed: {diag}")
    D = np.diag(1.0 / np.sqrt(diag))
    Mu2 = D @ Mu @ D
    return HermitianPencil(np.eye(P.n, dtype=complex), Mu2)


def extract_shift(P: HermitianPencil) -> ShiftMatrix:
    """Read the weights off a normalized pencil.

    The v-coefficient matrix, the adjoint of the u side, is the upper half
    of the shift pattern with entries a_j / 2.
    """
    n = P.n
    if np.max(np.abs(P.M_t - np.eye(n))) > TOL_PATTERN:
        raise PatternViolation("pencil is not normalized")
    Mv = P.M_u.conj().T
    return ShiftMatrix([2.0 * Mv[j, (j + 1) % n] for j in range(n)])


# ---------------------------------------------------------------------------
# direct route


def _represent_direct(form: InvariantForm, tol_final: float,
                      rng: np.random.Generator) -> tuple[ShiftMatrix, float]:
    """The direct construction, one attempt, with its certified coefficient
    error; an error above tol_final * max(1, scale) raises."""
    G = assemble_form_matrix(form, compute_intersections(form))
    W = extract_shift(normalize_pencil(pencil_from_adjugate(G, form, rng)))
    err = coefficient_error(form, W)
    if err > tol_final * max(1.0, form.coefficient_scale()):
        raise AdjugateMismatch(f"verification error {err:.2e} after extraction")
    return W, err


# ---------------------------------------------------------------------------
# spectral route
#
# At an angle theta* with c0 cos(n theta*) + ct0 sin(n theta*) = 0 the
# identity of shift.py reads det(tI + H(theta*)) = p(t), so the spectrum of
# H(theta*) must be the root set of p, which is symmetric about zero.  The
# forward map sees only the moduli |a_j| and the weight product, so the
# unknowns are the moduli, with the product phase put on a_n.


def _squared_spectrum(form: InvariantForm) -> tuple[list, int]:
    """The positive roots mu of P, where p(t) = t^(n mod 2) P(t^2), with
    their multiplicities, ascending, and the multiplicity of the root t = 0
    of p.

    P of a hyperbolic form is real rooted, so a conjugate pair is a
    multiple root that roundoff split; it counts as one real root, at its
    real part, with the multiplicity of both halves.  The solve runs in
    real arithmetic, so the two halves are exact conjugates.
    """
    mult = {}
    for z, m in cluster_roots(np.roots([1.0, *form.c]), CLUSTER_RADIUS):
        if abs(z.imag) > TOL_ROOT * (1.0 + abs(z)):
            if z.imag < 0.0:
                continue
            m *= 2
        mu = max(z.real, 0.0)
        mult[mu] = mult.get(mu, 0) + m
    zeros = form.n % 2 + 2 * mult.pop(0.0, 0)
    positive = sorted(mult.items())
    if zeros + 2 * sum(m for _, m in positive) != form.n:
        raise ConvergenceFailed("the even part has unpaired non-real roots")
    return positive, zeros


def _persymmetric_jacobi(spectrum: np.ndarray) -> np.ndarray:
    """Off-diagonal of the zero-diagonal persymmetric Jacobi matrix with a
    simple spectrum symmetric about zero, given ascending.

    Lanczos on diag(spectrum) from the norming weights w_i proportional to
    1 / prod_(j != i) |lambda_i - lambda_j| (de Boor & Golub, 1978).  The
    weights are mirror symmetric, so every diagonal entry vanishes and is
    never formed; full reorthogonalization keeps the basis orthonormal.
    """
    k = len(spectrum)
    gaps = np.abs(spectrum[:, None] - spectrum[None, :]) + np.eye(k)
    logw = -np.log(gaps).sum(axis=1)
    q = np.exp(0.5 * (logw - logw.max()))
    Q = np.zeros((k, k))
    Q[:, 0] = q / np.linalg.norm(q)
    off = np.zeros(k - 1)
    for j in range(k - 1):
        v = spectrum * Q[:, j]
        for _ in range(2):
            v -= Q[:, :j + 1] @ (Q[:, :j + 1].T @ v)
        off[j] = np.linalg.norm(v)
        Q[:, j + 1] = v / off[j]
    return off


def _path_weights(form: InvariantForm) -> ShiftMatrix:
    """s = 0: real weights, with exact zeros that cut H into path blocks.

    A root sigma^2 of P of multiplicity m puts +/- sigma into m blocks, so
    each block has a simple spectrum, symmetric about zero, and is rebuilt
    by Lanczos; a zero weight closes every block, so the weight product,
    and with it c0 and ct0, vanish exactly.
    """
    positive, zeros = _squared_spectrum(form)
    sigmas = [(math.sqrt(mu), m) for mu, m in positive]
    weights = []
    for layer in range(max([zeros] + [m for _, m in sigmas])):
        half = [sigma for sigma, m in sigmas if m > layer]
        middle = [0.0] if zeros > layer else []
        spectrum = np.array([-x for x in reversed(half)] + middle + half)
        weights.extend(2.0 * _persymmetric_jacobi(spectrum))
        weights.append(0.0)
    return ShiftMatrix(weights)


def _modulus_system(form: InvariantForm):
    """s > 0: the residual map r -> (F, J) of the moduli in units of the
    equal moduli kappa, with kappa and the unit product phase.

    The n + 1 residuals are the eigenvalue errors spec H(theta*) - roots of
    p and the product error (prod r - |T|) / max(1, |T|); Hellmann-Feynman
    gives the eigenvalue rows of the Jacobian from one eigh.
    """
    n = form.n
    top = complex(form.c0, form.ct0) / ((-1.0) ** (n - 1) * 2.0 ** (1 - n))
    unit = top / abs(top)  # exactly +1 or -1 when ct0 = 0: the weights come out real
    theta = (math.atan2(form.ct0, form.c0) + 0.5 * math.pi) / n
    positive, zeros = _squared_spectrum(form)
    half = [math.sqrt(mu) for mu, m in positive for _ in range(m)]
    target = np.array([-x for x in reversed(half)] + [0.0] * zeros + half)
    # sum r_j^2 = 2 sum lambda_k^2 = -4 c_1, so the equal moduli are
    # kappa = sqrt(-4 c_1 / n).  The solve runs in units of kappa, where the
    # residual rows are of one size at every coefficient scale, and where
    # |T| becomes size = |T| / kappa^n <= 1 (the geometric mean of the
    # moduli is at most their quadratic mean), so max(1, |T|) is 1.
    kappa = math.sqrt(2.0 * float(target @ target) / n)
    target /= kappa
    size = math.exp(math.log(abs(top)) - n * math.log(kappa))
    nxt = np.roll(np.arange(n), -1)
    rot = np.full(n, cmath.exp(-1j * theta))
    rot[-1] *= unit

    def system(r):
        H = np.zeros((n, n), dtype=complex)
        H[np.arange(n), nxt] = 0.5 * r * rot
        lam, V = np.linalg.eigh(H + H.conj().T)
        F, J = np.empty(n + 1), np.empty((n + 1, n))
        np.subtract(lam, target, out=F[:n])
        F[n] = np.prod(r) - size
        J[:n] = (rot[:, None] * V.conj() * V[nxt]).real.T
        np.multiply(np.concatenate(([1.0], np.cumprod(r[:-1]))),
                    np.concatenate((np.cumprod(r[:0:-1])[::-1], [1.0])), out=J[n])
        return F, J

    return system, kappa, unit


def _modulus_weights(form: InvariantForm, rng: np.random.Generator):
    """s > 0: moduli r with spec H(theta*) = roots of p and prod r = |T|,
    one candidate shift per start that runs.

    The system is underdetermined (representations are not unique), so the
    steps are least-norm Levenberg-Marquardt steps (Friedland, Nocedal &
    Overton, 1987), from equal moduli and then from seeded random restarts.
    At equal moduli H(theta*) is a circulant with a simple spectrum and
    Fourier eigenvectors, so every Jacobian row is constant and every step
    stays on the line r = rho * 1; on that line only rho = 1 matches the
    sum of the squared eigenvalues.  So the equal-moduli start runs only
    when its residual is below LM_LINE, that is, when the line meets the
    target; otherwise it draws nothing and yields nothing.
    """
    n = form.n
    system, kappa, unit = _modulus_system(form)
    for attempt in range(MAX_RETRIES):
        r = np.ones(n) if attempt == 0 else rng.uniform(0.5, 1.5, n)
        F, J = system(r)
        if attempt == 0 and np.linalg.norm(F) > LM_LINE:
            continue
        damp, svd = 1e-4, None
        for _ in range(LM_STEPS):
            if svd is None:
                svd = np.linalg.svd(J, full_matrices=False)
            U, sv, Vt = svd
            keep = sv > 1e-12 * sv[0]
            gain = sv[keep] / (sv[keep] ** 2 + damp * sv[0] ** 2)
            step = -Vt[keep].T @ (gain * (U[:, keep].T @ F))
            F_new, J_new = system(r + step)
            res, res_new = np.linalg.norm(F), np.linalg.norm(F_new)
            if res_new < res:
                r, F, J, svd = r + step, F_new, J_new, None
                damp = max(0.1 * damp, 1e-12)
                if res_new > LM_CONVERGED and res_new > (1.0 - LM_STALL) * res:
                    break       # a local minimum: restart
            elif res <= LM_CONVERGED or damp > 1e8:
                break
            else:
                damp *= 10.0
        r = kappa * r
        yield ShiftMatrix(list(r[:-1]) + [r[-1] * unit])


def _represent_spectral(form: InvariantForm, tol_final: float,
                        rng: np.random.Generator) -> tuple[ShiftMatrix, float]:
    """The spectral route: the first candidate whose coefficient error is
    within tol_final * max(1, scale), the gate of the direct route, with
    that error."""
    scale = max(1.0, form.coefficient_scale())
    if _s_vanishes(form):
        candidates = [_path_weights(form)]
    else:
        candidates = _modulus_weights(form, rng)
    err = None
    for W in candidates:
        err = coefficient_error(form, W)
        if err <= tol_final * scale:
            return W, err
    if err is None:
        raise ConvergenceFailed("spectral route: every start was skipped")
    raise ConvergenceFailed(f"spectral route error {err:.2e}")


# ---------------------------------------------------------------------------
# end-to-end pipeline


def represent(form: InvariantForm, config: Config = DEFAULT_CONFIG) -> ShiftMatrix:
    """Cyclic weighted shift matrix whose pencil determinant equals the form.

    Two routes build it.  The direct route is the paper's construction
    (intersection points, vanishing forms, curve division, pencil fit) in
    one attempt; it needs s > 0.  The spectral route solves an inverse
    eigenvalue problem for the Hermitian slice H(theta*) at which the
    identity of shift.py reads det(tI + H(theta*)) = p(t).  Each route
    returns certified weights or raises.

    Smooth forms try the spectral route first.  Singular forms with s > 0
    try the direct route first: an even-multiplicity self-conjugate orbit
    splits its multiplicity between the conjugate halves, so the direct
    route still applies to many of them.  Forms with s = 0 take the
    spectral route alone.  The routes run in turn, sharing one seeded
    random generator, until one certifies near roundoff (error at most
    NEAR_ROUNDOFF * max(1, scale)); failing that, the first certified
    result is returned, and failing that, the last route's error is raised.
    """
    cls = classify(form)    # raises NotHyperbolic
    rng = np.random.default_rng(config.seed)
    scale = max(1.0, form.coefficient_scale())
    if _s_vanishes(form):
        routes = [_represent_spectral]
    elif cls.kind is Kind.SMOOTH:
        routes = [_represent_spectral, _represent_direct]
    else:
        routes = [_represent_direct, _represent_spectral]
    certified = None
    for route in routes:
        try:
            W, err = route(form, config.tol_final, rng)
        except HyprepError as exc:
            last_error = exc
            continue
        if err <= NEAR_ROUNDOFF * scale:
            return W
        if certified is None:
            certified = W
    if certified is None:
        raise last_error
    return certified
