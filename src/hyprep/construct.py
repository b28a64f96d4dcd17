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
linear.  The sample points lie on one circle of the chart t = 1, fixed by
c_1, on which f is bounded away from zero at every coefficient scale; all
n^2 entries and f are evaluated there in one batched pass
(poly._evaluate_many, one matrix product), and the adjugate quotient at
every fit and holdout point comes from one stacked det and one stacked
inv.  The entries below row one are fitted on the real curve: one
least-squares fit per eigenspace class, with one column per entry, on the
points of one root solve.

That is the direct route, the paper's construction; it needs s > 0 and
makes one attempt.  The spectral route is the second one: the weights of a
Hermitian slice H(theta*) whose spectrum is the root set of p, from a
least-norm Levenberg-Marquardt solve for the moduli (s > 0) or from
Lanczos on the spectrum (s = 0).  Every route runs on the form's unit
rescaling and returns its weights times 2^k, exactly; represent's routing
and the acceptance gate read the form itself.
"""

import cmath
import dataclasses
import functools
import math

import numpy as np

from .config import (CLUSTER_RADIUS, DEFAULT_CONFIG, LM_CONVERGED, LM_LINE,
                     LM_STALL, LM_STEPS, MAX_RETRIES, TOL_NOETHER, TOL_PATTERN,
                     TOL_PENCIL, TOL_ROOT, TOL_VAN, Config)
from .errors import (AdjugateMismatch, ConvergenceFailed, HyprepError,
                     IndefiniteDiagonal, NoetherResidual, NotHyperbolic,
                     NoVanishingForm, PatternViolation)
from .forward import coefficient_error
from .hyperbolicity import Kind, _root_profiles, _s_vanishes, classify, cluster_roots
from .intersection import IntersectionSet, compute_intersections
from .invariants import InvariantForm, eigenspace_basis
from .poly import TrivariatePoly, _evaluate_many, conj_involution
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


def _poly_from_vec(vec, monomials, degree) -> TrivariatePoly:
    terms = {e: c for e, c in zip(monomials, vec) if abs(c) > 0}
    return TrivariatePoly._unchecked(degree, terms)


def noether_division(f: TrivariatePoly, g11: TrivariatePoly, h: TrivariatePoly,
                     ell: int, n: int) -> tuple[TrivariatePoly, TrivariatePoly]:
    """Write h = a*f + b*g11 with both cofactors confined to class ell.

    Group-averaging the classical cofactors lands them in the same
    eigenspace as h, so the unknowns can be restricted structurally to the
    class-ell monomials: column e of the system holds the coefficients of
    the product e*f (or e*g11), and one least-squares solve gives a and b.
    """
    if h.degree != 2 * (n - 1) or f.degree != n or g11.degree != n - 1:
        raise ValueError("division needs deg f = n, deg g11 = n - 1, deg h = 2(n - 1)")
    mon_a = eigenspace_basis(n, n - 2, ell)
    mon_b = eigenspace_basis(n, n - 1, ell)
    rows = {e: r for r, e in enumerate(eigenspace_basis(n, 2 * (n - 1), ell))}

    def coefficients(p):
        out = np.zeros(len(rows), dtype=complex)
        for e, c in p.terms.items():
            if e not in rows:
                raise ValueError(f"monomial {e} outside class {ell}")
            out[rows[e]] = c
        return out
    products = [TrivariatePoly.monomial(e) * f for e in mon_a]
    products += [TrivariatePoly.monomial(e) * g11 for e in mon_b]
    A = np.stack([coefficients(p) for p in products], axis=1)
    rhs = coefficients(h)
    # column equilibration: the system is consistent in exact arithmetic, so
    # rescaling only improves the conditioning of the solve
    norms = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
    sol = np.linalg.lstsq(A / norms, rhs, rcond=None)[0] / norms
    relative = np.linalg.norm(A @ sol - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if relative > TOL_NOETHER:
        raise NoetherResidual(f"division residual {relative:.2e}")
    return (_poly_from_vec(sol[:len(mon_a)], mon_a, n - 2),
            _poly_from_vec(sol[len(mon_a):], mon_b, n - 1))


def _curve_points(form: InvariantForm) -> list:
    """Real points (t, e^(i theta), e^(-i theta)) of the curve f = 0.

    There f = p(t) + s cos(n theta - phi), phi = atan2(ct0, c0), and a
    hyperbolic form has n real roots t at every theta; these are the roots at
    the three angles n theta - phi = pi/2 + {-pi/3, 0, pi/3}, from one
    root solve.
    """
    n = form.n
    phi = math.atan2(form.ct0, form.c0)
    turns = (-math.pi / 3, 0.0, math.pi / 3)
    rows = np.array([form.univariate()] * 3)
    rows[:, -1] -= [form.s * math.sin(turn) for turn in turns]
    pts = []
    for turn, profile in zip(turns, _root_profiles(rows, 0.0)):
        u = cmath.exp(1j * (phi + 0.5 * math.pi + turn) / n)
        pts += [(t, u, u.conjugate()) for t, _ in profile.roots]
    return pts


def assemble_form_matrix(form: InvariantForm, iset: IntersectionSet) -> tuple:
    """Build the full Hermitian grid of degree n-1 forms, as n rows of n;
    entry (i, j) lies in eigenspace class (i - j) mod n.

    Row one holds df/dt and the vanishing forms, and column one their
    conjugates.  On the curve f = 0 the matrix has rank one, so there
    g_11 g_ij = g_i1 g_1j, and a class form of degree n-1 is fixed by its
    values on the curve: each remaining entry of the upper triangle is the
    class form with the values g_i1 g_1j / g_11 at real curve points
    (_curve_points), the b of the curve division g_i1 g_1j = a f + b g_11.
    At a real point column one is the conjugate of row one, so row one is
    evaluated once.  Each class is one least-squares fit, with one column
    per entry, on rows scaled to unit norm and equilibrated columns; the
    residuals are checked in row-major order.  Diagonal entries are
    symmetrized to conjugation-fixed form, the rest of the grid is the
    conjugate of the upper triangle.
    """
    n = form.n
    g = [[None] * n for _ in range(n)]
    g[0][0] = form._derivative
    for j in range(1, n):
        g[0][j] = vanishing_form(iset, (0 - j) % n)
        g[j][0] = conj_involution(g[0][j])
    pts = _curve_points(form)
    values = _evaluate_many(g[0], pts)
    z = np.array(pts).T
    powers = np.cumprod([np.ones_like(z)] + [z] * (n - 1), axis=0)     # powers[k] = z^k
    classes = {}
    for i in range(1, n):
        for j in range(i, n):
            classes.setdefault((i - j) % n, []).append((i, j))
    fit = {}
    for ell, pairs in classes.items():
        basis = eigenspace_basis(n, n - 1, ell)
        e = np.array(basis)
        A = (powers[e[:, 0], 0] * powers[e[:, 1], 1] * powers[e[:, 2], 2]).T
        i, j = np.array(pairs).T
        rhs = (values[i].conj() * values[j] / values[0]).T
        norms = np.linalg.norm(A, axis=1, keepdims=True)
        A, rhs = A / norms, rhs / norms
        cols = np.linalg.norm(A, axis=0)
        sol = np.linalg.lstsq(A / cols, rhs, rcond=None)[0] / cols[:, None]
        relative = np.linalg.norm(A @ sol - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
        for k, ij in enumerate(pairs):
            fit[ij] = _poly_from_vec(sol[:, k], basis, n - 1), relative[k]
    for i in range(1, n):
        for j in range(i, n):
            b, relative = fit[i, j]
            if not relative <= TOL_NOETHER:     # a nan residual fails too
                raise NoetherResidual(f"curve fit residual {relative:.2e} at G[{i}][{j}]")
            if i == j:
                b = 0.5 * (b + conj_involution(b))
            g[i][j] = b
            if i != j:
                g[j][i] = conj_involution(b)
    return tuple(tuple(row) for row in g)


def _sample_points(form: InvariantForm, count: int, polys=()) -> tuple[list, np.ndarray]:
    """Real sample points (1, r e^(i theta_k), r e^(-i theta_k)), with
    theta_k = 2 pi (k + 1/2) / count and r = 1 / (2 sqrt(-2 c_1)), and the
    values there of polys and then of f, one row per polynomial.

    There f = r^n (p(1/r) + s cos(n theta - phi)) = prod (1 - r x_k), where
    the x_k are the n real roots of p + s cos(n theta - phi), with
    sum x_k^2 = -2 c_1.  So every factor lies in [1/2, 3/2], and f in
    [2^-n, (3/2)^n], at every coefficient scale.  A form with c_1 >= 0 is
    not hyperbolic with s > 0.
    """
    if not form.c[0] < 0.0:
        raise NotHyperbolic("no sample circle: c_1 >= 0, so the form is not "
                            "hyperbolic with s > 0")
    r = 0.5 / math.sqrt(-2.0 * form.c[0])
    u = r * np.exp(2j * math.pi * (np.arange(count) + 0.5) / count)
    pts = [(1.0, z, z.conjugate()) for z in u.tolist()]
    return pts, _evaluate_many([*polys, form.expand()], pts)


def pencil_from_adjugate(G: tuple, form: InvariantForm) -> HermitianPencil:
    """Fit the linear pencil adj(G)/f^(n-2) from point evaluations.

    Because the true quotient is linear in (t, u, v), a least-squares fit of
    three coefficient matrices on enough sample points recovers it exactly
    up to roundoff; holdout points and the shift sparsity pattern are then
    checked before anything is returned.  The adjugate at a point is
    det(G) inv(G); an ill-conditioned point fails those checks.
    """
    n = len(G)
    n_fit, n_hold = max(8, n + 4), 3
    pts, vals = _sample_points(form, n_fit + n_hold, [g for row in G for g in row])
    Gvals = vals[:-1].T.reshape(len(pts), n, n)
    # the adjugate quotient at every point at once.  A singular form matrix
    # or a quotient that is not finite is a failed fit, not a crash
    try:
        with np.errstate(all="ignore"):
            adj = np.linalg.det(Gvals)[:, None, None] * np.linalg.inv(Gvals)
            Q = adj / vals[-1][:, None, None] ** (n - 2)
    except np.linalg.LinAlgError:
        raise AdjugateMismatch("form matrix is singular at a sample point") from None
    if not np.isfinite(Q).all():
        raise AdjugateMismatch("adjugate quotient is not finite")

    Amat = np.asarray(pts[:n_fit])                                # (npts, 3)
    sol, *_ = np.linalg.lstsq(Amat, Q[:n_fit].reshape(n_fit, -1), rcond=None)
    Mt = sol[0].reshape(n, n)
    Mu = sol[1].reshape(n, n)
    Mv = sol[2].reshape(n, n)

    mscale = max(np.max(np.abs(sol)), 1e-300)
    for k in range(n_fit, n_fit + n_hold):
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


def _represent_direct(form: InvariantForm, tol_final: float) -> tuple[ShiftMatrix, float]:
    """The direct construction, one attempt, with its certified coefficient
    error; an error above tol_final * max(1, scale) raises.  It runs on the
    unit form, and its weights, scaled back, are checked against this form."""
    unit, k = form._unit
    G = assemble_form_matrix(unit, compute_intersections(unit))
    W = extract_shift(normalize_pencil(pencil_from_adjugate(G, unit)))
    W = ShiftMatrix([w * 2.0 ** k for w in W.weights])
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
    and with it c0 and ct0, vanish exactly.  It runs on the unit form.
    """
    unit, k = form._unit
    positive, zeros = _squared_spectrum(unit)
    sigmas = [(math.sqrt(mu), m) for mu, m in positive]
    weights = []
    for layer in range(max([zeros] + [m for _, m in sigmas])):
        half = [sigma for sigma, m in sigmas if m > layer]
        middle = [0.0] if zeros > layer else []
        spectrum = np.array([-x for x in reversed(half)] + middle + half)
        weights.extend(2.0 ** (k + 1) * _persymmetric_jacobi(spectrum))
        weights.append(0.0)
    return ShiftMatrix(weights)


def _modulus_system(form: InvariantForm):
    """s > 0: the residual map r -> (F, J) of the moduli in units of the
    equal moduli kappa, with kappa and the product phase.

    The n + 1 residuals are the eigenvalue errors spec H(theta*) - roots of
    p and the product error (prod r - |T|) / max(1, |T|); Hellmann-Feynman
    gives the eigenvalue rows of the Jacobian from one eigh.
    """
    n = form.n
    top = complex(form.c0, form.ct0) / ((-1.0) ** (n - 1) * 2.0 ** (1 - n))
    phase = top / abs(top)  # exactly +1 or -1 when ct0 = 0: the weights come out real
    theta = (math.atan2(form.ct0, form.c0) + 0.5 * math.pi) / n
    positive, zeros = _squared_spectrum(form)
    half = [math.sqrt(mu) for mu, m in positive for _ in range(m)]
    target = np.array([-x for x in reversed(half)] + [0.0] * zeros + half)
    # sum r_j^2 = 2 sum lambda_k^2 = -4 c_1, so the equal moduli are
    # kappa = sqrt(-4 c_1 / n).  In units of kappa |T| becomes
    # size = |T| / kappa^n <= 1 (the geometric mean of the moduli is at most
    # their quadratic mean), so max(1, |T|) is 1.
    kappa = math.sqrt(2.0 * float(target @ target) / n)
    target /= kappa
    size = math.exp(math.log(abs(top)) - n * math.log(kappa))
    nxt = np.roll(np.arange(n), -1)
    rot = np.full(n, cmath.exp(-1j * theta))
    rot[-1] *= phase

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

    return system, kappa, phase


def _modulus_weights(form: InvariantForm, rng):
    """s > 0: moduli r with spec H(theta*) = roots of p and prod r = |T|,
    one candidate shift per start that runs, on the unit form.

    The system is underdetermined (representations are not unique), so the
    steps are least-norm Levenberg-Marquardt steps (Friedland, Nocedal &
    Overton, 1987), from equal moduli and then from seeded random restarts.
    At equal moduli H(theta*) is a circulant with a simple spectrum and
    Fourier eigenvectors, so every Jacobian row is constant and every step
    stays on the line r = rho * 1; on that line only rho = 1 matches the
    sum of the squared eigenvalues.  So the equal-moduli start runs only
    when its residual is below LM_LINE, that is, when the line meets the
    target; otherwise it draws nothing and yields nothing.  rng is a seed or
    a numpy Generator; the generator is made at the first restart, so a
    call that certifies from equal moduli builds none.
    """
    n = form.n
    unit, k = form._unit
    system, kappa, phase = _modulus_system(unit)
    for attempt in range(MAX_RETRIES):
        if attempt == 0:
            r = np.ones(n)
        else:
            rng = np.random.default_rng(rng)    # a Generator passes unaltered
            r = rng.uniform(0.5, 1.5, n)
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
                # a start ends at a rejected step, not on reaching
                # LM_CONVERGED: the accepted steps below it carry the last
                # digits (ending there took perfbench's direct inputs, seed 1,
                # ops 0-1799, from 15.26 to 13.38 mean digits and their worst
                # error from 4.8e-15 to 9.5e-11)
                break
            else:
                damp *= 10.0
        r = kappa * r * 2.0 ** k
        yield ShiftMatrix(list(r[:-1]) + [r[-1] * phase])


def _represent_spectral(form: InvariantForm, tol_final: float, rng) -> tuple[ShiftMatrix, float]:
    """The spectral route: the first candidate whose coefficient error is
    within tol_final * max(1, scale), the gate of the direct route, with
    that error.  rng is the seed, or the Generator, of the restarts."""
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
    """Cyclic weighted shift matrix whose pencil determinant equals the form,
    from the routes of this module; each returns certified weights or raises.

    Smooth forms try the spectral route first.  Singular forms with s > 0
    try the direct route first: an even-multiplicity self-conjugate orbit
    splits its multiplicity between the conjugate halves, so the direct
    route still applies to many of them.  Forms with s = 0 take the
    spectral route alone.  The routes run in turn; the first result that
    certifies is returned, and failing that, the last route's error is
    raised.  Only the spectral restarts draw from the seeded generator.
    """
    cls = classify(form)    # raises NotHyperbolic
    spectral = functools.partial(_represent_spectral, form, config.tol_final, config.seed)
    direct = functools.partial(_represent_direct, form, config.tol_final)
    if _s_vanishes(form):
        routes = [spectral]
    elif cls.kind is Kind.SMOOTH:
        routes = [spectral, direct]
    else:
        routes = [direct, spectral]
    for route in routes:
        try:
            return route()[0]
        except HyprepError as exc:
            last_error = exc
    raise last_error
