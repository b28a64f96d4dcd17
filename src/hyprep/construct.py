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
linear.  All n^2 entries and f are evaluated at all fit and holdout points
in one batched pass (poly._evaluate_many), bit for bit as the scalar
TrivariatePoly.evaluate would give them.  The curve divisions of one form
matrix share one least-squares matrix per eigenspace class, written
straight from the coefficients of f and df/dt by index arithmetic.
"""

import cmath
import dataclasses
import functools
import math

import numpy as np

from .config import (CONV_TOL, DEFAULT_CONFIG, DROP_TOL, EPS0, EPS_MAX_STEPS,
                     EPS_RATIO, MAX_RETRIES, TOL_NOETHER, TOL_PATTERN,
                     TOL_PENCIL, TOL_VAN, Config)
from .errors import (AdjugateMismatch, ConvergenceFailed, HyprepError,
                     IndefiniteDiagonal, NoetherResidual, NoVanishingForm,
                     PatternViolation, PerturbationFailed)
from .forward import _matching_sums, coefficient_error
from .hyperbolicity import classify, smooth_neighbor
from .intersection import IntersectionSet, compute_intersections
from .invariants import InvariantForm, eigenspace_basis
from .poly import TrivariatePoly, _evaluate_many, conj_involution
from .shift import ShiftMatrix


@dataclasses.dataclass(frozen=True)
class FormMatrix:
    """Hermitian-symmetric grid of degree n-1 forms with eigenspace tags."""

    n: int
    entries: tuple        # tuple of tuples of TrivariatePoly
    classes: tuple        # (i - j) mod n per entry

    def entry(self, i: int, j: int) -> TrivariatePoly:
        return self.entries[i][j]


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


def _eigclass_vectors(iset: IntersectionSet, ell: int):
    """Evaluation matrix of the class-ell monomials on the working points,
    its numerical nullspace, and the monomial basis."""
    n = iset.n
    basis = eigenspace_basis(n, n - 1, ell)
    rows = []
    for rep, at_inf in zip(iset.reps, iset.at_infinity):
        if at_inf and ell % 2 == 0:
            # every monomial in an even class of odd total degree carries a
            # factor of t, so points at infinity impose no condition
            continue
        t, u, v = rep.coords()
        rows.append([t ** e[0] * u ** e[1] * v ** e[2] for e in basis.monomials])
    E = np.asarray(rows, dtype=complex) if rows else np.zeros((0, len(basis)), dtype=complex)
    if E.shape[0] == 0:
        null = np.eye(len(basis), dtype=complex)
        return basis, null
    # row scaling leaves the nullspace unchanged and tames points with
    # large coordinates
    norms = np.maximum(np.linalg.norm(E, axis=1), 1e-300)
    E = E / norms[:, None]
    _, sing, Vh = np.linalg.svd(E)
    smax = sing[0] if len(sing) else 1.0
    tolerance = max(TOL_VAN, TOL_VAN * smax)
    null_idx = [i for i in range(Vh.shape[0])
                if i >= len(sing) or sing[i] <= tolerance]
    if not null_idx:
        raise NoVanishingForm(
            f"class {ell}: smallest singular value {sing[-1]:.2e} above tolerance")
    return basis, Vh[null_idx].conj().T


def vanishing_form(iset: IntersectionSet, ell: int,
                   combo: np.ndarray | None = None) -> TrivariatePoly:
    """A nonzero class-ell form of degree n-1 vanishing on the kept points.

    Vanishing on the orbit representatives forces vanishing on their whole
    orbits, and the eigenspace dimension exceeds the condition count by at
    least one, so the nullspace is nonempty.  The default choice is the
    smallest-singular-value vector; retries pass a unit combination of the
    whole numerical nullspace.  The output is normalized to leading
    coefficient one in the global monomial order.
    """
    basis, null = _eigclass_vectors(iset, ell)
    if combo is None:
        vec = null[:, -1]          # right vector of the smallest singular value
    else:
        combo = np.asarray(combo, dtype=complex)[: null.shape[1]]
        combo = combo / np.linalg.norm(combo)
        vec = null @ combo
    terms = {e: vec[i] for i, e in enumerate(basis.monomials) if abs(vec[i]) > 0}
    p = TrivariatePoly(iset.n - 1, terms)
    if p.is_zero():
        raise NoVanishingForm(f"class {ell}: nullspace combination vanished")
    return p.monic()


def nullspace_dim(iset: IntersectionSet, ell: int) -> int:
    _, null = _eigclass_vectors(iset, ell)
    return null.shape[1]


@functools.lru_cache(maxsize=256)
def _division_layout(n: int, ell: int):
    """Class-ell monomials of the two cofactors (degrees n-2 and n-1), the
    number of class-ell target monomials (degree 2(n-1)), and the row table:
    rows[i, j] is the target row of t^i u^j v^(2n-2-i-j), or -1 outside the
    class."""
    mon_a = eigenspace_basis(n, n - 2, ell).monomials
    mon_b = eigenspace_basis(n, n - 1, ell).monomials
    mon_rows = eigenspace_basis(n, 2 * (n - 1), ell).monomials
    rows = np.full((2 * n - 1, 2 * n - 1), -1, dtype=np.intp)
    for r, e in enumerate(mon_rows):
        rows[e[0], e[1]] = r
    rows.flags.writeable = False
    return mon_a, mon_b, len(mon_rows), rows


class _DivisionMemo:
    """The division matrices of one (f, g11) pair, built once per class.

    Column e of the class-ell matrix holds the coefficients of the monomial
    multiple e*f (or e*g11).  Every monomial multiple of g has the
    coefficients of the product 1*g, shifted, and keeps the same terms under
    the DROP_TOL cut of the product, so those two products are all the
    polynomial arithmetic the matrices need; the rest is index arithmetic.
    """

    def __init__(self, f: TrivariatePoly, g11: TrivariatePoly, n: int):
        if f.degree != n or g11.degree != n - 1:
            raise ValueError("division needs deg f = n and deg g11 = n - 1")
        self.f, self.g11, self.n = f, g11, n
        one = TrivariatePoly.monomial((0, 0, 0))
        self.parts = [(one * g).terms for g in (f, g11)]
        self.systems = {}

    def system(self, ell: int):
        """The class-ell matrix A, its column norms, and A scaled by them."""
        if ell not in self.systems:
            mon_a, mon_b, nrows, rows = _division_layout(self.n, ell)
            A = np.zeros((nrows, len(mon_a) + len(mon_b)), dtype=complex)
            start = 0
            for mons, terms in zip((mon_a, mon_b), self.parts):
                mon = np.array(mons, dtype=np.intp).reshape(-1, 3)
                exp = np.array(list(terms), dtype=np.intp).reshape(-1, 3)
                where = rows[mon[:, None, 0] + exp[None, :, 0],
                             mon[:, None, 1] + exp[None, :, 1]]
                if np.any(where < 0):
                    raise ValueError(f"cofactor products leave class {ell}")
                A[where, start + np.arange(len(mons))[:, None]] = list(terms.values())
                start += len(mons)
            # column equilibration: the system is consistent in exact
            # arithmetic, so rescaling only improves the conditioning of the solve
            col = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
            self.systems[ell] = (A, col, A / col)
        return self.systems[ell]


def _poly_from_vec(vec, monomials, degree) -> TrivariatePoly:
    terms = {e: c for e, c in zip(monomials, vec) if abs(c) > 0}
    return TrivariatePoly(degree, terms)


def noether_division(f: TrivariatePoly, g11: TrivariatePoly, h: TrivariatePoly,
                     ell: int, n: int, *, memo: _DivisionMemo | None = None,
                     ) -> tuple[TrivariatePoly, TrivariatePoly]:
    """Write h = a*f + b*g11 with both cofactors confined to class ell.

    Group-averaging the classical cofactors lands them in the same
    eigenspace as h, so the unknowns can be restricted structurally to the
    class-ell monomials and solved as one least-squares system.  A caller
    dividing many targets by the same f and g11 passes one
    _DivisionMemo(f, g11, n) as `memo`, so each class's matrix is built once.
    """
    if h.degree != 2 * (n - 1):
        raise ValueError("division target must have degree 2(n-1)")
    if memo is None:
        memo = _DivisionMemo(f, g11, n)
    elif memo.f is not f or memo.g11 is not g11 or memo.n != n:
        raise ValueError("division memo belongs to another (f, g11, n)")
    A, col, scaled = memo.system(ell)
    mon_a, mon_b, nrows, rows = _division_layout(n, ell)
    targets = list(h.terms)
    exp = np.array(targets, dtype=np.intp).reshape(-1, 3)
    where = rows[exp[:, 0], exp[:, 1]]
    if np.any(where < 0):
        e = targets[int(np.argmax(where < 0))]
        raise ValueError(f"target monomial {e} outside class {ell}")
    rhs = np.zeros(nrows, dtype=complex)
    rhs[where] = list(h.terms.values())
    sol, *_ = np.linalg.lstsq(scaled, rhs, rcond=None)
    sol = sol / col
    resid = np.linalg.norm(A @ sol - rhs)
    hnorm = max(np.linalg.norm(rhs), 1e-300)
    if resid > TOL_NOETHER * hnorm:
        raise NoetherResidual(f"division residual {resid / hnorm:.2e}")
    a_hat = _poly_from_vec(sol[: len(mon_a)], mon_a, n - 2)
    b_hat = _poly_from_vec(sol[len(mon_a):], mon_b, n - 1)
    return a_hat, b_hat


def assemble_form_matrix(form: InvariantForm, iset: IntersectionSet,
                         combos: dict | None = None) -> FormMatrix:
    """Build the full Hermitian grid of degree n-1 forms.

    Row one holds df/dt and the vanishing forms; the remaining upper
    triangle is filled by curve division, diagonals symmetrized to
    conjugation-fixed form (the averaging preserves the residual because
    the division target is itself conjugation fixed).
    """
    n = form.n
    f = form.expand()
    g = [[None] * n for _ in range(n)]
    g[0][0] = f.dt()
    for j in range(1, n):
        ell = (0 - j) % n
        combo = (combos or {}).get(j)
        g[0][j] = vanishing_form(iset, ell, combo)
        g[j][0] = conj_involution(g[0][j])
    memo = _DivisionMemo(f, g[0][0], n)
    for i in range(1, n):
        for j in range(i, n):
            ell = (i - j) % n
            h = g[i][0] * g[0][j]
            _, b = noether_division(f, g[0][0], h, ell, n, memo=memo)
            if i == j:
                b = 0.5 * (b + conj_involution(b))
            g[i][j] = b
            if i != j:
                g[j][i] = conj_involution(b)
    classes = tuple(tuple((i - j) % n for j in range(n)) for i in range(n))
    return FormMatrix(n, tuple(tuple(row) for row in g), classes)


def _adjugate(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    det = np.linalg.det(M)
    if abs(det) > 0:
        cond = np.linalg.cond(M)
        if np.isfinite(cond) and cond < 1e8:
            return det * np.linalg.inv(M)
    # cofactor fallback for ill-conditioned points
    out = np.zeros_like(M)
    idx = list(range(n))
    for i in range(n):
        for j in range(n):
            minor = M[np.ix_([r for r in idx if r != i],
                             [c for c in idx if c != j])]
            out[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def _sample_points(form: InvariantForm, count: int,
                   rng: np.random.Generator) -> list[tuple[float, float, float]]:
    """Deterministic real sample points where |f| is comfortably large."""
    f = form.expand()
    scale = form.coefficient_scale()
    radius = 1.0 + max(abs(x) for x in ([1.0] + list(form.c) + [form.c0, form.ct0]))
    pts = [(1.0, 0.0, 0.0)]
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 200 * count:
            raise AdjugateMismatch("could not find well-separated sample points")
        t = float(rng.uniform(-2.0, 2.0)) * radius
        x, y = (float(z) for z in rng.uniform(-1.0, 1.0, size=2) * radius)
        val = f.evaluate(t, complex(x, y), complex(x, -y))
        if abs(val) >= 0.1 * scale:
            pts.append((t, x, y))
    return pts


def pencil_from_adjugate(G: FormMatrix, form: InvariantForm,
                         rng: np.random.Generator | None = None) -> HermitianPencil:
    """Fit the linear pencil adj(G)/f^(n-2) from point evaluations.

    Because the true quotient is linear in (t, u, v), a least-squares fit of
    three coefficient matrices on enough sample points recovers it exactly
    up to roundoff; holdout points and the shift sparsity pattern are then
    checked before anything is returned.
    """
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_CONFIG.seed)
    n = G.n
    n_fit, n_hold = max(8, n + 4), 3
    pts = [(t, complex(x, y), complex(x, -y))
           for t, x, y in _sample_points(form, n_fit + n_hold, rng)]
    entries = [G.entry(i, j) for i in range(n) for j in range(n)]
    vals = _evaluate_many(entries + [form.expand()], pts)
    Gvals = vals[:-1].T.reshape(len(pts), n, n)

    def quotient(k):
        # an overflowing or non-finite quotient is a failed fit, not a crash
        try:
            with np.errstate(all="ignore"):
                q = _adjugate(Gvals[k]) / complex(vals[-1, k]) ** (n - 2)
        except OverflowError:
            raise AdjugateMismatch("adjugate quotient overflows") from None
        if not np.all(np.isfinite(q)):
            raise AdjugateMismatch("adjugate quotient is not finite")
        return q

    Amat = np.asarray(pts[:n_fit])                                # (npts, 3)
    B = np.asarray([quotient(k) for k in range(n_fit)]).reshape(n_fit, -1)
    sol, *_ = np.linalg.lstsq(Amat, B, rcond=None)
    Mt = sol[0].reshape(n, n)
    Mu = sol[1].reshape(n, n)
    Mv = sol[2].reshape(n, n)

    mscale = max(np.max(np.abs(sol)), 1e-300)
    for k in range(n_fit, n_fit + n_hold):
        t, u, v = pts[k]
        pred = t * Mt + u * Mu + v * Mv
        if np.max(np.abs(pred - quotient(k))) > TOL_PENCIL * mscale * 100:
            raise AdjugateMismatch("holdout residual above tolerance")

    # Hermitian pairing and the cyclic sparsity pattern
    if np.max(np.abs(Mv - Mu.conj().T)) > TOL_PATTERN * mscale:
        raise PatternViolation("u and v coefficient matrices are not adjoint")
    Mu = 0.5 * (Mu + Mv.conj().T)
    Mt = 0.5 * (Mt + Mt.conj().T)
    for i in range(n):
        for j in range(n):
            d = (i - j) % n
            if d == 0:
                bad = max(abs(Mu[i, j]), abs(Mt[i, j]) if i != j else 0.0)
            elif d == 1:
                bad = abs(Mt[i, j])          # u-positions: subdiagonal and corner
            elif d == n - 1:
                bad = max(abs(Mu[i, j]), abs(Mt[i, j]))
            else:
                bad = max(abs(Mt[i, j]), abs(Mu[i, j]))
            if bad > TOL_PATTERN * mscale:
                raise PatternViolation(f"entry ({i + 1},{j + 1}) outside shift pattern")
    Mt_clean = np.diag(np.diag(Mt).real.astype(complex))
    Mu_clean = np.zeros_like(Mu)
    for i in range(n):
        j = (i - 1) % n
        Mu_clean[i, j] = Mu[i, j]
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

    The v-coefficient matrix is the upper half of the shift pattern with
    entries a_j / 2; its adjoint must match the u side.
    """
    n = P.n
    if np.max(np.abs(P.M_t - np.eye(n))) > TOL_PATTERN:
        raise PatternViolation("pencil is not normalized")
    Mv = P.M_u.conj().T
    weights = []
    for j in range(n):
        jn = (j + 1) % n
        a = 2.0 * Mv[j, jn]
        if abs(P.M_u[jn, j] - a.conjugate() / 2) > TOL_PATTERN * (1 + abs(a)):
            raise PatternViolation(f"weight {j + 1} fails the adjoint pairing")
        weights.append(a)
    return ShiftMatrix(weights)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def _represent_smooth(form: InvariantForm, tol_final: float,
                      rng: np.random.Generator) -> tuple[ShiftMatrix, float]:
    """The direct construction, with its certified coefficient error."""
    iset = compute_intersections(form)
    last_error: HyprepError | None = None
    for attempt in range(MAX_RETRIES):
        combos = None
        if attempt > 0:
            combos = {}
            for j in range(1, form.n):
                dim = nullspace_dim(iset, (0 - j) % form.n)
                raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                combos[j] = raw
        try:
            G = assemble_form_matrix(form, iset, combos)
            P = pencil_from_adjugate(G, form, rng)
            P = normalize_pencil(P)
            W = extract_shift(P)
        except (NoetherResidual, AdjugateMismatch, PatternViolation,
                IndefiniteDiagonal, NoVanishingForm) as exc:
            last_error = exc
            continue
        err = coefficient_error(form, W)
        if err <= tol_final * max(1.0, form.coefficient_scale()):
            return W, err
        last_error = AdjugateMismatch(f"verification error {err:.2e} after extraction")
    raise last_error if last_error else ConvergenceFailed("smooth pipeline failed")


def _gauge_data(W: ShiftMatrix) -> tuple[np.ndarray, float]:
    return np.array(W.moduli()), cmath.phase(W.product())


def _gauge_distance(a, b) -> float:
    ma, pa = a
    mb, pb = b
    n = len(ma)
    best = math.inf
    for order in (mb, mb[::-1]):
        for k in range(n):
            rolled = np.roll(order, k)
            best = min(best, float(np.max(np.abs(ma - rolled))))
    dphi = abs((pa - pb + math.pi) % (2 * math.pi) - math.pi)
    return best + dphi


def _rebuild_with_product_phase(W: ShiftMatrix, moduli: np.ndarray,
                                phi: float | None) -> ShiftMatrix:
    """New weights with the given moduli, keeping the phases of W except for
    one adjustment that pins the total product phase."""
    phases = [cmath.phase(a) if a != 0 else 0.0 for a in W.weights]
    nz = [j for j, mj in enumerate(moduli) if mj > 0]
    if phi is not None and len(nz) == len(moduli):
        phases[nz[-1]] += phi - sum(phases[j] for j in nz)
    return ShiftMatrix([mj * cmath.exp(1j * p) for mj, p in zip(moduli, phases)])


def _polish_weights(form: InvariantForm, W: ShiftMatrix) -> ShiftMatrix:
    """Gauss-Newton refinement of the weights against the target coefficients.

    The forward invariants depend only on the |a_j| and the weight product.
    The product phase is pure gauge and is pinned exactly at rebuild time,
    which leaves a fit over the squared moduli m_j alone: the matching sums
    and the squared product magnitude are polynomial in m, so the residual
    stays smooth all the way down to vanishing weights.
    """
    n = W.n
    kappa = 2.0 ** (1 - n)
    target_prod = complex(form.c0, form.ct0) / ((-1.0) ** (n - 1) * kappa)
    y_star = abs(target_prod) ** 2
    phi_star = cmath.phase(target_prod) if abs(target_prod) > 0 else None
    prod_row_scale = kappa / max(2.0 * math.sqrt(y_star) * kappa, 1.0)
    scale = max(1.0, form.coefficient_scale())

    def residual(m):
        sums = _matching_sums(list(np.maximum(m, 0.0)))
        res = [(-0.25) ** r * sums[r] - cr for r, cr in enumerate(form.c, start=1)]
        res.append((float(np.prod(np.maximum(m, 0.0))) - y_star) * prod_row_scale)
        return np.array(res, dtype=float)

    def true_error(m):
        cand = _rebuild_with_product_phase(W, np.sqrt(np.maximum(m, 0.0)), phi_star)
        return coefficient_error(form, cand), cand

    x = np.array([abs(w) ** 2 for w in W.weights])
    best_err, best = true_error(x)
    r = residual(x)
    lam = 1e-10
    for _ in range(200):
        if best_err < 1e-12 * scale:
            break
        J = np.zeros((len(r), n))
        for k in range(n):
            h = 1e-7 * (1.0 + abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] = max(xm[k] - h, 0.0)
            J[:, k] = (residual(xp) - residual(xm)) / (xp[k] - xm[k])
        # Levenberg-Marquardt with an active set: coordinates pinned at the
        # m >= 0 boundary whose step wants to go negative are frozen, so the
        # realized move matches the linearization
        improved = False
        for _ in range(16):
            free = np.ones(n, dtype=bool)
            step = np.zeros(n)
            for _ in range(n):
                Jf = J[:, free]
                JtJ = Jf.T @ Jf
                g = Jf.T @ r
                diag = np.diag(np.maximum(np.diag(JtJ), 1e-12))
                try:
                    sub = np.linalg.solve(JtJ + lam * diag, -g)
                except np.linalg.LinAlgError:
                    sub = None
                if sub is None:
                    break
                step[:] = 0.0
                step[free] = sub
                blocked = free & (x <= 0.0) & (step < 0.0)
                if not np.any(blocked):
                    break
                free &= ~blocked
            cand = np.maximum(x + step, 0.0)
            rc = residual(cand)
            if np.linalg.norm(rc) < np.linalg.norm(r):
                x, r, improved = cand, rc, True
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if not improved:
            break
        err, Wc = true_error(x)
        if err < best_err:
            best_err, best = err, Wc
    return best


def _represent_limit(form: InvariantForm, tol_final: float,
                     rng: np.random.Generator) -> ShiftMatrix:
    """Perturbation route: run the smooth pipeline down an eps schedule and
    polish the limit against the original coefficients."""
    prev = None
    W = None
    converged = False
    for k in range(EPS_MAX_STEPS):
        eps = EPS0 * EPS_RATIO ** k
        smooth_form = None
        for _ in range(8):
            try:
                smooth_form = smooth_neighbor(form, eps)
                break
            except PerturbationFailed:
                eps *= 0.5
        if smooth_form is None:
            continue
        try:
            W, _ = _represent_smooth(smooth_form, tol_final, rng)
        except HyprepError:
            continue
        data = _gauge_data(W)
        if prev is not None and _gauge_distance(data, prev) < CONV_TOL:
            converged = True
            prev = data
            break
        prev = data
    if W is None:
        raise ConvergenceFailed("no perturbation step produced a representation")
    W = _polish_weights(form, W)
    err = coefficient_error(form, W)
    if err > tol_final * max(1.0, form.coefficient_scale()):
        raise ConvergenceFailed(
            f"perturbation limit verify error {err:.2e}"
            + ("" if converged else " (schedule did not converge)"))
    return W


def represent(form: InvariantForm, config: Config = DEFAULT_CONFIG) -> ShiftMatrix:
    """Cyclic weighted shift matrix whose pencil determinant equals the form.

    Smooth forms go through the direct construction.  Forms whose only
    degeneracy is an even-multiplicity self-conjugate orbit at infinity are
    still attempted directly (splitting the multiplicity between the
    conjugate halves); everything else falls back to the perturbation
    schedule with gauge-invariant convergence.
    """
    cls = classify(form)    # raises NotHyperbolic
    rng = np.random.default_rng(config.seed)
    scale = max(1.0, form.coefficient_scale())
    if cls.s > DROP_TOL * scale:
        try:
            W, err = _represent_smooth(form, config.tol_final, rng)
            if err > 1e-8 * scale:
                W = _polish_weights(form, W)
            return W
        except HyprepError:
            # real or repeated intersection points, or a numerically
            # marginal smooth form: the perturbation schedule still applies
            pass
    return _represent_limit(form, config.tol_final, rng)
