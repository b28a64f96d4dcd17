"""One op per workload, and the benchmark's own check of each op's output.

An op calls the package exactly as a user would; its check runs after the
op's clock has stopped and uses only numpy and the benchmark's forward map.
Package names are looked up on the module at call time, so the traced run
sees every call through its wrappers.
"""

import hashlib
import math

import numpy as np

import inputs

# the CLI's acceptance tolerance, tol_final * max(1, scale), fixed here so
# that a change to the package's defaults cannot loosen the check
TOL_FINAL = 1e-6
# touch points and support values come from one Hermitian eigensolve each
TOL_SUPPORT = 1e-9
# a real curve point, as a relative residual of the form in the t = 1 chart
TOL_CURVE = 1e-7
ANGLES = 720

# ops in one pass over each workload's inputs (degrees, times weight types
# for direct and kinds for limit); a run stops only at a period boundary, so
# every run has the same input mix
PERIOD = {
    "direct": 2 * len(inputs.DIRECT_DEGREES),
    "limit": len(inputs.LIMIT_KINDS) * len(inputs.LIMIT_DEGREES),
    "inspect": len(inputs.INSPECT_DEGREES),
}

# ops per untraced run, at least: 100 so that ms_p90 has ten samples beyond it
MIN_OPS = 100


# the warm-up input: an index no run reaches, and a multiple of every cycle
# of degrees, weight types and kinds, so it has the workload's smallest degree;
# its seed is fixed, so set-up time does not depend on --seed
WARMUP_INDEX = math.lcm(*PERIOD.values()) * 10 ** 6
WARMUP_SEED = 0


def warmup_case(workload):
    """The untimed input run before timing and by each set-up probe."""
    return inputs.CASES[workload](WARMUP_SEED, WARMUP_INDEX)


class CheckFailed(Exception):
    """An op returned an output that fails the benchmark's own check."""


def _form(hy, case):
    return hy.InvariantForm(case.n, case.c, case.c0, case.ct0)


def represent_op(hy, case):
    """`direct` and `limit`: the weights of S(a) for the case's form."""
    return hy.represent(_form(hy, case)).weights


def inspect_op(hy, case):
    """`inspect`: the library calls behind `hyprep check`, `forward`,
    `numrange --angles 720` and `curve --angles 720`."""
    form = _form(hy, case)
    W = hy.ShiftMatrix(case.weights)
    hyperbolic = hy.is_hyperbolic(form)
    kind = hy.classify(form).kind.value if hyperbolic else None
    interp = hy.forward_interpolate(W)
    matched = hy.forward_matching(W)
    sample = hy.boundary_sample(W, ANGLES)
    points = hy.curve_sample(form, ANGLES)
    return {
        "hyperbolic": hyperbolic,
        "kind": kind,
        "interpolate": (interp.c, interp.c0, interp.ct0),
        "matching": (matched.c, matched.c0, matched.ct0),
        "angles": sample.angles,
        "support": sample.support,
        "touch": sample.points,
        "curve": points,
    }


def check_represent(case, weights) -> float:
    """Relative coefficient error of S(weights) against the case's form."""
    if len(weights) != case.n:
        raise CheckFailed(f"{len(weights)} weights for degree {case.n}")
    err = inputs.coefficient_error(case, weights)
    if not err <= TOL_FINAL:
        raise CheckFailed(f"coefficient error {err:.3e} above {TOL_FINAL:g}")
    return err


def _oracle_error(case, coeffs) -> float:
    c, c0, ct0 = coeffs
    want_c, want_c0, want_ct0 = inputs.forward(case.weights)
    if len(c) != len(want_c):
        raise CheckFailed("forward oracle returned the wrong number of coefficients")
    deltas = [abs(a - b) for a, b in zip(c, want_c)]
    deltas += [abs(c0 - want_c0), abs(ct0 - want_ct0)]
    return max(deltas) / case.scale


def check_inspect(case, out) -> float:
    """Worst relative disagreement of the two forward oracles with the
    benchmark's forward map; raises CheckFailed on any wrong output."""
    if out["hyperbolic"] is not True:
        raise CheckFailed("a forward image was reported non-hyperbolic")
    err = max(_oracle_error(case, out["interpolate"]), _oracle_error(case, out["matching"]))
    if not err <= TOL_FINAL:
        raise CheckFailed(f"forward oracle error {err:.3e}")

    A = np.zeros((case.n, case.n), dtype=complex)
    w = np.asarray(case.weights)
    A[np.arange(case.n - 1), np.arange(1, case.n)] = w[:-1]
    A[case.n - 1, 0] = w[-1]
    theta = np.asarray(out["angles"], dtype=float)
    h = np.asarray(out["support"], dtype=float)
    touch = np.asarray(out["touch"], dtype=float).reshape(-1, 2)
    if not (len(theta) == len(h) == len(touch) == ANGLES):
        raise CheckFailed("boundary sample has the wrong length")
    if np.max(np.abs(theta - 2 * np.pi * np.arange(ANGLES) / ANGLES)) > 1e-12:
        raise CheckFailed("boundary sample angles are not the uniform grid")
    re_a, im_a = (A + A.conj().T) / 2, (A - A.conj().T) / 2j
    H = np.cos(theta)[:, None, None] * re_a + np.sin(theta)[:, None, None] * im_a
    top = np.linalg.eigvalsh(H)[:, -1]
    tol = TOL_SUPPORT * max(1.0, float(np.max(np.abs(w))))
    if np.max(np.abs(top - h)) > tol:
        raise CheckFailed("support values differ from the top eigenvalues")
    on_line = touch[:, 0] * np.cos(theta) + touch[:, 1] * np.sin(theta)
    if np.max(np.abs(on_line - h)) > tol:
        raise CheckFailed("a touch point misses its supporting line")

    pts = np.asarray(out["curve"], dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise CheckFailed("no real curve points")
    x, y = pts[:, 0], pts[:, 1]
    rho2 = x * x + y * y
    z = (x + 1j * y) ** case.n
    terms = [np.ones_like(x)] + [cr * rho2 ** r for r, cr in enumerate(case.c, start=1)]
    terms += [case.c0 * z.real, case.ct0 * z.imag]
    terms = np.array(terms)
    resid = np.abs(terms.sum(axis=0)) / np.abs(terms).sum(axis=0)
    if not np.max(resid) <= TOL_CURVE:
        raise CheckFailed(f"curve point residual {np.max(resid):.2e}")
    return err


OPS = {
    "direct": (represent_op, check_represent),
    "limit": (represent_op, check_represent),
    "inspect": (inspect_op, check_inspect),
}


def fingerprint(out) -> str:
    """Digest of an op's output, for comparing traced and untraced passes."""
    return hashlib.sha1(repr(out).encode()).hexdigest()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (inf entries allowed)."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]
