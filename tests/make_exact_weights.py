"""Recompute the exact_weights of the forward cases of represent_golden.json.

The direct route is run once in float64 on each case, and its inputs are
kept: the unit form (InvariantForm._unit), the coefficients of row one of
the form matrix, the curve points and the sample points of the pencil fit.  Taking
those float64 numbers as exact, every later step runs again in 60 digits
with mpmath: the curve fit of each eigenspace class (rows scaled to unit
norm, as the float64 fit scales them; column scaling does not move an exact
least-squares solution), the diagonal symmetrization, the adjugate quotient,
the pencil fit, the normalization and the read-off of the weights, which are
then scaled back by 2^k.  The result, rounded to float64, is stored as
exact_weights; the distance of every stored weight list to it is printed.

mpmath is not a dependency of the package or of its tests.  Run from the
repository root:

    PYTHONPATH=src python tests/make_exact_weights.py            # print and check
    PYTHONPATH=src python tests/make_exact_weights.py --write    # store too

Without --write it exits 1 when a stored exact_weights differs from the
recomputed one.
"""

import json
import pathlib
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from hyprep import DEFAULT_CONFIG, construct  # noqa: E402
from hyprep.forward import forward_matching  # noqa: E402
from hyprep.invariants import eigenspace_basis  # noqa: E402
from tests.conftest import random_shift  # noqa: E402

GOLDEN = pathlib.Path(__file__).with_name("represent_golden.json")
mp.mp.dps = 60


def direct_route_inputs(form):
    """Run the float64 direct route and keep what its stages were given:
    the unit form, its form matrix, its curve points and its sample points."""
    kept, real = {}, {}
    for name in ("assemble_form_matrix", "_curve_points", "_sample_points"):
        real[name] = getattr(construct, name)

        def traced(*args, name=name):
            kept[name] = args, real[name](*args)
            return kept[name][1]
        setattr(construct, name, traced)
    try:
        construct._represent_direct(form, DEFAULT_CONFIG.tol_final)
    finally:
        for name, function in real.items():
            setattr(construct, name, function)
    (unit, _), G = kept["assemble_form_matrix"]
    return unit, G[0], kept["_curve_points"][1], kept["_sample_points"][1][0]


def exact(z):
    return mp.mpc(z.real, z.imag)


def value(terms, point):
    t, u, v = point
    return mp.fsum(c * t ** i * u ** j * v ** k for (i, j, k), c in terms.items())


def least_squares(A, B):
    """The least-squares solution of A X = B, from the normal equations."""
    AH = A.H
    return mp.inverse(AH * A) * (AH * B)


def conj_involution(terms):
    return {(i, k, j): mp.conj(c) for (i, j, k), c in terms.items()}


def exact_form_matrix(n, row_one, points):
    """The form matrix of the curve fit, with row one and the points exact."""
    g = [[None] * n for _ in range(n)]
    for j, p in enumerate(row_one):
        g[0][j] = {e: exact(c) for e, c in p.terms.items()}
        g[j][0] = conj_involution(g[0][j])
    points = [tuple(exact(x) for x in p) for p in points]
    values = [[value(g[0][j], p) for p in points] for j in range(n)]
    classes = {}
    for i in range(1, n):
        for j in range(i, n):
            classes.setdefault((i - j) % n, []).append((i, j))
    for ell, pairs in classes.items():
        basis = eigenspace_basis(n, n - 1, ell)
        A = mp.matrix(len(points), len(basis))
        B = mp.matrix(len(points), len(pairs))
        for r, p in enumerate(points):
            row = [value({e: 1}, p) for e in basis]
            norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in row))
            for col, x in enumerate(row):
                A[r, col] = x / norm
            for col, (i, j) in enumerate(pairs):
                B[r, col] = mp.conj(values[i][r]) * values[j][r] / values[0][r] / norm
        X = least_squares(A, B)
        for col, (i, j) in enumerate(pairs):
            b = {e: X[m, col] for m, e in enumerate(basis)}
            if i == j:
                c = conj_involution(b)
                b = {e: (b[e] + c[e]) / 2 for e in basis}
            g[i][j] = b
            g[j][i] = conj_involution(b)
    return g


def exact_weights(form):
    n = form.n
    unit, row_one, curve, samples = direct_route_inputs(form)
    g = exact_form_matrix(n, row_one, curve)
    f = {e: exact(c) for e, c in unit.expand().terms.items()}
    fit = [tuple(exact(x) for x in p) for p in samples[:-3]]     # the last three are holdouts
    design = mp.matrix([list(p) for p in fit])
    quotients = mp.matrix(len(fit), n * n)
    for r, p in enumerate(fit):
        Gp = mp.matrix([[value(g[i][j], p) for j in range(n)] for i in range(n)])
        adj = mp.det(Gp) * mp.inverse(Gp) / value(f, p) ** (n - 2)
        for i in range(n):
            for j in range(n):
                quotients[r, i * n + j] = adj[i, j]
    M = least_squares(design, quotients)
    Mt = [[M[0, i * n + j] for j in range(n)] for i in range(n)]
    Mu = [[M[1, i * n + j] for j in range(n)] for i in range(n)]
    Mv = [[M[2, i * n + j] for j in range(n)] for i in range(n)]
    diag = [mp.re(Mt[i][i]) for i in range(n)]
    # the adjoint pair averaged, as pencil_from_adjugate averages it
    lower = [(Mu[(j + 1) % n][j] + mp.conj(Mv[j][(j + 1) % n])) / 2 for j in range(n)]
    if all(d < 0 for d in diag):
        diag, lower = [-d for d in diag], [-x for x in lower]
    scale = mp.mpf(2) ** form._unit[1]
    weights = [2 * mp.conj(lower[j]) / mp.sqrt(diag[j] * diag[(j + 1) % n]) * scale
               for j in range(n)]
    return [complex(float(mp.re(w)), float(mp.im(w))) for w in weights]


def distance(got, want):
    got, want = np.array(got), np.array(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def main(write):
    """Recompute every exact_weights; store them with write, and otherwise
    return 1 when one differs from the stored list."""
    cases = json.loads(GOLDEN.read_text())
    stale = []
    for case in cases:
        if case["kind"] != "forward":
            continue
        form = forward_matching(random_shift(np.random.default_rng(case["seed"]), case["n"]))
        want = exact_weights(form)
        name = f"n{case['n']}-seed{case['seed']}"
        if case.get("exact_weights") != [repr(w) for w in want]:
            stale.append(name)
        case["exact_weights"] = [repr(w) for w in want]
        far = {key: distance([complex(w) for w in case[key]], want)
               for key in case if key.endswith("weights") and key != "exact_weights"}
        print(name, "  ".join(f"{key} {d:.1e}" for key, d in far.items()))
    if write:
        GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
        return 0
    if stale:
        print("stored exact_weights differ from the recomputed ones:", " ".join(stale))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main("--write" in sys.argv[1:]))
