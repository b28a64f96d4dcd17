"""Command line front door.

All machine-readable reports go to standard output as JSON with floats
printed to 17 significant digits (so identical inputs give byte-identical
output); diagnostics go to standard error.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 numerical failure.
"""

import argparse
import json
import sys

from .config import DEFAULT_CONFIG, Config
from .construct import represent
from .errors import HyprepError, NotDihedral, NotHyperbolic
from .forward import forward_interpolate, forward_matching, realize_real, verify
from .hyperbolicity import classify
from .intersection import compute_intersections
from .invariants import InvariantForm, eigenspace_dim_formula, invariant_dim
from .numrange import (boundary_sample, curve_sample, samples_agree,
                       write_boundary_csv, write_curve_csv, write_svg)
from .shift import ShiftMatrix

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _format_json(obj) -> str:
    """JSON with deterministic float formatting (17 significant digits)."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{_format_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_format_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return f"{obj:.17g}"
    return json.dumps(obj)


def _emit(obj):
    sys.stdout.write(_format_json(obj) + "\n")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_form(path: str) -> InvariantForm:
    return InvariantForm.from_json(_load_json(path))


def _load_shift(path: str) -> ShiftMatrix:
    return ShiftMatrix.from_json(_load_json(path))


def _add_tol_final_flag(p: argparse.ArgumentParser):
    p.add_argument("--tol-final", dest="tol_final", type=float,
                   default=DEFAULT_CONFIG.tol_final)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hyprep")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="hyperbolicity and smooth/singular classification")
    p.add_argument("--input", required=True)

    p = sub.add_parser("represent", help="construct a cyclic shift representation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write the shift weights JSON here")
    p.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
    _add_tol_final_flag(p)

    p = sub.add_parser("forward", help="invariant coefficients of a shift matrix")
    p.add_argument("--input", required=True)

    p = sub.add_parser("verify", help="compare a form against a shift matrix")
    p.add_argument("--form", required=True)
    p.add_argument("--shift", required=True)
    _add_tol_final_flag(p)

    p = sub.add_parser("realize", help="dephase to real weights")
    p.add_argument("--input", required=True)
    _add_tol_final_flag(p)

    p = sub.add_parser("points", help="intersection points of f and df/dt")
    p.add_argument("--input", required=True)

    p = sub.add_parser("numrange", help="numerical range boundary sample")
    p.add_argument("--input", required=True)
    p.add_argument("--angles", type=int, default=720)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.add_argument("--against", help="second shift JSON: also report range equality")

    p = sub.add_parser("curve", help="real curve sample in the t=1 chart, "
                                     "one point per half-ray; for odd n the rays "
                                     "at theta and theta + pi share one solve")
    p.add_argument("--input", required=True)
    p.add_argument("--angles", type=int, default=720)
    p.add_argument("--csv")
    p.add_argument("--svg")

    p = sub.add_parser("dims", help="invariant and eigenspace dimensions")
    p.add_argument("--n", type=int, required=True)
    return ap


def _run(args) -> int:
    cmd = args.command
    if cmd == "dims":
        _emit({"invariant_dim": invariant_dim(args.n),
               "eigenspace_dims": [eigenspace_dim_formula(args.n, ell)
                                   for ell in range(args.n)]})
        return EXIT_OK

    if cmd == "check":
        form = _load_form(args.input)
        try:
            cls = classify(form)
        except NotHyperbolic:
            _emit({"hyperbolic": False})
            return EXIT_VERIFY
        _emit({"hyperbolic": True, "kind": cls.kind.value, "s": cls.s,
               "witnesses": cls.witnesses})
        return EXIT_OK

    if cmd == "represent":
        form = _load_form(args.input)
        W = represent(form, Config(args.seed, args.tol_final))
        if args.output:
            with open(args.output, "w", newline="\n") as fh:
                fh.write(_format_json(W.to_json()) + "\n")
        _emit({"shift": W.to_json(), "verify": verify(form, W).to_json()})
        return EXIT_OK

    if cmd == "forward":
        W = _load_shift(args.input)
        forward_interpolate(W)    # fatal on any two-oracle disagreement
        _emit(forward_matching(W).to_json())
        return EXIT_OK

    if cmd == "verify":
        cfg = Config(tol_final=args.tol_final)
        form = _load_form(args.form)
        W = _load_shift(args.shift)
        report = verify(form, W)
        _emit(report.to_json())
        ok = report.max_abs_err <= cfg.tol_final * max(1.0, form.coefficient_scale())
        return EXIT_OK if ok else EXIT_VERIFY

    if cmd == "realize":
        W = _load_shift(args.input)
        B = realize_real(W, Config(tol_final=args.tol_final))
        _emit(B.to_json())
        return EXIT_OK

    if cmd == "points":
        form = _load_form(args.input)
        iset = compute_intersections(form)
        _emit(iset.to_json())
        return EXIT_OK

    if cmd == "numrange":
        W = _load_shift(args.input)
        sample = boundary_sample(W, args.angles)
        if args.csv:
            write_boundary_csv(sample, args.csv)
        if args.svg:
            hull = list(sample.points)
            write_svg([hull], args.svg)
        out = {"angles": args.angles,
               "h_min": min(sample.support), "h_max": max(sample.support)}
        if args.against:
            other = boundary_sample(_load_shift(args.against), args.angles)
            out["range_equal"] = samples_agree(sample, other)
        _emit(out)
        if args.against and not out["range_equal"]:
            return EXIT_VERIFY
        return EXIT_OK

    if cmd == "curve":
        form = _load_form(args.input)
        pts = curve_sample(form, args.angles)
        if args.csv:
            write_curve_csv(pts, args.csv)
        if args.svg:
            write_svg([pts], args.svg)
        _emit({"points": len(pts)})
        return EXIT_OK

    raise ValueError(f"unknown command {cmd}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotDihedral as exc:
        print(f"not dihedral: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except HyprepError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
