"""Command line surface: subcommands, exit codes, determinism."""

import dataclasses
import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from hyprep import (DEFAULT_CONFIG, Config, InvariantForm, ShiftMatrix, classify, construct,
                    is_hyperbolic, represent, verify)
from hyprep.cli import _format_json, main
from hyprep.errors import NotHyperbolic
from hyprep.construct import _represent_direct
from hyprep.forward import forward_interpolate, forward_matching
from hyprep.hyperbolicity import _root_profiles
from hyprep.numrange import write_curve_csv
from tests.conftest import random_shift
from tests.test_construct import TRIPLE_ROOT_FORMS
from tests.test_hyperbolicity import SWEEP_SCALES, _form_at_scale
from tests.test_numrange import _per_angle_points, _per_angle_rays, _product_phase


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def quartic_file(tmp_path):
    return write_json(tmp_path / "quartic.json",
                      {"n": 4, "c": [-26.0, 72.0], "c0": -72.0, "ct0": 0.0})


@pytest.fixture
def shift_file(tmp_path):
    return write_json(tmp_path / "shift.json",
                      {"n": 4, "weights": [[4, 0], [4, 0], [6, 0], [6, 0]]})


def test_dims(capsys):
    code, out = run_cli(capsys, "dims", "--n", "5")
    assert code == 0
    assert out == '{"invariant_dim":5,"eigenspace_dims":[3,3,3,3,3]}\n'


def test_check(capsys, quartic_file):
    code, out = run_cli(capsys, "check", "--input", quartic_file)
    assert code == 0
    data = json.loads(out)
    assert data["hyperbolic"] and data["kind"] == "Singular"
    assert data["witnesses"]["minus"] is True


def test_check_nonhyperbolic(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"n": 3, "c": [0.0], "c0": 1.0, "ct0": 0.0})
    code, out = run_cli(capsys, "check", "--input", path)
    assert code == 1
    assert json.loads(out) == {"hyperbolic": False}


def test_check_solves_each_endpoint_once(capsys, monkeypatch, quartic_file):
    calls = []

    def counting(rows, *radius):
        calls.append((len(rows), len(rows[0]) - 1))
        return _root_profiles(rows, *radius)

    monkeypatch.setattr("hyprep.hyperbolicity._root_profiles", counting)
    code, out = run_cli(capsys, "check", "--input", quartic_file)
    assert code == 0
    assert json.loads(out)["hyperbolic"] is True
    assert calls == [(1, 1)]    # the critical points of the quartic: one row of degree 1


def test_represent_verify_realize_flow(capsys, tmp_path, quartic_file):
    out_path = tmp_path / "shift_out.json"
    code, out = run_cli(capsys, "represent", "--input", quartic_file,
                        "--output", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["verify"]["max_abs_err"] <= 1e-6

    code, out = run_cli(capsys, "verify", "--form", quartic_file,
                        "--shift", str(out_path))
    assert code == 0
    assert json.loads(out)["dihedral"] is True

    code, out = run_cli(capsys, "realize", "--input", str(out_path))
    assert code == 0
    weights = json.loads(out)["weights"]
    assert all(abs(im) == 0.0 for _, im in weights)


def test_points_of_a_nonhyperbolic_form_exit_3(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"n": 4, "c": [-26.0, 72.0], "c0": -100.0, "ct0": 0.0})
    code, out = run_cli(capsys, "points", "--input", path)
    assert code == 3
    assert out == ""


def test_verify_mismatch_exit_code(capsys, quartic_file, tmp_path):
    wrong = write_json(tmp_path / "wrong.json",
                       {"n": 4, "weights": [[4, 0], [4, 0], [6, 0], [5, 0]]})
    code, _ = run_cli(capsys, "verify", "--form", quartic_file, "--shift", wrong)
    assert code == 1


def test_forward(capsys, shift_file):
    code, out = run_cli(capsys, "forward", "--input", shift_file)
    assert code == 0
    data = json.loads(out)
    assert data["c"] == [-26.0, 72.0]
    assert data["c0"] == -72.0


def test_forward_of_large_weights_with_a_zero_weight(capsys, tmp_path):
    # c0 and ct0 are exactly 0, but the eigenvalue oracle's constant terms
    # carry about 1e19 of roundoff: far above 1e-9 of the coefficient scale,
    # inside the oracle's own bound, so the oracles agree (once exit 3)
    weights = [w * 1e7 for w in random_shift(np.random.default_rng([5, 0, 901]), 5).weights]
    weights[1] = 0j
    W = ShiftMatrix(weights)
    assert abs(forward_interpolate(W).c0) > 1e-9 * forward_matching(W).coefficient_scale()
    path = write_json(tmp_path / "large.json", W.to_json())
    code, out = run_cli(capsys, "forward", "--input", path)
    assert code == 0
    assert json.loads(out)["c"] == list(forward_matching(W).c)


def test_points(capsys, quartic_file):
    code, out = run_cli(capsys, "points", "--input", quartic_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["reps"]) == 2
    assert data["at_infinity"] == [False, True]
    total = sum(e["mult"] for e in data["S"]) + sum(e["mult"] for e in data["Sbar"])
    assert total == 12


def test_numrange_csv_and_equality(capsys, tmp_path, shift_file):
    other = write_json(tmp_path / "other.json", {
        "n": 4,
        "weights": [[4, 0],
                    [4 * 0.9659258262890683, 4 * 0.25881904510252074],
                    [6 * 0.7071067811865476, 6 * 0.7071067811865476],
                    [6 * 0.5, -6 * 0.8660254037844386]],
    })
    csv_path = tmp_path / "range.csv"
    code, out = run_cli(capsys, "numrange", "--input", shift_file,
                        "--angles", "90", "--csv", str(csv_path),
                        "--against", other)
    assert code == 0
    assert json.loads(out)["range_equal"] is True
    assert csv_path.read_text().splitlines()[0] == "theta,h,x,y"


@pytest.mark.parametrize("weights", [[[0, 0], [0, 0], [0, 0]], [[1.8, 0], [0, 0], [0, 0]]])
@pytest.mark.parametrize("angles", [8, 9, 720])
def test_numrange_csv_has_no_negative_zero(capsys, tmp_path, weights, angles):
    # the supports at theta + pi are negated bottom eigenvalues; an exact
    # zero support is printed as 0, not -0
    csv_path = tmp_path / "range.csv"
    code, _ = run_cli(capsys, "numrange", "--input", write_json(tmp_path / "w.json",
                                                               {"weights": weights}),
                      "--angles", str(angles), "--csv", str(csv_path))
    assert code == 0
    fields = [v for line in csv_path.read_text().splitlines()[1:] for v in line.split(",")]
    assert len(fields) == 4 * angles
    assert not [v for v in fields if v.startswith("-") and float(v) == 0.0]


def test_numrange_against_samples_each_matrix_once(capsys, monkeypatch, tmp_path,
                                                   shift_file):
    import hyprep.cli
    import hyprep.numrange
    original = hyprep.numrange.boundary_sample
    sampled = []

    def counting(W, m=720):
        sampled.append(W.weights)
        return original(W, m)

    for module in (hyprep.cli, hyprep.numrange):
        monkeypatch.setattr(module, "boundary_sample", counting)
    other = write_json(tmp_path / "other.json",
                       {"n": 4, "weights": [[6, 0], [6, 0], [4, 0], [4, 0]]})
    code, out = run_cli(capsys, "numrange", "--input", shift_file,
                        "--angles", "90", "--against", other)
    assert code == 0
    assert json.loads(out)["range_equal"] is True
    assert sampled == [(4, 4, 6, 6), (6, 6, 4, 4)]


def test_curve(capsys, tmp_path, quartic_file):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    code, out = run_cli(capsys, "curve", "--input", quartic_file,
                        "--angles", "60", "--csv", str(csv_path),
                        "--svg", str(svg_path))
    assert code == 0
    assert json.loads(out)["points"] > 0
    assert svg_path.read_text().startswith("<svg")


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _ = run_cli(capsys, "check", "--input", str(tmp_path / "nope.json"))
    assert code == 2


def test_malformed_form_is_input_error(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"n": 4, "c": [1.0], "c0": 0, "ct0": 0})
    code, _ = run_cli(capsys, "check", "--input", path)
    assert code == 2


def test_byte_identical_reruns(capsys, quartic_file):
    _, first = run_cli(capsys, "represent", "--input", quartic_file, "--seed", "5")
    _, second = run_cli(capsys, "represent", "--input", quartic_file, "--seed", "5")
    assert first == second


def test_config_flags_only_where_they_are_read(quartic_file, shift_file):
    # only represent takes --seed, and only represent, verify and realize take
    # --tol-final; no command reads a config file, and the tolerances
    # (numrange's range-equality tolerance too) are constants
    for argv in (["represent", "--input", quartic_file, "--config", "cfg.json"],
                 ["represent", "--input", quartic_file, "--tol-root", "1e-8"],
                 ["check", "--input", quartic_file, "--seed", "5"],
                 ["verify", "--form", quartic_file, "--shift", shift_file, "--seed", "5"],
                 ["points", "--input", quartic_file, "--tol-final", "1e-5"],
                 ["numrange", "--input", shift_file, "--against", shift_file, "--tol", "1e-3"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
    assert [f.name for f in dataclasses.fields(Config)] == ["seed", "tol_final"]


def test_represent_flags_build_the_config(capsys, quartic_file):
    code, out = run_cli(capsys, "represent", "--input", quartic_file,
                        "--seed", "11", "--tol-final", "1e-5")
    assert code == 0
    form = InvariantForm(4, [-26.0, 72.0], -72.0, 0.0)
    W = represent(form, Config(11, 1e-5))
    assert out == _format_json({"shift": W.to_json(), "verify": verify(form, W).to_json()}) + "\n"


def test_bad_tol_final_is_input_error(capsys, quartic_file, shift_file):
    for argv in (["represent", "--input", quartic_file],
                 ["verify", "--form", quartic_file, "--shift", shift_file],
                 ["realize", "--input", shift_file]):
        code, out = run_cli(capsys, *argv, "--tol-final", "0")
        assert code == 2 and out == ""
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--tol-final", "small"])
        assert exited.value.code == 2


def test_seventeen_digit_floats(capsys, tmp_path):
    path = write_json(tmp_path / "f.json",
                      {"n": 3, "c": [-1.0 / 3.0], "c0": 0.05, "ct0": 0.0})
    code, out = run_cli(capsys, "check", "--input", path)
    assert code == 0
    assert "0.050000000000000003" in out      # s echoed with 17 significant digits


def test_represent_nonhyperbolic_is_numerical_failure(capsys, tmp_path):
    path = write_json(tmp_path / "nh.json", {"n": 3, "c": [0.0], "c0": 1.0, "ct0": 0.0})
    code, _ = run_cli(capsys, "represent", "--input", path)
    assert code == 3


@pytest.mark.parametrize("n, c, a", TRIPLE_ROOT_FORMS)
def test_triple_roots_of_the_even_part_check_singular_and_represent(capsys, tmp_path, n, c, a):
    # hyperbolic forms whose critical-point solve splits a double point into
    # a near-axis conjugate pair: check and represent both succeed
    path = write_json(tmp_path / "f.json", {"n": n, "c": c, "c0": 0.0, "ct0": 0.0})
    code, out = run_cli(capsys, "check", "--input", path)
    assert code == 0
    data = json.loads(out)
    assert data["hyperbolic"] and data["kind"] == "Singular"
    code, out = run_cli(capsys, "represent", "--input", path)
    assert code == 0
    assert json.loads(out)["verify"]["max_abs_err"] <= 1e-6


def test_represent_with_every_spectral_start_skipped_is_numerical_failure(
        capsys, monkeypatch, tmp_path):
    # a generic smooth form on which the one spectral start is skipped and
    # the direct route fails: exit 3 with a message, never a traceback
    monkeypatch.setattr(construct, "MAX_RETRIES", 1)
    form = forward_matching(random_shift(np.random.default_rng([20, 2, 7]), 20))
    path = write_json(tmp_path / "f.json", {"n": form.n, "c": list(form.c),
                                            "c0": form.c0, "ct0": form.ct0})
    code = main(["represent", "--input", path])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and "Traceback" not in err


def test_points_on_a_negative_circle_parameter_is_numerical_failure(capsys, tmp_path):
    # the critical point of p in t^2 is at -1: a typed NotHyperbolic, not
    # a census with a triple point at infinity
    path = write_json(tmp_path / "f.json", {"n": 4, "c": [2.0, 1.0], "c0": 0.5, "ct0": 0.0})
    code = main(["points", "--input", path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical failure:") and "Traceback" not in captured.err


@pytest.mark.parametrize("k", range(3))
def test_points_on_an_overflowing_circle_is_numerical_failure(capsys, tmp_path, k):
    # the smallest circle of these forms overflowed s_j^-n while the points
    # were solved on the raw form.  On the unit form it does not: with no
    # zero weight (k = 0) every point is found, and no numpy warning shows
    # (warnings are errors here).  With a zero weight s = 0, and the circle
    # solve fails, typed: exit 3, not an input error
    form = _form_at_scale(24, k, 1e-12)
    path = write_json(tmp_path / "f.json", form.to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["points", "--input", path])
    captured = capsys.readouterr()
    if k == 0:
        assert code == 0
        out = json.loads(captured.out)
        assert sum(e["mult"] for e in out["S"] + out["Sbar"]) == 24 * 23
    else:
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numerical failure:")


def test_a_form_too_large_for_its_unit_scale_is_not_hyperbolic(capsys, tmp_path):
    # c_2 = 1e300 is 4^996 times larger on the unit form (k = -498), where no
    # hyperbolic form has a coefficient above 2^n: check reports it not
    # hyperbolic, points and represent fail typed, with no traceback and no
    # numpy warning (warnings are errors here)
    data = {"n": 4, "c": [-1e-300, 1e300], "c0": 0.0, "ct0": 0.0}
    form = InvariantForm.from_json(data)
    assert form._unit is None and not is_hyperbolic(form)
    with pytest.raises(NotHyperbolic):
        classify(form)
    path = write_json(tmp_path / "f.json", data)
    for command, want in (("check", 1), ("points", 3), ("represent", 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--input", path])
        captured = capsys.readouterr()
        assert code == want and "Traceback" not in captured.err
        if command == "check":
            assert json.loads(captured.out) == {"hyperbolic": False}
        else:
            assert captured.err == "numerical failure: form is not hyperbolic\n"


def test_points_on_an_overflowing_circle_root_is_numerical_failure(capsys, tmp_path):
    # the circle quadratic of this Singular cubic's unit form has an
    # overflowing root: a numerical failure, exit 3, with no numpy warning
    # shown and no traceback
    path = write_json(tmp_path / "f.json",
                      {"n": 3, "c": [-4.77e87], "c0": -1.11e-182, "ct0": -8.66e-216})
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code = main(["points", "--input", path])
    captured = capsys.readouterr()
    assert code == 3 and shown == [] and captured.out == ""
    assert captured.err == "numerical failure: circle trinomial roots are not finite\n"


@pytest.mark.parametrize("scale", SWEEP_SCALES)
def test_every_command_fails_only_typed_across_scales(capsys, tmp_path, scale):
    # the CLI side of the exception-boundary sweep: check, represent, points
    # and curve on each form, then forward, verify, realize and numrange on
    # the weights represent wrote; every run exits 0, 1 or 3, with no numpy
    # warning (warnings are errors here) and no traceback
    def run(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(argv))
        err = capsys.readouterr().err
        assert code in (0, 1, 3), (argv, err)
        assert "Traceback" not in err

    for n in range(3, 25, 3):
        form = write_json(tmp_path / f"form{n}.json", _form_at_scale(n, 0, scale).to_json())
        weights = str(tmp_path / f"weights{n}.json")
        run("check", "--input", form)
        run("represent", "--input", form, "--output", weights)
        run("points", "--input", form)
        run("curve", "--input", form)
        if pathlib.Path(weights).exists():
            run("forward", "--input", weights)
            run("verify", "--form", form, "--shift", weights)
            run("realize", "--input", weights)
            run("numrange", "--input", weights)


def test_realize_nondihedral_is_verification_failure(capsys, tmp_path):
    path = write_json(tmp_path / "nd.json",
                      {"n": 3, "weights": [[1, 0], [1, 0], [0, 1]]})
    code, _ = run_cli(capsys, "realize", "--input", path)
    assert code == 1


# stdout recorded before the numerical range and the interpolation oracle were
# rebuilt on the Hermitian slice H(theta); the CLI must still print it byte for
# byte.  The one exception is represent on the quintic, a smooth form: it was
# recorded again when the spectral route became the first route for smooth
# forms, and its earlier stdout, from the direct route, is kept under
# "represent quintic direct route".  The points runs were recorded later, to
# pin the intersection stage of the direct route.  The points runs and the
# direct-route represent runs were recorded again when the intersection points
# got their closed-form solve; the stdout of the complex companion solve is
# kept under "<name> companion solve".  "points quintic" and "represent
# quintic direct route" were recorded once more when the circle parameters
# became the critical points classify solves for; the stdout from the
# np.roots solve of the circles is kept under "<name> np.roots circles".
# "points quartic" and "represent quartic" were recorded once more when the
# census came from the closed-gap flags: the closed gap at infinity is the
# exact double root, and the representative [0:1:1] no longer carries the
# roundoff of the clustered split roots; the earlier stdout is kept under
# "<name> clustered infinity".  "represent quartic" and "represent quintic
# direct route" were recorded once more when poly._evaluate_many became one
# matrix product; the stdout of the scalar-arithmetic evaluator is kept under
# "<name> scalar evaluator".  The same two were recorded once more when a
# curve fit replaced the curve division and the direct route came to run at
# unit equal moduli; the stdout of the division is kept under
# "<name> curve division".  The same two were recorded once more when the
# pencil fit's sample points moved from a seeded random box to one fixed
# circle; the stdout of the box is kept under "<name> random sample box".
# The numrange and curve runs were recorded again when one eigh came to
# serve theta and theta + pi and each curve ray came to keep its positive
# radii alone: the support values moved in their last bits and the curve
# counts halved; the earlier stdout is kept under "<name> full circle".
# "points quintic", "represent quintic" and "represent quintic direct route"
# were recorded once more when every solve came to run on the unit form, the
# quintic rescaled by 2^-2; the earlier stdout is kept under "<name> raw form"
GOLDEN_PATH = pathlib.Path(__file__).with_name("cli_golden.json")
S2, S3, S6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)
GOLDEN_INPUTS = {
    "quartic_form": {"n": 4, "c": [-26.0, 72.0], "c0": -72.0, "ct0": 0.0},
    "quintic_form": {"n": 5, "c": [-12.5, 33.75],
                     "c0": 3 * (S6 + S3), "ct0": 3 * (S6 - S3)},
    "quartic_shift": {"n": 4, "weights": [[4.0, 0.0], [4.0, 0.0], [6.0, 0.0], [6.0, 0.0]]},
    "quintic_shift": {"n": 5, "weights": [[2.0, 0.0], [3.0, 3.0], [S6, 0.0],
                                          [S2, 2.0], [0.0, -4.0]]},
}
GOLDEN_RUNS = {     # name: (command, input, extra arguments)
    "check quartic": ("check", "quartic_form"),
    "check quintic": ("check", "quintic_form"),
    "represent quartic": ("represent", "quartic_form"),
    "represent quintic": ("represent", "quintic_form"),
    "forward quartic": ("forward", "quartic_shift"),
    "forward quintic": ("forward", "quintic_shift"),
    "numrange quartic": ("numrange", "quartic_shift", "--angles", "720"),
    "numrange quintic": ("numrange", "quintic_shift", "--angles", "720"),
    "points quartic": ("points", "quartic_form"),
    "points quintic": ("points", "quintic_form"),
    "curve quartic": ("curve", "quartic_form", "--angles", "720"),
    "curve quintic": ("curve", "quintic_form", "--angles", "720"),
}
# sha256 of the --csv file of each curve run; stdout holds only the point
# count.  Recorded again when real rays got real companion matrices, and
# again when the ray phase n theta was reduced exactly: each time the points
# moved in their last bits and their count did not (test_numrange holds the
# complex-companion and product-phase references).  Recorded once more when
# each ray came to keep its positive radii alone: the points that stayed
# kept their bits.  The quintic's was recorded once more when, for odd n, a
# ray at theta + pi came to take the row of the ray at theta read at -rho:
# its points moved in their last bits, and the quartic kept its sum
CURVE_CSV_SHA256 = {
    "curve quartic": "a3aa70b801f6947561ee930c697ec05ce0c606240d51773dec796e3a824c23cb",
    "curve quintic": "10d2f0d65424564a959c9751411e64c200867d78ac2c64015bca0d241387b762",
}
# the quintic's sum before each ray solved its own row, which the per-angle
# loop with own rows still gives
CURVE_CSV_SHA256_OWN_ROW = {
    "curve quintic": "ae91ba074ee7f61725191dd8dec9296f68826a74116ac3effe9b7a4f9befdae5",
}
# the sums before each ray kept its half-ray alone, which the per-angle loop
# that keeps every real radius still gives
CURVE_CSV_SHA256_FULL_CIRCLE = {
    "curve quartic": "b77b0b4ca31469eaa77858f8f216cb0eaebb1f859c4a8be275d0be85b11e5483",
    "curve quintic": "391611900893e92884a7a33951b6aa2f8ea0f7df011cd783d8dddc215c9d44e6",
}
# the sums before the phase was reduced, which the per-angle loop at the
# rounded product n theta still gives
CURVE_CSV_SHA256_PRODUCT_PHASE = {
    "curve quartic": "ed8c78d275b764e87900202896f0a19e004dead1b306d9b394d6d40f8a384b00",
    "curve quintic": "d91b50b80645784d6242406292fadf9f7e70f470e8fe1cf074fa681832dc1fc1",
}


def golden_argv(tmp_path, name):
    """The argument list of one golden run, with its input file written out."""
    command, key, *extra = GOLDEN_RUNS[name]
    path = write_json(tmp_path / f"{key}.json", GOLDEN_INPUTS[key])
    return [command, "--input", path, *extra]


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_stdout(capsys, tmp_path, name):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    code, out = run_cli(capsys, *golden_argv(tmp_path, name))
    assert code == 0
    assert out == want


def test_direct_route_keeps_quintic_golden_stdout():
    # the direct route alone gives the weights the CLI printed while it was
    # the first route
    form = InvariantForm.from_json(GOLDEN_INPUTS["quintic_form"])
    W, _ = _represent_direct(form, DEFAULT_CONFIG.tol_final)
    out = _format_json({"shift": W.to_json(), "verify": verify(form, W).to_json()})
    assert out + "\n" == json.loads(GOLDEN_PATH.read_text())["represent quintic direct route"]


def test_golden_stdout_stays_near_the_companion_solve():
    golden = json.loads(GOLDEN_PATH.read_text())

    def complexes(pairs):
        return np.array([complex(*pair) for pair in pairs])

    def points(out):
        return [complexes(p[axis] for p in out["reps"] + [e["point"] for e in out["S"] + out["Sbar"]])
                for axis in "tuv"]

    pairs = [(name, name + " companion solve") for name in (
        "points quartic", "points quintic", "represent quartic", "represent quintic direct route")]
    pairs += [(name, name + " np.roots circles")
              for name in ("points quintic", "represent quintic direct route")]
    pairs += [(name, name + " clustered infinity") for name in ("points quartic", "represent quartic")]
    pairs += [(name, name + suffix)
              for suffix in (" scalar evaluator", " curve division", " random sample box")
              for name in ("represent quartic", "represent quintic direct route")]
    pairs += [(name, name + " raw form")
              for name in ("points quintic", "represent quintic", "represent quintic direct route")]
    for name, old_name in pairs:
        new, old = json.loads(golden[name]), json.loads(golden[old_name])
        if name.startswith("points"):
            for key in ("orbit_mult", "at_infinity"):
                assert new[key] == old[key]
            assert [e["mult"] for e in new["S"]] == [e["mult"] for e in old["S"]]
            for a, b in zip(points(new), points(old)):
                assert np.max(np.abs(a - b)) <= 1e-14
        else:
            new, old = (complexes(out["shift"]["weights"]) for out in (new, old))
            assert np.max(np.abs(new - old)) <= 1e-10 * np.max(np.abs(old))


@pytest.mark.parametrize("name", sorted(CURVE_CSV_SHA256))
def test_golden_curve_csv(capsys, tmp_path, name):
    csv_path = tmp_path / "curve.csv"
    code, out = run_cli(capsys, *golden_argv(tmp_path, name), "--csv", str(csv_path))
    assert code == 0
    assert out == json.loads(GOLDEN_PATH.read_text())[name]
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == CURVE_CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(CURVE_CSV_SHA256_PRODUCT_PHASE))
def test_golden_curve_csv_at_the_product_phase(tmp_path, name):
    _, key, _, angles = GOLDEN_RUNS[name]
    form = InvariantForm.from_json(GOLDEN_INPUTS[key])
    csv_path = tmp_path / "curve.csv"
    write_curve_csv(_per_angle_points(_per_angle_rays(form, int(angles), _product_phase, twin=False),
                                      signed=True), str(csv_path))
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
        CURVE_CSV_SHA256_PRODUCT_PHASE[name]


@pytest.mark.parametrize("name", sorted(CURVE_CSV_SHA256_OWN_ROW))
def test_golden_curve_csv_with_own_rows(tmp_path, name):
    _, key, _, angles = GOLDEN_RUNS[name]
    form = InvariantForm.from_json(GOLDEN_INPUTS[key])
    csv_path = tmp_path / "curve.csv"
    write_curve_csv(_per_angle_points(_per_angle_rays(form, int(angles), twin=False)),
                    str(csv_path))
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == CURVE_CSV_SHA256_OWN_ROW[name]


@pytest.mark.parametrize("name", sorted(CURVE_CSV_SHA256_FULL_CIRCLE))
def test_golden_curve_csv_on_the_full_circle(tmp_path, name):
    _, key, _, angles = GOLDEN_RUNS[name]
    form = InvariantForm.from_json(GOLDEN_INPUTS[key])
    csv_path = tmp_path / "curve.csv"
    write_curve_csv(_per_angle_points(_per_angle_rays(form, int(angles), twin=False), signed=True),
                    str(csv_path))
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
        CURVE_CSV_SHA256_FULL_CIRCLE[name]


def test_golden_stdout_stays_near_the_full_circle():
    # at 720 angles the curve keeps one of each point's two radii, and the
    # support values at theta + pi, read off the eigh at theta, move by at
    # most 1e-14
    golden = json.loads(GOLDEN_PATH.read_text())
    for kind in ("quartic", "quintic"):
        new, old = (json.loads(golden[f"curve {kind}{suffix}"]) for suffix in ("", " full circle"))
        assert 2 * new["points"] == old["points"]
        new, old = (json.loads(golden[f"numrange {kind}{suffix}"])
                    for suffix in ("", " full circle"))
        assert new["angles"] == old["angles"]
        for key in ("h_min", "h_max"):
            assert abs(new[key] - old[key]) <= 1e-14
