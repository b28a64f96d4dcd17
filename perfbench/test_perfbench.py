"""Tests of the benchmark itself: frozen inputs, the independent forward map,
the output checks, and the tracer's robustness.

    python3 -m pytest -q perfbench
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hyprep  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# SHA-256 of the first two passes over each workload's full input cycle at seed 1.
# A change here means the parent commit and a change under test would no
# longer see the same inputs: re-measure the baseline if it is deliberate.
FROZEN = {
    "direct": (36, "afdcbef9927e8686d2b650114fbfc73f04d9716a73791193d3eb89953a224f1d"),
    "limit": (18, "43743a189a3dce6d80fa06e4d1d9d7a8a3b3db56cd8cfd51b2cc4dee164b963a"),
    "inspect": (30, "889ed831ef86f5c8152818774ce7cf25e9d1490081b547862c44f16f4090f7a8"),
}


@pytest.mark.parametrize("workload", sorted(FROZEN))
def test_frozen_inputs(workload):
    count, want = FROZEN[workload]
    assert inputs.digest(workload, 1, count) == want


def test_inputs_depend_on_seed_and_index_only():
    a = inputs.direct_case(5, 17)
    inputs.direct_case(6, 17)
    assert inputs.direct_case(5, 17) == a
    assert inputs.direct_case(6, 17) != a


def test_forward_map_on_the_published_quartic():
    c, c0, ct0 = inputs.forward([4.0, 4.0, 6.0, 6.0])
    assert c == pytest.approx((-26.0, 72.0), abs=1e-12)
    assert (c0, ct0) == pytest.approx((-72.0, 0.0), abs=1e-12)


def test_forward_map_agrees_with_the_package_oracle():
    rng = np.random.default_rng(3)
    for n in range(3, 21):
        w = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        c, c0, ct0 = inputs.forward(w)
        got = hyprep.forward_matching(hyprep.ShiftMatrix(w))
        scale = max([1.0] + [abs(x) for x in c])
        assert max(abs(a - b) for a, b in zip(c + (c0, ct0), got.c + (got.c0, got.ct0))) \
            <= 1e-13 * scale


@pytest.mark.parametrize("workload", sorted(FROZEN))
def test_no_op_fails_on_a_period_of_inputs(workload):
    # the workloads keep to degrees on which every op succeeds
    plain, _ = run.run_ops(hyprep, workload, 2, count=ops.PERIOD[workload])
    assert [(r.n, r.failure) for r in plain if r.failure] == []


def test_limit_cases_are_singular_and_hyperbolic():
    for i in range(len(inputs.LIMIT_KINDS) * ops.PERIOD["limit"]):
        case = inputs.limit_case(1, i)
        form = hyprep.InvariantForm(case.n, case.c, case.c0, case.ct0)
        assert hyprep.is_hyperbolic(form)
        assert hyprep.classify(form).kind.value == "Singular"


def test_checks_reject_wrong_outputs():
    case = inputs.direct_case(1, 1)
    ok = ops.check_represent(case, case.weights)
    assert ok < 1e-12
    bent = list(case.weights)
    bent[0] *= 1.001
    with pytest.raises(ops.CheckFailed):
        ops.check_represent(case, bent)

    case = inputs.inspect_case(1, 0)
    out = ops.inspect_op(hyprep, case)
    assert ops.check_inspect(case, out) < 1e-9
    for key, bad in (("hyperbolic", False),
                     ("support", tuple(h + 1e-6 for h in out["support"])),
                     ("curve", tuple((x * 1.01, y) for x, y in out["curve"]))):
        with pytest.raises(ops.CheckFailed):
            ops.check_inspect(case, {**out, key: bad})


def test_failed_ops_count_as_slower_than_any_success():
    records = [run.Record(i, 3, 0.001 * (i + 1), error=10.0 ** -(i + 4)) for i in range(9)]
    records.append(run.Record(9, 3, 0.0001, failure="OverflowError"))
    probes = [{"setup_s": 0.1, "slowdown": 1.0}]
    gated, info = run.end_to_end(records, probes, 1024, [run.calib.REF])
    assert info["ms_p90"] == pytest.approx(9.0)
    assert gated["ref_ms_p90"] == pytest.approx(9.0)
    assert info["fail_frac"] == pytest.approx(0.1)
    assert info["worst_rel_err"] == pytest.approx(1e-4)
    assert gated["err_digits"] == pytest.approx(8.0)     # mean digits of 9 errors
    # on a machine running at half speed the reference timings are halved
    slow, _ = run.end_to_end(records, [{"setup_s": 0.1, "slowdown": 2.0}], 1024,
                             [2 * run.calib.REF])
    assert slow["ref_ms_p90"] == pytest.approx(4.5)
    assert slow["ref_ops_per_s"] == pytest.approx(2 * gated["ref_ops_per_s"])
    assert slow["setup_s"] == pytest.approx(0.05)
    assert ops.percentile([1.0, 2.0, math.inf], 0.9) == math.inf


def _traced(workload, count):
    tracer = tracing.Tracer()
    plain, traced = run.run_ops(hyprep, workload, 1, count=count, tracer=tracer)
    assert tracer.restored
    assert [r.digest for r in plain] == [r.digest for r in traced]
    return tracer, traced


def test_spans_fire_where_they_apply():
    # the first ten direct ops (n = 4..12, 4) all succeed on the direct route
    tracer, records = _traced("direct", 10)
    m = tracer.layer_metrics(len(records), 0.0)
    assert not any(r.failure for r in records)
    for name in ("poly.evaluate.calls", "poly.mul.calls", "construct.noether_division.calls",
                 "construct.assemble_form_matrix.calls", "intersection.compute_intersections.calls",
                 "forward.verify.calls", "invariants.eigenspace_basis.calls"):
        assert m[name] > 0, name
    for name in ("hyperbolicity.smooth_neighbor.calls", "numrange.curve_sample.ms",
                 "construct.limit_route_frac"):
        assert m[name] == 0, name
    assert 0 < m["construct.represent.self_ms"] < 1e3

    tracer, records = _traced("limit", 2)
    m = tracer.layer_metrics(len(records), 0.0)
    assert m["hyperbolicity.smooth_neighbor.calls"] > 0
    assert m["construct.limit_route_frac"] == 1.0

    tracer, records = _traced("inspect", 1)
    m = tracer.layer_metrics(len(records), 0.0)
    assert m["hyperbolicity.real_roots.calls"] >= 700
    for name in ("numrange.curve_sample.ms", "numrange.boundary_sample.ms",
                 "forward.forward_interpolate.ms", "hyperbolicity.classify.calls"):
        assert m[name] > 0, name
    for name in ("construct.noether_division.calls", "poly.evaluate.calls"):
        assert m[name] == 0, name


def test_missing_names_are_reported_absent(monkeypatch):
    monkeypatch.delattr(hyprep.invariants, "eigenspace_basis")
    monkeypatch.setattr(tracing, "COUNTERS", tracing.COUNTERS + (
        ("poly", "TrivariatePoly", ("no_such_method",), "poly.gone"),))
    tracer, records = _traced("direct", 2)
    assert "invariants.eigenspace_basis" in tracer.absent
    assert "poly.gone" in tracer.absent
    m = tracer.layer_metrics(len(records), 0.0)
    assert m["invariants.eigenspace_basis.calls"] == 0
    assert m["construct.noether_division.calls"] > 0


def test_wrappers_are_restored():
    before = {(mod, attr): getattr(mod, attr)
              for mod in (hyprep, hyprep.construct, hyprep.forward, hyprep.numrange,
                          hyprep.hyperbolicity, hyprep.intersection, hyprep.invariants)
              for attr in dir(mod) if callable(getattr(mod, attr))}
    methods = dict(vars(hyprep.TrivariatePoly))
    _traced("direct", 6)
    _traced("inspect", 1)
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in before.items())
    assert dict(vars(hyprep.TrivariatePoly)) == methods


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "direct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
