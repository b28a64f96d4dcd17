"""The hyprep benchmark.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 30 --trace 0

Workloads (see GLOSSARY.md for why each exists and what every metric means):
  direct   forward images of seeded shifts, n = 4..12: the direct route
  limit    singular hyperbolic forms, n = 3..5: the perturbation route
  inspect  check, forward, numrange and curve on seeded shifts, n = 4..18

With --trace 0 it times the workload's ops for --seconds (at least
ops.MIN_OPS ops, ending on a whole period of inputs) and reports the
end-to-end metrics; set-up time is the median of several fresh processes.
With --trace 1 it runs each op untraced and traced, back to back, for half
as long, reports per-layer metrics per op, and writes the spans to
.bench_out/.  Outputs are checked outside the timed region in both modes.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# one BLAS thread: boundary_sample's pool is the only parallelism measured
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 5
OP_TIME_CAP = 50.0     # seconds of op time after which ops.MIN_OPS is waived,
                       # so that a slow machine or commit still ends in time
CAL_EVERY = 0.25       # seconds of op time between two calibration samples


@dataclasses.dataclass
class Record:
    index: int
    n: int
    seconds: float
    failure: str | None = None     # exception type name, or "CheckFailed"
    wrong: bool = False            # the output itself failed the check
    error: float | None = None     # relative error of a successful op
    digest: str | None = None


def load_package():
    """Import hyprep from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "hyprep", "__init__.py")):
        sys.exit(f"error: no hyprep package under {SRC}")
    sys.path.insert(0, SRC)
    import hyprep
    if not os.path.abspath(hyprep.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported hyprep from {hyprep.__file__}, not {SRC}")
    return hyprep


def run_op(hy, workload, case, tracer=None) -> Record:
    """Time one op (only the call itself), then check its output."""
    op, check = ops.OPS[workload]
    if tracer is not None:
        tracer.install()
        tracer.op = case.index
    t0 = time.perf_counter()
    try:
        out = op(hy, case)
        failure = None
    except Exception as exc:      # every failure counts, whatever its type
        failure = type(exc).__name__
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    rec = Record(case.index, case.n, dt, failure)
    if failure is None:
        try:
            rec.error = check(case, out)
            rec.digest = ops.fingerprint(out)
        except Exception as exc:
            rec.failure, rec.wrong = "CheckFailed", True
            print(f"# check failed: {workload} op {case.index} (n={case.n}): {exc}")
    return rec


def run_ops(hy, workload, seed, seconds=None, min_ops=None, count=None, tracer=None,
            cal_samples=None):
    """Run ops in index order: exactly `count` of them, or whole periods
    until `seconds` of untraced op time and `min_ops` (default
    ops.MIN_OPS) are reached, or OP_TIME_CAP of op time.  With a tracer each
    op also runs traced, right before or after its untraced run (the order
    alternates), so the two are compared under the same machine load.  With
    a `cal_samples` list, calib.calibrate() runs between ops every CAL_EVERY
    seconds of op time and its times are appended.  Returns (untraced,
    traced) records."""
    make = inputs.CASES[workload]
    period = ops.PERIOD[workload]
    min_ops = ops.MIN_OPS if min_ops is None else min_ops
    plain, traced, elapsed, next_cal, i = [], [], 0.0, 0.0, 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif (i % period == 0 and elapsed >= seconds
              and (i >= min_ops or elapsed >= OP_TIME_CAP)):
            break
        case = make(seed, i)
        if tracer is not None and i % 2:
            traced.append(run_op(hy, workload, case, tracer))
        plain.append(run_op(hy, workload, case))
        if tracer is not None and not i % 2:
            traced.append(run_op(hy, workload, case, tracer))
        elapsed += plain[-1].seconds
        if cal_samples is not None and elapsed >= next_cal:
            cal_samples.append(calib.calibrate())
            next_cal = elapsed + CAL_EVERY
        i += 1
    return plain, traced


def warm_up(hy, workload):
    """One untimed op and calibration, so lazy set-up is done before timing."""
    op, _ = ops.OPS[workload]
    try:
        op(hy, ops.warmup_case(workload))
    except Exception:      # the warm-up input is not a measured op
        pass
    calib.calibrate()


@contextlib.contextmanager
def counting_warnings(log):
    """Count RuntimeWarnings into `log` instead of printing them."""
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = lambda message, category, *a, **k: log.append(category.__name__)
        yield


def measure_setup(workload) -> list[dict]:
    """One {"setup_s", "slowdown"} record per fresh probe process."""
    probe = os.path.join(HERE, "setup_probe.py")
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, probe, SRC, workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def machine_block(hy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    config = getattr(hy, "DEFAULT_CONFIG", None)
    threads = getattr(config, "effective_threads", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "boundary_sample_threads": threads() if callable(threads) else "absent",
    }


UNITS = {"ref_ops_per_s": "ops/s", "ref_ms_p50": "ms", "ref_ms_p90": "ms",
         "err_digits": "digits", "peak_rss_mb": "MB", "setup_s": "s",
         "ops_per_s": "ops/s", "ms_p50": "ms", "ms_p90": "ms", "slowdown": "ratio",
         "setup_wall_s": "s", "fail_frac": "ratio", "p90_rel_err": "ratio",
         "worst_rel_err": "ratio"}


def end_to_end(records, probes, rss_kb, cal_samples) -> tuple[dict, dict]:
    """(gated metrics, informational metrics) of one untraced run.

    Gated timings are at the reference speed: wall timings divided by the
    slowdown measured alongside them (calib.py), in the run for the ops and
    in each probe process for set-up.  Both see the same drift of the shared
    machine, so the quotient is far steadier than either."""
    ok = [r for r in records if r.failure is None]
    # a failed op counts as slower than any success
    times = sorted(r.seconds if r.failure is None else math.inf for r in records)
    errors = sorted(r.error for r in ok) or [1.0]
    slowdown = calib.slowdown(cal_samples)
    wall = {
        "ops_per_s": len(ok) / sum(r.seconds for r in records),
        "ms_p50": 1e3 * ops.percentile(times, 0.5),
        "ms_p90": 1e3 * ops.percentile(times, 0.9),
    }
    gated = {
        "ref_ops_per_s": wall["ops_per_s"] * slowdown,
        "ref_ms_p50": wall["ms_p50"] / slowdown,
        "ref_ms_p90": wall["ms_p90"] / slowdown,
        "err_digits": statistics.fmean(-math.log10(max(e, 1e-17)) for e in errors),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(p["setup_s"] / p["slowdown"] for p in probes),
    }
    info = {**wall, "slowdown": slowdown,
            "setup_wall_s": statistics.median(p["setup_s"] for p in probes),
            "fail_frac": 1.0 - len(ok) / len(records),
            "p90_rel_err": ops.percentile(errors, 0.9), "worst_rel_err": errors[-1]}
    return gated, info


def print_breakdown(records):
    by_n = collections.defaultdict(list)
    for r in records:
        by_n[r.n].append(r)
    print("# per degree: n, ops, median wall ms (successes), failures, worst rel err")
    for n in sorted(by_n):
        rs = by_n[n]
        ok = [r for r in rs if r.failure is None]
        med = 1e3 * statistics.median(r.seconds for r in ok) if ok else math.nan
        worst = max((r.error for r in ok), default=math.nan)
        print(f"#   n={n:2d} ops={len(rs):4d} median_ms={med:9.2f} "
              f"failures={len(rs) - len(ok):3d} worst_err={worst:.2e}")
    hist = collections.Counter(r.failure for r in records if r.failure)
    print(f"# failures by type: {json.dumps(dict(sorted(hist.items())))}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ops.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    hy = load_package()
    print(f"# machine: {json.dumps(machine_block(hy))}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    probes = None if args.trace else measure_setup(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    warn_log, cal_samples = [], []
    with counting_warnings(warn_log):
        warm_up(hy, args.workload)
        if tracer is None:
            records, _ = run_ops(hy, args.workload, args.seed, seconds=args.seconds,
                                 cal_samples=cal_samples)
        else:
            plain, records = run_ops(hy, args.workload, args.seed, seconds=args.seconds / 2,
                                     min_ops=ops.PERIOD[args.workload], tracer=tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print_breakdown(records)
    print(f"# RuntimeWarnings: {len(warn_log)}")

    if tracer is None:
        values, info = end_to_end(records, probes, rss_kb, cal_samples)
        units = UNITS
        print(f"# set-up probes (wall s, slowdown): "
              f"{[(round(p['setup_s'], 4), round(p['slowdown'], 3)) for p in probes]}")
        correct = not any(r.wrong for r in records)
    else:
        identical = [r.digest for r in plain] == [r.digest for r in records]
        overhead = sum(r.seconds for r in records) / sum(r.seconds for r in plain) - 1.0
        values, info = tracer.layer_metrics(len(records), overhead), {}
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(span_file)
        print(f"# traced ops: {len(records)}, spans: {len(tracer.span_name)} -> "
              f"{os.path.relpath(span_file, ROOT)}")
        print(f"# absent layers: {json.dumps(tracer.absent)}")
        print(f"# identical results traced vs untraced: {identical}; "
              f"wrappers restored: {tracer.restored}")
        correct = identical and tracer.restored and not any(r.wrong for r in plain + records)
    for name, value in {**values, **info}.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# run wall time: {time.perf_counter() - started:.1f} s")
    result = {"correct": bool(correct), "attempted": len(records),
              "failed": sum(1 for r in records if r.failure),
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
