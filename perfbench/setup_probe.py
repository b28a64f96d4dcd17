"""Set-up time in a fresh process: `import hyprep` plus one warm-up op.

Run by run.py as `python3 setup_probe.py <src dir> <workload>`;
prints one JSON object: the measured seconds, and the machine's slowdown
(calib.py) measured right after in the same process.
"""

import json
import os
import sys
import time


def main():
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hyprep
    t1 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import warnings

    import ops
    case = ops.warmup_case(workload)
    op, _ = ops.OPS[workload]
    t2 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            op(hyprep, case)
        except Exception:      # a failing warm-up op still ends set-up
            pass
    t3 = time.perf_counter()
    import calib
    calib.calibrate()          # its first call is slower, like any code's
    slowdown = calib.slowdown([calib.calibrate() for _ in range(3)])
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "slowdown": slowdown}))


if __name__ == "__main__":
    main()
