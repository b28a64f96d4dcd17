"""The calibration task that puts timings at the reference speed.

The shared machine the benchmark runs on changes speed by up to 40%, in
phases lasting seconds to minutes.  calibrate() times a fixed task made of
the same kinds of work as an op (products of sparse dict polynomials and
small dense LAPACK calls); it never touches the package, so no change under
test moves it, and what moves it is the machine's speed at that moment.
Dividing a wall time by slowdown() gives the time at the reference speed,
the speed at which the task takes REF seconds.
"""

import statistics
import time

import numpy as np

REF = 0.005

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((12, 12)) + 1j * _rng.standard_normal((12, 12))
_POLY = _rng.standard_normal(15)
_TERMS = {(i, j, 9 - i - j): complex(i + 1, j - 1) for i in range(10) for j in range(10 - i)}


def calibrate() -> float:
    """Seconds taken by one run of the calibration task."""
    t0 = time.perf_counter()
    for _ in range(2):
        out = {}
        for e1, c1 in _TERMS.items():
            for e2, c2 in _TERMS.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0.0) + c1 * c2
    for _ in range(20):
        np.linalg.svd(_MATRIX)
        np.linalg.eigvalsh(_MATRIX + _MATRIX.conj().T)
        np.roots(_POLY)
    return time.perf_counter() - t0


def slowdown(samples) -> float:
    """Mean calibration time over REF: above 1 while the machine runs slow."""
    return statistics.fmean(samples) / REF
