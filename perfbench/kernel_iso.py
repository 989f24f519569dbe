"""Time each kernel of the active backend alone, on fixed seeded inputs.

The inputs are those of ``benchmarks/bench_kernels.py`` (seed 0, 20 000
elements; ``zinterval_p1`` on the first 500 rows, ``t3_mle`` on 2 000
samples of 10).  Prints one JSON object: kernel -> median milliseconds.

    PYTHONPATH=src python3 perfbench/kernel_iso.py
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from genestim import _kernels as K

N1, N2 = 20, 30
SIZE = 20_000
REPS = {"invert_p1": 5, "sbar_profiled": 5, "zinterval_p1": 3, "t3_mle": 5}


def inputs():
    rng = np.random.default_rng(0)
    theta = rng.uniform(-4.0, 4.0, SIZE)
    tnuis = rng.uniform(0.5, N1 + N2 - 0.5, SIZE)
    x1 = rng.integers(0, N1 + 1, SIZE)
    x2 = rng.integers(0, N2 + 1, SIZE)
    p1 = rng.uniform(0.01, 0.99, SIZE)
    p2 = rng.uniform(0.01, 0.99, SIZE)
    samples = rng.standard_t(3, (SIZE // 10, 10))
    return theta, tnuis, x1, x2, p1, p2, samples


def main():
    theta, tnuis, x1, x2, p1, p2, samples = inputs()
    tn = (x1 + x2).astype(float)
    cases = {
        "invert_p1": lambda: K.invert_p1_batch(theta, tnuis, N1, N2),
        "sbar_profiled": lambda: K.sbar_profiled_batch(
            x1.astype(float), x2.astype(float), N1, N2, p1, p2),
        "zinterval_p1": lambda: K.zinterval_p1_batch(
            x1[:500], x2[:500], N1, N2, tn[:500], 1.959964),
        "t3_mle": lambda: K.t3_mle_batch(samples),
    }
    out = {}
    for name, call in cases.items():
        times = []
        for _ in range(REPS[name]):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) * 1e3
    print(json.dumps(out))


if __name__ == "__main__":
    main()
