"""Time the numpy kernels on fixed random inputs (best of five calls).

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from saist import kernels


def timeit(fn, *args, repeat=5):
    fn(*args)  # warm up
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rng = np.random.default_rng(0)
    n, n_constraints, n_points = 4, 40, 4096
    mats = rng.standard_normal((n_constraints, n, n))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    signs = np.where(rng.random(n_constraints) < 0.5, 1.0, -1.0)
    pts = rng.standard_normal((n_points, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    M = np.stack([np.eye(n) + 0.01 * rng.standard_normal((n, n)) for _ in range(20)])
    N = rng.standard_normal((20, n, n))
    N = 0.5 * (N + N.transpose(0, 2, 1))
    x0 = pts[0]

    t = timeit(kernels.margins, pts, mats, signs)
    print(f"margins        {n_points} pts x {n_constraints} constraints: {t * 1e3:8.3f} ms")
    t = timeit(kernels.min_margin_ascent, x0, mats, signs)
    print(f"ascent         200 steps:                                    {t * 1e3:8.3f} ms")
    t = timeit(kernels.simulate_loop, M, N, x0, 10_000)
    print(f"simulate_loop  10k samples:                                  {t * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
