"""Time the numpy kernels on fixed random inputs, the certificate's
definiteness check on one batch, the sampled closed loop, and one level of
the 2-D arc oracle (best of five calls each).

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import sys
import time
from pathlib import Path

import numpy as np

from saist import DiscretizedSystem, build_l_complete, discretize, kernels, parse_config, simulate
from saist.arcs import ArcOracle
from saist.decider import certified_negative_definite

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def timeit(fn, *args, repeat=5):
    fn(*args)  # warm up
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def arc_level(l=20, repeat=5):
    """The jet's depth-l candidates decided by an ArcOracle that holds its
    depth-(l - 1) abstraction, built outside the timed call: a fresh oracle
    per call, so that no call finds the level's verdicts cached."""
    (spec,) = [s for s in WORKLOADS["planar_full"] if s["name"] == "jet"]
    disc = discretize(parse_config(spec["config"]).system)
    best = float("inf")
    for _ in range(repeat + 1):  # the first call warms up
        oracle = ArcOracle(disc)
        words = [v + w[-1:] for v, w in build_l_complete(disc, oracle, l - 1).transitions]
        t0 = time.perf_counter()
        oracle.feasible_words(words)
        best = min(best, time.perf_counter() - t0)
    return best, len(words)


def certified_batch(rng, cones=128, forms=20, n=3):
    """(weights, forms) of `cones` certified cones: in each, the last form
    closes the weighted sum of random symmetric forms to -(B B' + I)."""
    F = rng.standard_normal((cones, forms, n, n))
    F = 0.5 * (F + F.transpose(0, 1, 3, 2))
    w = rng.uniform(0.1, 1.0, (cones, forms))
    B = rng.standard_normal((cones, n, n))
    target = -(B @ B.transpose(0, 2, 1) + np.eye(n))
    partial = np.einsum("bi,bijk->bjk", w[:, :-1], F[:, :-1])
    F[:, -1] = (target - partial) / w[:, -1, None, None]
    return w, F


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
    pool = rng.standard_normal((512, 3))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    forms = rng.standard_normal((64, 3, 3))
    forms = 0.5 * (forms + forms.transpose(0, 2, 1))
    t = timeit(kernels.margins, pool, forms, np.where(rng.random(64) < 0.5, 1.0, -1.0))
    print(f"margins        512 pts x 64 forms, n = 3 (the oracle's chunk):  {t * 1e3:8.3f} ms")
    w, F = certified_batch(rng)
    accepted = int(certified_negative_definite(w, F).sum())
    t = timeit(certified_negative_definite, w, F)
    print(f"definiteness   {len(w)} cones x {F.shape[1]} forms, n = 3 ({accepted} accepted):   {t * 1e3:8.3f} ms")
    t = timeit(kernels.min_margin_ascent, x0, mats, signs)
    print(f"ascent         200 steps:                                    {t * 1e3:8.3f} ms")
    t = timeit(simulate, DiscretizedSystem(M=M, N=N, h=1.0, kbar=len(M)), x0, 10_000)
    print(f"simulate       10k samples:                                  {t * 1e3:8.3f} ms")
    t, n_words = arc_level()
    print(f"arc level      jet, {n_words} depth-20 words:                     {t * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
