"""The benchmark's workloads: the paper's systems as `saist` config dicts.

This module is plain data. Both the worker, which hands each config to
`saist.parse_config`, and the reference checker, which rebuilds the dynamics
on its own from the same numbers, read it. It imports nothing from saist.

Every system and expectation is one of `tests/test_acceptance.py`. The
program's own seed is 0 throughout; the benchmark's `--seed` drives only
the reference simulator.
"""

from fractions import Fraction

PLANT_2D = {
    "A": [[0.0, 1.0], [-2.0, 3.0]],
    "B": [[0.0], [1.0]],
    "K": [[0.0, -5.0]],
    "h": 0.05,
    "kbar": 20,
}
PLANT_3D = {
    "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -1.0, -1.0]],
    "B": [[0.0], [0.0], [1.0]],
    "K": [[-2.0, -1.0, -1.0]],
    "h": 0.1,
    "kbar": 20,
}
PLANT_JET = {
    "A": [[0.0, -1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
    "K": [[1.0, -0.5]],
    "h": 0.05,
    "kbar": 20,
}


def system(name, plant, sigma, l_max, mode, expect):
    """One analysis: a config dict for `saist.parse_config` plus what the
    reference checker expects of its report.

    expect is one of
      ("exact", v)             Verified with saist == v
      ("interval", lo, hi)     Verified with lo <= saist < hi
      ("bracket", v)           lower <= v <= upper (any status)
      ("bounds", lo, hi, gap)  lower >= lo, upper <= hi, upper - lower <= gap
      ("tail",)                long-run simulated average in [lower, upper]
    """
    config = dict(plant)
    config.update(
        trigger={"type": "relative_error", "sigma": sigma},
        l_max=l_max,
        mode=mode,
        seed=0,
    )
    return {"name": name, "config": config, "expect": expect}


WORKLOADS = {
    # Feasible cone queries, answered by sampling: cone building and the
    # margin kernel dominate; the two deep bounds-only runs add the per-depth
    # rebuild and the graph work.
    "planar_full": [
        system("2d_s0.2", PLANT_2D, 0.2, 30, "full", ("exact", Fraction(74, 27))),
        system(
            "2d_s0.3", PLANT_2D, 0.3, 30, "full",
            ("interval", Fraction(342, 100), Fraction(343, 100)),
        ),
        system("2d_s0.4", PLANT_2D, 0.4, 30, "full", ("exact", Fraction(5))),
        system("2d_s0.5", PLANT_2D, 0.5, 30, "full", ("exact", Fraction(6))),
        system("jet", PLANT_JET, 0.452, 20, "full", ("tail",)),
        system(
            "2d_s0.1", PLANT_2D, 0.1, 50, "full",
            ("bounds", Fraction(157, 100), Fraction(160, 100), Fraction(3, 100)),
        ),
    ],
    # Mostly empty one-letter extensions: witness ascent that finds nothing,
    # then the exact planar decider.
    "planar_targeted": [
        system("2d_s0.5_targeted", PLANT_2D, 0.5, 30, "targeted", ("exact", Fraction(6))),
    ],
    # n = 3: the sphere branch-and-bound decides, no 2-D engine runs.
    "sphere_3d": [
        system("3d_s0.4", PLANT_3D, 0.4, 3, "full", ("bracket", Fraction(3))),
    ],
}
