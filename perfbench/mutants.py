"""Show that each reference check fails on a deliberately wrong report.

    PYTHONPATH=src python3 perfbench/mutants.py [--seed N]

Runs saist on four systems of the workloads (2-D sigma=0.2 and 0.1, the jet,
the 3-D plant; about a minute), checks that the true reports pass, then
corrupts one field at a time and prints which check catches it. Exits 1
if a corruption is not caught.
"""

import argparse
import copy
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import STEPS, TRAJECTORIES, Loop, check_report  # noqa: E402
from worker import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def shift(rep, delta, which=("lower", "upper")):
    for key in which:
        v = Fraction(*rep[key]) + delta
        rep[key] = [v.numerator, v.denominator]


def most_visited_state(spec, rep, seed):
    """The abstraction state that the checker's random windows hit most."""
    loop = Loop(spec["config"])
    rng = np.random.default_rng(seed)
    traces = loop.ists(rng.standard_normal((TRAJECTORIES, loop.n)), STEPS)
    l = rep["l"]
    seen = Counter(tuple(int(k) for k in tr[i:i + l]) for tr in traces for i in range(STEPS - l + 1))
    return seen.most_common(1)[0][0], len(seen)


def drop_state(rep, word):
    label = "(" + ",".join(str(k) for k in word) + ")"
    rep["dot"] = "\n".join(
        line for line in rep["dot"].splitlines() if f'label="{label}"' not in line
    )


def perturb_witness(rep, size, seed):
    basis = np.array(rep["witness"])
    rng = np.random.default_rng(seed)
    rep["witness"] = (basis + size * rng.standard_normal(basis.shape)).tolist()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    import saist

    specs = {s["name"]: s for w in WORKLOADS.values() for s in w}
    names = ["2d_s0.2", "2d_s0.1", "jet", "3d_s0.4"]
    reports = {n: summary(saist.compute_saist(saist.parse_config(specs[n]["config"]))) for n in names}

    def run(name, rep):
        # the same seed as the true report's check, so windows are comparable
        return check_report(specs[name], rep, Loop(specs[name]["config"]), np.random.default_rng(args.seed))

    missed = 0
    for name in names:
        fails = run(name, reports[name])
        print(f"{name:8s} true report            {'FAIL: ' + fails[0] if fails else 'passes'}")
        missed += bool(fails)

    cases = []
    r = copy.deepcopy(reports["2d_s0.2"])
    shift(r, Fraction(1, 1000))
    cases.append(("2d_s0.2", "value +1/1000", r))
    r = copy.deepcopy(reports["2d_s0.2"])
    r["sac"] = r["sac"][1:] + r["sac"][:1]
    cases.append(("2d_s0.2", "SAC word rotated", r))
    r = copy.deepcopy(reports["2d_s0.2"])
    perturb_witness(r, 0.1, args.seed)
    cases.append(("2d_s0.2", "witness basis +0.1*N(0,1)", r))
    for name in ("2d_s0.2", "3d_s0.4"):
        r = copy.deepcopy(reports[name])
        word, visited = most_visited_state(specs[name], r, args.seed)
        drop_state(r, word)
        states = len(reports[name]["n_states"]) and reports[name]["n_states"][-1]
        cases.append((name, f"state {word} dropped ({visited} of {states} states visited)", r))
    r = copy.deepcopy(reports["2d_s0.1"])
    shift(r, Fraction(2, 100), which=("upper",))
    cases.append(("2d_s0.1", "upper +2/100", r))
    r = copy.deepcopy(reports["2d_s0.1"])
    r["lower"], r["upper"] = r["upper"], r["lower"]
    cases.append(("2d_s0.1", "lower and upper swapped", r))
    r = copy.deepcopy(reports["jet"])
    shift(r, Fraction(4, 100), which=("lower",))
    cases.append(("jet", "lower +4/100", r))
    r = copy.deepcopy(reports["3d_s0.4"])
    r["upper"] = [29, 10]
    cases.append(("3d_s0.4", "upper set to 29/10", r))

    for name, what, rep in cases:
        fails = run(name, rep)
        print(f"{name:8s} {what:40s} {'caught: ' + fails[0] if fails else 'NOT CAUGHT'}")
        missed += not fails
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
