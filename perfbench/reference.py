"""Reference checks on saist's reports, computed apart from saist.

The PETC loop is rebuilt here from the workload's numbers: zero-order hold
by `scipy.linalg.expm` of the augmented matrix [[A, BK], [0, 0]], and the
inter-sample time (IST) of a state x is the first k < kbar with
|M(k)x - x|^2 > sigma^2 |M(k)x|^2, else kbar. Nothing here imports saist.

Every check returns a list of failure messages; an empty list passes.
"""

import re
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

WITNESS_PERIODS = 20  # repeats of the SAC word simulated from a witness state
TRAJECTORIES = 16  # seeded random initial states per system
STEPS = 4000  # samples per trajectory; the tail is the second half
LONG_STEPS = 20_000  # samples per trajectory where the long-run average is checked


class Loop:
    """The sampled closed loop of one workload system."""

    def __init__(self, config):
        A = np.array(config["A"], dtype=float)
        BK = np.array(config["B"], dtype=float) @ np.array(config["K"], dtype=float)
        n = A.shape[0]
        sigma = config["trigger"]["sigma"]
        self.n, self.kbar = n, config["kbar"]
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = A * config["h"]
        aug[:n, n:] = BK * config["h"]
        eye = np.eye(n)
        self.M = np.empty((self.kbar, n, n))
        self.T = np.empty((self.kbar, n, n))
        for k in range(1, self.kbar + 1):
            E = expm(aug * k)
            M = E[:n, :n] + E[:n, n:]
            D = M - eye
            self.M[k - 1] = M
            self.T[k - 1] = D.T @ D - sigma**2 * (M.T @ M)

    def ists(self, x0, steps):
        """IST sequences from the rows of x0, shape (trajectories, steps)."""
        x = np.array(x0, dtype=float)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        out = np.empty((x.shape[0], steps), dtype=np.int64)
        p, n = x.shape
        forms = self.T[: self.kbar - 1].reshape(self.kbar - 1, n * n).T
        for i in range(steps):
            # x'T(k)x for every trajectory and k as one (p, n*n) @ (n*n, k) product
            fired = (x[:, :, None] * x[:, None, :]).reshape(p, n * n) @ forms > 0.0
            k = np.where(fired.any(axis=1), fired.argmax(axis=1) + 1, self.kbar)
            out[:, i] = k
            x = np.matmul(self.M[k - 1], x[:, :, None])[:, :, 0]
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        return out


def fraction(pair):
    return None if pair is None else Fraction(pair[0], pair[1])


def dot_states(dot):
    return {tuple(int(k) for k in m.split(",")) for m in re.findall(r'label="\(([\d,]+)\)"', dot)}


def check_report(spec, rep, loop, rng):
    """All reference checks of one report; rng is the benchmark's seeded stream."""
    fails = []
    lower, upper = fraction(rep["lower"]), fraction(rep["upper"])
    sac = tuple(rep["sac"])
    verified = rep["status"] == "Verified"
    mode = spec["config"]["mode"]

    # the report is consistent with itself
    if upper is not None and lower > upper:
        fails.append(f"lower {lower} > upper {upper}")
    if verified:
        if not sac or lower != Fraction(sum(sac), len(sac)):
            fails.append(f"saist {lower} is not the mean of its SAC word {sac}")
        if upper != lower:
            fails.append(f"Verified but upper {upper} != lower {lower}")

    # the paper's figures
    kind, *vals = spec["expect"]
    if kind in ("exact", "interval") and not verified:
        fails.append(f"status {rep['status']}, expected Verified")
    elif kind == "exact" and lower != vals[0]:
        fails.append(f"saist {lower}, expected {vals[0]}")
    elif kind == "interval" and not (vals[0] <= lower < vals[1]):
        fails.append(f"saist {lower}, expected in [{vals[0]}, {vals[1]})")
    elif kind == "bracket" and not (lower <= vals[0] and (upper is None or vals[0] <= upper)):
        fails.append(f"{vals[0]} not in [{lower}, {upper}]")
    elif kind == "bounds" and (
        upper is None or lower < vals[0] or upper > vals[1] or upper - lower > vals[2]
    ):
        fails.append(f"bounds [{lower}, {upper}], expected lower >= {vals[0]}, "
                     f"upper <= {vals[1]}, gap <= {vals[2]}")

    # a point of the witness subspace repeats the SAC word
    if verified:
        if rep["witness"] is None:
            fails.append("Verified without a witness basis")
        else:
            basis = np.array(rep["witness"], dtype=float)
            x0 = basis @ rng.standard_normal(basis.shape[1])
            got = tuple(loop.ists(x0[None, :], WITNESS_PERIODS * len(sac))[0].tolist())
            if got != sac * WITNESS_PERIODS:
                fails.append(f"witness trace starts {got[:len(sac)]}, not the SAC word {sac}")

    # tails of random trajectories respect the lower bound; every window of
    # length l is a state of the full-mode abstraction
    steps = LONG_STEPS if kind == "tail" else STEPS
    traces = loop.ists(rng.standard_normal((TRAJECTORIES, loop.n)), steps)
    tail = traces[:, steps // 2:]
    window = tail.shape[1]
    # Any W-sample window is a W-edge path of the abstraction graph: simple
    # cycles of mean >= lower plus a simple path of < S edges of weight >= 1,
    # so its mean is >= lower - (S - 1) * (lower - 1) / W.
    states = rep["n_states"][-1] if rep["n_states"] else 1
    slack = (states - 1) * (float(lower) - 1.0) / window + 1e-12
    worst = float(tail.mean(axis=1).min())
    if worst < float(lower) - slack:
        fails.append(f"tail average {worst:.5f} below lower {float(lower):.5f} - {slack:.5f}")
    if mode == "full":
        l = rep["l"]
        abstraction = dot_states(rep["dot"] or "")
        missing = set()
        for tr in traces[:, :STEPS].tolist():
            missing.update(tuple(tr[i:i + l]) for i in range(STEPS - l + 1))
        missing -= abstraction
        if missing:
            fails.append(f"{len(missing)} simulated windows of length {l} are not "
                         f"states of the abstraction, e.g. {sorted(missing)[0]}")

    # the jet's long-run average lies between the bounds
    if kind == "tail":
        avgs = tail.mean(axis=1)
        if upper is None or not all(float(lower) <= a <= float(upper) for a in avgs):
            fails.append(f"long-run averages {np.round(avgs, 4).tolist()} "
                         f"outside [{float(lower):.4f}, {upper and float(upper):.4f}]")
    return fails
