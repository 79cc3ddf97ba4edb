"""Orchestration: abstraction refinement loops, reports, and cross checks."""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .abstraction import abstraction_of, build_l_complete, refine_sac
from .cycle_verify import VerifyResult, verify_cycle
from .errors import ConfigError, CrosscheckFailed
from .oracle import ConeOracle
from .petc import (
    PetcSystem,
    discretize,
    relative_error_trigger,
    simulate,
)
from .quantgraph import WeightedGraph, attracting_scc_bound, min_mean_cycles


@dataclass
class SaistConfig:
    system: PetcSystem
    l_max: int = 50
    mode: str = "full"  # or "targeted"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("full", "targeted"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.l_max < 1:
            raise ConfigError("l_max must be >= 1")


def _matrix(obj, name):
    try:
        m = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name} is not a numeric matrix") from e
    if m.ndim != 2:
        raise ConfigError(f"{name} must be a matrix (array of arrays)")
    return m


def parse_config(data: dict, **overrides) -> SaistConfig:
    """Build a config from the JSON schema; keyword overrides win."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("A", "B", "K", "trigger", "h", "kbar"):
        if key not in data:
            raise ConfigError(f"config is missing {key!r}")
    A = _matrix(data["A"], "A")
    B = _matrix(data["B"], "B")
    K = _matrix(data["K"], "K")
    n = A.shape[0]
    if B.shape[0] != n or K.shape[1] != n or B.shape[1] != K.shape[0]:
        raise ConfigError("A, B, K dimensions are inconsistent")
    trig = data["trigger"]
    if trig.get("type") == "relative_error":
        Q = relative_error_trigger(float(trig["sigma"]), n)
    elif trig.get("type") == "quadratic":
        Q = _matrix(trig["Q"], "trigger Q")
    else:
        raise ConfigError("trigger type must be 'relative_error' or 'quadratic'")
    sys = PetcSystem(A=A, BK=B @ K, Qtrig=Q, h=float(data["h"]), kbar=int(data["kbar"]))
    kwargs = {}
    for key in ("l_max", "mode", "seed"):
        if key in data:
            kwargs[key] = data[key]
    kwargs.update(overrides)
    return SaistConfig(system=sys, **kwargs)


@dataclass
class SaistReport:
    status: str  # "Verified" | "BoundsOnly"
    saist_lower: Fraction
    saist_upper: Optional[Fraction]
    sac_word: tuple
    l_reached: int
    witness: Optional[np.ndarray]
    h: float
    power: int = 1
    iterations: list = field(default_factory=list)
    dot: Optional[str] = None

    @property
    def verified(self):
        return self.status == "Verified"

    @property
    def saist(self):
        return self.saist_lower

    def to_json_dict(self, include_timing=True):
        def rat(x):
            if x is None:
                return None
            f = Fraction(x)
            return {"num": f.numerator, "den": f.denominator}

        iters = []
        for it in self.iterations:
            it = dict(it)
            it["value"] = rat(it["value"])
            if not include_timing:
                it.pop("wall_time", None)
            iters.append(it)
        return {
            "status": self.status,
            "saist_lower": rat(self.saist_lower),
            "saist_upper": rat(self.saist_upper),
            "sac": list(self.sac_word),
            "l": self.l_reached,
            "witness_basis": None if self.witness is None else self.witness.tolist(),
            "iterations": iters,
            "units": {
                "steps": {
                    "saist_lower": rat(self.saist_lower),
                    "saist_upper": rat(self.saist_upper),
                },
                "time": {
                    "saist_lower": float(self.saist_lower) * self.h,
                    "saist_upper": None
                    if self.saist_upper is None
                    else float(self.saist_upper) * self.h,
                },
            },
        }

    def to_json(self, include_timing=True):
        return json.dumps(self.to_json_dict(include_timing), indent=2, sort_keys=True)


def _cycle_candidates(graph: WeightedGraph, floor):
    """Minimum mean cycles grouped by distinct output word (canonical rotation)."""
    sacs = min_mean_cycles(graph, floor=floor)
    seen = {}
    for res in sacs:
        outputs = tuple(graph.labels[v][0] for v in res.cycle)
        m = len(outputs)
        canon = min(outputs[r:] + outputs[:r] for r in range(m))
        if canon not in seen:
            seen[canon] = (res, canon)
    return [seen[k] for k in sorted(seen)]


def _refinement_loop(
    next_abstraction, verify, l_max, h, stats=None, known_feasible=None
) -> SaistReport:
    """Abstract, bound, try the minimum-mean cycles by output word, refine.

    `next_abstraction(prev, sac_states)` gives the next abstraction, or None
    when there is none to build; one deeper than `l_max` is kept for the
    report but not analysed.  `verify(word)` gives a VerifyResult, and
    `stats`, if any, is copied into each iteration record.
    `known_feasible(word)`, if given, tells which states hold a concrete
    state; the upper bound then counts only attracting SCCs with one.
    """
    lower = None
    upper = None
    iterations = []
    abstraction = None
    sac_states = None
    best_sac = ()
    while True:
        t0 = time.monotonic()
        nxt = next_abstraction(abstraction, sac_states)
        if nxt is None:
            break
        abstraction = nxt
        l = abstraction.depth
        if l > l_max:
            break
        graph = abstraction.as_weighted_graph()
        cands = _cycle_candidates(graph, lower)  # tried first: the bound rarely rises
        value = cands[0][0].value
        if lower is None or value > lower:
            lower = value
        bound = attracting_scc_bound(graph, known_feasible)
        if bound is not None and (upper is None or bound < upper):
            upper = bound
        verified = None
        for _, word in cands:
            out = verify(word)
            if out.verified:
                verified = (word, out)
                break
        iterations.append(
            {
                "l": l,
                "value": value,
                "n_states": abstraction.n_states,
                "sac": list(cands[0][1]),
                "verified": verified is not None,
                "oracle": {} if stats is None else dict(stats),
                "wall_time": time.monotonic() - t0,
            }
        )
        if verified is not None:
            word, out = verified
            return SaistReport(
                status="Verified",
                saist_lower=value,
                saist_upper=value if upper is None else min(upper, value),
                sac_word=word,
                l_reached=l,
                witness=None if out.witness is None else out.witness.basis,
                h=h,
                power=out.power,
                iterations=iterations,
                dot=abstraction.to_dot(),
            )
        best_sac = cands[0][1]
        # states along the winning cycle, for targeted refinement
        sac_states = tuple(graph.labels[v] for v in cands[0][0].cycle)
    return SaistReport(
        status="BoundsOnly",
        saist_lower=lower if lower is not None else Fraction(0),
        saist_upper=upper,
        sac_word=best_sac,
        l_reached=l_max if iterations else 0,
        witness=None,
        h=h,
        iterations=iterations,
        dot=abstraction.to_dot() if abstraction is not None else None,
    )


def compute_saist(config: SaistConfig) -> SaistReport:
    """Refine the traffic abstraction until its smallest-in-average cycle is a
    proven behavior of the closed loop, or until the depth budget runs out."""
    # imported here so that `import saist` loads nothing more than the cone path needs
    from .arcs import ArcOracle

    disc = discretize(config.system)
    # a planar plant is decided on arcs, anything else on cones
    oracle = ArcOracle(disc) if disc.n == 2 else ConeOracle(disc, seed=config.seed)

    def next_abstraction(prev, sac_states):
        if prev is not None and config.mode == "targeted":
            return refine_sac(prev, sac_states, oracle)
        l = 1 if prev is None else prev.depth + 1
        return build_l_complete(disc, oracle, l, prev=prev) if l <= config.l_max else None

    verified = {}  # verify_cycle is deterministic in (disc, word, seed)

    def verify(word):
        word = tuple(word)
        if word not in verified:
            verified[word] = verify_cycle(disc, word, seed=config.seed)
        return verified[word]

    return _refinement_loop(
        next_abstraction,
        verify,
        config.l_max,
        config.system.h,
        oracle.stats,
        oracle.known_feasible,  # read from the cached verdicts: no lookups
    )


def generic_limavg(provider, l_max: int) -> SaistReport:
    """The same loop over an arbitrary word provider, which supplies the
    length-l word sets and a periodic-word verifier."""

    def next_abstraction(prev, _):
        l = 1 if prev is None else prev.depth + 1
        if l > l_max:
            return None
        return abstraction_of(provider.words(l), l)

    return _refinement_loop(
        next_abstraction, lambda word: VerifyResult(provider.verify(word)), l_max, 1.0
    )


def crosscheck_simulation(
    config: SaistConfig,
    report: SaistReport,
    trials: int,
    steps: int,
    tol: float = 0.05,
) -> dict:
    """Empirical validation: tail averages of simulated IST traces must respect
    the reported lower bound, and a witness-seeded trial must land on the
    SAIST when the report is Verified."""
    disc = discretize(config.system)
    rng = np.random.default_rng(config.seed)
    lower = float(report.saist_lower)
    tails = []
    for t in range(trials):
        x0 = rng.standard_normal(disc.n)
        x0 /= np.linalg.norm(x0)
        traj = simulate(disc, x0, steps, renormalize=True)
        tail = float(np.mean(traj.ists[steps // 2 :]))
        if tail < lower - 1e-9:
            raise CrosscheckFailed(
                f"trial {t}: tail average {tail} below lower bound {lower}",
                trajectory=traj,
            )
        tails.append(tail)
    witness_tail = None
    if report.verified:
        c = rng.standard_normal(report.witness.shape[1])
        x0 = report.witness @ c
        x0 /= np.linalg.norm(x0)
        traj = simulate(disc, x0, steps, renormalize=True)
        witness_tail = float(np.mean(traj.ists[steps // 2 :]))
        if abs(witness_tail - lower) > tol:
            raise CrosscheckFailed(
                f"witness trial tail {witness_tail} not within {tol} of {lower}",
                trajectory=traj,
            )
    return {"tails": tails, "witness_tail": witness_tail, "lower": lower}
