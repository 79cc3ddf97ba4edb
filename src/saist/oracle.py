"""Feasibility oracle for sigma-cones: seeded sampling first, exact decisions second."""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .cones import ConeSystem, sigma_cone
from .decider import BuiltinDecider, s_procedure_certificate
from .errors import SolverUnavailable
from .petc import DiscretizedSystem

GOLDEN = 0.6180339887498949


class Status(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


class Method(enum.Enum):
    SAMPLING = "sampling"
    CERTIFICATE = "certificate"
    EXTERNAL = "external"


class Policy(enum.Enum):
    CONSERVATIVE = "conservative"
    EXACT_REQUIRED = "exact_required"


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: Status
    witness: Optional[np.ndarray]
    method: Method

    @property
    def is_feasible(self):
        return self.status is Status.FEASIBLE

    @property
    def maybe_feasible(self):
        """Unknown counts as feasible downstream to keep the abstraction a simulation."""
        return self.status in (Status.FEASIBLE, Status.UNKNOWN)


def _unit_pool(n, size, seed):
    if n == 2:
        # golden-angle sequence on the projective circle: low discrepancy
        t = (np.arange(size) * GOLDEN * np.pi) % np.pi
        return np.column_stack([np.cos(t), np.sin(t)])
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class ConeOracle:
    """Decides sigma-cone nonemptiness for one discretized PETC system.

    Verdicts are cached by word; Unknown verdicts are upgraded when a later
    query demands exactness.  `engine` is anything with
    ``check(cone) -> ('sat'|'unsat'|'unknown', witness)``, typically a
    :class:`saist.smtlib.SolverClient` or :class:`saist.decider.BuiltinDecider`.
    """

    def __init__(
        self,
        disc: DiscretizedSystem,
        engine="builtin",
        budget=10_000,
        seed=0,
        policy=Policy.CONSERVATIVE,
        witness_tol=1e-9,
        pool_size=512,
    ):
        self.disc = disc
        self.engine = BuiltinDecider() if engine == "builtin" else engine
        self.budget = budget
        self.policy = policy
        self.witness_tol = witness_tol
        self.pool = _unit_pool(disc.n, pool_size, seed)
        self._verdicts = {}
        self._witnesses = {}
        self.stats = {"sampling_hits": 0, "certified": 0, "engine_calls": 0, "queries": 0}

    @property
    def alphabet(self):
        return range(1, self.disc.kbar + 1)

    def witnesses(self, word):
        return self._witnesses.get(tuple(word), [])

    def _record_witness(self, word, x):
        self._witnesses.setdefault(tuple(word), []).append(np.asarray(x, dtype=float))

    def _pool(self, cone: ConeSystem):
        """Pool points plus the parent word's witnesses, their worst margins,
        and the cone's (mats, signs) stacks."""
        mats, signs = cone.arrays()
        starts = [np.asarray(w) for w in self.witnesses(cone.word[:-1])]
        pts = np.vstack([self.pool] + [w[None, :] for w in starts]) if starts else self.pool
        worst = kernels.margins(pts, mats, signs).min(axis=1)
        return pts, worst, mats, signs

    def _ascend(self, pts, worst, mats, signs, budget):
        """Locally improve the most promising points; a witness or None."""
        order = np.argsort(worst)[::-1][:8]
        steps = max(20, budget // max(1, len(order)))
        for i in order:
            x, mm = kernels.min_margin_ascent(
                pts[i], mats, signs, steps=steps, tol=self.witness_tol
            )
            if mm > self.witness_tol:
                return x / np.linalg.norm(x)
        return None

    def _store(self, key, v):
        self._verdicts[key] = v
        if v.is_feasible:
            self._record_witness(key[0], v.witness)
        return v

    def _sampled(self, key, x):
        self.stats["sampling_hits"] += 1
        return self._store(key, FeasibilityVerdict(Status.FEASIBLE, x, Method.SAMPLING))

    def feasible(self, cone: ConeSystem, budget=None, policy=None) -> FeasibilityVerdict:
        """Pool first.  Under the conservative policy a witness ascent follows
        and a miss is Unknown.  When exactness is demanded, n <= 2 goes
        straight to the engine, which is exact there; n >= 3 tries an
        S-procedure emptiness certificate, then the ascent, then the engine."""
        budget = self.budget if budget is None else budget
        policy = self.policy if policy is None else policy
        key = (tuple(cone.word), cone.variant)
        self.stats["queries"] += 1
        cached = self._verdicts.get(key)
        if cached is not None and (
            cached.status is not Status.UNKNOWN or policy is Policy.CONSERVATIVE
        ):
            return cached
        if cached is None:
            pool = self._pool(cone)
            pts, worst, *_ = pool
            best = int(np.argmax(worst))
            if worst[best] > self.witness_tol:
                return self._sampled(key, pts[best] / np.linalg.norm(pts[best]))
            if policy is Policy.CONSERVATIVE:
                x = self._ascend(*pool, budget)
                if x is not None:
                    return self._sampled(key, x)
                return self._store(key, FeasibilityVerdict(Status.UNKNOWN, None, Method.SAMPLING))
        # exactness demanded and nothing found so far (or a cached Unknown)
        if cone.n >= 3:
            if s_procedure_certificate(cone) is not None:
                self.stats["certified"] += 1
                return self._store(
                    key, FeasibilityVerdict(Status.INFEASIBLE, None, Method.CERTIFICATE)
                )
            if cached is None:
                x = self._ascend(*pool, budget)
                if x is not None:
                    return self._sampled(key, x)
        if self.engine is None:
            raise SolverUnavailable(
                "exact verdict required but no solver or decision engine is configured"
            )
        self.stats["engine_calls"] += 1
        reply, witness = self.engine.check(cone)
        if reply == "sat":
            w = np.asarray(witness, dtype=float)
            v = FeasibilityVerdict(Status.FEASIBLE, w / np.linalg.norm(w), Method.EXTERNAL)
        elif reply == "unsat":
            v = FeasibilityVerdict(Status.INFEASIBLE, None, Method.EXTERNAL)
        else:
            v = FeasibilityVerdict(Status.UNKNOWN, None, Method.EXTERNAL)
        return self._store(key, v)

    def feasible_word(self, word, policy=None) -> FeasibilityVerdict:
        word = tuple(word)
        cached = self._verdicts.get((word, ""))
        pol = self.policy if policy is None else policy
        if cached is not None and (
            cached.status is not Status.UNKNOWN or pol is Policy.CONSERVATIVE
        ):
            return cached
        return self.feasible(sigma_cone(self.disc, word), policy=policy)
