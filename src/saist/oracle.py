"""Feasibility oracle for sigma-cones: seeded sampling first, exact decisions second."""

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .cones import ConeSystem, checked_word, cone_step, stack
from .decider import WITNESS_TOL, BuiltinDecider, s_procedure_certificate
from .petc import DiscretizedSystem

GOLDEN = 0.6180339887498949
BUDGET = 10_000  # witness-ascent steps per query, shared by its starts


class Status(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


class Method(enum.Enum):
    SAMPLING = "sampling"
    CERTIFICATE = "certificate"
    EXTERNAL = "external"


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


class _Cone(NamedTuple):
    """A word's cone with what its children extend: the cumulative matrix,
    the (mats, signs) stacks and the pool's worst margin per point."""

    cone: ConeSystem
    phi: np.ndarray
    mats: np.ndarray
    signs: np.ndarray
    worst: np.ndarray


def _worst(pts, mats, signs):
    """Each point's smallest margin over the forms; +inf when there are none."""
    if not len(signs):
        return np.full(len(pts), np.inf)
    return kernels.margins(pts, mats, signs).min(axis=1)


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

    A cone has one path to its verdict: the point pool, then for n >= 3 an
    emptiness certificate, then for n >= 4 a witness ascent, then the
    engine.  The first verdict for a word, Unknown included, is cached and
    returned from then on.  `feasible_word` extends the cone of the word's
    parent by one letter, with the pool's margins on the new forms only;
    the parents it keeps are the words passed to the last `retain`, plus
    the feasible words decided since.  `engine` is anything with
    ``check(cone) -> ('sat'|'unsat'|'unknown', witness)``, typically a
    :class:`saist.smtlib.SolverClient` or :class:`saist.decider.BuiltinDecider`.
    """

    def __init__(self, disc: DiscretizedSystem, engine="builtin", seed=0, pool_size=512):
        self.disc = disc
        self.engine = BuiltinDecider() if engine == "builtin" else engine
        self.pool = _unit_pool(disc.n, pool_size, seed)
        self._verdicts = {}
        self._witnesses = {}
        n = disc.n
        root = ConeSystem(word=(), constraints=())
        empty = np.empty((0, n, n)), np.empty(0)
        self._root = _Cone(root, np.eye(n), *empty, _worst(self.pool, *empty))
        self._memo = {}
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
        memo = self._memo.get(cone.word)
        if memo is not None and memo.cone is cone:
            mats, signs, worst = memo.mats, memo.signs, memo.worst
        else:
            mats, signs = cone.arrays()
            worst = _worst(self.pool, mats, signs)
        starts = [np.asarray(w)[None, :] for w in self.witnesses(cone.word[:-1])]
        if not starts:
            return self.pool, worst, mats, signs
        starts = np.vstack(starts)
        worst = np.concatenate([worst, _worst(starts, mats, signs)])
        return np.vstack([self.pool, starts]), worst, mats, signs

    def _ascend(self, pts, worst, mats, signs):
        """Locally improve the most promising points; a witness or None."""
        order = np.argsort(worst)[::-1][:8]
        steps = max(20, BUDGET // max(1, len(order)))
        for i in order:
            x, mm = kernels.min_margin_ascent(pts[i], mats, signs, steps=steps, tol=WITNESS_TOL)
            if mm > WITNESS_TOL:
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

    def feasible(self, cone: ConeSystem) -> FeasibilityVerdict:
        """The cached verdict, if any.  Else the pool; then, for n >= 3, an
        S-procedure emptiness certificate; then, for n >= 4, a witness
        ascent; then the engine, which decides n <= 3 on curves."""
        key = (tuple(cone.word), cone.variant)
        self.stats["queries"] += 1
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        pool = self._pool(cone)
        pts, worst, *_ = pool
        best = int(np.argmax(worst))
        if worst[best] > WITNESS_TOL:
            return self._sampled(key, pts[best] / np.linalg.norm(pts[best]))
        if cone.n >= 3 and s_procedure_certificate(cone) is not None:
            self.stats["certified"] += 1
            return self._store(key, FeasibilityVerdict(Status.INFEASIBLE, None, Method.CERTIFICATE))
        if cone.n >= 4:
            x = self._ascend(*pool)
            if x is not None:
                return self._sampled(key, x)
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

    def _extend(self, word):
        """The word's cone, from its parent's: one letter's forms are added
        and only they are evaluated on the pool."""
        if not word:
            return self._root
        memo = self._memo.get(word)
        if memo is not None:
            return memo
        parent = self._extend(word[:-1])
        phi, constraints = cone_step(self.disc, parent.phi, parent.cone.constraints, word[-1])
        new = constraints[len(parent.cone.constraints):]
        mats, signs, worst = parent.mats, parent.signs, parent.worst
        if new:
            new_mats, new_signs = stack(new)
            mats = np.concatenate([mats, new_mats])
            signs = np.concatenate([signs, new_signs])
            worst = np.minimum(worst, _worst(self.pool, new_mats, new_signs))
        return _Cone(ConeSystem(word=word, constraints=constraints), phi, mats, signs, worst)

    def known_infeasible(self, word):
        """Whether the word's cone is already decided empty."""
        v = self._verdicts.get((tuple(word), ""))
        return v is not None and not v.maybe_feasible

    def retain(self, words):
        """Forget the cones of every word not in `words`."""
        words = set(words)
        self._memo = {w: m for w, m in self._memo.items() if w in words}

    def feasible_word(self, word) -> FeasibilityVerdict:
        word = tuple(word)
        cached = self._verdicts.get((word, ""))
        if cached is not None:
            return cached
        word = checked_word(self.disc, word)
        memo = self._memo[word] = self._extend(word)
        v = self.feasible(memo.cone)
        if not v.maybe_feasible:
            del self._memo[word]
        return v
