"""Feasibility oracle for sigma-cones: seeded sampling first, exact decisions second.

It decides the words of plants with n != 2; planar plants are decided on
arcs (`saist.arcs`), and this oracle refuses them.
"""

import enum
from itertools import islice
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .cones import ConeSystem, checked_word, letter_forms
from .decider import (
    WITNESS_TOL,
    BuiltinDecider,
    s_procedure_certificate,
    s_procedure_certificates,
)
from .petc import DiscretizedSystem

POOL_SIZE = 512  # seeded sample points on the sphere
BUDGET = 10_000  # witness-ascent steps per query, shared by its start points
CHUNK_FORMS = 64  # new forms per batched extension: caps the (pool, forms) margins


class Status(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


class Method(enum.Enum):
    SAMPLING = "sampling"
    CERTIFICATE = "certificate"
    ENGINE = "engine"


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
    """A word's cone with what its children extend: the cumulative matrix
    and the pool's worst margin per point."""

    cone: ConeSystem
    phi: np.ndarray
    worst: np.ndarray


def _worst(pts, mats, signs):
    """Each point's smallest margin over the forms; +inf when there are none."""
    if not len(signs):
        return np.full(len(pts), np.inf)
    return kernels.margins(pts, mats, signs).min(axis=1)


def _unit_pool(n, size, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class ConeOracle:
    """Decides sigma-cone nonemptiness for one discretized PETC system
    with n != 2; a planar plant raises ValueError, since every one goes to
    :class:`saist.arcs.ArcOracle`.

    A cone has one path to its verdict, and the verdict is a function of
    the cone alone: the seeded point pool, then for n >= 3 an emptiness
    certificate, then for n >= 4 a witness ascent from the best pool
    points, then the engine.  `feasible_word` caches the first verdict for
    a word, Unknown included, and returns it from then on; `feasible`
    decides the cone it is given and caches nothing.  `feasible_words`
    decides a batch of words, such as one level of an abstraction: it
    builds the cones of the uncached ones a chunk at a time, each word's
    cone its parent's plus one letter's forms, in one batched step per
    level with the pool evaluated on the new forms only; for n >= 3 it
    certifies every cone the pool misses in one lockstep descent
    (`s_procedure_certificates`); then each word, in order, goes through
    `feasible_word`, which builds a lone word's cone as a batch of one,
    and `feasible`, which takes the batch's certificate and certifies a
    cone from outside a batch, such as an explicit one, as a batch of one.
    The parents kept are the words passed to the last `retain`, plus the
    feasible words decided since.  `engine` is anything with
    ``check(cone) -> ('sat'|'unsat'|'unknown', witness)``; the default is
    :class:`saist.decider.BuiltinDecider`.
    """

    def __init__(self, disc: DiscretizedSystem, engine=None, seed=0):
        if disc.n == 2:
            raise ValueError("planar plants are decided on arcs (saist.arcs.ArcOracle)")
        self.disc = disc
        self.engine = BuiltinDecider() if engine is None else engine
        self.pool = _unit_pool(disc.n, POOL_SIZE, seed)
        self._verdicts = {}
        n = disc.n
        root = ConeSystem._of((), np.empty((0, n, n)), np.empty(0))
        self._root = _Cone(root, np.eye(n), _worst(self.pool, root.mats, root.signs))
        self._memo = {}
        self._certificates = {}  # ConeSystem -> weights or None, for the batch being decided
        self.stats = {"sampling_hits": 0, "certified": 0, "engine_calls": 0, "queries": 0}

    @property
    def alphabet(self):
        return range(1, self.disc.kbar + 1)

    def _pool(self, cone: ConeSystem):
        """The pool's worst margin per point on the cone: kept from its
        build if the oracle built it, else evaluated."""
        memo = self._memo.get(cone.word)
        if memo is not None and memo.cone is cone:
            return memo.worst
        return _worst(self.pool, cone.mats, cone.signs)

    def _pool_hit(self, worst):
        """The pool point with the largest worst margin, normalised, if that
        margin clears WITNESS_TOL, else None; the first such point on a tie."""
        best = int(np.argmax(worst))
        x = self.pool[best]
        return x / np.linalg.norm(x) if worst[best] > WITNESS_TOL else None

    def _ascend(self, cone, worst):
        """Locally improve the 8 best pool points; a witness or None."""
        order = np.argsort(worst)[::-1][:8]
        steps = max(20, BUDGET // max(1, len(order)))
        for i in order:
            x, mm = kernels.min_margin_ascent(
                self.pool[i], cone.mats, cone.signs, steps=steps, tol=WITNESS_TOL
            )
            if mm > WITNESS_TOL:
                return x / np.linalg.norm(x)
        return None

    def _sampled(self, x):
        self.stats["sampling_hits"] += 1
        return FeasibilityVerdict(Status.FEASIBLE, x, Method.SAMPLING)

    def feasible(self, cone: ConeSystem) -> FeasibilityVerdict:
        """The cone's verdict, decided afresh: the pool; then, for n >= 3,
        an S-procedure emptiness certificate, the one `feasible_words` found
        for the cone's batch or else one of its own; then, for n >= 4, a
        witness ascent; then the engine, which decides n <= 3 on curves."""
        self.stats["queries"] += 1
        worst = self._pool(cone)
        x = self._pool_hit(worst)
        if x is not None:
            return self._sampled(x)
        if cone.n >= 3:
            if cone in self._certificates:
                tau = self._certificates.pop(cone)
            else:
                tau = s_procedure_certificate(cone)
            if tau is not None:
                self.stats["certified"] += 1
                return FeasibilityVerdict(Status.INFEASIBLE, None, Method.CERTIFICATE)
        if cone.n >= 4:
            x = self._ascend(cone, worst)
            if x is not None:
                return self._sampled(x)
        self.stats["engine_calls"] += 1
        reply, witness = self.engine.check(cone)
        if reply == "sat":
            w = np.asarray(witness, dtype=float)
            return FeasibilityVerdict(Status.FEASIBLE, w / np.linalg.norm(w), Method.ENGINE)
        if reply == "unsat":
            return FeasibilityVerdict(Status.INFEASIBLE, None, Method.ENGINE)
        return FeasibilityVerdict(Status.UNKNOWN, None, Method.ENGINE)

    def _extend_words(self, words):
        """The cones of `words`, built and kept unless already kept.

        Each cone is its parent's plus one letter's forms.  The words and
        whatever ancestors they miss are built a level at a time, one
        batched `letter_forms` step per level, with the pool evaluated on
        the level's new forms in one einsum; the ancestors are not kept.
        """
        words = [checked_word(self.disc, w) for w in words]
        built = {}
        for w in words:
            while w and w not in built and w not in self._memo:
                built[w] = None
                w = w[:-1]
        for depth in sorted({len(w) for w in built}):
            self._step([w for w in built if len(w) == depth], built)
        self._memo.update((w, built[w]) for w in words if w in built)
        return [self._memo[w] for w in words]

    def _step(self, level, built):
        """Build the cones of `level`, words of one length, into `built`."""
        parents = [built.get(w[:-1]) or self._memo.get(w[:-1]) or self._root for w in level]
        phis, forms, signs, counts = letter_forms(
            self.disc, np.array([p.phi for p in parents]), [w[-1] for w in level]
        )
        if len(forms):  # only kbar = 1 adds none
            # (forms, pool): each word's new forms are a block of rows
            margins = np.ascontiguousarray(kernels.margins(self.pool, forms, signs).T)
        ends = np.cumsum(counts).tolist()
        for w, parent, phi, hi, count in zip(level, parents, phis, ends, counts.tolist()):
            lo, cone = hi - count, parent.cone
            built[w] = _Cone(
                ConeSystem._of(
                    w,
                    np.concatenate([cone.mats, forms[lo:hi]]),
                    np.concatenate([cone.signs, signs[lo:hi]]),
                ),
                phi,
                np.minimum(parent.worst, margins[lo:hi].min(axis=0)) if count else parent.worst,
            )

    def known_infeasible(self, word):
        """Whether the word's cone is already decided empty."""
        v = self._verdicts.get(tuple(word))
        return v is not None and not v.maybe_feasible

    def known_feasible(self, word):
        """Whether the word's cone is already decided FEASIBLE, with a witness."""
        v = self._verdicts.get(tuple(word))
        return v is not None and v.is_feasible

    def retain(self, words):
        """Forget the cones of every word not in `words`."""
        words = set(words)
        self._memo = {w: m for w, m in self._memo.items() if w in words}

    def feasible_word(self, word) -> FeasibilityVerdict:
        """The word's cached verdict, else `feasible` of its cone, cached;
        an unbuilt cone is built as a batch of one."""
        word = tuple(word)
        cached = self._verdicts.get(word)
        if cached is not None:
            return cached
        memo = self._memo.get(word) or self._extend_words([word])[0]
        v = self._verdicts[memo.cone.word] = self.feasible(memo.cone)
        if not v.maybe_feasible:
            del self._memo[memo.cone.word]
        return v

    def feasible_words(self, words) -> list:
        """`feasible_word` of each word, in order, after `_prepare` has built
        the cones of the uncached words and, for n >= 3, certified in one
        batch those the pool misses.  Each verdict depends on its word's
        cone alone, so the order of the words changes none of them."""
        words = [tuple(w) for w in words]
        self._prepare(words)
        return [self.feasible_word(w) for w in words]

    def _prepare(self, words):
        """Build the cones of the uncached words a chunk at a time, each
        chunk adding at most CHUNK_FORMS forms save that it always takes one
        word, and certify for n >= 3 those the pool misses, all in one
        `s_procedure_certificates` batch."""
        for i, w in enumerate(words):
            if w not in self._verdicts and w not in self._memo:
                self._extend_words(self._chunk(islice(words, i, None)))
        if self.disc.n < 3:
            return
        cones = dict.fromkeys(self._memo[w].cone for w in words if w not in self._verdicts)
        misses = [cone for cone in cones if self._pool_hit(self._pool(cone)) is None]
        self._certificates = dict(zip(misses, s_procedure_certificates(misses)))

    def _chunk(self, words):
        """The leading words to build: uncached, not kept, CHUNK_FORMS forms."""
        chunk, forms = {}, 0
        for w in words:
            if w in chunk or w in self._verdicts or w in self._memo:
                continue
            forms += int(w[-1]) if w else 0  # k forms at most
            if chunk and forms > CHUNK_FORMS:
                break
            chunk[w] = None
        return list(chunk)
