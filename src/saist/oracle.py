"""Feasibility oracle for sigma-cones: seeded sampling first, exact decisions second.

`compute_saist` decides the words of plants with n != 2 here; planar
plants are decided on arcs (`saist.arcs`).  The 2-D pool and engine serve
explicit cones.
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

GOLDEN = 0.6180339887498949
BUDGET = 10_000  # witness-ascent steps per query, shared by its starts
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
    and the pool's worst margin per point; then the parent word's witnesses
    and their worst margins, as scored when the cone was built (None if
    there were none)."""

    cone: ConeSystem
    phi: np.ndarray
    worst: np.ndarray
    starts: Optional[np.ndarray] = None
    start_worst: Optional[np.ndarray] = None


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

    `compute_saist` uses it for n != 2; every planar plant goes to
    :class:`saist.arcs.ArcOracle`.  Explicit cones, 2-D ones included, such
    as those of `epsilon_inflation_empty`, always come here.

    A cone has one path to its verdict: the point pool, then for n >= 3 an
    emptiness certificate, then for n >= 4 a witness ascent, then the
    engine.  The first verdict for a word, Unknown included, is cached and
    returned from then on.  `feasible_words` decides a batch of words, such
    as one level of an abstraction, in order: it first builds the cones of
    the uncached ones a chunk at a time, each word's cone its parent's plus
    one letter's forms, in one batched step per level with the pool
    evaluated on the new forms only and the parents' witnesses scored in
    one gathered evaluation; for n >= 3 it then certifies every cone the
    pool misses in one lockstep descent (`s_procedure_certificates`); then
    each word goes through `feasible_word`, which builds a lone word's cone
    as a batch of one, and `feasible`, which takes the batch's certificate
    and certifies a cone from outside a batch, such as an explicit one, as
    a batch of one.  The parents kept
    are the words passed to the last `retain`, plus the feasible words
    decided since.  `engine` is anything with
    ``check(cone) -> ('sat'|'unsat'|'unknown', witness)``; the default is
    :class:`saist.decider.BuiltinDecider`.
    """

    def __init__(self, disc: DiscretizedSystem, engine=None, seed=0, pool_size=512):
        self.disc = disc
        self.engine = BuiltinDecider() if engine is None else engine
        self.pool = _unit_pool(disc.n, pool_size, seed)
        self._verdicts = {}
        self._witnesses = {}
        n = disc.n
        root = ConeSystem._of((), np.empty((0, n, n)), np.empty(0))
        self._root = _Cone(root, np.eye(n), _worst(self.pool, root.mats, root.signs))
        self._memo = {}
        self._certificates = {}  # ConeSystem -> weights or None, for the batch being decided
        self.stats = {"sampling_hits": 0, "certified": 0, "engine_calls": 0, "queries": 0}

    @property
    def alphabet(self):
        return range(1, self.disc.kbar + 1)

    def witnesses(self, word):
        return self._witnesses.get(tuple(word), [])

    def _record_witness(self, word, x):
        self._witnesses.setdefault(tuple(word), []).append(np.asarray(x, dtype=float))

    def _pool(self, cone: ConeSystem):
        """The pool's worst margins on the cone, then the parent word's
        witnesses and their worst margins (None and None if it has none)."""
        memo = self._memo.get(cone.word)
        kept = memo is not None and memo.cone is cone
        worst = memo.worst if kept else _worst(self.pool, cone.mats, cone.signs)
        ws = self.witnesses(cone.word[:-1])
        if not ws:
            return worst, None, None
        if kept and memo.starts is not None and len(memo.starts) == len(ws):
            return worst, memo.starts, memo.start_worst
        # a cone built elsewhere, or witnesses recorded since it was built
        starts = np.vstack(ws)
        return worst, starts, _worst(starts, cone.mats, cone.signs)

    def _pool_hit(self, worst, starts, start_worst):
        """The point with the largest worst margin, normalised, if that
        margin clears WITNESS_TOL, else None: the first maximum, pool points
        before witnesses."""
        best = int(np.argmax(worst))
        x, top = self.pool[best], worst[best]
        if starts is not None:
            j = int(np.argmax(start_worst))
            if start_worst[j] > top:
                x, top = starts[j], start_worst[j]
        return x / np.linalg.norm(x) if top > WITNESS_TOL else None

    def _ascend(self, cone, worst, starts, start_worst):
        """Locally improve the most promising points; a witness or None."""
        pts = self.pool
        if starts is not None:
            pts, worst = np.vstack([pts, starts]), np.concatenate([worst, start_worst])
        order = np.argsort(worst)[::-1][:8]
        steps = max(20, BUDGET // max(1, len(order)))
        for i in order:
            x, mm = kernels.min_margin_ascent(
                pts[i], cone.mats, cone.signs, steps=steps, tol=WITNESS_TOL
            )
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
        S-procedure emptiness certificate, the one `feasible_words` found
        for the cone's batch or else one of its own; then, for n >= 4, a
        witness ascent; then the engine, which decides n <= 3 on curves."""
        key = (tuple(cone.word), cone.variant)
        self.stats["queries"] += 1
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        pool = self._pool(cone)
        x = self._pool_hit(*pool)
        if x is not None:
            return self._sampled(key, x)
        if cone.n >= 3:
            if cone in self._certificates:
                tau = self._certificates.pop(cone)
            else:
                tau = s_procedure_certificate(cone)
            if tau is not None:
                self.stats["certified"] += 1
                return self._store(
                    key, FeasibilityVerdict(Status.INFEASIBLE, None, Method.CERTIFICATE)
                )
        if cone.n >= 4:
            x = self._ascend(cone, *pool)
            if x is not None:
                return self._sampled(key, x)
        self.stats["engine_calls"] += 1
        reply, witness = self.engine.check(cone)
        if reply == "sat":
            w = np.asarray(witness, dtype=float)
            v = FeasibilityVerdict(Status.FEASIBLE, w / np.linalg.norm(w), Method.ENGINE)
        elif reply == "unsat":
            v = FeasibilityVerdict(Status.INFEASIBLE, None, Method.ENGINE)
        else:
            v = FeasibilityVerdict(Status.UNKNOWN, None, Method.ENGINE)
        return self._store(key, v)

    def _extend_words(self, words):
        """The cones of `words`, built and kept unless already kept.

        Each cone is its parent's plus one letter's forms.  The words and
        whatever ancestors they miss are built a level at a time, one
        batched `letter_forms` step per level, with the pool evaluated on
        the level's new forms in one einsum; the ancestors are not kept.
        The parents' witnesses are then scored against each word's full
        form stack in one gathered evaluation.
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
        self._score_starts([w for w in dict.fromkeys(words) if w in built])
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

    def _score_starts(self, words):
        """Score each kept word's parent witnesses against the word's full
        form stack, all pairs in one gathered evaluation."""
        pairs = [(w, np.vstack(ws)) for w in words if (ws := self.witnesses(w[:-1]))]
        if not pairs:
            return
        stacks = [self._memo[w].cone for w, starts in pairs for _ in starts]
        sizes = np.array([len(c.signs) for c in stacks])
        worst = np.full(len(stacks), np.inf)  # a word without forms: no margin
        if sizes.any():
            q = kernels.paired_margins(
                np.repeat(np.concatenate([starts for _, starts in pairs]), sizes, axis=0),
                np.concatenate([c.mats for c in stacks]),
                np.concatenate([c.signs for c in stacks]),
            )
            nonzero = sizes > 0
            worst[nonzero] = np.minimum.reduceat(q, (np.cumsum(sizes) - sizes)[nonzero])
        at = 0
        for w, starts in pairs:
            self._memo[w] = self._memo[w]._replace(
                starts=starts, start_worst=worst[at : at + len(starts)]
            )
            at += len(starts)

    def known_infeasible(self, word):
        """Whether the word's cone is already decided empty."""
        v = self._verdicts.get((tuple(word), ""))
        return v is not None and not v.maybe_feasible

    def known_feasible(self, word):
        """Whether the word's cone is already decided FEASIBLE, with a witness."""
        v = self._verdicts.get((tuple(word), ""))
        return v is not None and v.is_feasible

    def retain(self, words):
        """Forget the cones of every word not in `words`."""
        words = set(words)
        self._memo = {w: m for w, m in self._memo.items() if w in words}

    def feasible_word(self, word) -> FeasibilityVerdict:
        """The word's verdict; an unbuilt cone is built as a batch of one."""
        word = tuple(word)
        cached = self._verdicts.get((word, ""))
        if cached is not None:
            return cached
        memo = self._memo.get(word) or self._extend_words([word])[0]
        v = self.feasible(memo.cone)
        if not v.maybe_feasible:
            del self._memo[memo.cone.word]
        return v

    def feasible_words(self, words) -> list:
        """`feasible_word` of each word, in order.  The words are taken in
        runs in which no word's parent is an undecided word before it, so
        that a parent's witnesses reach its children's pools as they do
        word by word.  Before a run is decided, the cones of its uncached
        words are built a chunk at a time, each chunk adding at most
        CHUNK_FORMS forms save that it always takes one word, and for n >= 3
        the words the pool misses are certified in one batch."""
        words = [tuple(w) for w in words]
        out, start = [], 0
        while start < len(words):
            run, pending = [], set()
            for w in islice(words, start, None):
                if w[:-1] in pending:
                    break
                run.append(w)
                if (w, "") not in self._verdicts:
                    pending.add(w)
            self._prepare(run)
            out += [self.feasible_word(w) for w in run]
            start += len(run)
        return out

    def _prepare(self, words):
        """Build the cones of the uncached words, and certify for n >= 3
        those the pool misses, all in one `s_procedure_certificates` batch."""
        for i, w in enumerate(words):
            if (w, "") not in self._verdicts and w not in self._memo:
                self._extend_words(self._chunk(islice(words, i, None)))
        if self.disc.n < 3:
            return
        cones = dict.fromkeys(self._memo[w].cone for w in words if (w, "") not in self._verdicts)
        misses = [cone for cone in cones if self._pool_hit(*self._pool(cone)) is None]
        self._certificates = dict(zip(misses, s_procedure_certificates(misses)))

    def _chunk(self, words):
        """The leading words to build: uncached, not kept, CHUNK_FORMS forms."""
        chunk, forms = {}, 0
        for w in words:
            if w in chunk or (w, "") in self._verdicts or w in self._memo:
                continue
            forms += int(w[-1]) if w else 0  # k forms at most
            if chunk and forms > CHUNK_FORMS:
                break
            chunk[w] = None
        return list(chunk)
