"""2-D IST words decided on arcs of the projective circle.

In 2-D a state is a direction, an angle t in [0, pi).  The directions that
fire at k, R(k), are a finite union of arcs: on the circle every form is
a + r cos(2t - p), so each of N(m) <= 0 (m < k) and N(k) > 0 (absent for
k = kbar) holds on one arc.  The states of the word k·s are

    R(k·s) = R(k) ∩ M(k)^-1 R(s),

one pull-back of a few endpoints and one intersection away from the
suffix's set.  The pull-back maps the endpoints through the adjugate
adj M(k) = det M(k) · M(k)^-1, which needs no division and points the same
way up to sign, which the projective circle ignores; so a singular or
nearly singular M(k) needs no special case (`pull_back`).  Sets are kept
closed: a strict form's boundary stays in, and two arcs that miss each
other by at most ARC_SLACK radians still meet in a point.  So a word is
dropped only when its set is empty by more than rounding, and the
abstraction keeps every feasible word.

An arc set is a tuple of (lo, hi) pairs, sorted by lo, disjoint, with
0 <= lo < pi and lo <= hi <= lo + pi; hi may run past pi, over the wrap.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .cones import checked_word

PI = math.pi
ARC_SLACK = 1e-9  # radians by which two arcs may miss each other and still meet
ROUNDING = 1e-15  # relative error, a few float64 ulps, of an endpoint mapped through adj M
FULL = ((0.0, PI),)


def _mod_pi(t):
    """t reduced to [0, pi)."""
    t %= PI
    return 0.0 if t >= PI else t


def form_arc(P, sign):
    """The closed arc where sign * x'Px >= 0, as an arc set."""
    a = sign * 0.5 * (P[0][0] + P[1][1])
    b = sign * 0.5 * (P[0][0] - P[1][1])
    g = sign * P[0][1]
    r = math.hypot(b, g)
    if r <= 1e-300:  # a constant form
        return FULL if a >= 0.0 else ()
    u = -a / r  # the arc is cos(2t - p) >= u
    if u <= -1.0:
        return FULL
    if u > 1.0:
        return ()
    p, c = math.atan2(g, b), math.acos(u)
    lo = _mod_pi(0.5 * (p - c))
    return ((lo, lo + c),)


def normalized(pieces):
    """The arc set covered by (lo, hi) pieces of length at most pi."""
    pieces = sorted((lo - PI, hi - PI) if lo >= PI else (lo, hi) for lo, hi in pieces)
    out = []
    for lo, hi in pieces:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    while len(out) > 1 and out[-1][1] >= out[0][0] + PI:  # the last runs over the wrap
        lo, hi = out.pop()
        out[0] = (lo, max(hi, out[0][1] + PI))
        out.append(out.pop(0))
    if any(hi - lo >= PI for lo, hi in out):
        return FULL
    return tuple(out)


def intersect(A, B):
    """A ∩ B; arcs that miss each other by at most ARC_SLACK meet in a point."""
    pieces = []
    for lo1, hi1 in A:
        for lo2, hi2 in B:
            for shift in (-PI, 0.0, PI):
                lo, hi = max(lo1, lo2 + shift), min(hi1, hi2 + shift)
                if hi >= lo - ARC_SLACK:
                    pieces.append((lo, max(lo, hi)))
    return normalized(pieces)


def pull_back(arcs, adj, flip):
    """M^-1 arcs, the directions that M maps into the closed `arcs`, given
    adj M as the flat (a, b, c, d) and whether det M < 0, which reverses
    orientation.

    Each arc's endpoint vectors go through adj M; the image runs
    counterclockwise from the first to the second, or the other way round
    when flipped, through an angle in [0, pi] read off their cross and dot
    products.  A rank-1 M, with range u, maps both endpoints onto its
    kernel: they point opposite ways (FULL) when the arc holds u, and the
    same way (the kernel point) when it does not.  Rounding can turn the
    direction of an endpoint that adj M shrinks to under ROUNDING /
    ARC_SLACK of its norm by more than ARC_SLACK.  Such an endpoint lies
    near the range of a nearly singular M (on u when its image is zero),
    and the pull-back is then FULL, which holds every preimage.
    """
    a, b, c, d = adj
    tiny = (ROUNDING / ARC_SLACK) ** 2 * (a * a + b * b + c * c + d * d)
    pieces = []
    for lo, hi in arcs:
        x0, y0, x1, y1 = math.cos(lo), math.sin(lo), math.cos(hi), math.sin(hi)
        u0, u1 = a * x0 + b * y0, c * x0 + d * y0
        v0, v1 = a * x1 + b * y1, c * x1 + d * y1
        if u0 * u0 + u1 * u1 <= tiny or v0 * v0 + v1 * v1 <= tiny:
            return FULL
        if flip:
            u0, u1, v0, v1 = v0, v1, u0, u1
        width = math.atan2(u0 * v1 - u1 * v0, u0 * v0 + u1 * v1)
        if width < 0.0:  # rounding at a point arc or a full turn
            width = 0.0 if width > -0.5 * PI else PI
        lo = _mod_pi(math.atan2(u1, u0))
        pieces.append((lo, lo + width))
    return normalized(pieces)


def letter_arcs(N, k, kbar):
    """R(k): where N(m) <= 0 for every m < k and, for k < kbar, N(k) > 0,
    closed."""
    arcs = FULL
    for m in range(1, k):
        arcs = intersect(arcs, form_arc(N[m - 1], -1.0))
    if k < kbar:
        arcs = intersect(arcs, form_arc(N[k - 1], 1.0))
    return arcs


def widest_midpoint(arcs):
    """The unit direction at the midpoint of the widest arc, first if tied."""
    lo, hi = max(arcs, key=lambda arc: arc[1] - arc[0])
    t = 0.5 * (lo + hi)
    return np.array([math.cos(t), math.sin(t)])


class ArcVerdict(NamedTuple):
    """A word's verdict: feasible with a witness direction, or infeasible.
    Never Unknown."""

    witness: Optional[np.ndarray]

    @property
    def is_feasible(self):
        return self.witness is not None

    maybe_feasible = is_feasible


class ArcOracle:
    """Decides the IST words of a planar plant.

    A word's set is R(k·s) = R(k) ∩ M(k)^-1 R(s), from its suffix's set,
    which is the kept set of a word of the previous level in a full build
    and is built the same way, recursively, when missing.  The sets kept
    are those of the words passed to the last `retain`, plus those decided
    since.  Every verdict is cached.  `stats` keeps ConeOracle's counters,
    all 0 since no cone is decided, and counts the words decided on arcs
    in `arc_words`.
    """

    def __init__(self, disc):
        if disc.n != 2:
            raise ValueError("arcs need a planar plant")
        self.disc = disc
        self._adj = [(d, -b, -c, a) for (a, b), (c, d) in disc.M.tolist()]
        self._flip = [a * d - b * c < 0.0 for (a, b), (c, d) in disc.M.tolist()]
        N = disc.N.tolist()
        self._letters = [letter_arcs(N, k, disc.kbar) for k in self.alphabet]
        self._sets = {}
        self._verdicts = {}
        self.stats = {
            "sampling_hits": 0, "certified": 0, "engine_calls": 0, "queries": 0, "arc_words": 0
        }

    @property
    def alphabet(self):
        return range(1, self.disc.kbar + 1)

    def _arcs(self, word):
        """The word's arc set, from its suffix's.  A newly decided word's
        verdict is cached, and a nonempty set kept until the next `retain`."""
        if self.known_infeasible(word):
            return ()
        arcs = self._sets.get(word)
        if arcs is None:
            k, suffix = word[0], word[1:]
            arcs = self._letters[k - 1]
            if suffix and arcs:
                pulled = pull_back(self._arcs(suffix), self._adj[k - 1], self._flip[k - 1])
                arcs = intersect(arcs, pulled)
            if arcs:
                self._sets[word] = arcs
            if word not in self._verdicts:
                self.stats["arc_words"] += 1
                self._verdicts[word] = ArcVerdict(widest_midpoint(arcs) if arcs else None)
        return arcs

    def feasible_word(self, word) -> ArcVerdict:
        word = tuple(map(int, word))
        if word not in self._verdicts:
            self._arcs(checked_word(self.disc, word))
        return self._verdicts[word]

    def feasible_words(self, words) -> list:
        return [self.feasible_word(w) for w in words]

    def known_infeasible(self, word):
        """Whether the word is already decided empty."""
        v = self._verdicts.get(tuple(word))
        return v is not None and not v.maybe_feasible

    def known_feasible(self, word):
        """Whether the word is already decided feasible."""
        v = self._verdicts.get(tuple(word))
        return v is not None and v.is_feasible

    def retain(self, words):
        """Forget the sets of every word not in `words`."""
        self._sets = {w: self._sets[w] for w in set(words) if w in self._sets}
