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

So a word costs one verdict lookup, one pull-back and one intersection: a
batch of words is validated once, a verdict holds the word's set, and a
witness direction is computed only when read.

An arc set is a tuple of (lo, hi) pairs, sorted by lo, disjoint, with
0 <= lo < pi and lo <= hi <= lo + pi; hi may run past pi, over the wrap.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .oracle import WordOracle

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
    if len(pieces) < 2:  # most sets are one arc: nothing to sort or merge
        if not pieces:
            return ()
        ((lo, hi),) = pieces
        if lo >= PI:
            lo, hi = lo - PI, hi - PI
        return FULL if hi - lo >= PI else ((lo, hi),)
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
    """A word's verdict: its closed arc set, feasible when nonempty.  Never
    Unknown."""

    arcs: tuple

    @property
    def is_feasible(self):
        return bool(self.arcs)

    maybe_feasible = is_feasible

    @property
    def witness(self):
        """A direction in the set, computed when read: `widest_midpoint`."""
        return widest_midpoint(self.arcs) if self.arcs else None


class ArcOracle(WordOracle):
    """Decides the IST words of a planar plant.

    A word's set is R(k·s) = R(k) ∩ M(k)^-1 R(s), from its suffix's set,
    which is the verdict of a word of the previous level in a full build
    and is decided the same way, recursively, when missing.  Every verdict
    is cached with its set.  `stats` keeps ConeOracle's counters, all 0
    since no cone is decided, and counts the words decided on arcs in
    `arc_words`.
    """

    def __init__(self, disc):
        if disc.n != 2:
            raise ValueError("arcs need a planar plant")
        super().__init__(disc)
        self._adj = [(d, -b, -c, a) for (a, b), (c, d) in disc.M.tolist()]
        self._flip = [a * d - b * c < 0.0 for (a, b), (c, d) in disc.M.tolist()]
        N = disc.N.tolist()
        self._letters = [letter_arcs(N, k, disc.kbar) for k in self.alphabet]
        self.stats = {
            "sampling_hits": 0, "certified": 0, "engine_calls": 0, "queries": 0, "arc_words": 0
        }

    def _verdict(self, word):
        """The word's verdict, cached; an undecided word's set comes from its
        suffix's."""
        v = self._verdicts.get(word)
        if v is None:
            k, suffix = word[0], word[1:]
            arcs = self._letters[k - 1]
            if suffix and arcs:
                pulled = pull_back(self._verdict(suffix).arcs, self._adj[k - 1], self._flip[k - 1])
                arcs = intersect(arcs, pulled)
            self.stats["arc_words"] += 1
            v = self._verdicts[word] = ArcVerdict(arcs)
        return v

    def feasible_word(self, word) -> ArcVerdict:
        return self.feasible_words([tuple(map(int, word))])[0]

    def feasible_words(self, words) -> list:
        """The verdicts of a batch of words, tuples of ints, checked once:
        ConfigError unless every word is nonempty over 1..kbar."""
        words, kbar = list(words), self.disc.kbar
        if not all(words) or words and (min(map(min, words)) < 1 or max(map(max, words)) > kbar):
            raise ConfigError(f"words must be nonempty over 1..{kbar}")
        return [self._verdict(w) for w in words]

    def retain(self, words):
        """Nothing to forget: a word's set is its verdict's."""
