"""Traffic abstractions of PETC sampling behavior.

States are feasible IST words; transitions follow the domino rule (uniform
length) or its prefix-compatible generalization (mixed lengths after targeted
refinement).  An abstraction keeps its transitions as (src, dst) index
arrays into its sorted states, and its graph weighs each edge by the first
letter of its source, an integer; the word pairs are spelled out only when
read.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyRefinement
from .quantgraph import WeightedGraph


@dataclass(frozen=True, eq=False)
class TrafficAbstraction:
    """States: lexicographically ordered tuple of IST words (tuples of ints)."""

    states: tuple
    edges: tuple  # (src, dst) int64 index arrays into states, in word-pair order
    depth: int

    def __eq__(self, other):
        if not isinstance(other, TrafficAbstraction):
            return NotImplemented
        same = (self.states, self.depth) == (other.states, other.depth)
        return same and all(map(np.array_equal, self.edges, other.edges))

    def output(self, word):
        return word[0]

    @property
    def n_states(self):
        return len(self.states)

    @cached_property
    def transitions(self) -> tuple:
        """(src word, dst word) pairs, in `edges` order."""
        return tuple(zip(*(map(self.states.__getitem__, ends.tolist()) for ends in self.edges)))

    def as_weighted_graph(self) -> WeightedGraph:
        """Simple-WTS form: every edge out of u weighs output(u)."""
        src, dst = self.edges
        outputs = np.array([self.output(w) for w in self.states], dtype=np.int64)
        return WeightedGraph.from_arrays(self.states, src, dst, outputs[src])

    def to_dot(self) -> str:
        lines = ["digraph abstraction {"]
        for i, w in enumerate(self.states):
            label = ",".join(str(k) for k in w)
            lines.append(f'  s{i} [label="({label})" weight={w[0]}];')
        for u, v in zip(*(ends.tolist() for ends in self.edges)):
            lines.append(f"  s{u} -> s{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def abstraction_of(states, depth) -> TrafficAbstraction:
    """The abstraction on the given states under the prefix-compatible
    domino rule, which for states of one length is the domino rule."""
    states = tuple(sorted(states))
    return TrafficAbstraction(states=states, edges=index_edges(states), depth=depth)


def build_l_complete(disc, oracle, l: int, prev=None) -> TrafficAbstraction:
    """Abstraction whose states are all feasible IST words of length l.

    Level j+1 candidates are v + w[-1:] for each edge v -> w of level j,
    that is w + (k,) where both w and w[1:] + (k,) passed level j; prefix
    monotonicity makes this exhaustive and it keeps the query count near
    the final edge count.  Each level goes to the oracle as one batch.
    Given `prev`, the l'-complete abstraction of the same oracle for some
    l' <= l, the levels up to l' are taken from it instead of being looked
    up again.
    """
    if l < 1:
        raise ValueError("depth must be >= 1")
    if prev is None:
        prev = abstraction_of(_feasible(oracle, [(k,) for k in oracle.alphabet]), 1)
    elif prev.depth > l or any(len(w) != prev.depth for w in prev.states):
        raise ValueError(f"prev must be l'-complete for some l' <= {l}")
    for depth in range(prev.depth + 1, l + 1):
        prev = abstraction_of(_feasible(oracle, [v + w[-1:] for v, w in prev.transitions]), depth)
    oracle.retain(prev.states)
    return prev


def _feasible(oracle, words) -> list:
    """The words the oracle may not drop, decided as one batch."""
    return [w for w, v in zip(words, oracle.feasible_words(words)) if v.maybe_feasible]


def index_edges(states) -> tuple:
    """The prefix-compatible domino rule on sorted states as (src, dst)
    index arrays, in sorted word-pair order: v -> w iff w extends v[1:] or
    is a proper prefix of it.

    The states that extend a word are consecutive, so one pass over the
    states maps each v[1:] to the range of its extensions; only states of
    mixed lengths have proper prefixes of v[1:] among them.
    """
    lengths = sorted({len(w) for w in states})
    block = {}  # prefix -> [first, last + 1] of the states extending it
    for j in {m - 1 for m in lengths}:
        for i, w in enumerate(states):
            if len(w) >= j:
                block.setdefault(w[:j], [i, 0])[1] = i + 1
    lo, hi = np.array([block.get(v[1:], (0, 0)) for v in states], dtype=np.int64).reshape(-1, 2).T
    count = hi - lo
    src = np.repeat(np.arange(len(states)), count)
    dst = np.arange(len(src)) + np.repeat(lo - np.cumsum(count) + count, count)
    if len(lengths) > 1:
        pos = {w: i for i, w in enumerate(states)}
        pre = [
            (i, pos[v[1 : j + 1]])
            for i, v in enumerate(states)
            for j in lengths
            if j < len(v) - 1 and v[1 : j + 1] in pos
        ]
        if pre:
            src, dst = np.concatenate([[src, dst], np.array(pre, dtype=np.int64).T], axis=1)
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
    return src, dst


def refine_sac(abstraction: TrafficAbstraction, sac, oracle) -> TrafficAbstraction:
    """Split each state along the candidate cycle into its feasible one-letter
    extensions; everything else is kept as is.  As in `build_l_complete`,
    w + (k,) is not queried once w[1:] + (k,) is known infeasible."""
    sac = {tuple(w) for w in sac}
    unknown = sac - set(abstraction.states)
    if unknown:
        raise ValueError(f"cycle states not in abstraction: {sorted(unknown)}")
    alphabet = list(oracle.alphabet)
    new_states = []
    for w in abstraction.states:
        if w not in sac:
            new_states.append(w)
            continue
        kept = _feasible(
            oracle, [w + (k,) for k in alphabet if not oracle.known_infeasible(w[1:] + (k,))]
        )
        if not kept:
            raise EmptyRefinement(
                f"word {w} has no feasible extension; oracle verdicts are inconsistent"
            )
        new_states.extend(kept)
    abstraction = abstraction_of(new_states, max(map(len, new_states)))
    oracle.retain(abstraction.states)
    return abstraction
