"""Traffic abstractions of PETC sampling behavior.

States are feasible IST words; transitions follow the domino rule (uniform
length) or its prefix-compatible generalization (mixed lengths after targeted
refinement).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyRefinement
from .quantgraph import WeightedGraph


@dataclass(frozen=True)
class TrafficAbstraction:
    """States: lexicographically ordered tuple of IST words (tuples of ints)."""

    states: tuple
    transitions: tuple  # (src word, dst word) pairs
    depth: int

    def output(self, word):
        return word[0]

    @property
    def n_states(self):
        return len(self.states)

    def as_weighted_graph(self) -> WeightedGraph:
        """Simple-WTS form: every edge out of u weighs output(u)."""
        idx = {w: i for i, w in enumerate(self.states)}
        weight = {w: Fraction(self.output(w)) for w in self.states}
        edges = tuple((idx[u], idx[v], weight[u]) for u, v in self.transitions)
        return WeightedGraph(labels=self.states, edges=edges)

    def to_dot(self) -> str:
        lines = ["digraph abstraction {"]
        idx = {w: i for i, w in enumerate(self.states)}
        for i, w in enumerate(self.states):
            label = ",".join(str(k) for k in w)
            lines.append(f'  s{i} [label="({label})" weight={w[0]}];')
        for u, v in self.transitions:
            lines.append(f"  s{idx[u]} -> s{idx[v]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_l_complete(disc, oracle, l: int, prev=None) -> TrafficAbstraction:
    """Abstraction whose states are all feasible IST words of length l.

    Level j+1 candidates are w + (k,) where both w and w[1:] + (k,) passed
    level j; prefix monotonicity makes this exhaustive and it keeps the
    query count near the final edge count.  Each level goes to the oracle
    as one batch.  Given `prev`, the l'-complete
    abstraction of the same oracle for some l' <= l, the levels up to l'
    are taken from it instead of being looked up again.
    """
    if l < 1:
        raise ValueError("depth must be >= 1")
    if prev is None:
        level = _feasible(oracle, [(k,) for k in oracle.alphabet])
        depth = 1
    elif prev.depth > l or any(len(w) != prev.depth for w in prev.states):
        raise ValueError(f"prev must be l'-complete for some l' <= {l}")
    else:
        level, depth = list(prev.states), prev.depth
    for _ in range(depth, l):
        # the letters that may follow each prefix, ascending as level is sorted
        last = {}
        for u in level:
            last.setdefault(u[:-1], []).append(u[-1])
        level = _feasible(oracle, [w + (k,) for w in level for k in last.get(w[1:], ())])
    states = tuple(sorted(level))
    oracle.retain(states)
    return TrafficAbstraction(
        states=states, transitions=domino_transitions(states), depth=l
    )


def _feasible(oracle, words) -> list:
    """The words the oracle may not drop, decided as one batch."""
    return [w for w, v in zip(words, oracle.feasible_words(words)) if v.maybe_feasible]


def domino_transitions(states) -> tuple:
    """Edges (k·s, s·k') for uniform-length words; complete digraph at l=1."""
    states = tuple(states)
    if states and any(len(w) != len(states[0]) for w in states):
        raise ValueError("domino rule needs uniform word length")
    by_prefix = {}
    for w in states:
        by_prefix.setdefault(w[:-1], []).append(w)
    out = []
    for v in states:
        for w in by_prefix.get(v[1:], ()):
            out.append((v, w))
    return tuple(sorted(out))


def mixed_transitions(states) -> tuple:
    """Prefix-compatible domino for mixed-length states: edge (v, w) iff the
    1-step suffix of v and the word w agree on their common prefix.

    That is, w is a prefix of v[1:] or v[1:] is a prefix of w, so each v
    looks up the states among the prefixes of v[1:] and the states that
    extend v[1:], instead of meeting every w.
    """
    states = tuple(states)
    same, extending = {}, {}
    for w in states:
        same.setdefault(w, []).append(w)
        for j in range(len(w) + 1):
            extending.setdefault(w[:j], []).append(w)
    out = []
    for v in states:
        s = v[1:]
        for j in range(len(s)):
            out.extend((v, w) for w in same.get(s[:j], ()))
        out.extend((v, w) for w in extending.get(s, ()))
    return tuple(sorted(out))


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
    states = tuple(sorted(new_states))
    oracle.retain(states)
    return TrafficAbstraction(
        states=states,
        transitions=mixed_transitions(states),
        depth=max(len(w) for w in states),
    )
