"""Weighted-digraph algorithms: minimum/maximum mean cycle, SCCs, attractor bound.

Cycle means are exact rationals throughout; weights are scaled to integers
internally so Karp's recurrence runs on integer arrays: int64 where no number
it builds can overflow, exact Python ints otherwise.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm

import numpy as np

from .errors import ConfigError


def _ints(values, bound):
    """`values` as an int64 array if no number computed from them exceeds
    `bound` in magnitude, else as exact Python ints (dtype object): the one
    overflow rule for every integer array of this module."""
    return np.asarray(values, dtype=np.int64 if bound < 2**62 else object)


class WeightedGraph:
    """Vertices 0..n-1 with hashable labels and weighted directed edges,
    kept as index arrays and integer weights over one denominator.

    For simple weighted transition systems the weight of every outgoing edge
    of u equals the output of u; that convention is produced by callers, not
    enforced here.  The successor lists and the SCCs are computed once per
    graph, on first use.
    """

    def __init__(self, labels, edges):
        """Edges as (src, dst, weight) triples, each weight a rational."""
        weights = [w if type(w) is Fraction else Fraction(w) for _, _, w in edges]
        den = lcm(*{w.denominator for w in weights}) if weights else 1
        ints = [w.numerator * (den // w.denominator) for w in weights]
        src, dst = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2).T
        self._init_arrays(labels, src, dst, np.array(ints, dtype=object), den)

    @classmethod
    def from_arrays(cls, labels, src, dst, weights, den=1):
        """The graph of the edges src[e] -> dst[e] weighing weights[e] / den,
        given as integer arrays."""
        graph = cls.__new__(cls)
        graph._init_arrays(labels, src, dst, weights, den)
        return graph

    def _init_arrays(self, labels, src, dst, weights, den):
        n = len(labels)
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ConfigError("edge endpoint out of range")
        if n and np.bincount(src, minlength=n).min() == 0:
            raise ConfigError("graph must be non-blocking (every vertex needs a successor)")
        m = int(np.abs(weights).max(initial=0))
        self.labels, self.den = labels, den
        # (src, dst, w, m): the edge ends, the integer weights, their largest magnitude
        self.arrays = (src, dst, _ints(weights, m), m)

    @property
    def n(self):
        return len(self.labels)

    @cached_property
    def edges(self):
        """(src, dst, Fraction) per edge."""
        src, dst, w, _ = self.arrays
        return tuple(zip(src.tolist(), dst.tolist(), (Fraction(x, self.den) for x in w.tolist())))

    @cached_property
    def int_weights(self):
        """(ints, den): the edge weights as integers over their least common
        denominator."""
        return self.arrays[2].tolist(), self.den

    @cached_property
    def successors(self):
        """Each vertex's heads, in edge order."""
        src, dst = self.arrays[:2]
        order = np.argsort(src, kind="stable")
        heads = dst[order].tolist()
        cuts = np.searchsorted(src[order], np.arange(self.n + 1)).tolist()
        return [heads[a:b] for a, b in zip(cuts, cuts[1:])]

    @cached_property
    def sccs(self):
        """The strongly connected components, in reverse topological order."""
        return tarjan_scc(self.n, self.successors)

    @cached_property
    def scc_edges(self):
        """Per SCC, in `sccs` order, (src, dst, ids): the edges inside it,
        their ends numbered by position in the component, and their indices."""
        comp_of, local = [0] * self.n, [0] * self.n
        for c, comp in enumerate(self.sccs):
            for i, v in enumerate(comp):
                comp_of[v], local[v] = c, i
        comp_of, local = np.array(comp_of, dtype=np.int64), np.array(local, dtype=np.int64)
        src, dst = self.arrays[:2]
        inside = np.flatnonzero(comp_of[src] == comp_of[dst])
        inside = inside[np.argsort(comp_of[src[inside]], kind="stable")]
        cuts = np.searchsorted(comp_of[src[inside]], np.arange(len(self.sccs) + 1)).tolist()
        ends = np.stack([local[src[inside]], local[dst[inside]], inside])
        return [ends[:, a:b] for a, b in zip(cuts, cuts[1:])]

    def negated(self):
        src, dst, w, _ = self.arrays
        return WeightedGraph.from_arrays(self.labels, src, dst, -w, self.den)


@dataclass(frozen=True)
class CycleResult:
    value: Fraction
    cycle: tuple  # vertex indices, canonical rotation


def _label_key(label):
    # the string order fixes which candidate cycle the driver tries first,
    # and so the reported word: "(10,)" sorts before "(2,)"
    return str(label)


def canonical_rotation(cycle, keys):
    """Rotation of `cycle` minimizing the key sequence (ties by vertex ids)."""
    cycle = tuple(cycle)
    ks = tuple(_label_key(keys[v]) for v in cycle)
    r = min(range(len(cycle)), key=lambda r: (ks[r:] + ks[:r], cycle[r:] + cycle[:r]))
    return cycle[r:] + cycle[:r]


def tarjan_scc(n, adj):
    """Iterative Tarjan; returns components in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _karp_component(nv, src, dst, w):
    """Exact min cycle mean (as Fraction over the int weights) within one SCC
    of nv vertices, given its edges (src, dst), at least one, and their
    integer weights w."""
    reach = nv * int(np.abs(w).max())  # no walk of at most nv edges weighs more
    inf = 2 * reach + 1  # marks "no walk": clamped to it each row, it stays above any walk
    order = np.argsort(dst, kind="stable")  # one run of edges per head
    starts = np.flatnonzero(np.diff(dst[order], prepend=-1))
    # the table reaches inf + reach, the cross-multiplied numerators 2 nv reach
    src, w = src[order], _ints(w[order], (2 * nv + 3) * reach + 1)
    d = np.full((nv + 1, nv), inf, dtype=w.dtype)  # least k-edge walk weights from 0
    d[0, 0] = 0
    for k in range(1, nv + 1):
        d[k] = np.minimum(np.minimum.reduceat(d[k - 1][src] + w, starts), inf)
    # min over v of max over k of (d[nv, v] - d[k, v]) / (nv - k), finite entries only
    ok = (d[:nv] <= reach) & (d[nv] <= reach)
    num = np.subtract(d[nv], d[:nv], out=d[:nv])  # the table is not needed after this
    num[~ok] = 0
    den = np.broadcast_to(np.arange(nv, 0, -1).astype(w.dtype)[:, None], ok.shape)
    num, den, ok = _max_ratio(num, den, ok)
    num, den, ok = _max_ratio(-num[:, None], den[:, None], ok[:, None])
    return Fraction(-int(num[0]), int(den[0]))


def _max_ratio(num, den, ok):
    """Per column, the largest num / den (den > 0) over the rows where `ok`,
    and whether there was one: a pairwise tournament of the rows that
    compares cross-multiplied numerators, so nothing is divided."""
    while len(num) > 1:
        h = (len(num) + 1) // 2  # an odd count meets its middle row with itself
        a, b = slice(0, h), slice(len(num) - h, None)
        take = ok[b] & (~ok[a] | (num[b] * den[a] > num[a] * den[b]))
        num, den, ok = (np.where(take, x[b], x[a]) for x in (num, den, ok))
    return num[0], den[0], ok[0]


def _circuits(succ, inside, s):
    """Elementary cycles through `s` within the strongly connected vertex set
    `inside`, by Johnson's blocking rule: a vertex stays blocked until a
    cycle through it closes, so no path is explored twice in vain."""
    nbrs = {v: sorted(w for w in succ[v] if w in inside) for v in inside}
    blocked = {s}
    waiting = {v: set() for v in inside}
    path = [s]
    closed = [False]
    stack = [iter(nbrs[s])]
    while stack:
        for w in stack[-1]:
            if w == s:
                yield tuple(path)
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                stack.append(iter(nbrs[w]))
                blocked.add(w)
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                todo = [v]
                while todo:
                    u = todo.pop()
                    if u in blocked:
                        blocked.discard(u)
                        todo.extend(waiting[u])
                        waiting[u].clear()
            else:
                for w in nbrs[v]:
                    waiting[w].add(v)


def elementary_cycles(n, edges):
    """Every elementary cycle of the digraph on 0..n-1, once each (Johnson,
    "Finding all the elementary circuits of a directed graph", SIAM J.
    Comput. 1975): per strongly connected component, the cycles through its
    smallest vertex, then the same on the component without that vertex.
    Iterative throughout, and each cycle costs O(V + E)."""
    succ = [set() for _ in range(n)]
    for u, v in edges:
        succ[u].add(v)
    todo = [list(range(n))]
    while todo:
        verts = todo.pop()
        local = {v: i for i, v in enumerate(verts)}
        adj = [[local[w] for w in sorted(succ[v]) if w in local] for v in verts]
        for comp in tarjan_scc(len(verts), adj):
            comp = sorted(verts[i] for i in comp)
            s = comp[0]
            if len(comp) > 1 or s in succ[s]:
                yield from _circuits(succ, set(comp), s)
                todo.append(comp[1:])


def min_mean_cycle(graph: WeightedGraph) -> CycleResult:
    """Karp's recurrence per SCC; exact rational value; canonical cycle."""
    return min_mean_cycles(graph, max_cycles=1)[0]


def min_mean_cycles(graph: WeightedGraph, max_cycles=32, floor=None):
    """All (up to max_cycles) canonical-rotation-distinct minimum mean cycles,
    in label order.  A `floor` is tried first: if no cycle's mean is below it
    and some cycle's mean equals it, it is the minimum and Karp does not run.
    """
    den = graph.den
    mu = None if floor is None else floor * den
    found = set() if mu is None else _tight_cycles(graph, mu, max_cycles)
    if not found:
        w, parts = graph.arrays[2], zip(graph.sccs, graph.scc_edges)
        means = [_karp_component(len(c), s, t, w[e]) for c, (s, t, e) in parts if len(e)]
        if not means:
            raise ConfigError("graph has no cycle; non-blocking graphs always do")
        mu = min(means)
        found = _tight_cycles(graph, mu, max_cycles)
    ordered = sorted(found, key=lambda c: (tuple(_label_key(graph.labels[v]) for v in c), c))
    return [CycleResult(value=mu / den, cycle=c) for c in ordered]


def _tight_cycles(graph, mu_int, max_cycles):
    """Canonical rotations of up to max_cycles cycles of mean mu_int (in
    int-weight units): Bellman–Ford settles iff no cycle's mean is below it,
    and then the cycles of the edges it leaves tight are those of mean mu."""
    p, q = mu_int.numerator, mu_int.denominator
    src, dst, w, m = graph.arrays
    # the potentials stay within n + 1 passes of the largest reduced weight
    w = _ints(w, (graph.n + 2) * (q * m + abs(p))) * q - p
    d = np.zeros(graph.n, dtype=w.dtype)  # super-source potentials
    for _ in range(graph.n + 1):
        nd = d.copy()
        np.minimum.at(nd, dst, d[src] + w)
        if np.array_equal(nd, d):
            break
        d = nd
    else:
        return set()
    tight = np.flatnonzero(d[src] + w == d[dst])
    cycles = elementary_cycles(graph.n, zip(src[tight].tolist(), dst[tight].tolist()))
    return {canonical_rotation(c, graph.labels) for c in islice(cycles, max_cycles)}


def max_mean_cycle(graph: WeightedGraph) -> CycleResult:
    res = min_mean_cycle(graph.negated())
    return CycleResult(value=-res.value, cycle=res.cycle)


def attracting_scc_bound(graph: WeightedGraph, feasible=None) -> Fraction:
    """Smallest maximum cycle mean over attracting SCCs: an upper bound on the
    concrete system's smallest limit average; None if no SCC counts.

    Given `feasible`, a test of whether a vertex's label is known to hold a
    concrete state, an attracting SCC counts only if it holds such a state:
    a concrete run from it never leaves the SCC, while an SCC whose states
    may all be empty bounds nothing.  Without it every attracting SCC counts.
    """
    adj = graph.successors
    w, den = -graph.arrays[2], graph.den
    best = None
    for comp, (src, dst, ids) in zip(graph.sccs, graph.scc_edges):
        if sum(len(adj[u]) for u in comp) > len(ids):
            continue  # edges escape: not attracting
        if feasible is not None and not any(feasible(graph.labels[u]) for u in comp):
            continue  # no state known to be realised
        val = -_karp_component(len(comp), src, dst, w[ids]) / den
        if best is None or val < best:
            best = val
    return best
