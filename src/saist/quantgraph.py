"""Weighted-digraph algorithms: minimum/maximum mean cycle, SCCs, attractor bound.

Cycle means are exact rationals throughout; weights are scaled to integers
internally so Karp's recurrence runs on int64 arrays.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .errors import ConfigError

_INF = np.int64(2**62)


@dataclass(frozen=True)
class WeightedGraph:
    """Vertices 0..n-1 with hashable labels and weighted directed edges.

    For simple weighted transition systems the weight of every outgoing edge
    of u equals the output of u; that convention is produced by callers, not
    enforced here.  The integer weights and the SCCs are computed once per
    graph, on first use.
    """

    labels: tuple
    edges: tuple  # (src, dst, Fraction)

    def __post_init__(self):
        n = len(self.labels)
        out = [0] * n
        for u, v, _ in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ConfigError("edge endpoint out of range")
            out[u] += 1
        if any(o == 0 for o in out):
            raise ConfigError("graph must be non-blocking (every vertex needs a successor)")
        object.__setattr__(
            self,
            "edges",
            tuple((u, v, w if type(w) is Fraction else Fraction(w)) for u, v, w in self.edges),
        )

    @property
    def n(self):
        return len(self.labels)

    def successors(self):
        adj = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
        return adj

    @cached_property
    def int_weights(self):
        """(ints, den): the edge weights as integers over their least common
        denominator."""
        den = lcm(*{w.denominator for _, _, w in self.edges}) if self.edges else 1
        return [w.numerator * (den // w.denominator) for _, _, w in self.edges], den

    @cached_property
    def sccs(self):
        """The strongly connected components, in reverse topological order."""
        return tarjan_scc(self.n, self.successors())

    @cached_property
    def scc_edges(self):
        """Per SCC, in `sccs` order, (src, dst, ids): the edges inside it,
        their ends numbered by position in the component, and their indices."""
        comp_of, local = [0] * self.n, [0] * self.n
        for c, comp in enumerate(self.sccs):
            for i, v in enumerate(comp):
                comp_of[v], local[v] = c, i
        inside = [[] for _ in self.sccs]
        for e, (u, v, _) in enumerate(self.edges):
            if comp_of[u] == comp_of[v]:
                inside[comp_of[u]].append((local[u], local[v], e))
        return [np.array(es, dtype=np.int64).reshape(-1, 3).T for es in inside]

    def negated(self):
        return WeightedGraph(self.labels, tuple((u, v, -w) for u, v, w in self.edges))


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
    of nv vertices, given its edges (src, dst) and their int64 weights w."""
    if not len(w):
        return None
    d = np.full((nv + 1, nv), _INF, dtype=np.int64)
    d[0, 0] = 0
    for k in range(1, nv + 1):
        prev = d[k - 1][src]
        cand = np.where(prev >= _INF, _INF, prev + w)
        row = np.full(nv, _INF, dtype=np.int64)
        np.minimum.at(row, dst, cand)
        d[k] = row
    # max over k of (d[nv, v] - d[k, v]) / (nv - k) per v, then min over v,
    # compared exactly by cross-multiplying numerators and denominators
    dtype = np.int64 if 2 * nv * nv * int(np.abs(w).max()) < 2**62 else object
    dn = d[nv].astype(dtype)
    num = np.zeros(nv, dtype=dtype)
    den = np.zeros(nv, dtype=np.int64)  # 0: no finite d[k, v] yet
    for k in range(nv):
        ok = (d[nv] < _INF) & (d[k] < _INF)
        cand = dn - d[k].astype(dtype)
        better = ok & ((den == 0) | (cand * den > num * (nv - k)))
        num[better] = cand[better]
        den[better] = nv - k
    return min((Fraction(int(num[v]), int(den[v])) for v in np.nonzero(den)[0]), default=None)


def _tight_subgraph(graph, weights_int, mu_int):
    """Edges on shortest-path-tight positions under weights reduced by mu.

    Every cycle of the returned subgraph has mean exactly mu.
    """
    p, q = mu_int.numerator, mu_int.denominator
    n = graph.n
    src = np.array([u for u, _, _ in graph.edges], dtype=np.int64)
    dst = np.array([v for _, v, _ in graph.edges], dtype=np.int64)
    w = np.array([q * wi - p for wi in weights_int], dtype=np.int64)
    d = np.zeros(n, dtype=np.int64)  # super-source potentials
    for _ in range(n):
        cand = d[src] + w
        nd = d.copy()
        np.minimum.at(nd, dst, cand)
        if np.array_equal(nd, d):
            break
        d = nd
    tight = d[src] + w == d[dst]
    return [(int(u), int(v)) for u, v, t in zip(src, dst, tight) if t]


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


def min_mean_cycles(graph: WeightedGraph, max_cycles=32):
    """All (up to max_cycles) canonical-rotation-distinct minimum mean cycles,
    in label order."""
    weights_int, den = graph.int_weights
    w = np.array(weights_int, dtype=np.int64)
    mu = None
    for comp, (src, dst, ids) in zip(graph.sccs, graph.scc_edges):
        cand = _karp_component(len(comp), src, dst, w[ids])
        if cand is not None and (mu is None or cand < mu):
            mu = cand
    if mu is None:
        raise ConfigError("graph has no cycle; non-blocking graphs always do")
    found = set()
    for cyc in elementary_cycles(graph.n, _tight_subgraph(graph, weights_int, mu)):
        found.add(canonical_rotation(cyc, graph.labels))
        if len(found) >= max_cycles:
            break
    ordered = sorted(found, key=lambda c: (tuple(_label_key(graph.labels[v]) for v in c), c))
    return [CycleResult(value=mu / den, cycle=c) for c in ordered]


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
    adj = graph.successors()
    weights_int, den = graph.int_weights
    negated = -np.array(weights_int, dtype=np.int64)
    best = None
    for comp, (src, dst, ids) in zip(graph.sccs, graph.scc_edges):
        if sum(len(adj[u]) for u in comp) > len(ids):
            continue  # edges escape: not attracting
        if feasible is not None and not any(feasible(graph.labels[u]) for u in comp):
            continue  # no state known to be realised
        val = -_karp_component(len(comp), src, dst, negated[ids]) / den
        if best is None or val < best:
            best = val
    return best
