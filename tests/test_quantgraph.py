import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from saist import (
    WeightedGraph,
    attracting_scc_bound,
    max_mean_cycle,
    min_mean_cycle,
    min_mean_cycles,
)
from saist import quantgraph
from saist.errors import ConfigError
from saist.quantgraph import _karp_component, canonical_rotation, tarjan_scc


def brute_force_cycles(graph):
    """Independent oracle: every simple cycle by DFS path extension, as
    (mean, vertex tuple) pairs."""
    n = graph.n
    adj = [[] for _ in range(n)]
    for u, v, w in graph.edges:
        adj[u].append((v, w))
    cycles = []

    def extend(path, weight):
        u = path[-1]
        for v, w in adj[u]:
            if v == path[0]:
                cycles.append((Fraction(weight + w, len(path)), tuple(path)))
            elif v not in path and v > path[0]:
                extend(path + [v], weight + w)

    for s in range(n):
        extend([s], Fraction(0))
    return cycles


def ring(weights):
    n = len(weights)
    return WeightedGraph(
        labels=tuple(range(n)),
        edges=tuple((i, (i + 1) % n, Fraction(w)) for i, w in enumerate(weights)),
    )


def test_self_loop():
    g = WeightedGraph(labels=(0,), edges=((0, 0, Fraction(7)),))
    assert min_mean_cycle(g).value == 7
    assert min_mean_cycle(g).cycle == (0,)


def test_single_ring_mean():
    g = ring([1, 2, 3, 10])
    assert min_mean_cycle(g).value == Fraction(16, 4)
    assert max_mean_cycle(g).value == Fraction(16, 4)


def test_two_loops_picks_smaller():
    g = WeightedGraph(
        labels=("a", "b"),
        edges=((0, 0, Fraction(5)), (0, 1, Fraction(1)), (1, 1, Fraction(3)), (1, 0, Fraction(1))),
    )
    assert min_mean_cycle(g).value == Fraction(1)  # the 2-cycle with weights 1, 1
    assert max_mean_cycle(g).value == Fraction(5)


def test_min_max_duality():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        edges = [(u, int(rng.integers(0, n)), Fraction(int(rng.integers(1, 21)))) for u in range(n)]
        extra = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)), Fraction(int(rng.integers(1, 21))))
            for _ in range(n)
        ]
        g = WeightedGraph(labels=tuple(range(n)), edges=tuple(edges + extra))
        assert min_mean_cycle(g).value == -max_mean_cycle(g.negated()).value


def oracle_graphs():
    """Sixty random graphs of up to 8 vertices with integer weights."""
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        edges = [(u, int(rng.integers(0, n)), Fraction(int(rng.integers(1, 21)))) for u in range(n)]
        extra = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)), Fraction(int(rng.integers(1, 21))))
            for _ in range(2 * n)
        ]
        yield WeightedGraph(labels=tuple(range(n)), edges=tuple(set(edges + extra)))


def test_matches_brute_force_oracle():
    for g in oracle_graphs():
        cycles = brute_force_cycles(g)
        lo = min(m for m, _ in cycles)
        assert min_mean_cycle(g).value == lo
        assert max_mean_cycle(g).value == max(m for m, _ in cycles)
        tight = {canonical_rotation(c, g.labels) for m, c in cycles if m == lo}
        assert {r.cycle for r in min_mean_cycles(g)} == tight


def test_a_floor_changes_no_answer_and_skips_karp_only_when_it_is_the_minimum(monkeypatch):
    karp, calls = quantgraph._karp_component, []
    monkeypatch.setattr(
        quantgraph, "_karp_component", lambda *args: calls.append(args) or karp(*args)
    )
    for g in oracle_graphs():
        want = min_mean_cycles(g)
        mu, top = want[0].value, max_mean_cycle(g).value
        # below the minimum no cycle is tight; above it some cycle's mean is
        # negative, even where the floor is itself a cycle's mean (top)
        floors = [(mu, False), (mu - Fraction(1, 7), True), (mu + Fraction(1, 7), True)]
        floors += [(top, True)] if top > mu else []
        for floor, runs_karp in floors:
            calls.clear()
            assert min_mean_cycles(g, floor=floor) == want
            assert bool(calls) == runs_karp


def karp_reference(nv, edges):
    """Karp's theorem term by term, in Python ints and Fractions: the loop
    that `_karp_component` vectorises."""
    d = [[0] + [None] * (nv - 1)]
    for _ in range(nv):
        row = [None] * nv
        for u, v, w in edges:
            if d[-1][u] is not None and (row[v] is None or d[-1][u] + w < row[v]):
                row[v] = d[-1][u] + w
        d.append(row)
    return min(
        max(Fraction(d[nv][v] - d[k][v], nv - k) for k in range(nv) if d[k][v] is not None)
        for v in range(nv)
        if d[nv][v] is not None
    )


def test_karp_matches_the_loop_reference():
    # weights up to 2**40 run in int64; 2**60 comes in as int64 and needs
    # Python ints inside; 2**70 comes in as Python ints
    rnd = random.Random(3)
    for scale in (20, 2**40, 2**60, 2**70):
        for _ in range(40):
            nv = rnd.randint(1, 8)
            pairs = [(u, (u + 1) % nv) for u in range(nv)]  # a ring: strongly connected
            pairs += [(rnd.randrange(nv), rnd.randrange(nv)) for _ in range(rnd.randint(0, 2 * nv))]
            edges = [(u, v, rnd.randint(-scale, scale)) for u, v in pairs]
            src, dst = (np.array(e, dtype=np.int64) for e in zip(*pairs))
            w = np.array([e[2] for e in edges], dtype=np.int64 if scale < 2**62 else object)
            assert _karp_component(nv, src, dst, w) == karp_reference(nv, edges)


def test_weights_near_the_int64_limit_stay_exact():
    # over the product of four primes near 1e6 these weights scale to
    # integers near 2**62, and walks of a few edges pass 2**63
    p = (1000003, 1000033, 1000037, 1000039)
    g = WeightedGraph(
        labels=tuple(range(4)),
        edges=(
            (0, 1, Fraction(3, p[1])),
            (0, 3, Fraction(3, p[2])),
            (1, 1, Fraction(-2, p[3])),
            (1, 2, Fraction(4, p[0])),
            (2, 3, Fraction(3, p[2])),
            (3, 0, Fraction(4, p[2])),
        ),
    )
    means = [m for m, _ in brute_force_cycles(g)]
    assert max(abs(w) for w in g.int_weights[0]) > 2**61
    assert min_mean_cycle(g).value == min(means) == Fraction(-2, 1000039)
    assert min_mean_cycles(g, floor=min(means)) == min_mean_cycles(g)
    assert attracting_scc_bound(g) == max(means)  # one SCC, so it attracts


def test_attracting_scc_bound_matches_brute_force():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        pairs = [(u, int(rng.integers(0, n))) for u in range(n)]
        for _ in range(rng.integers(0, n + 1)):
            pairs.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
        # mixed denominators exercise the integer scaling of the weights
        edges = {(u, v, Fraction(int(rng.integers(1, 21)), int(rng.integers(1, 4)))) for u, v in pairs}
        g = WeightedGraph(labels=tuple(range(n)), edges=tuple(edges))
        reach = []
        for s in range(n):
            seen, todo = {s}, [s]
            while todo:
                u = todo.pop()
                for a, b, _ in g.edges:
                    if a == u and b not in seen:
                        seen.add(b)
                        todo.append(b)
            reach.append(seen)
        # u's SCC attracts iff everything u reaches reaches u back
        attracting = [all(u in reach[v] for v in reach[u]) for u in range(n)]
        best = {}
        for mean, cyc in brute_force_cycles(g):
            if attracting[cyc[0]]:
                scc = frozenset(reach[cyc[0]])
                best[scc] = max(mean, best.get(scc, mean))
        assert attracting_scc_bound(g) == min(best.values())


def test_extracted_cycle_achieves_value():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        edges = [(u, int(rng.integers(0, n)), Fraction(int(rng.integers(1, 21)))) for u in range(n)]
        extra = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)), Fraction(int(rng.integers(1, 21))))
            for _ in range(2 * n)
        ]
        g = WeightedGraph(labels=tuple(range(n)), edges=tuple(set(edges + extra)))
        res = min_mean_cycle(g)
        wmap = {}  # min weight among parallel edges: attains the min mean
        for u, v, w in g.edges:
            wmap[(u, v)] = min(w, wmap.get((u, v), w))
        total = sum(
            wmap[(res.cycle[i], res.cycle[(i + 1) % len(res.cycle)])]
            for i in range(len(res.cycle))
        )
        assert Fraction(total, len(res.cycle)) == res.value


def test_exact_rationals_no_float_drift():
    # means that are close but unequal as floats must still be distinguished
    g = WeightedGraph(
        labels=(0, 1, 2),
        edges=(
            (0, 0, Fraction(1, 3)),
            (0, 1, Fraction(1)),
            (1, 1, Fraction(3333333, 10000000)),
            (1, 2, Fraction(1)),
            (2, 0, Fraction(1)),
        ),
    )
    assert min_mean_cycle(g).value == Fraction(3333333, 10000000)


def test_canonical_rotation():
    labels = {0: "b", 1: "a", 2: "c"}
    assert canonical_rotation((0, 1, 2), labels) == (1, 2, 0)
    assert canonical_rotation((2, 0, 1), labels) == (1, 2, 0)


def test_multiple_min_cycles_enumerated():
    g = WeightedGraph(
        labels=("p", "q"),
        edges=((0, 0, Fraction(2)), (1, 1, Fraction(2)), (0, 1, Fraction(9)), (1, 0, Fraction(9))),
    )
    res = min_mean_cycles(g)
    assert {r.cycle for r in res} == {(0,), (1,)}
    assert all(r.value == 2 for r in res)


def test_tarjan_components():
    adj = [[1], [0], [1, 3], [3]]
    comps = sorted(sorted(c) for c in tarjan_scc(4, adj))
    assert comps == [[0, 1], [2], [3]]


def test_attracting_bound():
    # vertex 2 escapes into the {0,1} sink component; only the sink counts
    g = WeightedGraph(
        labels=(0, 1, 2),
        edges=(
            (0, 1, Fraction(4)),
            (1, 0, Fraction(2)),
            (2, 2, Fraction(1)),
            (2, 0, Fraction(1)),
        ),
    )
    assert attracting_scc_bound(g) == Fraction(3)


def test_an_attracting_scc_without_a_feasible_state_bounds_nothing():
    # {a, b} and {c} both attract, and {a, b} has the smaller maximum mean;
    # when neither a nor b is known to hold a state, only {c} counts
    g = WeightedGraph(labels=("a", "b", "c"), edges=((0, 1, 2), (1, 0, 2), (2, 2, 5)))
    assert attracting_scc_bound(g) == 2
    assert attracting_scc_bound(g, {"c"}.__contains__) == 5
    assert attracting_scc_bound(g, {"b", "c"}.__contains__) == 2
    assert attracting_scc_bound(g, lambda label: False) is None


def test_int_weights_and_sccs_are_computed_once(monkeypatch):
    g = WeightedGraph(
        labels=(0, 1, 2),
        edges=((0, 1, Fraction(1, 3)), (1, 0, 2), (1, 2, Fraction(5, 6)), (2, 2, Fraction(-7, 4))),
    )
    ints, den = g.int_weights
    assert den == 12 and ints == [int(w * den) for _, _, w in g.edges] == [4, 24, 10, -21]
    calls = []
    monkeypatch.setattr(
        "saist.quantgraph.tarjan_scc", lambda n, adj: calls.append(n) or tarjan_scc(n, adj)
    )
    min_mean_cycles(g)
    before = len(calls)
    attracting_scc_bound(g)
    assert len(calls) == before  # the SCCs min_mean_cycles found are reused
    assert g.sccs is g.sccs and g.int_weights is g.int_weights and g.successors is g.successors


def test_each_scc_gets_exactly_its_own_edges():
    g = WeightedGraph(
        labels=(0, 1, 2, 3),
        edges=((0, 1, 1), (1, 0, 2), (1, 2, 3), (2, 3, 4), (3, 2, 5), (3, 3, 6), (0, 0, 7)),
    )
    assert g.scc_edges is g.scc_edges
    for comp, (src, dst, ids) in zip(g.sccs, g.scc_edges):
        inside = [e for e, (u, v, _) in enumerate(g.edges) if u in comp and v in comp]
        assert ids.tolist() == inside
        assert [(comp[a], comp[b]) for a, b in zip(src, dst)] == [g.edges[e][:2] for e in inside]
    assert sorted(e for _, _, ids in g.scc_edges for e in ids) == [0, 1, 3, 4, 5, 6]


def test_long_tight_cycle_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 500
    g = WeightedGraph(
        labels=tuple(range(n)),
        edges=tuple((i, (i + 1) % n, Fraction(2)) for i in range(n))
        + ((0, 0, Fraction(5)),),
    )
    (res,) = min_mean_cycles(g)
    assert res.value == 2
    assert res.cycle == tuple(range(n))


def test_import_loads_no_networkx():
    import saist

    src = os.path.dirname(os.path.dirname(saist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, saist; print(any(m.split('.')[0] == 'networkx' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_non_blocking_required():
    with pytest.raises(ConfigError):
        WeightedGraph(labels=(0, 1), edges=((0, 1, Fraction(1)),))
