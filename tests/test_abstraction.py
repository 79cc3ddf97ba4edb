from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saist import (
    SaistConfig,
    TrafficAbstraction,
    WeightedGraph,
    build_l_complete,
    compute_saist,
    discretize,
    refine_sac,
    trace,
)
from saist.abstraction import abstraction_of, index_edges
from saist.arcs import ArcOracle
from saist.errors import EmptyRefinement

from test_petc import system_2d


class WordByWord:
    """`feasible_words` as the mock oracles' `feasible_word` over each word."""

    def feasible_words(self, words):
        return [self.feasible_word(w) for w in words]


class MockOracle(WordByWord):
    """Word-set-backed oracle: feasible iff the word is a factor of the
    given periodic streams."""

    def __init__(self, streams, kbar):
        self.streams = streams
        self.kbar = kbar
        self.alphabet = range(1, kbar + 1)
        self.queries = 0

    def feasible_word(self, word):
        self.queries += 1
        word = tuple(word)

        class V:
            maybe_feasible = any(
                tuple(s[i : i + len(word)]) == word
                for s in self.streams
                for i in range(len(s) - len(word) + 1)
            )

        return V()

    def known_infeasible(self, word):
        return False

    def retain(self, states):
        pass


def fig_streams():
    # two eventual behaviors: 2^w reached after a transient, and (1,2,2)^w
    a = (2,) * 12
    b = (2,) * 10 + (1, 2, 2) * 10
    return [a, b]


def mock_oracle():
    return MockOracle(fig_streams(), kbar=2)


def mock_build(l):
    o = mock_oracle()

    class D:
        pass

    return build_l_complete(D(), o, l)


def test_mock_l1():
    abs1 = mock_build(1)
    assert abs1.states == ((1,), (2,))
    assert set(abs1.transitions) == {((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))}


def test_mock_l2():
    abs2 = mock_build(2)
    assert abs2.states == ((1, 2), (2, 1), (2, 2))
    assert ((1, 1), (1, 1)) not in abs2.transitions


def test_mock_l3():
    abs3 = mock_build(3)
    assert abs3.states == ((1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2))
    assert ((1, 2, 2), (2, 2, 2)) in abs3.transitions
    assert ((1, 2, 2), (2, 2, 1)) in abs3.transitions
    assert ((2, 1, 2), (1, 2, 2)) in abs3.transitions
    assert ((2, 2, 2), (2, 2, 2)) in abs3.transitions


def test_candidates_come_in_the_order_of_the_suffix_rule():
    # level j + 1 asks for w + (k,), w in level j's order and k ascending,
    # exactly where w[1:] + (k,) passed level j; from `prev` as from scratch
    batches = []

    class Recording(MockOracle):
        def feasible_words(self, words):
            batches.append(list(words))
            return super().feasible_words(words)

    oracle = Recording([(1, 2, 3, 3, 1, 2, 2, 3, 1, 1, 3, 2) * 3, (3,) * 10 + (2, 1) * 8], 3)
    build_l_complete(None, oracle, 6, prev=build_l_complete(None, oracle, 2))
    assert batches[0] == [(1,), (2,), (3,)] and len(batches) == 6
    level = []
    for asked, answered in zip(batches, batches[1:]):
        level = [w for w in asked if oracle.feasible_word(w).maybe_feasible]
        if len(asked[0]) == 2:
            level.sort()  # the second build starts from prev.states, which are sorted
        passed = set(level)
        assert answered == [w + (k,) for w in level for k in (1, 2, 3) if w[1:] + (k,) in passed]
    assert len(level[0]) == 5


def test_domino_direct_enumeration():
    states = ((1, 2), (2, 1), (2, 2))
    got = set(abstraction_of(states, 2).transitions)
    expected = {
        (v, w) for v in states for w in states if v[1:] == w[:-1]
    }
    assert got == expected
    assert got == {
        ((1, 2), (2, 1)),
        ((1, 2), (2, 2)),
        ((2, 1), (1, 2)),
        ((2, 2), (2, 1)),
        ((2, 2), (2, 2)),
    }


def test_domino_l1_complete():
    states = ((1,), (2,), (3,))
    assert len(abstraction_of(states, 1).transitions) == 9


def test_mixed_transitions_prefix_rule():
    states = ((1, 1, 2), (1, 2), (2,))
    got = set(abstraction_of(states, 3).transitions)
    assert ((1, 1, 2), (1, 2)) in got  # suffix (1,2) matches word (1,2)
    assert ((1, 2), (2,)) in got
    assert ((2,), (1, 1, 2)) in got  # empty suffix is compatible with anything
    assert ((1, 1, 2), (2,)) not in got


def pairwise_mixed_transitions(states):
    """The prefix rule applied to every ordered pair of states."""

    def compatible(v, w):
        s = v[1:]
        m = min(len(s), len(w))
        return s[:m] == w[:m]

    return tuple(sorted((v, w) for v in states for w in states if compatible(v, w)))


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple), max_size=30)
)
def test_mixed_transitions_match_the_pairwise_rule(states):
    states = tuple(sorted(states))
    model = abstraction_of(states, max(map(len, states), default=0))
    assert model.transitions == pairwise_mixed_transitions(states)
    assert spelled_out(states, index_edges(states)) == model.transitions


def spelled_out(states, edges):
    """(src, dst) index arrays as word pairs."""
    return tuple((states[u], states[v]) for u, v in zip(*(ends.tolist() for ends in edges)))


def assert_index_form_matches(model):
    """The abstraction's index edges spell out the pairwise rule's word
    pairs, in order, and its graph is the one built edge by edge from
    Fractions."""
    rule = pairwise_mixed_transitions(model.states)
    assert spelled_out(model.states, model.edges) == rule == model.transitions
    idx = {w: i for i, w in enumerate(model.states)}
    ref = WeightedGraph(
        labels=model.states, edges=tuple((idx[u], idx[v], Fraction(u[0])) for u, v in rule)
    )
    got = model.as_weighted_graph()
    for a, b in zip(got.arrays[:3], ref.arrays[:3]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.arrays[3] == ref.arrays[3] and got.int_weights == ref.int_weights
    assert got.sccs == ref.sccs and len(got.scc_edges) == len(ref.scc_edges)
    for a, b in zip(got.scc_edges, ref.scc_edges):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_every_full_depth_is_the_domino_rule_as_index_arrays():
    disc = discretize(system_2d(sigma=0.3))
    oracle, model = ArcOracle(disc), None
    for l in range(1, 9):
        model = build_l_complete(disc, oracle, l, prev=model)
        assert {len(w) for w in model.states} == {l}  # the domino rule's uniform length
        assert_index_form_matches(model)


def test_every_targeted_depth_is_the_mixed_rule_as_index_arrays(monkeypatch):
    seen = []
    graph = TrafficAbstraction.as_weighted_graph
    monkeypatch.setattr(
        TrafficAbstraction, "as_weighted_graph", lambda self: seen.append(self) or graph(self)
    )
    compute_saist(SaistConfig(system=system_2d(sigma=0.5), l_max=30, mode="targeted"))
    monkeypatch.undo()
    assert len(seen) > 2 and len({len(w) for w in seen[-1].states}) > 1  # mixed lengths
    for model in seen:
        assert_index_form_matches(model)


def test_targeted_refinement_sequence():
    """Starting from depth 1 and refining the minimum cycle twice reproduces
    the known mixed-length state set in 6 oracle queries."""

    class TwoLetterOracle(WordByWord):
        # concrete feasibility pattern: (1,1,1) impossible, everything else
        # built from the streams below is possible
        def __init__(self):
            self.kbar = 2
            self.alphabet = (1, 2)
            self.queries = []

        def feasible_word(self, word):
            self.queries.append(tuple(word))

            class V:
                maybe_feasible = tuple(word) != (1, 1, 1)

            return V()

        def known_infeasible(self, word):
            return False

        def retain(self, states):
            pass

    o = TwoLetterOracle()

    class D:
        pass

    abs1 = build_l_complete(D(), o, 1)
    assert abs1.states == ((1,), (2,))
    # minimum mean cycle is the self-loop on (1,)
    abs2 = refine_sac(abs1, [(1,)], o)
    assert abs2.states == ((1, 1), (1, 2), (2,))
    assert ((1, 1), (1, 1)) in abs2.transitions  # the self-loop survives
    abs3 = refine_sac(abs2, [(1, 1)], o)
    assert abs3.states == ((1, 1, 2), (1, 2), (2,))
    assert o.queries == [(1,), (2,), (1, 1), (1, 2), (1, 1, 1), (1, 1, 2)]


def test_refine_skips_extensions_with_a_known_empty_suffix():
    class SuffixKnownEmpty(WordByWord):
        kbar = 3
        alphabet = (1, 2, 3)

        def __init__(self):
            self.queries = []

        def feasible_word(self, word):
            self.queries.append(tuple(word))

            class V:
                maybe_feasible = True

            return V()

        def known_infeasible(self, word):
            return tuple(word) == (2,)

        def retain(self, states):
            pass

    o = SuffixKnownEmpty()

    class D:
        pass

    abs1 = build_l_complete(D(), o, 1)
    o.queries.clear()
    abs2 = refine_sac(abs1, [(1,)], o)
    assert o.queries == [(1, 1), (1, 3)]  # (1, 2) skipped: (2,) is known empty
    assert abs2.states == ((1, 1), (1, 3), (2,), (3,))


def test_refine_empty_extension_raises():
    class NoneFeasible(WordByWord):
        kbar = 2
        alphabet = (1, 2)

        def feasible_word(self, word):
            class V:
                maybe_feasible = len(word) == 1

            return V()

        def known_infeasible(self, word):
            return False

        def retain(self, states):
            pass

    o = NoneFeasible()

    class D:
        pass

    abs1 = build_l_complete(D(), o, 1)
    with pytest.raises(EmptyRefinement):
        refine_sac(abs1, [(1,)], o)


@pytest.fixture(scope="module")
def disc():
    return discretize(system_2d(sigma=0.3))


def test_concrete_soundness_windows(disc):
    # every l-window of simulated traces is a state of the l-complete model
    oracle = ArcOracle(disc)
    rng = np.random.default_rng(0)
    for l in (1, 2, 3):
        model = build_l_complete(disc, oracle, l)
        states = set(model.states)
        for _ in range(20):
            x0 = rng.standard_normal(2)
            tr = trace(disc, x0 / np.linalg.norm(x0), 40)
            for i in range(len(tr) - l + 1):
                assert tr[i : i + l] in states


def test_non_blocking_and_determinism(disc):
    o1 = ArcOracle(disc)
    o2 = ArcOracle(disc)
    a = build_l_complete(disc, o1, 3)
    b = build_l_complete(disc, o2, 3)
    assert a.states == b.states and a.transitions == b.transitions
    outdeg = {s: 0 for s in a.states}
    for u, _ in a.transitions:
        outdeg[u] += 1
    assert all(d > 0 for d in outdeg.values())


def test_dot_export(disc):
    oracle = ArcOracle(disc)
    model = build_l_complete(disc, oracle, 1)
    dot = model.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == len(model.transitions)
