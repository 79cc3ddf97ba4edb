import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saist import build_l_complete, discretize, domino_transitions, refine_sac, trace
from saist.abstraction import mixed_transitions
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


def test_domino_direct_enumeration():
    states = ((1, 2), (2, 1), (2, 2))
    got = set(domino_transitions(states))
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
    assert len(domino_transitions(states)) == 9


def test_mixed_transitions_prefix_rule():
    states = ((1, 1, 2), (1, 2), (2,))
    got = set(mixed_transitions(states))
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
    assert mixed_transitions(states) == pairwise_mixed_transitions(states)


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
