"""Cones extended one letter at a time agree bitwise with cones built from
scratch, and the oracle keeps the cones of the latest abstraction only."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saist import build_l_complete, discretize, kernels, refine_sac, sigma_cone
from saist.cones import letter_forms
from saist import oracle as oracle_module
from saist.oracle import CHUNK_FORMS, ConeOracle

from test_oracle import system_3d
from test_petc import system_2d

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SYSTEMS = {"2d": system_2d(sigma=0.3), "3d": system_3d(sigma=0.4)}
_discs = {}


def disc_of(name):
    if name not in _discs:
        system = system_2d(sigma=0.3, kbar=1) if name == "2d_kbar1" else SYSTEMS[name]
        _discs[name] = discretize(system)
    return _discs[name]


def same(a, b):
    """(mats, signs) stacks with bitwise equal forms and equal signs."""
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


words = st.lists(st.integers(1, 20), min_size=1, max_size=12).map(tuple)


@SETTINGS
@given(name=st.sampled_from(sorted(SYSTEMS)), word=words)
def test_step_extends_the_parent_cone(name, word):
    disc = disc_of(name)
    cone = sigma_cone(disc, word)
    if len(word) > 1:
        parent = sigma_cone(disc, word[:-1])
        c = len(parent.signs)
        assert same((cone.mats[:c], cone.signs[:c]), (parent.mats, parent.signs))
    assert np.array_equal(cone.mats, cone.mats.transpose(0, 2, 1))
    # the letter's own forms, pulled back by the identity, are the N(m) themselves
    k = word[-1]
    _, own, _, _ = letter_forms(disc, np.eye(disc.n)[None], [k])
    forms = list(range(1, k + 1 if k < disc.kbar else k))
    assert len(own) == len(forms)
    for P, m in zip(own, forms):
        assert np.array_equal(P, disc.N[m - 1])


def sigma_cone_phi(disc, word):
    phi = np.eye(disc.n)
    for k in word:
        phi = disc.M[k - 1] @ phi
    return phi


def assert_scratch(disc, oracle, word, memo):
    """The kept cone of `word` is bitwise the one built from scratch."""
    scratch = sigma_cone(disc, word)
    mats, signs = scratch.mats, scratch.signs
    assert same((memo.cone.mats, memo.cone.signs), (mats, signs))
    assert np.array_equal(memo.phi, sigma_cone_phi(disc, word))
    if len(signs):
        full = kernels.margins(oracle.pool, mats, signs).min(axis=1)
    else:
        full = np.full(len(oracle.pool), np.inf)
    assert np.array_equal(memo.worst, full)


@SETTINGS
@given(name=st.sampled_from(sorted(SYSTEMS)), word=words)
def test_incremental_stacks_and_margins_are_bitwise(name, word):
    disc = disc_of(name)
    oracle = ConeOracle(disc)
    (memo,) = oracle._extend_words([word])
    assert_scratch(disc, oracle, word, memo)


@SETTINGS
@given(
    name=st.sampled_from(sorted(SYSTEMS) + ["2d_kbar1"]),
    parents=st.lists(st.lists(st.integers(1, 20), max_size=6).map(tuple), min_size=1, max_size=4),
    letters=st.lists(
        st.tuples(st.integers(0, 3), st.one_of(st.integers(1, 20), st.just(20))),
        min_size=1,
        max_size=40,
    ),
    kept=st.booleans(),
)
def test_batched_cones_are_bitwise_scratch(name, parents, letters, kept):
    """A batch with shared parents, k = kbar letters and more forms than one
    chunk builds every cone bitwise as `sigma_cone` does from scratch."""
    disc = disc_of(name)

    def clamp(w):
        return tuple(min(k, disc.kbar) for k in w)

    parents = [clamp(p) for p in parents]
    batch = [clamp(parents[i % len(parents)] + (k,)) for i, k in letters]
    oracle = ConeOracle(disc)
    if kept:  # the nonempty parents' cones are kept, as after an abstraction is built
        oracle._extend_words([p for p in parents if p])
    for w, memo in zip(batch, oracle._extend_words(batch)):
        assert memo.cone.word == w
        assert_scratch(disc, oracle, w, memo)
    assert set(batch) <= set(oracle._memo)


def scratch_level(disc, oracle, level, l):
    """build_l_complete's candidates, each decided on a cone built from scratch."""
    alphabet = list(oracle.alphabet)
    if not level:
        cands = [(k,) for k in alphabet]
    else:
        prev = set(level)
        cands = [w + (k,) for w in level for k in alphabet if w[1:] + (k,) in prev]
    return [w for w in cands if oracle.feasible(sigma_cone(disc, w)).maybe_feasible]


def verdicts(oracle):
    return {
        key: (v.status, None if v.witness is None else v.witness.tobytes())
        for key, v in oracle._verdicts.items()
    }


@pytest.mark.parametrize("name,depth", [("2d", 8), ("3d", 2)])
def test_memo_build_matches_scratch_cones(name, depth):
    disc = disc_of(name)
    memo = ConeOracle(disc)
    ref = ConeOracle(disc)
    model, level = None, []
    for l in range(1, depth + 1):
        model = build_l_complete(disc, memo, l, prev=model)
        level = scratch_level(disc, ref, level, l)
        assert model.states == tuple(sorted(level))
        assert set(memo._memo) <= set(model.states)
        assert verdicts(memo) == verdicts(ref)
    assert memo.stats == ref.stats


def test_feasible_words_in_chunks_match_word_by_word(monkeypatch):
    """Chunks cap their new forms, and a batch that holds words with their
    parents decides as the same words one at a time do."""
    disc = disc_of("2d")
    words = [(1, 2), (1,), (3,), (3, 1)]
    words += [(k,) for k in range(1, 21)] + [(a, b) for a in (2, 3, 4) for b in range(1, 21)]
    batch = ConeOracle(disc)
    chunks = []
    extend = batch._extend_words
    monkeypatch.setattr(batch, "_extend_words", lambda ws: chunks.append(ws) or extend(ws))
    got = batch.feasible_words(words)
    alone = ConeOracle(disc)
    assert [v.status for v in got] == [alone.feasible_word(w).status for w in words]
    assert verdicts(batch) == verdicts(alone) and batch.stats == alone.stats
    assert len(chunks) > 1
    for chunk in chunks:
        forms = sum(k if k < disc.kbar else k - 1 for *_, k in chunk)
        assert len(chunk) == 1 or forms <= CHUNK_FORMS


def test_3d_batch_across_levels_matches_word_by_word(monkeypatch):
    """A 3-D batch that mixes levels, with children before and after their
    parents, certifies its pool misses in one batch and decides as the same
    words one at a time do: verdicts, witness bytes and counters.  So does
    a shuffled copy with every child before its parent."""
    disc = disc_of("3d")
    words = [(1, 2), (1,), (3,), (3, 1), (3, 1, 2), (3, 1)]
    words += [(k,) for k in range(1, 21)] + [(a, b) for a in (2, 3, 4) for b in range(1, 21)]
    words += [(2, 3, k) for k in range(1, 21)]
    words += [(2, 4, 5), (2, 4, 5, 6)]  # a pool miss and its child
    alone = ConeOracle(disc)
    want = {w: alone.feasible_word(w) for w in words}
    shuffled = list(words)
    np.random.default_rng(0).shuffle(shuffled)
    shuffled.sort(key=len, reverse=True)  # stable: children before parents
    sizes = []
    certify = oracle_module.s_procedure_certificates
    monkeypatch.setattr(
        oracle_module, "s_procedure_certificates", lambda cones: sizes.append(len(cones)) or certify(cones)
    )
    for order in (words, shuffled):
        sizes.clear()
        batch = ConeOracle(disc)
        got = batch.feasible_words(order)
        assert [v.status for v in got] == [want[w].status for w in order]
        assert verdicts(batch) == verdicts(alone) and batch.stats == alone.stats
        assert batch.stats["certified"] > 1
        # one batch per call: only the pool misses, and each certificate used
        assert sizes == [batch.stats["certified"] + batch.stats["engine_calls"]]
        assert not batch._certificates


def test_feasible_runs_once_per_uncached_word(monkeypatch):
    disc = disc_of("3d")
    oracle = ConeOracle(disc)
    oracle.feasible_words([(1,), (2,)])
    decided = []
    decide = oracle.feasible
    monkeypatch.setattr(oracle, "feasible", lambda cone: decided.append(cone.word) or decide(cone))
    oracle.feasible_words([(1,), (2, 1), (2, 1), (3,), (2, 1, 5), (2,), (3, 3)])
    assert decided == [(2, 1), (3,), (2, 1, 5), (3, 3)]


def test_build_from_scratch_equals_build_from_prev():
    disc = disc_of("2d")
    a = ConeOracle(disc)
    b = ConeOracle(disc)
    model = None
    for l in range(1, 7):
        model = build_l_complete(disc, a, l, prev=model)
        fresh = build_l_complete(disc, b, l)
        assert model == fresh
        assert set(b._memo) <= set(fresh.states)
    assert verdicts(a) == verdicts(b)


def test_refine_keeps_only_the_new_states():
    disc = disc_of("2d")
    oracle = ConeOracle(disc)
    model = build_l_complete(disc, oracle, 1)
    for _ in range(4):
        sac = [w for w in model.states if w[0] == min(s[0] for s in model.states)]
        model = refine_sac(model, sac, oracle)
        assert set(oracle._memo) <= set(model.states)


def test_prev_must_be_uniform_and_not_deeper():
    disc = disc_of("2d")
    oracle = ConeOracle(disc)
    model = build_l_complete(disc, oracle, 3)
    with pytest.raises(ValueError):
        build_l_complete(disc, oracle, 2, prev=model)
    mixed = refine_sac(model, model.states[:1], oracle)
    with pytest.raises(ValueError):
        build_l_complete(disc, oracle, 5, prev=mixed)
