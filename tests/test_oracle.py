from fractions import Fraction

import numpy as np
import pytest

from saist import (
    ConeOracle,
    ConeSystem,
    PetcSystem,
    SaistConfig,
    Status,
    build_l_complete,
    compute_saist,
    discretize,
    relative_error_trigger,
    trace,
)
from saist import decider, driver, kernels
from saist import oracle as oracle_module
from saist.arcs import FULL, form_arc, intersect, widest_midpoint
from saist.cones import sigma_cone
from saist.decider import decide_sphere_bnb
from saist.oracle import Method

from test_petc import system_2d


def system_3d(sigma=0.4):
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -1.0, -1.0]])
    BK = np.array([[0.0], [0.0], [1.0]]) @ np.array([[-2.0, -1.0, -1.0]])
    return PetcSystem(A=A, BK=BK, Qtrig=relative_error_trigger(sigma, 3), h=0.1, kbar=20)


def system_4d(sigma=0.5):
    """The companion form of s^4 + s^3 + 2s^2 + 2s + 1 under u = -(x1+x2+x3+x4)."""
    A = np.array([[0.0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -2, -2, -1]])
    BK = np.eye(4)[:, 3:] @ np.array([[-1.0, -1.0, -1.0, -1.0]])
    return PetcSystem(A=A, BK=BK, Qtrig=relative_error_trigger(sigma, 4), h=0.1, kbar=8)


class NoEngine:
    """An exact engine that must not be reached."""

    def check(self, cone):
        raise AssertionError("engine called")


class ScriptedEngine:
    """An in-process engine with one fixed reply, counting its calls;
    'unknown' is what an exhausted search budget answers."""

    def __init__(self, reply, witness=None):
        self.reply, self.witness, self.calls = reply, witness, 0

    def check(self, cone):
        self.calls += 1
        return self.reply, self.witness


def cone_of(mats_signs, word=(1,)):
    return ConeSystem(
        word=word, mats=[P for P, _ in mats_signs], signs=[s for _, s in mats_signs]
    )


def planar_arcs(cone):
    """The closure of a 2-D cone as an arc set: each form's closed arc,
    intersected, the rule by which `letter_arcs` builds R(k)."""
    arcs = FULL
    for P, s in zip(cone.mats.tolist(), cone.signs.tolist()):
        arcs = intersect(arcs, form_arc(P, s))
    return arcs


def test_planar_decider_exact_cases():
    x = widest_midpoint(planar_arcs(cone_of([(np.diag([1.0, -1.0]), 1.0)])))
    assert abs(x[0]) > abs(x[1])
    assert planar_arcs(cone_of([(-np.eye(2), 1.0)])) == ()
    # thin wedge: two rotated half-plane pairs with a narrow intersection
    t = 0.01
    c, s = np.cos(t), np.sin(t)
    R = np.array([[c, -s], [s, c]])
    P1 = np.diag([1.0, -1.0])
    P2 = R @ P1 @ R.T
    wedge = cone_of([(P1, 1.0), (-P2, -1.0)])
    assert wedge.contains(widest_midpoint(planar_arcs(wedge)))


def test_planar_decider_agrees_with_dense_sampling():
    rng = np.random.default_rng(0)
    ts = np.linspace(0, np.pi, 20001)
    pts = np.column_stack([np.cos(ts), np.sin(ts)])
    for _ in range(40):
        cons = []
        for _ in range(rng.integers(1, 4)):
            P = rng.standard_normal((2, 2))
            P = 0.5 * (P + P.T)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            cons.append((P, sign))
        cone = cone_of(cons)
        arcs = planar_arcs(cone)
        vals = np.ones(len(pts), dtype=bool)
        for P, sign in cons:
            q = np.einsum("pi,ij,pj->p", pts, P, pts)
            vals &= (q > 1e-9) if sign > 0 else (q <= 0)
        sampled = bool(vals.any())
        # the closed arcs may hold pieces too thin to sample, or boundary
        # points only; unless the cone holds their widest midpoint, sampling
        # must find nothing
        if not (arcs and cone.contains(widest_midpoint(arcs))):
            assert not sampled


def test_bnb_3d():
    reply, x = decide_sphere_bnb(
        ConeSystem(word=(1,), mats=[np.diag([1.0, 1.0, -3.0])], signs=[1.0])
    )
    assert reply == "sat"
    reply2, _ = decide_sphere_bnb(
        ConeSystem(word=(1,), mats=[-np.eye(3)], signs=[1.0])
    )
    assert reply2 == "unsat"


def test_bnb_budget_unknown():
    # a barely-empty cone forces exhaustive subdivision; tiny budget -> unknown
    reply, _ = decide_sphere_bnb(
        ConeSystem(word=(1,), mats=[-1e-15 * np.eye(3)], signs=[1.0]),
        max_regions=10,
    )
    assert reply == "unknown"


@pytest.fixture(scope="module")
def disc():
    return discretize(system_3d())


@pytest.fixture
def no_certificate(monkeypatch):
    """Every certificate fails, so a pool miss reaches the engine."""
    monkeypatch.setattr(oracle_module, "s_procedure_certificates", lambda cones: [None] * len(cones))
    monkeypatch.setattr(oracle_module, "s_procedure_certificate", lambda cone: None)


def test_a_planar_plant_is_refused():
    with pytest.raises(ValueError):
        ConeOracle(discretize(system_2d()))


def test_oracle_feasible_words_have_witnesses(disc):
    oracle = ConeOracle(disc)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        w = trace(disc, x, 2)
        v = oracle.feasible_word(w)
        assert v.is_feasible
        assert sigma_cone(disc, w).contains(v.witness)


def test_oracle_exact_infeasible(disc):
    oracle = ConeOracle(disc, engine=NoEngine())
    empty = cone_of([(-np.eye(3), 1.0)])
    assert oracle.feasible(empty).status is Status.INFEASIBLE
    # an explicit cone is decided afresh each time and cached under no word
    assert oracle.feasible(empty).status is Status.INFEASIBLE
    assert oracle.stats["queries"] == oracle.stats["certified"] == 2
    assert not oracle._verdicts


def test_an_explicit_cone_leaves_the_word_cache_alone(disc):
    oracle = ConeOracle(disc)
    empty = cone_of(
        [(np.diag([1.0, -1.0, -1.0]), 1.0), (np.diag([-1.0, 1.0, -2.0]), 1.0), (np.diag([0.5, 0.5, 3.0]), -1.0)],
        word=(3,),
    )
    assert oracle.feasible(empty).status is Status.INFEASIBLE
    v = oracle.feasible_word((3,))
    assert v.status is Status.FEASIBLE and sigma_cone(disc, (3,)).contains(v.witness)
    assert oracle.feasible(empty).status is Status.INFEASIBLE
    assert oracle.feasible_word((3,)) is v


def test_engine_unknown_is_cached_and_kept(disc, no_certificate):
    oracle = ConeOracle(disc, engine=ScriptedEngine("unknown"))
    # (1,) misses the pool and has no certificate, so the engine is asked and gives up
    v = oracle.feasible_word((1,))
    assert v.status is Status.UNKNOWN and v.maybe_feasible
    assert oracle.feasible_word((1,)) is v
    assert oracle.stats["engine_calls"] == 1
    assert not oracle.known_feasible((1,)) and not oracle.known_infeasible((1,))
    # Unknown counts as feasible: the word stays a state of the abstraction
    model = build_l_complete(disc, oracle, 1)
    assert (1,) in model.states
    unknown = [w for w in model.states if oracle.feasible_word(w).status is Status.UNKNOWN]
    assert oracle.stats["engine_calls"] == len(unknown)


def test_verdict_determinism(disc):
    a = ConeOracle(disc, seed=3)
    b = ConeOracle(disc, seed=3)
    for w in [(4,), (5,), (6, 6), (7, 7, 7)]:
        va = a.feasible_word(w)
        vb = b.feasible_word(w)
        assert va.status == vb.status
        if va.witness is not None:
            np.testing.assert_array_equal(va.witness, vb.witness)
    assert a.stats["sampling_hits"] > 0


def test_oracle_certifies_empty_3d_cone_without_engine():
    oracle = ConeOracle(discretize(system_3d()), engine=NoEngine())
    empty = cone_of([(np.diag([1.0, -1.0, -1.0]), 1.0),
                     (np.diag([-1.0, 1.0, -2.0]), 1.0),
                     (np.diag([0.5, 0.5, 3.0]), -1.0)])
    v = oracle.feasible(empty)
    assert v.status is Status.INFEASIBLE
    assert oracle.stats["engine_calls"] == 0 and oracle.stats["certified"] == 1


def test_exact_3d_query_skips_the_ascent(disc, monkeypatch, no_certificate):
    def no_ascent(*args, **kwargs):
        raise AssertionError("witness ascent run in 3-D")

    monkeypatch.setattr(kernels, "min_margin_ascent", no_ascent)
    oracle = ConeOracle(disc)
    v = oracle.feasible(cone_of([(-np.eye(3), 1.0)]))
    assert v.status is Status.INFEASIBLE and v.method is Method.ENGINE
    assert oracle.stats["engine_calls"] == 1 and oracle.stats["certified"] == 0


def test_engine_sat_is_normalised_cached_and_kept(disc, no_certificate):
    engine = ScriptedEngine("sat", [3.0, -4.0, 0.0])
    oracle = ConeOracle(disc, engine=engine)
    # (1,) misses the pool and has no certificate, so the engine is asked
    v = oracle.feasible_word((1,))
    assert v.status is Status.FEASIBLE and v.method is Method.ENGINE
    np.testing.assert_array_equal(v.witness, [0.6, -0.8, 0.0])
    assert oracle.feasible_word((1,)) is v and engine.calls == 1
    assert oracle.known_feasible((1,))
    assert (1,) in build_l_complete(disc, oracle, 1).states


def test_engine_unsat_is_cached_and_dropped(disc, no_certificate):
    engine = ScriptedEngine("unsat")
    oracle = ConeOracle(disc, engine=engine)
    v = oracle.feasible_word((1,))
    assert v.status is Status.INFEASIBLE and v.witness is None and v.method is Method.ENGINE
    assert oracle.feasible_word((1,)) is v and engine.calls == 1
    assert oracle.known_infeasible((1,))
    assert (1,) not in build_l_complete(disc, oracle, 1).states


def test_4d_saist_samples_certifies_and_ascends(monkeypatch):
    """A 4-D plant takes every step of the cone path: pool, certificate,
    witness ascent and engine; each feasible word's witness is in its cone."""
    oracles, ascents = [], []
    make = driver.ConeOracle
    monkeypatch.setattr(driver, "ConeOracle", lambda *a, **k: oracles.append(make(*a, **k)) or oracles[-1])
    ascend = kernels.min_margin_ascent
    monkeypatch.setattr(kernels, "min_margin_ascent", lambda *a, **k: ascents.append(1) or ascend(*a, **k))
    system = system_4d()
    rep = compute_saist(SaistConfig(system=system, l_max=2))
    assert rep.status == "BoundsOnly" and (rep.saist_lower, rep.saist_upper) == (1, Fraction(13, 2))
    assert [it["n_states"] for it in rep.iterations] == [8, 40]
    (oracle,) = oracles
    assert ascents and oracle.stats["certified"] > 0 and oracle.stats["engine_calls"] == 2
    disc = oracle.disc
    feasible = [(w, v) for w, v in oracle._verdicts.items() if v.is_feasible]
    assert {v.method for _, v in feasible} == {Method.SAMPLING, Method.ENGINE}
    for w, v in feasible:
        assert sigma_cone(disc, w).contains(v.witness)


def test_1d_saist_runs_through_the_dimension_1_decider(monkeypatch):
    """A scalar plant's pool misses go to `decide_dim1`; the answer is pinned."""
    calls = []
    dim1 = decider.decide_dim1
    monkeypatch.setattr(decider, "decide_dim1", lambda cone: calls.append(cone.word) or dim1(cone))
    system = PetcSystem(A=[[0.5]], BK=[[-2.0]], Qtrig=relative_error_trigger(0.5, 1), h=0.1, kbar=10)
    rep = compute_saist(SaistConfig(system=system, l_max=3))
    assert rep.status == "Verified" and rep.saist == 3 and rep.sac_word == (3,)
    assert rep.l_reached == 1 and [it["n_states"] for it in rep.iterations] == [1]
    assert rep.iterations[-1]["oracle"] == {"sampling_hits": 1, "certified": 0, "engine_calls": 9, "queries": 10}
    assert len(calls) == 9
