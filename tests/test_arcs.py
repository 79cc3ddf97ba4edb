"""The 2-D arc oracle against the cone oracle, its witnesses, its soundness
on nearly tangent arcs, and which oracle `compute_saist` picks."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from saist import (
    ConeOracle,
    DiscretizedSystem,
    PetcSystem,
    SaistConfig,
    build_l_complete,
    compute_saist,
    discretize,
    relative_error_trigger,
    trace,
)
from saist import arcs as arcs_module
from saist import driver
from saist.arcs import (
    ARC_SLACK,
    DET_FLOOR,
    ArcOracle,
    decidable_on_arcs,
    intersect,
    letter_arcs,
    pull_back,
)
from saist.cones import sigma_cone

from test_acceptance import sys_2d, sys_jet
from test_curve_decider import arc_form
from test_oracle import system_3d

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
TANGENT = 1e-6  # an arc this narrow, or a cone witness this shallow, is within rounding of tangency


def arcs_of(disc, word):
    """The word's arc set from the primitives alone, last letter first."""
    N = disc.N.tolist()
    inv, det = np.linalg.inv(disc.M), np.linalg.det(disc.M)
    arcs = letter_arcs(N, word[-1], disc.kbar)
    for k in reversed(word[:-1]):
        if not arcs:
            break
        pulled = pull_back(arcs, tuple(inv[k - 1].ravel().tolist()), bool(det[k - 1] < 0))
        arcs = intersect(letter_arcs(N, k, disc.kbar), pulled)
    return arcs


def normalized_margin(disc, word, x):
    cone = sigma_cone(disc, word)
    return min(s * float(x @ P @ x) / np.linalg.norm(P) for P, s in zip(cone.mats, cone.signs))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.5, 4.0),
    sigma=st.floats(0.05, 0.95),
    h=st.floats(0.01, 0.3),
    kbar=st.integers(2, 7),
)
def test_arc_verdicts_match_the_cone_oracle_on_random_plants(seed, scale, sigma, h, kbar):
    rng = np.random.default_rng(seed)
    A, BK = scale * rng.standard_normal((2, 2)), scale * rng.standard_normal((2, 2))
    disc = discretize(PetcSystem(A=A, BK=BK, Qtrig=relative_error_trigger(sigma, 2), h=h, kbar=kbar))
    assume(decidable_on_arcs(disc))
    arcs, cones = ArcOracle(disc), ConeOracle(disc)
    words = [tuple(rng.integers(1, kbar + 1, size=rng.integers(1, 7)).tolist()) for _ in range(12)]
    for _ in range(4):  # words some state produces
        x = rng.standard_normal(2)
        words.append(trace(disc, x / np.linalg.norm(x), int(rng.integers(1, 7))))
    for w in words:
        a, c = arcs.feasible_word(w), cones.feasible_word(w)
        if a.maybe_feasible == c.maybe_feasible:
            continue
        if a.maybe_feasible:  # kept on arcs: a set no wider than rounding
            assert max(hi - lo for lo, hi in arcs_of(disc, w)) <= TANGENT, w
        else:  # dropped on arcs: the cone's witness sits on its boundary
            assert normalized_margin(disc, w, c.witness) <= TANGENT, w


def acceptance_plants():
    return [sys_2d(s) for s in (0.1, 0.2, 0.3, 0.4, 0.5)] + [sys_jet()]


@pytest.mark.parametrize("plant", acceptance_plants(), ids=["s0.1", "s0.2", "s0.3", "s0.4", "s0.5", "jet"])
def test_level_sets_and_witnesses_match_the_cone_oracle_to_depth_8(plant):
    disc = discretize(plant)
    assert decidable_on_arcs(disc)
    arcs, cones = ArcOracle(disc), ConeOracle(disc)
    by_arcs = by_cones = None
    for l in range(1, 9):
        by_arcs = build_l_complete(disc, arcs, l, prev=by_arcs)
        by_cones = build_l_complete(disc, cones, l, prev=by_cones)
        assert by_arcs.states == by_cones.states, l
        for w in by_arcs.states:
            v = arcs.feasible_word(w)
            assert v.is_feasible and sigma_cone(disc, w).contains(v.witness), w
            assert math.isclose(np.linalg.norm(v.witness), 1.0)


def tangent_system(c1, w1, w2, gap, overlap, scale, flip):
    """kbar = 3 with R(1) the arc c1 +- w1 and R(2) the arc c2 +- w2, a
    quarter turn away, and M(1) a scaled rotation, or reflection, that pulls
    R(2) back to an arc whose end is `gap` past R(1)'s, or short of it."""
    c2 = c1 + 0.5 * math.pi
    target = c1 + w1 + w2 + (-gap if overlap else gap)  # centre of M(1)^-1 R(2)
    if flip:  # x -> angle 2 phi - t + theta, with phi = 0
        theta, F = target + c2, np.diag([1.0, -1.0])
    else:  # x -> angle t + theta
        theta, F = c2 - target, np.eye(2)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    M = np.stack([scale * rot @ F, np.eye(2), np.eye(2)])
    N = np.stack([arc_form(c1, w1), arc_form(c2, w2), arc_form(c2, w2)])
    return DiscretizedSystem(M=M, N=N, h=1.0, kbar=3), c1 + w1


@SETTINGS
@given(
    c1=st.floats(0.0, math.pi),
    widths=st.tuples(st.floats(0.05, 0.7), st.floats(0.05, 0.7)),
    gap=st.floats(1e-7, 1e-3),
    overlap=st.booleans(),
    scale=st.floats(1e-3, 1e3),
    flip=st.booleans(),
)
def test_nearly_tangent_arcs_keep_every_sampled_word(c1, widths, gap, overlap, scale, flip):
    disc, contact = tangent_system(c1, *widths, gap, overlap, scale, flip)
    assert decidable_on_arcs(disc)
    kept = ArcOracle(disc).feasible_word((1, 2)).is_feasible
    cone = sigma_cone(disc, (1, 2))
    t = contact + np.linspace(-3.0 * gap, 3.0 * gap, 4001)
    sampled = any(cone.contains(np.array([math.cos(s), math.sin(s)])) for s in t)
    assert kept or not sampled
    assert kept == overlap  # gap >= 1e-7 is far more than ARC_SLACK


def test_arcs_missing_by_the_slack_still_meet():
    a, b = ((0.5, 1.0),), ((1.0 + 0.5 * ARC_SLACK, 2.0),)
    assert intersect(a, b) and not intersect(a, ((1.0 + 2.0 * ARC_SLACK, 2.0),))


def test_pull_back_keeps_wrapping_and_full_arcs():
    back = (math.cos(0.2), math.sin(0.2), -math.sin(0.2), math.cos(0.2))  # rotation by -0.2
    arc = ((3.0, 3.5),)  # runs over the wrap at pi
    ((lo, hi),) = pull_back(arc, back, False)
    assert math.isclose(lo, 2.8) and math.isclose(hi, 3.3)
    assert pull_back(((0.0, math.pi),), back, False) == ((0.0, math.pi),)
    # the reflection t -> -t takes [3.0, 3.5] to [-3.5, -3.0], that is [2 pi - 3.5, 2 pi - 3.0]
    ((lo, hi),) = pull_back(arc, (1.0, 0.0, 0.0, -1.0), True)
    assert math.isclose(lo, 2 * math.pi - 3.5) and math.isclose(hi - lo, 0.5)


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])
NEAR_SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-5]])


@pytest.mark.parametrize("bad", [SINGULAR, NEAR_SINGULAR], ids=["singular", "near-singular"])
def test_a_singular_letter_is_decided_on_cones(bad, monkeypatch):
    disc = discretize(sys_2d(0.3))
    M = np.array(disc.M)
    M[4] = bad
    odd = DiscretizedSystem(M=M, N=disc.N, h=disc.h, kbar=disc.kbar)
    assert not decidable_on_arcs(odd)
    assert abs(np.linalg.det(bad)) <= DET_FLOOR * (bad**2).sum()
    config = SaistConfig(system=sys_2d(0.3), l_max=5)
    monkeypatch.setattr(driver, "discretize", lambda system: odd)
    chosen = compute_saist(config)
    monkeypatch.setattr(arcs_module, "decidable_on_arcs", lambda disc: False)
    forced = compute_saist(config)
    assert chosen.to_json(include_timing=False) == forced.to_json(include_timing=False)
    assert chosen.dot == forced.dot
    for it in chosen.iterations:  # counted by ConeOracle, not on arcs
        assert "arc_words" not in it["oracle"] and it["oracle"]["queries"] > 0


def test_bad_plants_and_words_are_refused():
    with pytest.raises(ValueError):
        ArcOracle(discretize(system_3d()))
    oracle = ArcOracle(discretize(sys_2d(0.3)))
    for word in [(), (0,), (1, 21)]:
        with pytest.raises(ValueError):
            oracle.feasible_word(word)


def test_import_saist_loads_no_arcs():
    src = os.path.dirname(os.path.dirname(driver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, saist; print('saist.arcs' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_selection_follows_the_plant():
    assert decidable_on_arcs(discretize(sys_2d(0.3)))
    assert decidable_on_arcs(discretize(sys_jet()))
    assert not decidable_on_arcs(discretize(system_3d()))
    report = compute_saist(SaistConfig(system=sys_2d(0.2), l_max=3))
    block = report.iterations[-1]["oracle"]
    assert block["arc_words"] > 0
    assert block["queries"] == block["engine_calls"] == block["sampling_hits"] == block["certified"] == 0


def test_a_missing_suffix_is_built_recursively_and_counted():
    disc = discretize(sys_2d(0.5))
    arcs, cones = ArcOracle(disc), ConeOracle(disc)
    word = trace(disc, np.array([1.0, 0.0]), 6)
    assert arcs.feasible_word(word).is_feasible
    assert arcs.stats["arc_words"] == 6  # the word and its five proper suffixes
    assert all(arcs.feasible_word(word[j:]).is_feasible for j in range(6))
    arcs.retain([])
    for w in [word + (k,) for k in arcs.alphabet] + [(3, 5, 7, 2), (20, 1), (1, 2, 3)]:
        assert arcs.feasible_word(w).maybe_feasible == cones.feasible_word(w).maybe_feasible, w
    assert arcs.stats["arc_words"] == len(arcs._verdicts)
    assert arcs.stats["queries"] == 0 and arcs.stats["engine_calls"] == 0
