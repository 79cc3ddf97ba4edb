"""The 2-D arc oracle against a reference oracle on sigma-cones, its
witnesses, its soundness on nearly tangent arcs and on singular letters, the
pull-back through the adjugate, and which oracle `compute_saist` picks."""

import math
import os
import re
import subprocess
import sys

from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from saist import driver
from saist.arcs import (
    ARC_SLACK,
    FULL,
    ArcOracle,
    intersect,
    letter_arcs,
    normalized,
    pull_back,
    widest_midpoint,
)
from saist.cones import sigma_cone
from saist.errors import ConfigError

from test_acceptance import sys_2d, sys_jet
from test_curve_decider import arc_form, scalar_point
from test_oracle import system_3d

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
TANGENT = 1e-6  # an arc this narrow, or a cone witness this shallow, is within rounding of tangency


def adj_of(M):
    """(adj M as the flat (a, b, c, d), det M < 0): `pull_back`'s arguments."""
    (a, b), (c, d) = np.asarray(M, dtype=float).tolist()
    return (d, -b, -c, a), a * d - b * c < 0.0


def arcs_of(disc, word):
    """The word's arc set from the primitives alone, last letter first."""
    N = disc.N.tolist()
    arcs = letter_arcs(N, word[-1], disc.kbar)
    for k in reversed(word[:-1]):
        if not arcs:
            break
        arcs = intersect(letter_arcs(N, k, disc.kbar), pull_back(arcs, *adj_of(disc.M[k - 1])))
    return arcs


class ConeVerdict(NamedTuple):
    """A reference verdict: a witness direction, or None for an empty cone."""

    witness: Optional[np.ndarray]

    @property
    def is_feasible(self):
        return self.witness is not None

    maybe_feasible = is_feasible


class ScalarConeOracle:
    """The reference for planar plants: each word decided on its own
    sigma-cone by the scalar rule (`scalar_point`), with no arcs, no
    pull-back and no cache."""

    def __init__(self, disc):
        self.disc, self.alphabet = disc, range(1, disc.kbar + 1)

    def feasible_word(self, word):
        return ConeVerdict(scalar_point(sigma_cone(self.disc, word)))

    def feasible_words(self, words):
        return [self.feasible_word(w) for w in words]

    def retain(self, words):
        pass


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
    arcs, cones = ArcOracle(disc), ScalarConeOracle(disc)
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
    arcs, cones = ArcOracle(disc), ScalarConeOracle(disc)
    by_arcs = by_cones = None
    for l in range(1, 9):
        by_arcs = build_l_complete(disc, arcs, l, prev=by_arcs)
        by_cones = build_l_complete(disc, cones, l, prev=by_cones)
        assert by_arcs.states == by_cones.states, l
        for w in by_arcs.states:
            v = arcs.feasible_word(w)
            assert v.is_feasible and sigma_cone(disc, w).contains(v.witness), w
            assert math.isclose(np.linalg.norm(v.witness), 1.0)
            assert v.witness.tobytes() == widest_midpoint(v.arcs).tobytes()  # read lazily
    assert arcs.stats["arc_words"] == len(arcs._verdicts)


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
    kept = ArcOracle(disc).feasible_word((1, 2)).is_feasible
    cone = sigma_cone(disc, (1, 2))
    t = contact + np.linspace(-3.0 * gap, 3.0 * gap, 4001)
    sampled = any(cone.contains(np.array([math.cos(s), math.sin(s)])) for s in t)
    assert kept or not sampled
    assert kept == overlap  # gap >= 1e-7 is far more than ARC_SLACK


def test_arcs_missing_by_the_slack_still_meet():
    a, b = ((0.5, 1.0),), ((1.0 + 0.5 * ARC_SLACK, 2.0),)
    assert intersect(a, b) and not intersect(a, ((1.0 + 2.0 * ARC_SLACK, 2.0),))


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def test_pull_back_keeps_wrapping_and_full_arcs():
    arc = ((3.0, 3.5),)  # runs over the wrap at pi
    ((lo, hi),) = pull_back(arc, *adj_of(rotation(0.2)))
    assert math.isclose(lo, 2.8) and math.isclose(hi, 3.3)
    assert pull_back(FULL, *adj_of(rotation(0.2))) == FULL
    assert pull_back(FULL, *adj_of(3.0 * rotation(-1.0))) == FULL
    # the reflection t -> -t takes [3.0, 3.5] to [-3.5, -3.0], that is [2 pi - 3.5, 2 pi - 3.0]
    ((lo, hi),) = pull_back(arc, *adj_of(np.diag([1.0, -1.0])))
    assert math.isclose(lo, 2 * math.pi - 3.5) and math.isclose(hi - lo, 0.5)


KERNEL = math.atan2(0.3, 1.1)  # the kernel direction of every M = u (0.3, -1.1)'


@pytest.mark.parametrize(
    "range_angle, arc, expected",
    [
        (1.2, (1.0, 1.5), FULL),  # the range inside S
        (1.2 + math.pi, (1.0, 1.5), FULL),  # the same line, the other way
        (2.0, (1.0, 1.5), ((KERNEL, KERNEL),)),  # the range outside S: its kernel
        (1.0, (1.0, 1.5), FULL),  # the range on an endpoint
        (1.5, (1.0, 1.5), FULL),
        (0.0, (2.5, math.pi), FULL),  # on an endpoint that rounding puts just past it
    ],
)
def test_pull_back_through_a_rank_1_letter(range_angle, arc, expected):
    M = np.outer([math.cos(range_angle), math.sin(range_angle)], [0.3, -1.1])
    back = pull_back((arc,), *adj_of(M))
    assert len(back) == len(expected)
    for got, want in zip(back, expected):
        assert got == pytest.approx(want, abs=1e-12)


def depth_in(arcs, t):
    """How far inside the arc set the angle t lies, in radians; <= 0 outside."""
    t %= math.pi
    if arcs == FULL:
        return math.inf
    return max((min(s - lo, hi - s) for lo, hi in arcs for s in (t, t + math.pi)), default=-1.0)


def exact_image(M, x):
    """M x, each entry the rounded exact sum of exact products."""
    return [float(sum(Fraction(m) * Fraction(v) for m, v in zip(row, x))) for row in M.tolist()]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-12, 1e-6, None]),  # rank 1 plus this much; None: generic
    lo=st.floats(0.0, math.pi, exclude_max=True),
    width=st.floats(0.0, math.pi),
)
def test_pull_back_keeps_every_sampled_preimage(seed, noise, lo, width):
    rng = np.random.default_rng(seed)
    if noise is None:
        M = rng.standard_normal((2, 2))
    else:
        M = np.outer(rng.standard_normal(2), rng.standard_normal(2)) + noise * rng.standard_normal((2, 2))
    S = normalized([(lo, lo + width)])
    back = pull_back(S, *adj_of(M))
    for t in np.concatenate([np.linspace(0.0, math.pi, 500, endpoint=False), rng.uniform(0.0, math.pi, 500)]):
        y = exact_image(M, [math.cos(t), math.sin(t)])
        if any(y) and depth_in(S, math.atan2(y[1], y[0])) > 1e-9:
            assert depth_in(back, t) >= 0.0, (t, S, back)


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])
NEAR_SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-5]])


def with_letter_5(M5):
    """2-D sigma = 0.3 with M(5) replaced."""
    disc = discretize(sys_2d(0.3))
    M = np.array(disc.M)
    M[4] = M5
    return DiscretizedSystem(M=M, N=disc.N, h=disc.h, kbar=disc.kbar)


def dot_states(dot):
    return {tuple(map(int, label.split(","))) for label in re.findall(r'label="\(([^)]*)\)"', dot)}


def test_a_near_singular_letter_keeps_every_traced_word(monkeypatch):
    odd = with_letter_5(NEAR_SINGULAR)
    monkeypatch.setattr(driver, "discretize", lambda system: odd)
    report = compute_saist(SaistConfig(system=sys_2d(0.3), l_max=3))
    assert report.l_reached == 3 and not report.verified
    # M(5) maps almost every direction onto one line, so the states that
    # start with two 5s span about 1e-12 rad, and their third IST varies
    t = 2.67794584458798 + np.linspace(-1e-12, 1e-12, 4001)
    traced = {trace(odd, np.array([math.cos(s), math.sin(s)]), 3) for s in t}
    assert {(5, 5, 3), (5, 5, 6), (5, 5, 7), (5, 5, 8)} <= traced
    assert traced <= dot_states(report.dot)


def test_a_singular_letter_ends_in_bounds(monkeypatch):
    monkeypatch.setattr(driver, "discretize", lambda system: with_letter_5(SINGULAR))
    report = compute_saist(SaistConfig(system=sys_2d(0.3), l_max=10))
    assert report.status == "BoundsOnly" and report.l_reached == 10
    assert report.saist_lower <= report.saist_upper
    # every suffix keeps the kernel point of M(5): looser than the sigma-cones, but sound
    assert report.iterations[2]["n_states"] == 40


def test_bad_plants_and_words_are_refused():
    planar, spatial = discretize(sys_2d(0.3)), discretize(system_3d())
    with pytest.raises(ValueError):
        ArcOracle(spatial)
    with pytest.raises(ValueError):
        ConeOracle(planar)
    for oracle in (ArcOracle(planar), ConeOracle(spatial)):  # both have kbar = 20
        for word in [(), (0,), (1, 21)]:
            with pytest.raises(ConfigError):
                oracle.feasible_word(word)
            with pytest.raises(ConfigError):  # one bad word refuses the batch
                oracle.feasible_words([(1,), word, (2,)])
    arcs = ArcOracle(planar)
    with pytest.raises(ConfigError):
        arcs.feasible_words([(1,), (2, 21)])
    assert arcs.stats["arc_words"] == len(arcs._verdicts) == 0  # checked before any is decided
    batch = [(1,), (2, 3), (20, 1)]
    assert arcs.feasible_words(iter(batch)) == [arcs.feasible_word(w) for w in batch]


def test_import_saist_loads_no_arcs():
    src = os.path.dirname(os.path.dirname(driver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, saist; print('saist.arcs' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_selection_follows_the_plant():
    report = compute_saist(SaistConfig(system=sys_2d(0.2), l_max=3))
    block = report.iterations[-1]["oracle"]
    assert block["arc_words"] > 0
    assert block["queries"] == block["engine_calls"] == block["sampling_hits"] == block["certified"] == 0
    block = compute_saist(SaistConfig(system=system_3d(), l_max=1)).iterations[-1]["oracle"]
    assert "arc_words" not in block and block["queries"] > 0


def test_a_missing_suffix_is_built_recursively_and_counted():
    disc = discretize(sys_2d(0.5))
    arcs, cones = ArcOracle(disc), ScalarConeOracle(disc)
    word = trace(disc, np.array([1.0, 0.0]), 6)
    assert arcs.feasible_word(word).is_feasible
    assert arcs.stats["arc_words"] == 6  # the word and its five proper suffixes
    assert all(arcs.feasible_word(word[j:]).is_feasible for j in range(6))
    arcs.retain([])
    for w in [word + (k,) for k in arcs.alphabet] + [(3, 5, 7, 2), (20, 1), (1, 2, 3)]:
        assert arcs.feasible_word(w).maybe_feasible == cones.feasible_word(w).maybe_feasible, w
    assert arcs.stats["arc_words"] == len(arcs._verdicts)
    assert arcs.stats["queries"] == 0 and arcs.stats["engine_calls"] == 0
