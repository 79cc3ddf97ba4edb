"""The n <= 3 rules: the planar arc rule against the scalar rule it
replaced, and the 3-D curve decider against the branch-and-bound."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saist import ConeOracle, ConeSystem, Status, discretize
from saist import decider, kernels
from saist.arcs import widest_midpoint
from saist.decider import (
    WITNESS_TOL,
    BuiltinDecider,
    decide_sphere_bnb,
    decide_sphere_curves,
)

from test_certificate import cone_containing_a_point, cone_with_a_certificate, random_forms
from test_oracle import planar_arcs, system_3d

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SIGNS = st.sampled_from([1.0, -1.0])


def cone(forms, signs):
    return ConeSystem(word=(1,), mats=forms, signs=signs)


def scalar_point(cone):
    """The planar rule before vectorisation: every constraint's roots, sorted,
    then the arc midpoints, each tried in turn with `cone.contains`; the
    first point of the cone, or None."""
    roots = []
    for P in cone.mats:
        a = 0.5 * (P[0, 0] + P[1, 1])
        b = 0.5 * (P[0, 0] - P[1, 1])
        g = P[0, 1]
        R = math.hypot(b, g)
        if R <= 1e-300:
            continue
        u = -a / R
        if -1.0 <= u <= 1.0:
            phi = math.atan2(g, b)
            psi = math.acos(max(-1.0, min(1.0, u)))
            for s in (phi + psi, phi - psi):
                roots.append((s / 2.0) % math.pi)
    roots = sorted(set(roots))
    candidates = list(roots)
    if roots:
        ext = roots + [roots[0] + math.pi]
        candidates.extend(0.5 * (ext[i] + ext[i + 1]) for i in range(len(roots)))
    else:
        candidates.append(0.0)
    for t in candidates:
        x = np.array([math.cos(t), math.sin(t)])
        if cone.contains(x, tol=0.0):
            return x
    return None


def arc_form(center, half_width, scale=1.0):
    """A 2x2 form positive exactly where the angle lies within half_width of
    center (mod pi): cos(2(t - center)) - cos(2 half_width) on the circle."""
    a, b, g = -math.cos(2 * half_width), math.cos(2 * center), math.sin(2 * center)
    return scale * np.array([[a + b, g], [g, a - b]])


def assert_planar_matches(c):
    arcs = planar_arcs(c)
    assert bool(arcs) == (scalar_point(c) is not None)
    if arcs:
        assert c.contains(widest_midpoint(arcs))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), signs=st.lists(SIGNS, min_size=8))
def test_planar_matches_the_scalar_rule_on_random_cones(seed, m, signs):
    assert_planar_matches(cone(random_forms(np.random.default_rng(seed), m, 2), signs[:m]))


@SETTINGS
@given(
    center=st.floats(0.0, math.pi),
    widths=st.tuples(st.floats(0.05, 0.7), st.floats(0.05, 0.7)),
    gap=st.floats(1e-7, 1e-3),
    overlap=st.booleans(),
    scales=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    flip=st.booleans(),
)
def test_planar_matches_the_scalar_rule_on_nearly_tangent_cones(
    center, widths, gap, overlap, scales, flip
):
    # two arcs whose ends are `gap` apart, or overlap by `gap`; a flipped
    # form is the same closed arc written as a NON_POSITIVE constraint
    w1, w2 = widths
    c2 = center + w1 + w2 + (-gap if overlap else gap)
    P1, P2 = arc_form(center, w1, scales[0]), arc_form(c2, w2, scales[1])
    signs = [1.0, 1.0]
    if flip:
        P2, signs[1] = -P2, -1.0
    c = cone([P1, P2], signs)
    assert_planar_matches(c)
    assert bool(planar_arcs(c)) == overlap


def test_planar_witness_has_the_largest_worst_margin():
    # the cone x0^2 > x1^2 is the arc |t| < pi/4; its ends are roots of
    # the form, its point of largest margin the midpoint t = 0
    x = widest_midpoint(planar_arcs(cone([np.diag([1.0, -1.0])], [1.0])))
    np.testing.assert_allclose(np.abs(x), [1.0, 0.0], atol=1e-12)


def bnb(c):
    return decide_sphere_bnb(c, max_regions=20_000)[0]


def assert_compatible(c, reply, x, reference):
    assert {reply, reference} != {"sat", "unsat"}
    if reply == "sat":
        assert c.contains(x) and kernels.margins(x[None], c.mats, c.signs).min() > WITNESS_TOL


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), signs=st.lists(SIGNS, min_size=8))
def test_curves_match_bnb_on_random_cones(seed, m, signs):
    c = cone(random_forms(np.random.default_rng(seed), m, 3), signs[:m])
    reply, x = decide_sphere_curves(c)
    reference = bnb(c)
    assert_compatible(c, reply, x, reference)
    assert reply == reference or reference == "unknown"  # bnb out of regions


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8))
def test_curves_never_empty_a_cone_with_a_known_point(seed, m):
    c, _ = cone_containing_a_point(np.random.default_rng(seed), 3, m)
    reply, x = decide_sphere_curves(c)
    assert reply != "unsat"
    assert_compatible(c, reply, x, bnb(c))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), scale=st.floats(0.05, 5.0))
def test_curves_empty_a_cone_with_a_certificate(seed, m, scale):
    c = cone_with_a_certificate(np.random.default_rng(seed), 3, m, scale)
    assert decide_sphere_curves(c)[0] == "unsat"


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    shift=st.floats(1e-6, 1e-2),
    inward=st.booleans(),
)
def test_curves_match_bnb_on_nearly_tangent_cones(seed, m, shift, inward):
    # every form is made to vanish at x, then shifted by +-shift * I: the
    # cone near x opens a little or closes a little
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    forms = random_forms(rng, m, 3)
    signs = []
    for P in forms:
        P -= (x @ P @ x) * np.eye(3)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        P += (shift if inward else -shift) * sign * np.eye(3)
        signs.append(sign)
    c = cone(forms, signs)
    reply, x = decide_sphere_curves(c)
    reference = bnb(c)
    assert_compatible(c, reply, x, reference)
    if inward:
        assert reply == "sat"


def test_curves_step_inside_a_thin_cone():
    # x'Px > 0 only within about 1e-3 rad of a rotated axis: no candidate on
    # the oval clears the witness margin, a step inside does
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    P = Q @ np.diag([1.0, -1e6, -1e6]) @ Q.T
    c = cone([P], [1.0])
    reply, x = decide_sphere_curves(c)
    assert reply == "sat" and kernels.margins(x[None], c.mats, c.signs).min() > WITNESS_TOL


def test_a_boundary_only_cone_is_unknown():
    # x0^2 > x1^2 + x2^2 and x0^2 <= x1^2 + x2^2: the closures meet on a circular cone
    round_cone = np.diag([1.0, -1.0, -1.0])
    assert decide_sphere_curves(cone([round_cone, round_cone], [1.0, -1.0])) == ("unknown", None)
    assert decide_sphere_curves(cone([-np.eye(3)], [1.0])) == ("unsat", None)


def test_singular_form_falls_back_to_bnb(monkeypatch):
    calls = []

    def recording(cone, **kwargs):
        calls.append(cone)
        return decide_sphere_bnb(cone, **kwargs)

    monkeypatch.setattr(decider, "decide_sphere_bnb", recording)
    c = cone([np.diag([1.0, -1.0, 0.0])], [1.0])
    reply, x = BuiltinDecider().check(c)
    assert calls == [c] and reply == "sat" and c.contains(x)
    calls.clear()
    BuiltinDecider().check(cone([np.diag([1.0, -1.0, 0.5])], [1.0]))
    assert calls == []


def test_3d_oracle_query_runs_no_ascent(monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("witness ascent run in 3-D")

    monkeypatch.setattr(kernels, "min_margin_ascent", no_ascent)
    oracle = ConeOracle(discretize(system_3d()))
    # a cone too thin for the pool, which no certificate can empty
    Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))
    thin = cone([Q @ np.diag([1.0, -1e6, -1e6]) @ Q.T], [1.0])
    v = oracle.feasible(thin)
    assert v.status is Status.FEASIBLE and thin.contains(v.witness)
    assert oracle.stats["engine_calls"] == 1 and oracle.stats["sampling_hits"] == 0
