"""The S-procedure emptiness certificate: soundness against points, the
branch-and-bound and dense sampling, and the rounding-bounded definiteness
check against exact rationals."""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from saist import ConeSystem
from saist.decider import (
    certified_negative_definite,
    decide_sphere_bnb,
    s_procedure_certificate,
    s_procedure_certificates,
)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def random_forms(rng, m, n):
    P = rng.standard_normal((m, n, n))
    return 0.5 * (P + P.transpose(0, 2, 1))


def exact_value(x, P):
    """x'Px in exact rationals, reading every float as the binary rational it stores."""
    xs = [Fraction(float(v)) for v in x]
    n = len(xs)
    return sum(xs[i] * Fraction(float(P[i, j])) * xs[j] for i in range(n) for j in range(n))


def cone(forms, signs):
    return ConeSystem(word=(1,), mats=forms, signs=signs)


def unit_points(rng, n, count):
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def cone_containing_a_point(rng, n, m):
    """(cone, x): random forms with signs chosen so that x satisfies every
    constraint in exact arithmetic; non-positive ones are made tight at x
    half of the time."""
    x = rng.standard_normal(n)
    forms = random_forms(rng, m, n)
    signs = []
    for i in range(m):
        if rng.random() < 0.5:
            forms[i] -= (x @ forms[i] @ x) / (x @ x) * np.eye(n)
        v = exact_value(x, forms[i])
        signs.append(1.0 if v > 0 else -1.0)
    return cone(forms, signs), x


def cone_and_certificate(rng, n, m, scale):
    """(cone, w): a cone and its known certificate w, with which the last
    form closes a weighted sum of random forms to -(B B' + scale I)."""
    forms = random_forms(rng, m, n)
    signs = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(m)]
    w = rng.uniform(0.1, 1.0, m)
    B = rng.standard_normal((n, n))
    target = -(B @ B.T + scale * np.eye(n))
    partial = sum(w[i] * s * forms[i] for i, s in enumerate(signs[:-1]))
    forms[-1] = signs[-1] * (target - partial) / w[-1]
    return cone(forms, signs), w


def cone_with_a_certificate(rng, n, m, scale):
    return cone_and_certificate(rng, n, m, scale)[0]


def certified(weights, c):
    """`certified_negative_definite` of one cone's weighted forms s_i P_i."""
    forms = np.asarray(c.signs)[:, None, None] * c.mats
    return bool(certified_negative_definite(np.asarray(weights)[None], forms[None])[0])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), m=st.integers(1, 12))
def test_cone_containing_a_point_gets_no_certificate(seed, n, m):
    c, x = cone_containing_a_point(np.random.default_rng(seed), n, m)
    assert all(exact_value(x, P) > 0 if s > 0
               else exact_value(x, P) <= 0 for P, s in zip(c.mats, c.signs))
    assert s_procedure_certificate(c) is None


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([3, 4]),
    m=st.integers(2, 8),
    scale=st.floats(0.05, 5.0),
)
def test_certified_cone_has_no_points(seed, n, m, scale):
    rng = np.random.default_rng(seed)
    c = cone_with_a_certificate(rng, n, m, scale)
    tau = s_procedure_certificate(c)
    assume(tau is not None)
    assert np.all(tau >= 0) and tau.sum() > 0
    assert certified(tau, c) and fraction_negative_definite(tau, c)
    reply, _ = decide_sphere_bnb(c, max_regions=1500)
    assert reply != "sat"
    mats, signs = c.mats, c.signs
    pts = unit_points(rng, n, 20_000)
    q = np.einsum("pi,cij,pj->pc", pts, mats, pts)
    inside = np.where(signs > 0, q > 0, q <= 0).all(axis=1)
    assert not inside.any()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), size=st.integers(1, 10))
def test_a_batch_certifies_each_cone_as_it_would_alone(seed, n, size):
    """The lockstep descent gives every cone of a batch, over mixed form
    counts, zero forms and a form-free cone, bitwise the weights of its
    batch of one, and every weight it returns is a certificate in exact
    rationals."""
    rng = np.random.default_rng(seed)
    cones = [cone(np.empty((0, n, n)), [])]
    for _ in range(size):
        m = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            c = cone_with_a_certificate(rng, n, max(m, 2), rng.uniform(0.05, 5.0))
        else:
            c, _ = cone_containing_a_point(rng, n, m)
        mats = c.mats.copy()
        mats[rng.random(len(mats)) < 0.2] = 0.0
        cones.append(cone(mats, c.signs))
    rng.shuffle(cones)
    got = s_procedure_certificates(cones)
    alone = [s_procedure_certificates([c])[0] for c in cones]
    assert [None if w is None else w.tobytes() for w in got] == [
        None if w is None else w.tobytes() for w in alone
    ]
    for c, w in zip(cones, got):
        assert w is None or (len(w) == len(c.signs) and fraction_negative_definite(w, c))
        if not np.linalg.norm(c.mats, axis=(1, 2)).any():
            assert w is None


def test_certificate_found_on_a_plainly_empty_cone():
    c = cone(
        [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -2.0]), np.diag([0.5, 0.5, 3.0])],
        [1.0, 1.0, -1.0],
    )
    tau = s_procedure_certificate(c)
    assert tau is not None and certified(tau, c) and fraction_negative_definite(tau, c)


def test_exact_check_rejects_a_sum_that_rounds_negative():
    # fl(1/3) * -3 is exactly -(1 - 2**-54) and rounds to -1, so summed left
    # to right in floats the last diagonal entry is -1 + 0.5 + (0.5 - 2**-54)
    # = -2**-54, while in exact arithmetic it is 0 and the sum is singular
    e = np.diag([0.0, 0.0, 1.0])
    c = cone(
        [-3.0 * e, e, (0.5 - 2.0**-54) * e, np.diag([-1.0, -1.0, 0.0])],
        [1.0] * 4,
    )
    tau = np.array([1.0 / 3.0, 0.5, 1.0, 1.0])
    float_sum = np.zeros((3, 3))
    for t, P, s in zip(tau, c.mats, c.signs):
        float_sum = float_sum + t * s * P
    assert np.linalg.eigvalsh(float_sum).max() < 0  # looks negative definite
    assert not certified(tau, c)
    # with a smaller weight on the positive term the exact sum is negative
    assert certified(np.array([1.0 / 3.0, 0.5, 0.5, 1.0]), c)


def fraction_negative_definite(weights, c):
    """The reference check: -sum in `fractions`, positive pivots of its
    Gaussian elimination without pivoting."""
    n = c.n
    S = [[Fraction(0)] * n for _ in range(n)]
    for w, P, s in zip(weights, c.mats, c.signs):
        if w == 0.0:
            continue
        f = Fraction(float(w)) * int(s)
        for i in range(n):
            for j in range(i, n):
                S[i][j] -= f * Fraction(float(P[i, j]))
    for i in range(n):
        for j in range(i):
            S[i][j] = S[j][i]
    for k in range(n):
        if S[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = S[i][k] / S[k][k]
            for j in range(k + 1, n):
                S[i][j] -= f * S[k][j]
    return True


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    m=st.integers(1, 6),
    kind=st.sampled_from(["random", "certified", "singular", "near_singular", "sparse"]),
)
def test_definiteness_check_is_sound_against_fractions(seed, n, m, kind):
    """The float check accepts only sums that are negative definite in exact
    rationals; it may reject one that is, within its shift of singular."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.8)
    signs = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(m)]
    forms = random_forms(rng, m, n) * 10.0 ** rng.integers(-8, 9, (m, 1, 1))
    if kind == "certified" and n > 1:
        c = cone_with_a_certificate(rng, n, m + 1, float(rng.uniform(1e-9, 2.0)))
        tau = np.append(rng.uniform(0.1, 1.0, m), 1.0)
    else:
        if kind in ("singular", "near_singular"):
            # the last form closes the weighted sum to -(B B') with B of rank < n,
            # nudged by one ulp-sized multiple of the identity when near singular
            B = rng.standard_normal((n, max(n - 1, 0)))
            target = -(B @ B.T)
            if kind == "near_singular":
                target -= float(rng.choice([-1.0, 1.0])) * 2.0**-40 * np.eye(n)
            partial = sum(t * s * P for t, s, P in zip(tau[:-1], signs, forms))
            tau[-1] = 1.0
            signs[-1] = 1.0
            forms[-1] = target - partial
        elif kind == "sparse":
            forms[:, rng.random((n, n)) < 0.5] = 0.0
        c = cone(0.5 * (forms + forms.transpose(0, 2, 1)), signs)
    assert not certified(tau, c) or fraction_negative_definite(tau, c)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([3, 4]),
    m=st.integers(2, 44),
    scale=st.floats(-12.0, 1.0),
    power=st.integers(-200, 200),
)
def test_definiteness_check_accepts_every_clear_certificate(seed, n, m, scale, power):
    """Every known certificate whose relative margin
    -lambda_max(sum w_i s_i P_i) / ||sum w_i |P_i| ||_2 is at least 1e-9 is
    accepted, at any power-of-two scale of the weights."""
    c, w = cone_and_certificate(np.random.default_rng(seed), n, m, 10.0**scale)
    w = w * 2.0**power
    total = np.einsum("i,i,ijk->jk", w, c.signs, c.mats)
    size = np.einsum("i,ijk->jk", w, np.abs(c.mats))
    margin = -np.linalg.eigvalsh(total).max() / np.linalg.norm(size, 2)
    if margin >= 1e-9:
        assert certified(w, c)


def test_definiteness_check_on_zero_weights_and_forms():
    c = cone([np.zeros((3, 3)), -np.eye(3)], [1.0, 1.0])
    for tau in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0**-1074, 0.0], [0.0, 2.0**-1074]):
        tau = np.array(tau)
        assert not certified(tau, c) or fraction_negative_definite(tau, c)
    assert certified(np.array([0.0, 1.0]), c)
    # 2**-1074 I is negative definite in exact rationals, but it lies within
    # the underflow part of the shift of singular, so the check rejects it
    assert fraction_negative_definite(np.array([0.0, 2.0**-1074]), c)
    assert not certified(np.array([0.0, 2.0**-1074]), c)


def test_definiteness_check_decides_each_cone_of_a_stack_alone():
    """One failing, NaN or overflowing sum in a stack fails alone."""
    forms = np.stack([-np.eye(3), np.eye(3), np.full((3, 3), np.nan), -1e308 * np.eye(3)])[:, None]
    weights = np.array([[1.0], [1.0], [1.0], [1e10]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert certified_negative_definite(weights, forms).tolist() == [True, False, False, False]
