"""The S-procedure emptiness certificate: soundness against points, the
branch-and-bound and dense sampling, and the exact rational check."""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from saist import ConeSystem, QuadConstraint, Sense
from saist.decider import decide_sphere_bnb, exactly_negative_definite, s_procedure_certificate

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def random_forms(rng, m, n):
    P = rng.standard_normal((m, n, n))
    return 0.5 * (P + P.transpose(0, 2, 1))


def exact_value(x, P):
    """x'Px in exact rationals, reading every float as the binary rational it stores."""
    xs = [Fraction(float(v)) for v in x]
    n = len(xs)
    return sum(xs[i] * Fraction(float(P[i, j])) * xs[j] for i in range(n) for j in range(n))


def cone(forms, senses):
    return ConeSystem(
        word=(1,), constraints=tuple(QuadConstraint(P, s) for P, s in zip(forms, senses))
    )


def unit_points(rng, n, count):
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def cone_containing_a_point(rng, n, m):
    """(cone, x): random forms with senses chosen so that x satisfies every
    constraint in exact arithmetic; NON_POSITIVE ones are made tight at x
    half of the time."""
    x = rng.standard_normal(n)
    forms = random_forms(rng, m, n)
    senses = []
    for i in range(m):
        if rng.random() < 0.5:
            forms[i] -= (x @ forms[i] @ x) / (x @ x) * np.eye(n)
        v = exact_value(x, forms[i])
        senses.append(Sense.STRICT_POSITIVE if v > 0 else Sense.NON_POSITIVE)
    return cone(forms, senses), x


def cone_with_a_certificate(rng, n, m, scale):
    """A cone with a known certificate: the last form closes a weighted sum
    of random forms to -(B B' + scale I)."""
    forms = random_forms(rng, m, n)
    senses = [Sense.STRICT_POSITIVE if rng.random() < 0.5 else Sense.NON_POSITIVE for _ in range(m)]
    w = rng.uniform(0.1, 1.0, m)
    B = rng.standard_normal((n, n))
    target = -(B @ B.T + scale * np.eye(n))
    partial = sum(w[i] * s.sign * forms[i] for i, s in enumerate(senses[:-1]))
    forms[-1] = senses[-1].sign * (target - partial) / w[-1]
    return cone(forms, senses)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), m=st.integers(1, 12))
def test_cone_containing_a_point_gets_no_certificate(seed, n, m):
    c, x = cone_containing_a_point(np.random.default_rng(seed), n, m)
    assert all(exact_value(x, q.P) > 0 if q.sense is Sense.STRICT_POSITIVE
               else exact_value(x, q.P) <= 0 for q in c.constraints)
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
    assert exactly_negative_definite(tau, c)
    reply, _ = decide_sphere_bnb(c, max_regions=1500)
    assert reply != "sat"
    mats, signs = c.arrays()
    pts = unit_points(rng, n, 20_000)
    q = np.einsum("pi,cij,pj->pc", pts, mats, pts)
    inside = np.where(signs > 0, q > 0, q <= 0).all(axis=1)
    assert not inside.any()


def test_certificate_found_on_a_plainly_empty_cone():
    c = cone(
        [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -2.0]), np.diag([0.5, 0.5, 3.0])],
        [Sense.STRICT_POSITIVE, Sense.STRICT_POSITIVE, Sense.NON_POSITIVE],
    )
    tau = s_procedure_certificate(c)
    assert tau is not None and exactly_negative_definite(tau, c)


def test_exact_check_rejects_a_sum_that_rounds_negative():
    # fl(1/3) * -3 is exactly -(1 - 2**-54) and rounds to -1, so summed left
    # to right in floats the last diagonal entry is -1 + 0.5 + (0.5 - 2**-54)
    # = -2**-54, while in exact arithmetic it is 0 and the sum is singular
    e = np.diag([0.0, 0.0, 1.0])
    c = cone(
        [-3.0 * e, e, (0.5 - 2.0**-54) * e, np.diag([-1.0, -1.0, 0.0])],
        [Sense.STRICT_POSITIVE] * 4,
    )
    tau = np.array([1.0 / 3.0, 0.5, 1.0, 1.0])
    float_sum = np.zeros((3, 3))
    for t, q in zip(tau, c.constraints):
        float_sum = float_sum + t * q.sense.sign * q.P
    assert np.linalg.eigvalsh(float_sum).max() < 0  # looks negative definite
    assert not exactly_negative_definite(tau, c)
    # with a smaller weight on the positive term the exact sum is negative
    assert exactly_negative_definite(np.array([1.0 / 3.0, 0.5, 0.5, 1.0]), c)
