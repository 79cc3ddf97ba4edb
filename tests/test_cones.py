import numpy as np
import pytest

from saist import (
    ConeSystem,
    discretize,
    sigma_cone,
    subspace_contained,
    trace,
)
from saist.errors import ConfigError, RankDeficientBasis
from saist.petc import SYM_TOL

from test_petc import system_2d


@pytest.fixture(scope="module")
def disc():
    return discretize(system_2d())


def test_constraint_counts(disc):
    # letter k < kbar contributes k atoms, the final letter kbar only kbar-1
    assert len(sigma_cone(disc, (3,)).signs) == 3
    assert len(sigma_cone(disc, (disc.kbar,)).signs) == disc.kbar - 1
    assert len(sigma_cone(disc, (2, 5)).signs) == 2 + 5


def test_membership_matches_trace(disc):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        w = trace(disc, x, 3)
        assert sigma_cone(disc, w).contains(x)
        other = (w[0] % disc.kbar) + 1, w[1], w[2]
        assert not sigma_cone(disc, other).contains(x)


def test_congruence_pullback(disc):
    # evaluating a pulled-back atom at x equals evaluating the original at
    # the propagated state
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2)
    w = trace(disc, x, 2)
    cone = sigma_cone(disc, w)
    x1 = disc.M[w[0] - 1] @ x
    # last atom of the second letter acts on the propagated state
    P, sign = cone.mats[-1], cone.signs[-1]
    k2 = w[1]
    if k2 < disc.kbar:
        direct = x1 @ disc.N[k2 - 1] @ x1
        assert sign * float(x @ P @ x) == pytest.approx(sign * direct, rel=1e-9)


def test_word_validation(disc):
    with pytest.raises(ConfigError):
        sigma_cone(disc, ())
    with pytest.raises(ConfigError):
        sigma_cone(disc, (0,))
    with pytest.raises(ConfigError):
        sigma_cone(disc, (disc.kbar + 1,))


def test_min_margin_and_arrays(disc):
    cone = sigma_cone(disc, (2, 3))
    mats, signs = cone.mats, cone.signs
    assert mats.shape == (5, 2, 2)
    x = np.array([1.0, 0.5])
    margins = signs * np.einsum("i,cij,j->c", x, mats, x)
    assert cone.min_margin(x) == pytest.approx(margins.min())


def test_subspace_contained_matches_sampling():
    rng = np.random.default_rng(5)
    for trial in range(30):
        P = rng.standard_normal((3, 3))
        P = 0.5 * (P + P.T)
        sign = 1.0 if trial % 2 == 0 else -1.0
        V = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        got = subspace_contained(V, P, sign, tol=1e-10)
        # dense sampling oracle over the subspace's unit circle
        ts = np.linspace(0, np.pi, 721)
        pts = np.cos(ts)[:, None] * V[:, 0] + np.sin(ts)[:, None] * V[:, 1]
        vals = np.einsum("pi,ij,pj->p", pts, P, pts)
        expected = bool(np.all(vals > 1e-8)) if sign > 0 else bool(
            np.all(vals <= 1e-8)
        )
        if got != expected:
            # disagreement allowed only in a borderline band around zero
            assert np.min(np.abs(vals)) < 1e-6
        else:
            assert got == expected


def test_subspace_rank_deficient():
    with pytest.raises(RankDeficientBasis):
        subspace_contained(np.zeros((2, 1)), np.eye(2), 1.0, tol=0.0)


def test_prefix_monotonicity(disc):
    # any witness of a word also satisfies every prefix cone
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        w = trace(disc, x, 4)
        for j in (1, 2, 3):
            assert sigma_cone(disc, w[:j]).contains(x)


def test_constructor_validates_forms():
    P = np.array([[1.0, 2.0], [2.0, -1.0]])
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConfigError):
        ConeSystem(word=(1,), mats=[P + 1e-6 * skew], signs=[1.0])
    with pytest.raises(ConfigError):  # one sign for two forms
        ConeSystem(word=(1,), mats=[P, P], signs=[1.0])
    with pytest.raises(ConfigError):  # a form that is not square
        ConeSystem(word=(1,), mats=np.zeros((1, 2, 3)), signs=[1.0])
    with pytest.raises(ConfigError):  # a lone form, not a stack
        ConeSystem(word=(1,), mats=P, signs=[1.0])
    for bad in (0.0, 2.0, 0.5, np.nan):
        with pytest.raises(ConfigError):
            ConeSystem(word=(1,), mats=[P], signs=[bad])
    # asymmetric within SYM_TOL: accepted, and stored as the symmetric part
    near = P + 0.5 * SYM_TOL * skew
    c = ConeSystem(word=(1,), mats=[near], signs=[-1.0])
    assert np.array_equal(c.mats[0], c.mats[0].T)
    assert np.array_equal(c.mats[0], 0.5 * (near + near.T))
    assert c.n == 2 and list(c.signs) == [-1.0]
    # no forms at all: the whole space, with its real dimension
    free = ConeSystem(word=(), mats=np.empty((0, 3, 3)), signs=[])
    assert free.n == 3 and free.contains(np.ones(3)) and free.min_margin(np.ones(3)) == np.inf
