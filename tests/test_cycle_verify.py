import numpy as np
import pytest

from saist import (
    DiscretizedSystem,
    PetcSystem,
    basic_invariant_subspaces,
    cycle_matrix,
    discretize,
    relative_error_trigger,
    trace,
    verify_cycle,
)
from saist.cycle_verify import Kind, eigen_structure
from saist.errors import DefectiveMatrix, SingularCycleMatrix

from test_petc import system_2d


@pytest.fixture(scope="module")
def disc04():
    return discretize(system_2d(sigma=0.4))


@pytest.fixture(scope="module")
def disc05():
    return discretize(system_2d(sigma=0.5))


def test_cycle_matrix_single_letter(disc05):
    np.testing.assert_array_equal(cycle_matrix(disc05, (3,)), disc05.M[2])


def test_cycle_matrix_order_and_propagation(disc05):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2)
    M12 = cycle_matrix(disc05, (1, 2))
    np.testing.assert_allclose(M12 @ x, disc05.M[1] @ (disc05.M[0] @ x), rtol=1e-12)
    M21 = cycle_matrix(disc05, (2, 1))
    assert not np.allclose(M12, M21)


def test_cycle_matrix_determinant(disc05):
    word = (2, 5, 3)
    det = np.linalg.det(cycle_matrix(disc05, word))
    prod = np.prod([np.linalg.det(disc05.M[k - 1]) for k in word])
    assert det == pytest.approx(prod, rel=1e-9)


def test_cycle_matrix_singular():
    with pytest.raises(SingularCycleMatrix):
        cycle_matrix(
            discretize(
                PetcSystem(
                    A=np.diag([-2000.0, 1.0]),
                    BK=np.zeros((2, 2)),
                    Qtrig=relative_error_trigger(0.5, 2),
                    h=0.05,
                    kbar=5,
                )
            ),
            (5, 5),
        )


def test_a_singular_cycle_is_a_failed_candidate(disc04):
    M = np.array(disc04.M)
    M[4] = [[1.0, 2.0], [2.0, 4.0]]
    odd = DiscretizedSystem(M=M, N=disc04.N, h=disc04.h, kbar=disc04.kbar)
    with pytest.raises(SingularCycleMatrix):
        cycle_matrix(odd, (2, 5))
    out = verify_cycle(odd, (2, 5))
    assert not out.verified
    assert out.warnings == ("power 1: cycle matrix numerically singular",)


def test_bils_diagonal():
    subs = basic_invariant_subspaces(np.diag([1.0, 2.0]))
    assert len(subs) == 2
    assert all(s.kind is Kind.REAL_LINE for s in subs)
    # descending magnitude: eigenvalue 2 first
    assert subs[0].eigenvalue.real == pytest.approx(2.0)
    np.testing.assert_allclose(np.abs(subs[0].basis[:, 0]), [0.0, 1.0], atol=1e-12)


def test_bils_rotation_plane():
    t = 1.0
    R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    subs = basic_invariant_subspaces(R)
    assert len(subs) == 1
    assert subs[0].kind is Kind.CONJUGATE_PLANE
    assert subs[0].basis.shape == (2, 2)
    es = eigen_structure(R)  # the pair, the positive imaginary part first
    assert es.eigenvalues[0] == pytest.approx(np.exp(1j * t))


def test_bils_mixed_3d_residuals():
    rng = np.random.default_rng(1)
    t = 0.7
    block = np.block(
        [
            [0.5 * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]), np.zeros((2, 1))],
            [np.zeros((1, 2)), np.array([[2.0]])],
        ]
    )
    S = rng.standard_normal((3, 3))
    M = S @ block @ np.linalg.inv(S)
    subs = basic_invariant_subspaces(M)
    kinds = sorted(s.kind.value for s in subs)
    assert kinds == ["conjugate_plane", "real_line"]
    for s in subs:
        V = s.basis
        resid = np.linalg.norm((np.eye(3) - V @ V.T) @ M @ V)
        assert resid <= 1e-8 * np.linalg.norm(M, 2)


def test_bils_defective():
    with pytest.raises(DefectiveMatrix):
        basic_invariant_subspaces(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_verify_kbar_one():
    sys = system_2d(kbar=1)
    disc = discretize(sys)
    assert verify_cycle(disc, (1,)).verified


def test_verified_words_sigma04(disc04):
    assert verify_cycle(disc04, (5,)).verified
    assert verify_cycle(disc04, (6,)).verified
    assert not verify_cycle(disc04, (1,)).verified


def test_verified_words_sigma05(disc05):
    for k in (6, 7, 8):
        assert verify_cycle(disc05, (k,)).verified
    assert not verify_cycle(disc05, (2,)).verified


def test_constructive_soundness(disc04):
    out = verify_cycle(disc04, (5,))
    rng = np.random.default_rng(2)
    c = rng.standard_normal(out.witness.dim)
    x0 = out.witness.basis @ c
    x0 /= np.linalg.norm(x0)
    assert trace(disc04, x0, 20) == (5,) * 20


def test_rotation_closure(disc05):
    # σ = 0.2 system has a long verified cycle; use the cheap 2-rotation here:
    # every rotation of a verified word verifies
    word = (6,)
    assert verify_cycle(disc05, word).verified
    disc = discretize(system_2d(sigma=0.2))
    w = (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 6, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3)
    r1 = verify_cycle(disc, w)
    r2 = verify_cycle(disc, w[5:] + w[:5])
    assert r1.verified and r2.verified


def test_homogeneity_of_verdict(disc04):
    sys = system_2d(sigma=0.4)
    scaled = PetcSystem(
        A=sys.A, BK=sys.BK, Qtrig=37.0 * sys.Qtrig, h=sys.h, kbar=sys.kbar
    )
    d2 = discretize(scaled)
    assert verify_cycle(d2, (5,)).verified
    assert not verify_cycle(d2, (1,)).verified


def test_verify_builds_each_letters_forms_once(disc05, monkeypatch):
    import saist.cycle_verify as cv

    built = []
    letter_forms = cv.letter_forms
    monkeypatch.setattr(
        cv, "letter_forms", lambda disc, phis, ks: built.extend(ks) or letter_forms(disc, phis, ks)
    )
    word = (7, 7, 8, 7, 3, 8)
    verify_cycle(disc05, word)
    assert sorted(built) == [3, 7, 8]


def test_a_stack_of_forms_is_decided_as_each_form_alone():
    from saist import subspace_contained
    from saist.cones import span_satisfies

    rng = np.random.default_rng(3)
    for trial in range(200):
        n, d, c = 3, 1 + trial % 2, 1 + trial % 5
        V = np.linalg.qr(rng.standard_normal((n, d)))[0]
        P = rng.standard_normal((c, n, n))
        P = 0.5 * (P + P.transpose(0, 2, 1))
        P[:, 0, 0] += 3.0 * (trial % 3 - 1)  # some stacks hold throughout
        signs = rng.choice([-1.0, 1.0], c)
        want = all(subspace_contained(V, Pi, s, 1e-10) for Pi, s in zip(P, signs))
        assert span_satisfies(V, P, signs, 1e-10) == want
    assert span_satisfies(np.zeros((3, 1)), P[:0], signs[:0], 1e-10)


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def two_letter_disc(M1, N1):
    """kbar = 2: letter 1 is (M1, N1), letter 2 a contraction by 1/2."""
    return DiscretizedSystem(
        M=np.stack([M1, 0.5 * np.eye(2)]), N=np.stack([N1, np.eye(2)]), h=1.0, kbar=2
    )


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_a_scaled_plant_gets_the_verdict_of_the_unscaled_one(scale):
    # the IST problem is homogeneous: scaling M changes no verdict
    subs = basic_invariant_subspaces(scale * rotation(0.7))
    assert [s.kind for s in subs] == [Kind.CONJUGATE_PLANE]
    disc = two_letter_disc(scale * rotation(0.05), np.diag([1.0, -0.01]))
    assert not verify_cycle(disc, (1,)).verified


def test_a_power_above_one_verifies():
    # a quarter turn: M has no real line, but M^2 = -0.81 I keeps every line
    disc = two_letter_disc(0.9 * rotation(np.pi / 2), np.array([[1.0, -2.0], [-2.0, 1.0]]))
    out = verify_cycle(disc, (1,))
    assert out.verified and out.power == 2 and out.witness.kind is Kind.REAL_LINE


def rule_sweep():
    rng = np.random.default_rng(4)
    for r in range(1, 13):
        for p in range(1, 2 * r):
            for scale in (1.0, 1e-6):
                yield scale * rotation(np.pi * p / r)
    for lam in (0.3, 0.7, 1.0, 2.5):
        S = rng.standard_normal((3, 3))
        yield S @ np.diag([lam, -lam, 0.4]) @ np.linalg.inv(S)
        yield S[:2, :2] @ np.diag([lam, -lam]) @ np.linalg.inv(S[:2, :2])
    for d in 10.0 ** -np.arange(2, 12):
        yield np.array([[1.0, 1.0], [0.0, 1.0 + d]])
        yield np.array([[1.0, 1.0], [-d, 1.0]])  # 1 +- i sqrt(d)
    for d in (5e-10, 1e-9, 2e-9):  # nearly repeated: eigenvectors drift with q
        S = rng.standard_normal((3, 3))
        yield S @ np.diag([1.0, 1.0 + d, 0.3]) @ np.linalg.inv(S)
    for n in (2, 3):
        for _ in range(150):
            yield rng.standard_normal((n, n))


def test_the_power_rule_skips_no_power_that_matters():
    import saist.cycle_verify as cv

    def spanned(sub, subs):
        return any(
            s.dim == sub.dim and np.linalg.norm(sub.basis - s.basis @ (s.basis.T @ sub.basis)) < 1e-6
            for s in subs
        )

    new_at = set()
    for M in rule_sweep():
        try:
            subs = basic_invariant_subspaces(M)
        except DefectiveMatrix:
            continue  # every power is tried
        powers = cv._meeting_powers(subs)
        Mq = M
        for q in range(2, cv.MAX_POWER + 1):
            Mq = M @ Mq  # the letter product, as cycle_matrix builds it
            try:
                new = [s for s in basic_invariant_subspaces(Mq) if not spanned(s, subs)]
            except DefectiveMatrix:
                continue
            assert q in powers or not new, (M, q)
            new_at |= {q} if new else set()
    assert {2, 12} <= new_at  # the sweep reaches new subspaces
