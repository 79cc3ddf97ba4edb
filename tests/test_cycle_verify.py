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
    disc = discretize(
        PetcSystem(
            A=np.diag([-200.0, -200.0]),
            BK=np.zeros((2, 2)),
            Qtrig=relative_error_trigger(0.5, 2),
            h=0.05,
            kbar=5,
        )
    )
    # e^{-200*0.05*k} underflows the relative singular value threshold only
    # for very long words; build one long enough
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
