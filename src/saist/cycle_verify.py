"""Verification of candidate periodic sampling behaviors.

A cycle word verifies when some basic invariant linear subspace of its cycle
matrix M, or of a power M^q where two eigenvalues of M meet, stays inside
the chain of per-step cones; a Verified verdict is gated by a finite float64
simulation from a witness state.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import letter_forms, span_satisfies
from .errors import DefectiveMatrix, RankDeficientBasis, SingularCycleMatrix
from .petc import DiscretizedSystem, trace

STRICT_TOL = 1e-10
MAG_GAP = 1e-9
MAX_POWER = 12


class Kind(enum.Enum):
    REAL_LINE = "real_line"
    CONJUGATE_PLANE = "conjugate_plane"


@dataclass(frozen=True)
class InvariantSubspace:
    basis: np.ndarray  # n x d orthonormal, d in {1, 2}
    kind: Kind
    eigenvalue: complex

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclass(frozen=True)
class EigenStructure:
    eigenvalues: tuple  # descending magnitude; ties by real then imag, descending
    eigenvectors: tuple


def cycle_matrix(disc: DiscretizedSystem, word) -> np.ndarray:
    """Product of the step matrices along the word, last letter leftmost."""
    word = tuple(int(k) for k in word)
    if not word:
        raise ValueError("word must be nonempty")
    M = np.eye(disc.n)
    for k in word:
        M = disc.M[k - 1] @ M
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise SingularCycleMatrix(f"cycle matrix of {word} is numerically singular")
    return M


def eigen_structure(M) -> EigenStructure:
    """The eigenpairs of M in the order the subspaces are tried."""
    vals, vecs = np.linalg.eig(M)
    order = sorted(
        range(len(vals)),
        key=lambda i: (-abs(vals[i]), -vals[i].real, -vals[i].imag),
    )
    return EigenStructure(
        eigenvalues=tuple(vals[order]),
        eigenvectors=tuple(vecs[:, i] for i in order),
    )


def basic_invariant_subspaces(M) -> list:
    """Real eigenlines plus one plane per conjugate pair, orthonormal bases,
    ordered by descending eigenvalue magnitude.  Scale-free: MAG_GAP is
    relative to the spectral radius, the residual bound to ||M||_2."""
    M = np.asarray(M, dtype=float)
    es = eigen_structure(M)
    if np.linalg.cond(np.column_stack(es.eigenvectors)) > 1e10:
        raise DefectiveMatrix("eigenvector matrix is ill conditioned")
    rho, scale = abs(es.eigenvalues[0]), np.linalg.norm(M, 2)
    out = []
    for lam, v in zip(es.eigenvalues, es.eigenvectors):
        if abs(lam.imag) <= MAG_GAP * rho:
            b = np.real(v)
            b = b / np.linalg.norm(b)
            out.append(InvariantSubspace(b[:, None], Kind.REAL_LINE, complex(lam)))
        elif lam.imag > 0:  # the pair's other member is its exact conjugate
            B = np.column_stack([np.real(v), np.imag(v)])
            Q, _ = np.linalg.qr(B)
            out.append(InvariantSubspace(Q, Kind.CONJUGATE_PLANE, complex(lam)))
    for sub in out:
        V = sub.basis
        resid = np.linalg.norm((np.eye(M.shape[0]) - V @ V.T) @ M @ V)
        if resid > 1e-8 * scale:
            raise DefectiveMatrix(
                f"invariant subspace residual {resid:.2e} exceeds tolerance"
            )
    return out


def _letter_forms(disc, word):
    """Each letter of the word's own forms, unpulled: letter -> (mats, signs),
    all from one `letter_forms` batch."""
    letters = sorted(set(word))
    eye = np.broadcast_to(np.eye(disc.n), (len(letters), disc.n, disc.n))
    _, mats, signs, counts = letter_forms(disc, eye, letters)
    cuts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    return {k: (mats[a:b], signs[a:b]) for k, a, b in zip(letters, cuts, cuts[1:])}


def _chain_contained(disc, word, V, forms, tol=STRICT_TOL):
    """The propagated-basis containment chain for one candidate subspace;
    `forms` holds each letter's forms, as `_letter_forms` gives them."""
    Vj = V
    for k in word:
        try:
            if not span_satisfies(Vj, *forms[k], tol):
                return False
        except RankDeficientBasis:
            return False
        Vj = disc.M[k - 1] @ Vj
        Q, _ = np.linalg.qr(Vj)
        Vj = Q
    return True


@dataclass(frozen=True)
class VerifyResult:
    verified: bool
    witness: Optional[InvariantSubspace] = None
    power: int = 1
    warnings: tuple = field(default=())

    def __bool__(self):
        return self.verified


def _witness_state(sub: InvariantSubspace, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(sub.dim)
    x = sub.basis @ c
    return x / np.linalg.norm(x)


def _simulation_confirms(disc, word, sub, repeats=20, seed=0):
    x = _witness_state(sub, seed)
    got = trace(disc, x, repeats * len(word))
    return got == tuple(word) * repeats


def _meeting_powers(subs):
    """The powers q <= MAX_POWER at which two eigenvalues of M (read off its
    subspaces) meet: their q-th powers differ by at most 2 MAG_GAP rho^q, so a
    conjugate pair meets where `basic_invariant_subspaces` calls lambda^q
    real.  A repeated eigenvalue, meeting at q = 1, makes every power count."""
    lam = [s.eigenvalue for s in subs]
    lam += [s.eigenvalue.conjugate() for s in subs if s.kind is Kind.CONJUGATE_PLANE]
    q = np.arange(1, MAX_POWER + 1)
    p = (np.array(lam) / abs(lam[0]))[None, :] ** q[:, None]
    close = np.abs(p[:, :, None] - p[:, None, :]) <= 2 * MAG_GAP
    meets = close.sum(axis=(1, 2)) > len(lam)  # more than the diagonal
    return set(q[meets | meets[0]].tolist())


def verify_cycle(disc: DiscretizedSystem, word, seed=0) -> VerifyResult:
    """Verified iff some invariant subspace of the cycle matrix M, or of M^q
    for q <= MAX_POWER, survives the cone chain and the float64 simulation
    gate.  M^q has a subspace M lacks only where two eigenvalues meet at the
    q-th power (a conjugate pair turning real, or lambda and -lambda), so only
    those powers are built, or every power if M is defective.  A numerically
    singular power ends the search with a warning: the candidate fails."""
    word = tuple(int(k) for k in word)
    forms = _letter_forms(disc, word)
    warnings = []
    powers = range(1, MAX_POWER + 1)  # until M's eigenvalues say which meet
    for q in range(1, MAX_POWER + 1):
        if q not in powers:
            continue
        w_q = word * q
        try:
            Mq = cycle_matrix(disc, w_q)
        except SingularCycleMatrix:
            warnings.append(f"power {q}: cycle matrix numerically singular")
            break
        try:
            subs = basic_invariant_subspaces(Mq)
        except DefectiveMatrix as e:
            warnings.append(f"power {q}: {e}")
            continue
        if q == 1:
            powers = _meeting_powers(subs)
        for sub in subs:
            if not _chain_contained(disc, w_q, sub.basis, forms):
                continue
            if _simulation_confirms(disc, word, sub, seed=seed):
                return VerifyResult(True, witness=sub, power=q, warnings=tuple(warnings))
            warnings.append(
                f"power {q}: containment held but simulation diverged (borderline)"
            )
    return VerifyResult(False, warnings=tuple(warnings))
