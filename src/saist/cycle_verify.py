"""Verification of candidate periodic sampling behaviors.

A cycle word verifies when some basic invariant linear subspace of its cycle
matrix stays inside the chain of per-step cones; a Verified verdict is gated
by a finite float64 simulation from a witness state.
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
    ordered by descending eigenvalue magnitude."""
    M = np.asarray(M, dtype=float)
    es = eigen_structure(M)
    if np.linalg.cond(np.column_stack(es.eigenvectors)) > 1e10:
        raise DefectiveMatrix("eigenvector matrix is ill conditioned")
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    out = []
    seen_pairs = set()
    for lam, v in zip(es.eigenvalues, es.eigenvectors):
        if abs(lam.imag) <= MAG_GAP * scale:
            b = np.real(v)
            b = b / np.linalg.norm(b)
            out.append(InvariantSubspace(b[:, None], Kind.REAL_LINE, complex(lam)))
        else:
            key = (round(lam.real, 9), round(abs(lam.imag), 9))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
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
    """Each letter of the word's own forms, unpulled: letter -> (mats, signs)."""
    eye = np.eye(disc.n)[None]
    return {k: letter_forms(disc, eye, [k])[1:3] for k in set(word)}


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


def verify_cycle(disc: DiscretizedSystem, word, max_power=12, seed=0) -> VerifyResult:
    """Verified iff some invariant subspace survives the cone chain and the
    float64 simulation gate; falls back to powers of the cycle matrix for
    rational rotations.  A numerically singular power ends the search with
    a warning, so a singular cycle is a failed candidate."""
    word = tuple(int(k) for k in word)
    forms = _letter_forms(disc, word)
    warnings = []
    for q in range(1, max_power + 1):
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
        for sub in subs:
            if not _chain_contained(disc, w_q, sub.basis, forms):
                continue
            if _simulation_confirms(disc, word, sub, seed=seed):
                return VerifyResult(True, witness=sub, power=q, warnings=tuple(warnings))
            warnings.append(
                f"power {q}: containment held but simulation diverged (borderline)"
            )
    return VerifyResult(False, warnings=tuple(warnings))
