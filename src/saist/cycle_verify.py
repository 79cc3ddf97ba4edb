"""Verification of candidate periodic sampling behaviors.

A cycle word verifies when some basic invariant linear subspace of its cycle
matrix stays inside the chain of per-step cones; a Verified verdict is gated
by a finite float64 simulation from a witness state.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import ConeSystem, letter_forms, sigma_cone, span_satisfies
from .errors import DefectiveMatrix, RankDeficientBasis, SingularCycleMatrix
from .oracle import Status
from .petc import DiscretizedSystem, trace

STRICT_TOL = 1e-10
MAG_GAP = 1e-9
MAX_ROT_DEN = 64


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
    is_mixed: bool
    is_irrational_rotations: bool


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


def _rotation_is_rational(theta, max_den=MAX_ROT_DEN, tol=1e-9):
    frac = (theta / (2.0 * np.pi)) % 1.0
    for q in range(1, max_den + 1):
        if abs(frac * q - round(frac * q)) <= tol * q:
            return True
    return False


def eigen_structure(M) -> EigenStructure:
    vals, vecs = np.linalg.eig(M)
    order = sorted(
        range(len(vals)),
        key=lambda i: (-abs(vals[i]), -vals[i].real, -vals[i].imag),
    )
    vals = vals[order]
    vecs = vecs[:, order]
    scale = max(1.0, float(np.max(np.abs(vals))))
    # mixedness: each equal-magnitude group is one real value or one conjugate pair
    is_mixed = True
    used = [False] * len(vals)
    groups = []
    for i in range(len(vals)):
        if used[i]:
            continue
        grp = [i]
        used[i] = True
        for j in range(i + 1, len(vals)):
            if not used[j] and abs(abs(vals[j]) - abs(vals[i])) <= MAG_GAP * scale:
                grp.append(j)
                used[j] = True
        groups.append(grp)
    for grp in groups:
        g = [vals[i] for i in grp]
        if len(g) == 1:
            if abs(g[0].imag) > MAG_GAP * scale:
                is_mixed = False  # lone complex eigenvalue of its magnitude
        elif len(g) == 2:
            if abs(g[0] - g[1].conjugate()) > 1e-7 * scale:
                is_mixed = False
        else:
            is_mixed = False
    complex_args = [np.angle(v) for v in vals if v.imag > MAG_GAP * scale]
    is_irr = bool(complex_args) and all(
        not _rotation_is_rational(t) for t in complex_args
    )
    return EigenStructure(
        eigenvalues=tuple(vals),
        eigenvectors=tuple(vecs[:, i] for i in range(len(vals))),
        is_mixed=is_mixed,
        is_irrational_rotations=is_irr,
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


def normalized_distance(V, cone: ConeSystem, budget: int = 2000, seed: int = 0) -> float:
    """Estimated normalized distance (1 - cosine) between span(V) and the
    cone's boundary; 1.0 when no boundary point is found.  Advisory only."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= 1e-10:
        raise RankDeficientBasis("basis matrix is rank deficient")
    Q, _ = np.linalg.qr(V)
    if not len(cone.signs):
        return 1.0
    n = Q.shape[0]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((budget, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    margins = np.array([cone.min_margin(x) for x in pts])
    inside = pts[margins > 0]
    outside = pts[margins <= 0]
    best = 1.0
    pairs = min(len(inside), len(outside), 64)
    for a, b in zip(inside[:pairs], outside[:pairs]):
        lo, hi = a, b
        for _ in range(40):  # geodesic bisection to the zero-margin surface
            mid = lo + hi
            mid /= np.linalg.norm(mid)
            if cone.min_margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        y = hi
        best = min(best, 1.0 - float(np.linalg.norm(Q.T @ y)))
    return max(0.0, best)


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    distances: tuple

    def __bool__(self):
        return self.regular


def regularity_check(disc, word, epsilon, budget: int = 2000, seed: int = 0) -> RegularityResult:
    """Regular when the cycle matrix is numerically well behaved and every
    invariant subspace keeps estimated distance >= epsilon from the cone
    chain boundary; Marginal otherwise (advisory)."""
    word = tuple(int(k) for k in word)
    M = cycle_matrix(disc, word)
    es = eigen_structure(M)
    has_complex = any(abs(v.imag) > MAG_GAP for v in es.eigenvalues)
    flags_ok = es.is_mixed and (not has_complex or es.is_irrational_rotations)
    try:
        subs = basic_invariant_subspaces(M)
    except DefectiveMatrix:
        return RegularityResult(False, ())
    cone = sigma_cone(disc, word)
    dists = tuple(
        normalized_distance(s.basis, cone, budget=budget, seed=seed) for s in subs
    )
    ok = flags_ok and all(d >= epsilon for d in dists)
    return RegularityResult(ok, dists)


def epsilon_inflation_empty(cone: ConeSystem, epsilon: float, oracle) -> bool:
    """Whether the epsilon-inflated cone is (exactly) empty."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return oracle.feasible(cone.inflate(epsilon)).status is Status.INFEASIBLE
