"""Certified feasibility decisions for conjunctions of homogeneous quadratics.

Used as the built-in exact engine when no external SMT solver is configured.
Dimension 1 is direct evaluation, dimension 2 is exact critical-angle
enumeration on the projective circle, dimension >= 3 is a Lipschitz
branch-and-bound over the unit sphere that answers Unknown at budget
exhaustion instead of guessing.

`s_procedure_certificate` proves a cone empty without any search and is
tried by the oracle before the engine when n >= 3.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np

from .cones import ConeSystem, Sense


BNB_SLACK = 1e-12  # rounding slack of the branch-and-bound prune, per unit of lip
CERTIFICATE_ITERATIONS = 1000  # mirror-descent steps before the certificate gives up


def _verdict_point(cone, x):
    return cone.contains(x, tol=0.0)


def decide_dim1(cone: ConeSystem):
    x = np.array([1.0])
    if _verdict_point(cone, x):
        return "sat", x
    return "unsat", None


def decide_planar(cone: ConeSystem):
    """Exact decision for n = 2 via the critical angles of every constraint.

    On the unit circle each quadratic form is a + R cos(2t - p); the feasible
    set is a finite union of arcs whose endpoints lie among the constraint
    roots, so evaluating at all roots and arc midpoints decides feasibility.
    """
    roots = []
    for c in cone.constraints:
        P = c.P
        a = 0.5 * (P[0, 0] + P[1, 1])
        b = 0.5 * (P[0, 0] - P[1, 1])
        g = P[0, 1]
        R = math.hypot(b, g)
        if R <= 1e-300:
            continue  # constant margin; handled by evaluation
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
        if _verdict_point(cone, x):
            return "sat", x
    return "unsat", None


def exactly_negative_definite(weights, cone: ConeSystem) -> bool:
    """Whether sum_i weights_i s_i P_i is negative definite, decided exactly.

    Every float weight and matrix entry is read as the binary rational it
    stores, and -sum is tested for positive pivots by Gaussian elimination
    without pivoting (its LDL' factorisation) in `fractions`, so rounding
    cannot make a singular or indefinite sum pass.
    """
    n = cone.n
    S = [[Fraction(0)] * n for _ in range(n)]
    for w, c in zip(weights, cone.constraints):
        if w == 0.0:
            continue
        f = Fraction(float(w)) * int(c.sense.sign)
        for i in range(n):
            for j in range(i, n):
                S[i][j] -= f * Fraction(float(c.P[i, j]))
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


def s_procedure_certificate(cone: ConeSystem):
    """Weights tau >= 0 with sum_i tau_i s_i P_i negative definite, or None.

    Such weights prove the cone empty: at any point x of the cone every term
    s_i x'P_i x is >= 0, so their weighted sum cannot be negative (the
    degree-0 S-procedure; Polik & Terlaky, "A survey of the S-lemma", SIAM
    Review 2007).  The search is entropic mirror descent over the simplex on
    lambda_max of the weighted sum of the Frobenius-normalised forms s_i P_i,
    with step 16/sqrt(t), stopping at the first negative lambda_max.  Weights
    are returned only once `exactly_negative_definite` accepts them.
    """
    mats, signs = cone.arrays()
    norms = np.linalg.norm(mats, axis=(1, 2))
    live = norms > 0.0  # a zero form cannot help the sum
    if not live.any():
        return None
    G = signs[live, None, None] * mats[live] / norms[live, None, None]
    tau = np.full(len(G), 1.0 / len(G))
    for t in range(1, CERTIFICATE_ITERATIONS + 1):
        lam, vecs = np.linalg.eigh(np.tensordot(tau, G, axes=1))
        if lam[-1] < 0.0:
            weights = np.zeros(len(mats))
            weights[live] = tau / norms[live]
            return weights if exactly_negative_definite(weights, cone) else None
        v = vecs[:, -1]
        grad = np.einsum("i,cij,j->c", v, G, v)  # d lambda_max / d tau
        tau = tau * np.exp(-16.0 / math.sqrt(t) * (grad - grad.min()))
        tau /= tau.sum()
    return None


def _norm(x):
    """Euclidean norm of a vector, as np.linalg.norm computes it, minus its overhead."""
    return math.sqrt(x.dot(x))


def _initial_simplices(n):
    """2^n spherical simplices covering the sphere (axis-sign orthants)."""
    out = []
    for signs in range(2**n):
        verts = []
        for i in range(n):
            v = np.zeros(n)
            v[i] = 1.0 if (signs >> i) & 1 == 0 else -1.0
            verts.append(v)
        out.append(tuple(verts))
    return out


def decide_sphere_bnb(cone: ConeSystem, max_regions=400_000, witness_tol=1e-9):
    """Sound branch-and-bound on the unit sphere for n >= 3.

    A region is discarded once some constraint is violated across it via the
    Lipschitz bound |x'Px - c'Pc| <= 2||P|| |x - c|; sat is reported from a
    region center satisfying everything with margin; budget -> unknown.
    """
    mats, signs = cone.arrays()
    lip = 2.0 * np.array([np.linalg.norm(P, 2) for P in mats])
    # a NON_POSITIVE constraint holds where x'Px = 0, so it prunes only on a
    # strictly negative bound; the slack covers rounding in c'Pc, r and lip
    strict = signs > 0
    slack = BNB_SLACK * lip
    queue = deque(_initial_simplices(cone.n))
    examined = 0
    unresolved = False
    while queue:
        examined += 1
        if examined > max_regions:
            unresolved = True
            break
        verts = queue.popleft()
        c = np.sum(verts, axis=0)
        c /= _norm(c)
        # chord radius of the enclosing spherical cap
        r = max(_norm(v - c) for v in verts)
        m = signs * np.einsum("i,cij,j->c", c, mats, c)
        if (m > witness_tol).all():
            return "sat", c
        # whole region violates some constraint
        bound = m + lip * r + slack
        if np.where(strict, bound <= 0.0, bound < 0.0).any():
            continue
        for v in verts:
            mv = signs * np.einsum("i,cij,j->c", v, mats, v)
            if (mv > witness_tol).all():
                return "sat", v.copy()
        # subdivide along the longest edge
        best = (0, 1)
        bl = -1.0
        k = len(verts)
        for i in range(k):
            for j in range(i + 1, k):
                d = _norm(verts[i] - verts[j])
                if d > bl:
                    bl = d
                    best = (i, j)
        i, j = best
        mid = verts[i] + verts[j]
        mid /= _norm(mid)
        child_a = tuple(mid if t == i else v for t, v in enumerate(verts))
        child_b = tuple(mid if t == j else v for t, v in enumerate(verts))
        queue.append(child_a)
        queue.append(child_b)
    if unresolved:
        return "unknown", None
    return "unsat", None


class BuiltinDecider:
    """Decision engine with the same reply contract as the external solver."""

    def __init__(self, max_regions=400_000):
        self.max_regions = max_regions

    def check(self, cone: ConeSystem):
        if cone.n == 1:
            return decide_dim1(cone)
        if cone.n == 2:
            return decide_planar(cone)
        return decide_sphere_bnb(cone, max_regions=self.max_regions)
