"""Certified feasibility decisions for conjunctions of homogeneous quadratics.

`BuiltinDecider` is the cone oracle's engine; it decides every cone in
process.  Dimension 1 is direct evaluation.  Dimension 3 restricts every
form to the zero ovals of the indefinite constraints, finds where each
changes sign as quartic roots, and evaluates all the roots and arc
midpoints in one einsum (`decide_sphere_curves`).  Dimension >= 4, and a
3-D form with a numerically zero eigenvalue, go to a Lipschitz
branch-and-bound over the unit sphere that answers Unknown at budget
exhaustion instead of guessing.  Planar cones never come here: 2-D words
are decided on arcs (`saist.arcs`).

`s_procedure_certificates` proves cones empty without any search, a batch
at a time in one lockstep descent, and returns only weights that
`certified_negative_definite`, a float Cholesky shifted by a proved
rounding bound, accepts.  For n >= 3 the oracle tries it after its point
pool and before the engine, on every pool miss of a batch at once, so the
order for n = 3 is pool, certificate, curves; only n >= 4 runs a witness
ascent before the engine.
"""

import math
from collections import deque
from itertools import combinations

import numpy as np

from .cones import ConeSystem
from .kernels import _margins  # (p, c) signed margins in one einsum


BNB_SLACK = 1e-12  # rounding slack of the branch-and-bound prune, per unit of lip
CERTIFICATE_ITERATIONS = 100  # mirror-descent steps before the certificate gives up
WITNESS_TOL = 1e-9  # smallest margin that makes a point a witness
ACCEPT_SLACK = 1e-12  # a candidate this close to every constraint, per unit of norm, is a closure point
SINGULAR_TOL = 1e-9  # |eigenvalue| / largest |eigenvalue| below which a form has no oval
LEAD_FLOOR = 1e-14  # smallest leading quartic coefficient, relative, put in the companion matrix
ACTIVE_MARGIN = 1e-6  # margin per unit of norm up to which a constraint is active at a start
STEP_SIZES = 10.0 ** -np.arange(1, 10)  # steps inside from a closure point
STEP_STARTS = 8  # closure points, best first, that a step inside starts from
UNIT_ROUNDOFF = 2.0**-53  # of float64 arithmetic
ETA = 2.0**-1074  # the smallest positive float64, the error of an underflowed product


def decide_dim1(cone: ConeSystem):
    x = np.array([1.0])
    return ("sat", x) if cone.contains(x) else ("unsat", None)


def _first_in_cone(cone, pts, worst, floor):
    """Among the points whose worst margin is at least `floor`, the one with
    the largest worst margin that `cone.contains`; None if there is none."""
    for i in np.argsort(-worst, kind="stable"):
        if worst[i] < floor:
            break
        if cone.contains(pts[i]):
            return pts[i]
    return None


def _ovals(lam, vec):
    """The zero set of each indefinite 3x3 form on the sphere, up to sign and
    scale, as z(t) = u0 + u1 cos t + u2 sin t: (c, 3, 3), columns u0, u1, u2.

    In the eigenbasis, with lam_0 the eigenvalue whose sign no other shares,
    z'Pz = lam_0 + lam_1 a^2 cos^2 t + lam_2 b^2 sin^2 t, which
    a^2 = |lam_0 / lam_1| and b^2 = |lam_0 / lam_2| make vanish.
    """
    alone_first = np.where(lam[:, 1:2] > 0.0, [0, 1, 2], [2, 0, 1])
    lam = np.take_along_axis(lam, alone_first, axis=1)
    vec = np.take_along_axis(vec, alone_first[:, None, :], axis=2)
    return vec * np.sqrt(np.abs(lam[:, :1] / lam))[:, None, :]


def _curve_angles(U, G):
    """(curves, angles): each curve's split angles, sorted, then its arc
    midpoints.

    Restricted to z(t), a form is A + B cos t + C sin t + D cos^2 t
    + E sin t cos t + F sin^2 t; times (1 + s^2)^2 it is a quartic in
    s = tan(t / 2).  The companion matrices of all of them go through one
    `eigvals`, and the real part of every root is a split angle, as is
    t = pi, where a root is lost when the degree drops.  A split angle
    where no form changes sign (a complex root's real part, or a root of a
    form that vanishes on the curve) only adds candidates.
    """
    W = U.transpose(0, 2, 1)[:, None] @ G @ U[:, None]
    A, D, F = W[..., 0, 0], W[..., 1, 1], W[..., 2, 2]
    B, C, E = 2.0 * W[..., 0, 1], 2.0 * W[..., 0, 2], 2.0 * W[..., 1, 2]
    q = np.stack([A - B + D, 2.0 * (C - E), 2.0 * (A - D) + 4.0 * F, 2.0 * (C + E), A + B + D], -1)
    q /= np.maximum(np.abs(q).max(axis=-1, keepdims=True), 1e-300)
    lead = np.where(np.abs(q[..., :1]) < LEAD_FLOOR, LEAD_FLOOR, q[..., :1])
    comp = np.zeros(q.shape[:2] + (4, 4))
    comp[..., 0, :] = -q[..., 1:] / lead
    comp[..., [1, 2, 3], [0, 1, 2]] = 1.0
    theta = 2.0 * np.arctan(np.linalg.eigvals(comp).real).reshape(len(U), -1)
    theta = np.sort(np.column_stack([theta, np.full(len(U), np.pi)]), axis=1)
    ext = np.column_stack([theta, theta[:, 0] + 2.0 * np.pi])
    return np.column_stack([theta, 0.5 * (ext[:, :-1] + ext[:, 1:])])


def _step_inside(cone, starts, mats, signs):
    """A point whose worst margin clears WITNESS_TOL near the closure points
    `starts`, or None: from each start, steps of STEP_SIZES along the sum
    of the unit tangent gradients of its active constraints, all evaluated
    in one einsum."""
    grad = signs[None, :, None] * np.einsum("cij,kj->kci", mats, starts)
    grad -= np.einsum("kci,ki->kc", grad, starts)[..., None] * starts[:, None, :]
    grad /= np.maximum(np.linalg.norm(grad, axis=2, keepdims=True), 1e-300)
    active = _margins(starts, mats, signs) <= ACTIVE_MARGIN * np.linalg.norm(mats, axis=(1, 2))
    toward = np.einsum("kc,kci->ki", active, grad)
    pts = (starts[:, None, :] + STEP_SIZES[None, :, None] * toward[:, None, :]).reshape(-1, 3)
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-300)
    return _first_in_cone(cone, pts, _margins(pts, mats, signs).min(axis=1), WITNESS_TOL)


def decide_sphere_curves(cone: ConeSystem, max_regions=400_000):
    """Decision for n = 3 on the zero curves of the constraints.

    Let F be the closure of the cone on the unit sphere.  F is empty, or
    the whole sphere, or it has a boundary point, which lies on the zero
    curve of some constraint and meets every other one with >=.  For an
    indefinite form that curve is one oval up to sign, and every other form
    changes sign on it only at the roots of a quartic (`_curve_angles`), so
    the roots and the arc midpoints of every curve, plus one point for the
    case without boundary, contain a point of F whenever F is nonempty.  A
    candidate counts as a point of F at a slack of ACCEPT_SLACK per unit of
    form norm.  No such candidate: unsat.  Else sat with a witness clearing
    WITNESS_TOL, from the candidates or a step inside (`_step_inside`), and
    unknown when no such witness turns up.  A form with a numerically zero
    eigenvalue has no oval; then the branch-and-bound decides.
    """
    mats, signs = cone.mats, cone.signs
    norms = np.linalg.norm(mats, axis=(1, 2))
    G = mats / np.maximum(norms, 1e-300)[:, None, None]
    lam, vec = np.linalg.eigh(G)
    size = np.abs(lam)
    if (size.min(axis=1) <= SINGULAR_TOL * size.max(axis=1)).any():  # zero forms too
        return decide_sphere_bnb(cone, max_regions=max_regions)
    indefinite = (lam[:, 0] < 0.0) & (lam[:, -1] > 0.0)
    pts = np.eye(3)[:1]  # decides F without boundary: the whole sphere or empty
    if indefinite.any():
        U = _ovals(lam[indefinite], vec[indefinite])
        t = _curve_angles(U, G)
        basis = np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=-1)
        pts = np.vstack([np.einsum("kia,kpa->kpi", U, basis).reshape(-1, 3), pts])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    scaled = _margins(pts, G, signs)
    worst = scaled.min(axis=1)
    if not (worst >= -ACCEPT_SLACK).any():
        return "unsat", None
    x = _first_in_cone(cone, pts, (scaled * norms).min(axis=1), WITNESS_TOL)
    if x is None:
        best = np.argsort(-worst, kind="stable")[:STEP_STARTS]
        x = _step_inside(cone, pts[best[worst[best] >= -ACCEPT_SLACK]], mats, signs)
    return ("unknown", None) if x is None else ("sat", x)


def certified_negative_definite(weights, forms):
    """Per b, True only if sum_i weights[b, i] forms[b, i] is negative
    definite in exact arithmetic, each float read as the rational it
    stores: weights (b, m), forms (b, m, n, n) symmetric.  It is a proof,
    not a decision: a sum within the shift s below of singular is rejected.

    S = -sum is summed in floats, in order.  With c nonzero weights,
    |fl(S) - S| <= gamma_c sum_i |w_i| |F_i| + c ETA entrywise, ETA for each
    product that underflows (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, ch. 3), and the largest row sum of that
    bound bounds ||fl(S) - S||_2.  A float Cholesky of fl(S) - sI with
    positive pivots proves lambda_min(fl(S) - sI) > -gamma_{n+1} / (1 -
    gamma_{n+1}) tr - 4n(2(n + 1) + max diag) ETA (Rump, "Verification of
    positive definiteness", BIT 46, 2006), and shifting the diagonal rounds
    it by at most u max|fl(S)_ii - s|, u = UNIT_ROUNDOFF.  s is twice the
    sum of these bounds, which absorbs their own rounding, so S is positive
    definite.  One pass of the factorisation covers the stack; a failing
    matrix, NaN or inf included, fails alone.
    """
    n = forms.shape[-1]
    c = np.count_nonzero(weights, axis=1)[:, None, None]
    terms = weights[..., None, None] * forms
    A = -np.cumsum(terms, axis=1)[:, -1]
    err = (c + 1) * UNIT_ROUNDOFF * np.cumsum(np.abs(terms), axis=1)[:, -1] + c * ETA
    diag = np.diagonal(A, axis1=1, axis2=2)
    top = np.maximum(diag, 0.0)
    shift = 2.0 * (
        err.sum(axis=2).max(axis=1)
        + (n + 2) * UNIT_ROUNDOFF * top.sum(axis=1)
        + UNIT_ROUNDOFF * np.abs(diag).max(axis=1)
        + 4 * n * (2 * (n + 1) + top.max(axis=1)) * ETA
    )
    A = A - shift[:, None, None] * np.eye(n)
    ok = np.ones(len(A), dtype=bool)
    for k in range(n):
        ok &= A[:, k, k] > 0.0
        row = A[:, k, k + 1 :] / np.sqrt(np.where(ok, A[:, k, k], 1.0))[:, None]
        A[:, k + 1 :, k + 1 :] -= row[:, :, None] * row[:, None, :]
    return ok


def s_procedure_certificates(cones) -> list:
    """Per cone, weights tau >= 0 with sum_i tau_i s_i P_i negative definite,
    or None; the cones share one dimension n.

    Such weights prove a cone empty: at any point x of the cone every term
    s_i x'P_i x is >= 0, so their weighted sum cannot be negative (the
    degree-0 S-procedure; Polik & Terlaky, "A survey of the S-lemma", SIAM
    Review 2007).  The search is entropic mirror descent over the simplex
    (Beck & Teboulle, Oper. Res. Lett. 2003) on lambda_max of the weighted
    sum of the Frobenius-normalised nonzero forms s_i P_i, with step
    16/sqrt(t), for CERTIFICATE_ITERATIONS steps.  All cones descend in
    lockstep, one stacked `eigh` per step: each cone's forms are padded
    with -0.0 forms of weight 0 to the batch's largest count, which add
    exactly nothing to the sums, taken in order, so every cone's weights
    are bitwise those of its batch of one.  A cone leaves at its first
    negative lambda_max, and its weights, tau_i / ||P_i||, are returned
    only once `certified_negative_definite` accepts them with the cone's
    own forms, all the cones that leave at one step in one call.
    """
    out = [None] * len(cones)
    norms = [np.linalg.norm(c.mats, axis=(1, 2)) for c in cones]
    todo = np.array([i for i, m in enumerate(norms) if (m > 0.0).any()], dtype=np.intp)
    if not len(todo):  # a zero form cannot help the sum
        return out
    counts = np.array([np.count_nonzero(norms[i]) for i in todo])
    n = cones[todo[0]].n
    F = np.full((len(todo), counts.max(), n, n), -0.0)  # each cone's nonzero s_i P_i
    scale = np.ones(F.shape[:2])
    tau = np.zeros(F.shape[:2])
    for b, i in enumerate(todo.tolist()):
        nonzero = norms[i] > 0.0
        cone = cones[i]
        F[b, : counts[b]] = cone.signs[nonzero, None, None] * cone.mats[nonzero]
        scale[b, : counts[b]] = norms[i][nonzero]
        tau[b, : counts[b]] = 1.0 / counts[b]
    G = F / scale[..., None, None]
    live = np.arange(G.shape[1]) < counts[:, None]  # not tau > 0: a live weight can underflow
    for t in range(1, CERTIFICATE_ITERATIONS + 1):
        lam, vecs = np.linalg.eigh(np.cumsum(tau[..., None, None] * G, axis=1)[:, -1])
        done = lam[:, -1] < 0.0
        if done.any():
            found = tau[done] / scale[done]
            proved = certified_negative_definite(found, F[done])
            for i, w, count, ok in zip(todo[done].tolist(), found, counts[done].tolist(), proved):
                if ok:
                    out[i] = np.zeros(len(norms[i]))
                    out[i][norms[i] > 0.0] = w[:count]
            if done.all():
                break
            G, F, scale, tau, live, counts, todo, vecs = (
                a[~done] for a in (G, F, scale, tau, live, counts, todo, vecs)
            )
        v = vecs[..., -1]
        grad = np.einsum("bi,bcij,bj->bc", v, G, v)  # d lambda_max / d tau
        low = np.where(live, grad, np.inf).min(axis=1, keepdims=True)
        tau = tau * np.exp(-16.0 / math.sqrt(t) * (grad - low))
        tau /= np.cumsum(tau, axis=1)[:, -1:]
    return out


def s_procedure_certificate(cone: ConeSystem):
    """`s_procedure_certificates` of the cone alone."""
    return s_procedure_certificates([cone])[0]


def _norm(x):
    """Euclidean norm of a vector, as np.linalg.norm computes it, minus its overhead."""
    return math.sqrt(x.dot(x))


def _initial_simplices(n):
    """2^n spherical simplices covering the sphere (axis-sign orthants)."""
    return [tuple(np.diag([-1.0 if (s >> i) & 1 else 1.0 for i in range(n)])) for s in range(2**n)]


def decide_sphere_bnb(cone: ConeSystem, max_regions=400_000):
    """Sound branch-and-bound on the unit sphere for n >= 3.

    A region is discarded once some constraint is violated across it via the
    Lipschitz bound |x'Px - c'Pc| <= 2||P|| |x - c|; sat is reported from a
    region center satisfying everything with margin WITNESS_TOL; budget ->
    unknown.
    """
    mats, signs = cone.mats, cone.signs
    lip = 2.0 * np.linalg.norm(mats, 2, axis=(1, 2))
    # a NON_POSITIVE constraint holds where x'Px = 0, so it prunes only on a
    # strictly negative bound; the slack covers rounding in c'Pc, r and lip
    strict = signs > 0
    slack = BNB_SLACK * lip
    queue = deque(_initial_simplices(cone.n))
    for _ in range(max_regions):
        if not queue:
            return "unsat", None
        verts = queue.popleft()
        c = np.sum(verts, axis=0)
        c /= _norm(c)
        # chord radius of the enclosing spherical cap
        r = max(_norm(v - c) for v in verts)
        m = signs * np.einsum("i,cij,j->c", c, mats, c)
        if (m > WITNESS_TOL).all():
            return "sat", c
        # whole region violates some constraint
        bound = m + lip * r + slack
        if np.where(strict, bound <= 0.0, bound < 0.0).any():
            continue
        for v in verts:
            mv = signs * np.einsum("i,cij,j->c", v, mats, v)
            if (mv > WITNESS_TOL).all():
                return "sat", v.copy()
        # subdivide along the longest edge, the first of the longest
        i, j = max(combinations(range(len(verts)), 2), key=lambda e: _norm(verts[e[0]] - verts[e[1]]))
        mid = verts[i] + verts[j]
        mid /= _norm(mid)
        queue.append(tuple(mid if t == i else v for t, v in enumerate(verts)))
        queue.append(tuple(mid if t == j else v for t, v in enumerate(verts)))
    return ("unknown", None) if queue else ("unsat", None)


class BuiltinDecider:
    """The oracle's engine: ``check(cone)`` replies ('sat', witness),
    ('unsat', None) or ('unknown', None), dispatching on the dimension."""

    def __init__(self, max_regions=400_000):
        self.max_regions = max_regions

    def check(self, cone: ConeSystem):
        if cone.n == 1:
            return decide_dim1(cone)
        if cone.n == 3:
            return decide_sphere_curves(cone, max_regions=self.max_regions)
        return decide_sphere_bnb(cone, max_regions=self.max_regions)
