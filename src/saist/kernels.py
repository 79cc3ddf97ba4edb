"""Numeric hot loops: quadratic-form batches, trigger scans, closed-loop simulation.

All kernels are numpy; ``benchmarks/bench_kernels.py`` times them.
"""

from functools import cache

import numpy as np


# ---------------------------------------------------------------------------
# quadratic-form batches


@cache
def _monomials(n):
    """The upper triangle's (rows, cols) and the factor of each entry in
    x'Px: 1 on the diagonal, 2 off it."""
    i, j = np.triu_indices(n)
    return i, j, np.where(i == j, 1.0, 2.0)


def _margins(points, mats, signs):
    # `margins` without the conversions, for arrays already float64 and contiguous
    i, j, twice = _monomials(points.shape[1])
    return np.einsum("pk,ck->pc", points[:, i] * points[:, j], mats[:, i, j] * twice) * signs


def margins(points, mats, signs):
    """Signed constraint margins for a batch of points.

    points: (p, n); mats: (c, n, n) symmetric; signs: (c,) with +1 for
    strict-positive constraints and -1 for non-positive ones.  Returns (p, c):
    entry > 0 means the point satisfies that constraint strictly.

    x'Px is the sum over the n(n+1)/2 monomials x_i x_j, i <= j, of P_ij,
    doubled off the diagonal, in one two-operand einsum.  For two points or
    more each margin is summed over its own point's and form's monomials in
    one order whatever the batch, so a slice of the forms gives bitwise the
    same columns: ``margins(p, m[a:b], s[a:b]) == margins(p, m, s)[:, a:b]``
    (a single point takes another einsum loop and may round differently).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    mats = np.ascontiguousarray(mats, dtype=np.float64)
    signs = np.ascontiguousarray(signs, dtype=np.float64)
    return _margins(points, mats, signs)


# ---------------------------------------------------------------------------
# min-margin ascent on the unit sphere


def min_margin_ascent(x0, mats, signs, steps=200, tol=1e-9):
    """Locally maximize the worst constraint margin over the unit sphere.

    Returns (point, min_margin); stops early once min_margin > tol.
    """
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    mats = np.ascontiguousarray(mats, dtype=np.float64)
    signs = np.ascontiguousarray(signs, dtype=np.float64)
    x = x0 / np.linalg.norm(x0)
    best = x.copy()
    best_m = float(np.min(_margins(x[None, :], mats, signs)[0]))
    step = 0.5
    for _ in range(steps):
        m = _margins(x[None, :], mats, signs)[0]
        i = int(np.argmin(m))
        if m[i] > tol:
            return x, float(m[i])
        g = 2.0 * signs[i] * (mats[i] @ x)
        g = g - (g @ x) * x
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        cand = x + step * g / gn
        cand /= np.linalg.norm(cand)
        cm = float(np.min(_margins(cand[None, :], mats, signs)[0]))
        if cm > np.min(m):
            x = cand
            if cm > best_m:
                best, best_m = cand.copy(), cm
        else:
            step *= 0.5
            if step < 1e-9:
                break
    return best, best_m


# ---------------------------------------------------------------------------
# PETC closed-loop simulation


def simulate_loop(M, N, x0, steps, renormalize=False):
    """Iterate x' = M(kappa(x)) x; returns (states, ists, completed_steps).

    completed_steps < steps signals a non-finite state at that index.  With
    renormalize, the state is rescaled to unit norm after every sample; the
    IST sequence is homogeneous, so this only guards against over/underflow.
    """
    M = np.ascontiguousarray(M, dtype=np.float64)
    N = np.ascontiguousarray(N, dtype=np.float64)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    n = x0.shape[0]
    kbar = M.shape[0]
    states = np.empty((steps + 1, n))
    ists = np.empty(steps, dtype=np.int64)
    x = x0.astype(np.float64)
    states[0] = x
    for i in range(steps):
        k = kbar
        for kk in range(1, kbar):
            if x @ N[kk - 1] @ x > 0.0:
                k = kk
                break
        ists[i] = k
        x = M[k - 1] @ x
        if renormalize:
            nrm = np.linalg.norm(x)
            if nrm > 0.0:
                x = x / nrm
        if not np.all(np.isfinite(x)):
            return states, ists, i + 1
        states[i + 1] = x
    return states, ists, steps


def kappa_scan(N, x):
    """Smallest k with x'N(k)x > 0, else kbar.  N is the (kbar, n, n) stack."""
    kbar = N.shape[0]
    vals = np.einsum("i,kij,j->k", x, N[: kbar - 1], x) if kbar > 1 else np.empty(0)
    hits = np.nonzero(vals > 0.0)[0]
    return int(hits[0]) + 1 if hits.size else kbar
