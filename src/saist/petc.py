"""PETC plant/trigger data, discretization, and the sampled closed loop.

The checking period h is folded into the continuous-time matrices once, so
everything downstream works in units of checking periods; reports rescale
by h where physical time is wanted.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NonFiniteMatrix, NonFiniteState, ConfigError

SYM_TOL = 1e-12


def _frozen(a):
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PetcSystem:
    """Plant, state-feedback gain product, quadratic trigger, and timing data.

    A and BK are in 1/time units; Qtrig is the 2n x 2n triggering form acting
    on [current state; last sample]; h is the checking period; kbar the
    maximum inter-sample time in checking periods.
    """

    A: np.ndarray
    BK: np.ndarray
    Qtrig: np.ndarray
    h: float
    kbar: int

    def __post_init__(self):
        A = _frozen(self.A)
        BK = _frozen(self.BK)
        Q = np.asarray(self.Qtrig, dtype=np.float64)
        n = A.shape[0]
        if A.shape != (n, n) or BK.shape != (n, n):
            raise ConfigError("A and BK must be square with matching dimension")
        if Q.shape != (2 * n, 2 * n):
            raise ConfigError("Qtrig must be 2n x 2n")
        if np.max(np.abs(Q - Q.T)) > SYM_TOL * max(1.0, np.max(np.abs(Q))):
            raise ConfigError("Qtrig is not symmetric")
        if not (self.h > 0):
            raise ConfigError("h must be positive")
        if not (int(self.kbar) >= 1):
            raise ConfigError("kbar must be >= 1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "BK", BK)
        object.__setattr__(self, "Qtrig", _frozen(0.5 * (Q + Q.T)))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "kbar", int(self.kbar))

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class DiscretizedSystem:
    """Transition matrices M(k) and pulled-back trigger forms N(k), k = 1..kbar."""

    M: np.ndarray  # (kbar, n, n)
    N: np.ndarray  # (kbar, n, n), each symmetric
    h: float
    kbar: int

    @property
    def n(self):
        return self.M.shape[1]


@dataclass(frozen=True)
class SampleTrajectory:
    """Sampled states x_0..x_m and the inter-sample times between them."""

    states: np.ndarray  # (m+1, n)
    ists: np.ndarray  # (m,), values in 1..kbar

    def __len__(self):
        return len(self.ists)


def relative_error_trigger(sigma, n):
    """Trigger matrix for |x - xhat| > sigma |x|, as a 2n x 2n quadratic form."""
    if not (0.0 < sigma < 1.0):
        raise ConfigError("sigma must lie in (0, 1)")
    eye = np.eye(n)
    top = np.hstack([(1.0 - sigma**2) * eye, -eye])
    bot = np.hstack([-eye, eye])
    return np.vstack([top, bot])


def discretize(sys: PetcSystem) -> DiscretizedSystem:
    """Exact zero-order-hold discretization over k = 1..kbar checking periods.

    M(k) and the held-input integral come out of a single exponential of the
    augmented matrix [[A, BK], [0, 0]] scaled by h*k.
    """
    n = sys.n
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = sys.A * sys.h
    aug[:n, n:] = sys.BK * sys.h
    M = np.empty((sys.kbar, n, n))
    N = np.empty((sys.kbar, n, n))
    eye = np.eye(n)
    for k in range(1, sys.kbar + 1):
        E = expm(aug * k)
        Mk = E[:n, :n] + E[:n, n:]
        if not np.all(np.isfinite(Mk)):
            raise NonFiniteMatrix(f"M({k}) overflowed; reduce h*kbar or stabilize A")
        M[k - 1] = Mk
        stack = np.vstack([Mk, eye])
        Nk = stack.T @ sys.Qtrig @ stack
        N[k - 1] = 0.5 * (Nk + Nk.T)
    M.setflags(write=False)
    N.setflags(write=False)
    return DiscretizedSystem(M=M, N=N, h=sys.h, kbar=sys.kbar)


def _trigger(N, x) -> int:
    """The trigger scan: the smallest k < kbar with x'N(k)x > 0, else kbar."""
    for k, Nk in enumerate(N[:-1], 1):
        if x @ Nk @ x > 0.0:
            return k
    return len(N)


def kappa(disc: DiscretizedSystem, x) -> int:
    """Smallest k in 1..kbar with x'N(k)x > 0, else kbar (strict, no fuzz)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("kappa requires a finite state")
    return _trigger(disc.N, x)


def simulate(disc: DiscretizedSystem, x0, steps: int, renormalize=False) -> SampleTrajectory:
    """Run the sampled closed loop x' = M(kappa(x)) x for `steps` samples.

    renormalize rescales the state to unit norm each sample; ISTs are
    homogeneous in the state, so this only prevents over/underflow on long
    runs (at the cost of non-physical state magnitudes).
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    x = np.asarray(x0, dtype=np.float64)
    states = np.empty((steps + 1, x.shape[0]))
    ists = np.empty(steps, dtype=np.int64)
    states[0] = x
    for i in range(steps):
        ists[i] = k = _trigger(disc.N, x)
        x = disc.M[k - 1] @ x
        if renormalize:
            nrm = np.linalg.norm(x)
            if nrm > 0.0:
                x = x / nrm
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"trajectory overflowed at sample {i + 1}")
        states[i + 1] = x
    return SampleTrajectory(states=states, ists=ists)


def trace(disc: DiscretizedSystem, x0, steps: int):
    """The first `steps` inter-sample times from x0, as a tuple of ints."""
    return tuple(int(k) for k in simulate(disc, x0, steps, renormalize=True).ists)


def running_average(traj: SampleTrajectory):
    """Prefix averages of the IST sequence."""
    ists = np.asarray(traj.ists, dtype=np.float64)
    if ists.size == 0:
        raise ConfigError("trajectory must be nonempty")
    return list(np.cumsum(ists) / np.arange(1, ists.size + 1))


def perturb(sys: PetcSystem, delta: float, seed: int) -> PetcSystem:
    """Bounded random perturbation of the system data (2-norm <= delta each)."""
    if delta < 0:
        raise ConfigError("delta must be >= 0")
    rng = np.random.default_rng(seed)
    n = sys.n

    def direction(shape, symmetric=False):
        G = rng.standard_normal(shape)
        if symmetric:
            G = 0.5 * (G + G.T)
        nrm = np.linalg.norm(G, 2)
        return G / nrm if nrm > 0 else G

    A = sys.A + delta * direction((n, n))
    BK = sys.BK + delta * direction((n, n))
    Q = sys.Qtrig + delta * direction((2 * n, 2 * n), symmetric=True)
    return PetcSystem(A=A, BK=BK, Qtrig=0.5 * (Q + Q.T), h=sys.h, kbar=sys.kbar)
