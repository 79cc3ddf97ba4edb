"""Homogeneous quadratic cones for IST words and subspace containment checks."""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RankDeficientBasis
from .petc import DiscretizedSystem, SYM_TOL


class Sense(enum.Enum):
    STRICT_POSITIVE = "strict_positive"  # x'Px > 0
    NON_POSITIVE = "non_positive"  # x'Px <= 0

    @property
    def sign(self):
        return 1.0 if self is Sense.STRICT_POSITIVE else -1.0


@dataclass(frozen=True)
class QuadConstraint:
    P: np.ndarray
    sense: Sense

    def __post_init__(self):
        P = np.asarray(self.P, dtype=np.float64)
        if np.max(np.abs(P - P.T)) > SYM_TOL * max(1.0, np.max(np.abs(P))):
            raise ConfigError("constraint matrix must be symmetric")
        P = 0.5 * (P + P.T)
        P.setflags(write=False)
        object.__setattr__(self, "P", P)

    @classmethod
    def symmetric(cls, P, sense):
        """A constraint on a form that is already exactly symmetric, such as
        0.5 * (P + P.T); it skips the check and the second symmetrisation."""
        c = object.__new__(cls)
        P.setflags(write=False)
        object.__setattr__(c, "P", P)
        object.__setattr__(c, "sense", sense)
        return c

    def satisfied(self, x, tol=0.0):
        v = float(x @ self.P @ x)
        return v > tol if self.sense is Sense.STRICT_POSITIVE else v <= tol

    def margin(self, x):
        """Signed margin; positive means strictly satisfied."""
        return self.sense.sign * float(x @ self.P @ x)


@dataclass(frozen=True)
class ConeSystem:
    """Conjunction of quadratic constraints pinning the next |word| ISTs.

    All constraints are pulled back to the initial state by congruence with
    the cumulative products of the M(k) matrices, so membership of x is a
    direct evaluation.
    """

    word: tuple
    constraints: tuple
    variant: str = ""  # cache discriminator for derived cones (e.g. inflation)

    @property
    def n(self):
        return self.constraints[0].P.shape[0] if self.constraints else 0

    def contains(self, x, tol=0.0):
        return all(c.satisfied(x, tol) for c in self.constraints)

    def min_margin(self, x):
        return min((c.margin(x) for c in self.constraints), default=np.inf)

    def arrays(self):
        """(mats, signs) stacks for the batch kernels."""
        return stack(self.constraints)

    def inflate(self, epsilon):
        """Add epsilon*I to every constraint matrix (cone inflation)."""
        eye = np.eye(self.n)
        cs = tuple(QuadConstraint(c.P + epsilon * eye, c.sense) for c in self.constraints)
        return ConeSystem(
            word=self.word, constraints=cs, variant=f"{self.variant}+eps{epsilon!r}"
        )


def stack(constraints):
    """(mats, signs) stacks of a sequence of constraints."""
    mats = np.array([c.P for c in constraints])
    signs = np.array([c.sense.sign for c in constraints])
    return mats, signs


def letter_forms(disc: DiscretizedSystem, phis, letters):
    """`cone_step` for a batch of words, as arrays: phis (B, n, n) are the
    words' cumulative matrices and letters (B,) the letters appended.

    Returns (phis advanced by M(k), forms (F, n, n), signs (F,), counts
    (B,)): word b's forms are the next counts[b] rows, in `cone_step`'s
    order.  One stacked matmul builds every form, so each one is bitwise
    the form a batch of one would give.
    """
    ks = np.asarray(letters, dtype=np.intp)
    counts = np.where(ks < disc.kbar, ks, ks - 1)
    owner = np.repeat(np.arange(len(ks)), counts)
    m = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    phi = phis[owner]
    P = phi.transpose(0, 2, 1) @ disc.N[m - 1] @ phi
    P = 0.5 * (P + P.transpose(0, 2, 1))
    signs = np.where(m < ks[owner], Sense.NON_POSITIVE.sign, Sense.STRICT_POSITIVE.sign)
    return disc.M[ks - 1] @ phis, P, signs, counts


_SENSE_OF_SIGN = {s.sign: s for s in Sense}


def constraints_of(forms, signs) -> tuple:
    """QuadConstraints of exactly symmetric (forms, signs) stacks."""
    return tuple(
        QuadConstraint.symmetric(P, _SENSE_OF_SIGN[s]) for P, s in zip(forms, signs.tolist())
    )


def cone_step(disc: DiscretizedSystem, phi, constraints, k):
    """Append letter k to a word whose cone is (phi, constraints).

    Letter k contributes non-positive constraints on N(m), m < k, then one
    strict-positive constraint on N(k) (absent for k = kbar), each pulled
    back by phi; phi then advances to M(k) @ phi.  Returns the child's
    (phi, constraints), the parent's constraints as a prefix.
    """
    phis, forms, signs, _ = letter_forms(disc, phi[None], [k])
    return phis[0], constraints + constraints_of(forms, signs)


def checked_word(disc: DiscretizedSystem, word) -> tuple:
    """The word as a tuple of ints; ConfigError unless nonempty over 1..kbar."""
    word = tuple(map(int, word))
    if not word:
        raise ConfigError("word must be nonempty")
    if min(word) < 1 or max(word) > disc.kbar:
        raise ConfigError(f"letters must lie in 1..{disc.kbar}")
    return word


def sigma_cone(disc: DiscretizedSystem, word) -> ConeSystem:
    """Constraints of the set of states whose next |word| ISTs are exactly
    `word`: :func:`cone_step` folded over the word from the identity."""
    word = checked_word(disc, word)
    phi, constraints = np.eye(disc.n), ()
    for k in word:
        phi, constraints = cone_step(disc, phi, constraints, k)
    return ConeSystem(word=word, constraints=constraints)


def subspace_contained(V, c: QuadConstraint, tol: float) -> bool:
    """Whether span(V) \\ {0} lies in the constraint's solution set.

    Strict-positive: lambda_min(V'PV) > tol; non-positive: lambda_max <= tol.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    sv = np.linalg.svd(V, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-10:
        raise RankDeficientBasis("basis matrix is rank deficient")
    G = V.T @ c.P @ V
    G = 0.5 * (G + G.T)
    eig = np.linalg.eigvalsh(G)
    if c.sense is Sense.STRICT_POSITIVE:
        return bool(eig[0] > tol)
    return bool(eig[-1] <= tol)
