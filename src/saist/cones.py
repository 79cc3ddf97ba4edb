"""Homogeneous quadratic cones for IST words and subspace containment checks."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RankDeficientBasis
from .petc import DiscretizedSystem, SYM_TOL


@dataclass(frozen=True, eq=False)
class ConeSystem:
    """Conjunction of quadratic constraints pinning the next |word| ISTs.

    Form i is mats[i], (c, n, n); signs[i] is +1 for x'Px > 0 and -1 for
    x'Px <= 0.  All forms are pulled back to the initial state by
    congruence with the cumulative products of the M(k) matrices, so
    membership of x is a direct evaluation.  The constructor checks and
    symmetrises forms from outside; `_of` takes forms that are exactly
    symmetric by construction, such as `letter_forms`'s, unchecked.
    """

    word: tuple
    mats: np.ndarray
    signs: np.ndarray
    variant = ""  # not a field: read by tools that key a cone by (word, variant); always ""

    def __post_init__(self):
        mats = np.array(self.mats, dtype=np.float64)
        signs = np.array(self.signs, dtype=np.float64)
        if mats.ndim != 3 or not 0 < mats.shape[1] == mats.shape[2] or signs.shape != mats.shape[:1]:
            raise ConfigError("forms must be a (c, n, n) stack with one sign each")
        if not np.isin(signs, (1.0, -1.0)).all():
            raise ConfigError("signs must be +1 or -1")
        asym = np.abs(mats - mats.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        if (asym > SYM_TOL * np.abs(mats).max(axis=(1, 2), initial=1.0)).any():
            raise ConfigError("constraint matrix must be symmetric")
        self._set(tuple(self.word), 0.5 * (mats + mats.transpose(0, 2, 1)), signs)

    def _set(self, word, mats, signs):
        mats.setflags(write=False)
        signs.setflags(write=False)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def _of(cls, word, mats, signs):
        """The cone of exactly symmetric float64 (mats, signs) stacks, unchecked."""
        cone = object.__new__(cls)
        cone._set(word, mats, signs)
        return cone

    @property
    def n(self):
        return self.mats.shape[1]

    def contains(self, x, tol=0.0):
        for P, s in zip(self.mats, self.signs.tolist()):
            v = float(x @ P @ x)
            if not (v > tol if s > 0 else v <= tol):
                return False
        return True


def letter_forms(disc: DiscretizedSystem, phis, letters):
    """The forms of one more letter for each of a batch of words: phis
    (B, n, n) are the words' cumulative matrices, letters (B,) the letters
    appended.

    Letter k contributes a non-positive form N(m) for each m < k, then a
    strict-positive N(k) (absent for k = kbar), each pulled back by its
    word's phi.  Returns (phis advanced by M(k), forms (F, n, n), signs
    (F,), counts (B,)): word b's forms are the next counts[b] rows.  One
    stacked matmul builds every form, so each one is bitwise the form a
    batch of one would give.
    """
    ks = np.asarray(letters, dtype=np.intp)
    counts = np.where(ks < disc.kbar, ks, ks - 1)
    owner = np.repeat(np.arange(len(ks)), counts)
    m = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    phi = phis[owner]
    P = phi.transpose(0, 2, 1) @ disc.N[m - 1] @ phi
    P = 0.5 * (P + P.transpose(0, 2, 1))
    signs = np.where(m < ks[owner], -1.0, 1.0)
    return disc.M[ks - 1] @ phis, P, signs, counts


def checked_word(disc: DiscretizedSystem, word) -> tuple:
    """The word as a tuple of ints; ConfigError unless nonempty over 1..kbar."""
    word = tuple(map(int, word))
    if not word:
        raise ConfigError("word must be nonempty")
    if min(word) < 1 or max(word) > disc.kbar:
        raise ConfigError(f"letters must lie in 1..{disc.kbar}")
    return word


def sigma_cone(disc: DiscretizedSystem, word) -> ConeSystem:
    """The cone of the states whose next |word| ISTs are exactly `word`:
    :func:`letter_forms` folded over the word from the identity."""
    word = checked_word(disc, word)
    phis, mats, signs = np.eye(disc.n)[None], [], []
    for k in word:
        phis, forms, s, _ = letter_forms(disc, phis, [k])
        mats.append(forms)
        signs.append(s)
    return ConeSystem._of(word, np.concatenate(mats), np.concatenate(signs))


def subspace_contained(V, P, sign, tol: float) -> bool:
    """Whether span(V) \\ {0} satisfies the form P: x'Px > 0 for sign +1,
    x'Px <= 0 for sign -1.

    Strict-positive: lambda_min(V'PV) > tol; non-positive: lambda_max <= tol.
    """
    return span_satisfies(V, np.asarray(P)[None], np.array([sign]), tol)


def span_satisfies(V, mats, signs, tol: float) -> bool:
    """Whether span(V) \\ {0} satisfies every form of the (c, n, n) stack,
    as `subspace_contained` decides each; True for an empty stack.  The
    basis rank is checked once, and every V'PV goes through one stacked
    `eigvalsh`."""
    if not len(signs):
        return True
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    sv = np.linalg.svd(V, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-10:
        raise RankDeficientBasis("basis matrix is rank deficient")
    G = V.T @ mats @ V
    eig = np.linalg.eigvalsh(0.5 * (G + G.transpose(0, 2, 1)))
    signs = np.asarray(signs)
    return bool(np.where(signs > 0, eig[:, 0] > tol, eig[:, -1] <= tol).all())
