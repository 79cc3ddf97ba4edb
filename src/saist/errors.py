"""Exception types shared across the package."""


class SaistError(Exception):
    """Base class for all package errors."""


class ConfigError(SaistError):
    """Invalid or incomplete configuration."""


class NonFiniteMatrix(SaistError):
    """A discretization matrix overflowed (unstable dynamics with large horizon)."""


class NonFiniteState(SaistError):
    """A simulated trajectory diverged beyond floating-point range."""


class RankDeficientBasis(SaistError):
    """A subspace basis matrix does not have full column rank."""


class SingularCycleMatrix(SaistError):
    """The cycle matrix is numerically singular; invariant-subspace verification needs nonsingularity."""


class DefectiveMatrix(SaistError):
    """Eigenvector matrix too ill-conditioned to trust basic invariant subspaces."""


class EmptyRefinement(SaistError):
    """A feasible word admitted no feasible one-letter extension (oracle inconsistency)."""


class CrosscheckFailed(SaistError):
    """An empirical simulation contradicted a computed bound."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
