"""Exception and warning types shared across the toolkit.

All numerical guards (pole proximity, degenerate configurations, singular
matrices, failed fits) raise one of the exceptions below so callers can
distinguish mathematical preconditions from programming errors.
"""


class RslaxError(Exception):
    """Base class for all toolkit errors."""


class PoleAtLattice(RslaxError):
    """Argument of a meromorphic function is too close to a lattice pole."""


class NonConvergent(RslaxError):
    """A series cannot converge for the given parameters (e.g. Im tau <= 0)."""


class ValueOverflow(RslaxError, OverflowError):
    """A function value is too large in magnitude for a double."""


class FitDegenerate(RslaxError):
    """The trivial-theta gauge was asked of a degenerate (trigonometric or
    rational) lattice; nothing is fitted, the gauge has a closed form."""


class DegenerateConfiguration(RslaxError):
    """Particle positions or parameters violate a pairwise-distinctness bound."""


class SingularMatrix(RslaxError):
    """A matrix that must be inverted is numerically singular."""


class ZeroMu(RslaxError):
    """The mu parameter is zero where a formula divides by it."""


class ZeroLambda(RslaxError):
    """The spectral parameter is zero where a formula divides by it."""


class NonFiniteEntries(RslaxError, ValueError):
    """An evaluated matrix has a NaN or infinite entry."""


class NoSolution(RslaxError):
    """A moment-map equation has no solution for the given data."""


class SingularY(RslaxError):
    """The solved Y matrix is singular, so the multiplicative residual is undefined."""


class NonDiagonalizable(RslaxError):
    """The matrix to be diagonalized has a defective eigenbasis."""


class RepeatedEigenvalues(RslaxError):
    """Eigenvalues are not pairwise distinct within tolerance."""


class CollisionImminent(RslaxError):
    """Two particles are about to collide; flow derivative is unreliable.

    When raised by the integrator, the ``trajectory`` attribute carries the
    partial trajectory accumulated before the abort.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StepTooLarge(CollisionImminent):
    """A fixed step would move a particle by more than half its smallest
    separation from another, so the flow would jump past a near-collision."""


class ConfigInvalid(RslaxError):
    """An experiment configuration file failed validation."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class BranchCutWarning(UserWarning):
    """A square-root argument passed near the negative real axis; the
    principal branch may be discontinuous across nearby configurations."""
