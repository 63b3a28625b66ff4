"""Exception and warning types shared across the package."""


class QmpembaError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(QmpembaError):
    """Operands have incompatible shapes."""


class NotHermitian(QmpembaError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NoConvergence(QmpembaError):
    """An eigensolver or refinement loop failed to meet its accuracy contract."""


class AssumptionViolation(QmpembaError):
    """Base class for violated spectral assumptions.

    Instances carry the offending decomposition (or its eigenvalues) on the
    ``decomposition`` / ``eigenvalues`` attributes when available, so callers
    can still report partial results.
    """

    def __init__(self, message, decomposition=None, eigenvalues=None):
        super().__init__(message)
        self.decomposition = decomposition
        self.eigenvalues = eigenvalues


class DegenerateStationaryState(AssumptionViolation):
    """The zero eigenvalue of the generator is not simple."""


class ComplexSlowMode(AssumptionViolation):
    """The slowest decaying eigenvalue has a non-negligible imaginary part."""


class DegenerateSlowMode(AssumptionViolation):
    """The slowest decaying eigenvalue is not separated from the next one."""


class NotHermitianSlowMode(QmpembaError):
    """The slow left eigenmatrix fails its Hermiticity check."""


class NoOppositeSign(QmpembaError):
    """All eigenvalues of the slow mode share one strict sign (corrupt input)."""


class SameSign(QmpembaError):
    """Rotation angle requested for two eigenvalues of equal sign."""


class ZeroBranch(QmpembaError):
    """Operation undefined when the zero-eigenvalue branch was selected."""


class NoZeroEigenvalue(QmpembaError):
    """Permutation branch requested without a near-zero eigenvalue."""


class NotNormalized(QmpembaError):
    """A state vector is not normalized to one."""


class WindowEmpty(QmpembaError):
    """No usable points inside the requested fit window."""


class InvalidN(QmpembaError):
    """Spin count must be a positive integer."""


class DegenerateDenominator(QmpembaError):
    """Adiabatic coefficient denominator vanished."""


class ConfigError(QmpembaError):
    """Invalid experiment configuration."""


class IllConditionedBasis(UserWarning):
    """Eigenvector basis condition estimate exceeds the trust threshold."""


class PoorFit(UserWarning):
    """Decay-rate fit has low goodness of fit."""
