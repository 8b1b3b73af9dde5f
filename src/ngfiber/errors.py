"""Exception types shared across the package."""


class NgFiberError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(NgFiberError):
    """A physical or configuration parameter is out of its valid range."""


class ConfigError(ParameterError):
    """A run-configuration file could not be parsed or validated."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonHermitianInput(NgFiberError):
    """An operation that requires a Hermitian matrix received a non-Hermitian one."""


class EigenFailure(NgFiberError):
    """Eigendecomposition failed to converge or produced a non-unitary propagator."""


class DivergentState(ParameterError):
    """The squeezing parameter lies outside the unit disk, so the state norm diverges."""


class DegenerateState(ParameterError):
    """zeta = 0 with p > 0 annihilates the state (zero norm)."""


class TruncationTooSmall(NgFiberError):
    """The requested Fock-space cutoff cannot hold the state's support."""


class ZeroModeDifference(ParameterError):
    """Visibility is only defined between distinct manifold indices (k != 0)."""


class ZeroTemperature(ParameterError):
    """The requested expression is not defined at T = 0."""


class ZeroFrequency(ParameterError):
    """A phase-accumulation rate that must be positive is zero or negative."""


class QuadratureNonConvergence(NgFiberError):
    """The adaptive panel quadrature failed its self-consistency check."""


class MissingSpacing(ParameterError):
    """A segment-dependent quantity was requested but no spacing is set."""


class DimensionBudgetExceeded(ParameterError):
    """The joint system-bath Hilbert space exceeds the dense-matrix budget."""


class GibbsLevelsExceeded(ParameterError):
    """The direct-sum Gibbs oracle would need more levels than its cap."""


class DimensionMismatch(ParameterError):
    """Vector or matrix dimensions do not match the declared space factorization."""
