"""Exception taxonomy shared across the package.

Everything numerical that can fail in a structured way raises a subclass of
SpectralBranchError so that callers (and the CLI exit-code mapping) can tell
configuration mistakes apart from numerical breakdowns.
"""


class SpectralBranchError(Exception):
    """Base class for package-specific failures."""


class NotHermitianError(SpectralBranchError):
    """Input matrix is not Hermitian within tolerance."""


class EigenConvergenceError(SpectralBranchError):
    """Eigensolver failed to converge or violated its residual contract."""


class SpectrumTouchError(SpectralBranchError):
    """A shifted solve hit the spectrum: contour touches spectrum."""


class SeparationError(SpectralBranchError):
    """Contour violates the required separation margin from the spectrum."""


class QuadratureError(SpectralBranchError):
    """Contour quadrature not converged within the node budget."""


class RankDriftError(SpectralBranchError):
    """Projector rank is not constant across the probe box."""


class GapCollapseError(SpectralBranchError):
    """Cluster membership is ambiguous at the given resolution."""


class RootRealityError(SpectralBranchError):
    """Recovered polynomial roots are not real to tolerance."""


class CountingError(SpectralBranchError):
    """Partial branch data exceeds the available eigenvalue multiset."""


class UnderflowGuardError(SpectralBranchError):
    """Computation refused: scales would underflow without the prefactor."""


class ExpressionError(SpectralBranchError):
    """Expression parse or evaluation failure, annotated with a position.

    ``reason`` is the message without the position, for re-raising with the
    name of the entry the expression came from.
    """

    def __init__(self, message: str, position: int | None = None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)


class ConfigError(SpectralBranchError):
    """Config file is syntactically or semantically invalid."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


#: Failures that map to CLI exit code 3 (numerical breakdown at runtime).
NUMERICAL_FAILURES = (
    NotHermitianError,
    EigenConvergenceError,
    SpectrumTouchError,
    SeparationError,
    QuadratureError,
    RankDriftError,
    GapCollapseError,
    RootRealityError,
    CountingError,
    UnderflowGuardError,
)
