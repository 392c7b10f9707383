"""Exception types shared across the package."""


class QsenseError(Exception):
    """Base class for package-specific failures."""


class DegenerateFactorError(QsenseError):
    """A factor matrix is (numerically) rank deficient where full rank is required."""


class OutOfInjectivityError(QsenseError):
    """A log-map / local-chart operation was requested beyond its valid radius."""


class InitializationError(QsenseError):
    """Spectral initialization produced no usable eigenvalue mass."""


class DivergenceError(QsenseError):
    """The optimizer hit a non-finite loss value.

    Carries the loss trace seen so far in ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = [] if trace is None else list(trace)


class DegenerateHessianError(QsenseError):
    """The restricted curvature matrix is not finite or numerically singular.

    The loss is flat, to working precision, along some direction of the
    basis: a vertical (rotation) direction, which the curvature always
    annihilates, or a direction the data do not resolve.  Also raised when
    the curvature cannot be built in floating point: a non-finite H, or a
    bounded-design Fourier grid beyond its cap.
    """


class ConfigurationError(QsenseError):
    """Invalid or inconsistent configuration values."""


class HarnessAbort(QsenseError):
    """An experiment aborted (e.g. excessive replicate divergence)."""
