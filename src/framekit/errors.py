"""Exception types shared across the package."""


class FramekitError(Exception):
    """Base class for every error raised by this package."""


class BadParameter(FramekitError):
    """A scalar or structural parameter is outside its legal range."""


class DimensionMismatch(FramekitError):
    """Vector/matrix shapes do not agree."""


class CountMismatch(FramekitError):
    """Two systems that must have equal vector counts do not."""


class NotSpanning(FramekitError):
    """The system does not span its ambient space but the operation needs it to."""


class ZeroNorm(FramekitError):
    """A vector of norm zero makes the requested quantity undefined."""


class TooFewVectors(FramekitError):
    """The operation needs at least two vectors."""


class TooLarge(FramekitError):
    """The combinatorial search space exceeds the configured guard."""


class BadTarget(FramekitError):
    """Requested subset size is not in [1, count]."""


class NotSeparated(FramekitError):
    """Separation constant is below tolerance; extraction cannot start."""


class GuaranteeEmpty(FramekitError):
    """No certifiable selection exists in the current extraction round."""


class InfeasibleDelta(FramekitError):
    """A residual threshold override violates the feasibility inequality."""


class QuadratureFailure(FramekitError):
    """Quadrature error estimate exceeds the accuracy contract."""


class EmptyInput(FramekitError):
    """An aggregate operation received no inputs."""


class SchemaError(FramekitError):
    """A serialized document is malformed; message carries field context."""


class NotFlat(FramekitError):
    """No vector with analysis mass under the budget exists; carries the best mass found."""

    def __init__(self, message: str, achieved_mass: float):
        super().__init__(message)
        self.achieved_mass = achieved_mass
