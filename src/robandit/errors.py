"""Exception types shared across the toolkit."""


class RobanditError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(RobanditError):
    """An estimator was called with an empty sample."""


class NonUniqueMedianError(RobanditError):
    """A unique median was required but the cdf is flat at level 1/2."""


class NonUniqueMADError(RobanditError):
    """A unique median absolute deviation was required but is not defined."""


class ZeroMADError(RobanditError):
    """The median absolute deviation is zero, so slope conditions degenerate."""


class InfeasibleRegimeError(RobanditError):
    """The contamination bound is too large for the configured family parameters."""


class TooFewSamplesError(RobanditError):
    """Sample count is below the validity floor of the requested confidence bound."""


class IncompatibleStrategyError(RobanditError):
    """The contamination strategy is not allowed under the adversary model or arm."""


class ParameterOutOfRangeError(RobanditError):
    """A construction was requested outside its validity range; ``key`` names
    the rejected parameter, where one is to blame."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class LiftingError(RobanditError):
    """A lifted instance failed one of its construction self-checks."""
