"""Shared exception types."""


class ShapeMismatchError(ValueError):
    """Raised when tensor or array shapes are incompatible for an operation."""


class ConfigurationError(ValueError):
    """Raised for invalid model or run configuration values."""


class ContractError(RuntimeError):
    """Raised when a caller violates an API precondition."""


class MissingArtifactError(FileNotFoundError):
    """Raised when a pipeline stage needs an artifact that was never produced."""


class ArtifactError(ValueError):
    """Raised when an artifact file is truncated, malformed or of another format."""


class NumericError(ArithmeticError):
    """Raised when a computation produces NaN or Inf."""
