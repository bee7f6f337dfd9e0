"""Shared exception types, mapped to CLI exit codes."""


class ExplauditError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(ExplauditError):
    """Invalid configuration or arguments (CLI exit code 1)."""


class DataError(ExplauditError):
    """Invalid or missing input data (CLI exit code 2)."""


class NumericalError(ExplauditError):
    """Numerical failure during a computation (CLI exit code 3)."""
