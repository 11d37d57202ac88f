"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, data problems with 3, numerical failures with 4.
"""


class ConfigError(Exception):
    """Invalid run configuration. Carries every problem found, not just the first."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DataError(ValueError):
    """Unreadable, malformed, or inconsistent input data. A ValueError, so
    library callers of ``metrics`` catch it as they catch argument errors."""


class NumericalError(Exception):
    """A solver or training run produced non-finite values."""
