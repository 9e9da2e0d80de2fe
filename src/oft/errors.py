"""Error types shared across the package.

The split mirrors the CLI exit codes: configuration problems (bad config
files, malformed tables, invalid arguments wired from config) exit 2, data
problems (unreadable or inconsistent input streams, degenerate signals)
exit 3, and an infeasible allocation exits 4.
"""


class OftError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(OftError, ValueError):
    """A config file, rule table, parameter set or argument value is invalid."""


class DataError(OftError):
    """Input data is missing, malformed or inconsistent."""


class InsufficientDataError(DataError):
    """Not enough samples to compute the requested quantity."""


class DegenerateInputError(DataError):
    """Input is degenerate for the requested method (zero variance, zero mean)."""


class SequencingError(DataError):
    """Records arrived out of order or with gaps where contiguity is required."""


class InfeasibleError(OftError):
    """No allocation satisfies the requirements; carries a conflict report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
