"""Exception types shared across the package."""

from __future__ import annotations


class BseiError(Exception):
    """Base class for all package-specific failures."""


class AdaptednessError(BseiError):
    """A process ensemble violated its declared adaptedness contract."""


class ScheduleError(BseiError, ValueError):
    """The contraction constants admit no finite window length or count, or
    plan more grid than the machine can hold; ``field`` names the config
    entry to change."""

    def __init__(self, message: str, field: str = "problem.generator"):
        super().__init__(message)
        self.field = field


class NonConvergenceError(BseiError):
    """Fixed-point iteration hit the iteration cap above tolerance, or an
    iterate stopped being finite.

    The partial report accumulated so far is attached for diagnosis.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
