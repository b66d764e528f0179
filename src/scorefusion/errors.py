"""Exception taxonomy shared across the package.

Every error the library raises on purpose is a ScoreFusionError, so callers
tell failures apart without string matching. Each class also declares how
the CLI reports it (the `error[kind]` tag, exit code and message prefix):
this is the package's one table of exit codes."""

from __future__ import annotations


class ScoreFusionError(Exception):
    """Base class for all errors raised by this package."""

    kind, exit_code, prefix = "config", 1, ""


class ConfigurationError(ScoreFusionError):
    """Invalid or inconsistent configuration (bad key, missing API key, ...)."""


class DataError(ScoreFusionError):
    """Problems with data files (unreadable input, an unwritable model file)
    or datasets."""

    kind, exit_code = "data", 2


class InvalidDatasetError(DataError):
    """A dataset failed validation; carries the violation messages."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid dataset: " + "; ".join(self.violations[:5])
            + (" ..." if len(self.violations) > 5 else "")
        )


class UnknownTextError(DataError):
    """A frozen lookup encoder was asked for a text it does not contain."""


class ProviderUnavailableError(ScoreFusionError):
    """A provider endpoint rejected a request, or all retries failed.

    Attributes:
        last_status: HTTP status (or None for transport-level failures) of
            the final attempt.
        failed_indices: input positions that failed, when raised for a batch.
    """

    kind, exit_code = "provider", 3

    def __init__(self, message: str, last_status: int | None = None,
                 failed_indices: list[int] | None = None):
        super().__init__(message)
        self.last_status = last_status
        self.failed_indices = failed_indices or []


class StaleCacheError(ScoreFusionError):
    """Cache directory belongs to a different dataset fingerprint."""

    kind, exit_code = "stale-cache", 4


class CorruptCacheError(ScoreFusionError):
    """Cache manifest could not be read."""


class CacheWriteError(ScoreFusionError):
    """An entry could not be written durably."""


class ModelFormatError(ScoreFusionError):
    """A model file is missing, truncated, or structurally invalid."""

    prefix = "model format error: "


class RunStateError(ScoreFusionError):
    """A run record operation happened in the wrong state (e.g. double finalize)."""
