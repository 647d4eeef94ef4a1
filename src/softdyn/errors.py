"""Shared exception types."""


class SoftdynError(Exception):
    """Base class for all package-specific errors."""


class IntegrationDivergedError(SoftdynError):
    """Numerical integration produced a non-finite state."""

    def __init__(self, t: float, row: int | None = None):
        self.t = t
        self.row = row
        where = "" if row is None else f" in batch row {row}"
        super().__init__(f"integration diverged at t = {t:.6g} s{where}")


class ParseError(SoftdynError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SchemaError(SoftdynError):
    """Input violates a structural constraint (e.g. non-monotone time)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BoundaryGapError(SoftdynError):
    """A tracked series starts or ends with invalid samples."""


class InsufficientDataError(SoftdynError):
    """Not enough data to run the requested operation."""
