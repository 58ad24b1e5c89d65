"""Exception types shared across the package."""


class StreamDescError(Exception):
    """Base class for all package-specific errors."""


class BudgetTooSmallError(StreamDescError):
    """Raised when the edge budget cannot support the requested estimate."""


class DataFormatError(StreamDescError):
    """Raised when an input file does not match its expected format."""
