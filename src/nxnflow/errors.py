"""Exception hierarchy shared across the package."""


class NxnFlowError(Exception):
    """Base class for all package errors."""


class ShapeError(NxnFlowError):
    """Operand extents are incompatible with the operation."""


class StateError(NxnFlowError):
    """Object used before required initialization, or with a stale cache."""


class DegenerateChannelError(NxnFlowError):
    """A channel has (near-)zero variance and cannot be normalized."""


class NumericError(NxnFlowError):
    """A non-finite value appeared where a finite one is required."""


class ConfigError(NxnFlowError):
    """Invalid, unknown, or inconsistent configuration."""


class DataError(NxnFlowError):
    """Dataset values violate their declared range or shape."""


class FormatError(NxnFlowError):
    """A serialized file is malformed. Carries a byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
