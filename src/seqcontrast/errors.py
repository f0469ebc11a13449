"""Exception types shared across the package."""


class SeqContrastError(Exception):
    """Base class for package errors."""


class EmptyInputError(SeqContrastError):
    """An operation received an empty point cloud or dataset."""


class DataFormatError(SeqContrastError):
    """A file failed to parse; carries a byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrajectoryFailure(SeqContrastError):
    """Rejection-sampling budget exhausted while extending a trajectory."""


class LossUndefinedError(SeqContrastError):
    """No usable correspondences; the loss term has no value."""


class ConfigError(SeqContrastError, ValueError):
    """Invalid or unknown configuration key/value."""


class WorkerError(SeqContrastError, RuntimeError):
    """A training worker process stopped before it answered."""
