"""Exception types shared across the package.

Degenerate numeric inputs raise instead of returning NaN, so bad values
cannot silently poison training targets or benchmark statistics.
"""


class DegenerateSignal(ValueError):
    """Signal has no usable variation (e.g. zero variance, all-zero power).

    A batched oracle names the offending row of its batch in `row` and in
    the message; `reason` is the message without it.
    """

    def __init__(self, reason: str, row: int = None):
        self.reason = reason
        self.row = row
        super().__init__(reason if row is None else f"row {row}: {reason}")


class ShapeError(ValueError):
    """Array dimensions inconsistent with the declared topology or data."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class CorpusDegenerateError(RuntimeError):
    """Pretraining target range collapsed; the regression would be vacuous."""


class UnsupportedVersion(ValueError):
    """Artifact file declares a format version this build cannot read."""


class CorruptArtifact(ValueError):
    """Artifact file is unreadable or internally inconsistent."""


class SplitError(ValueError):
    """Dataset cannot be partitioned as requested."""


class IngestError(ValueError):
    """Dataset CSV violates the expected schema."""

    def __init__(self, row: int, message: str):
        self.row = row
        super().__init__(f"row {row}: {message}")


class DegenerateGroups(ValueError):
    """Statistical test inputs carry no usable within-group variation."""


class FeatureError(ValueError):
    """A feature computation failed; carries the offending feature name."""

    def __init__(self, feature: str, cause: Exception):
        self.feature = feature
        self.cause = cause
        super().__init__(f"{feature}: {cause}")
