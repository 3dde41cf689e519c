"""Exception types shared across the package."""


class ValidationError(ValueError):
    """User-supplied configuration, plan, or argument values are invalid."""


class DataFormatError(RuntimeError):
    """A dataset file exists but its contents are malformed or inconsistent."""


class TrainingDiverged(RuntimeError):
    """Training cannot go on: a non-finite loss or gradient, a degenerate
    (near-zero or non-finite) pre-normalization feature norm, or an epoch that
    stepped no batch."""
