"""Exception types shared across the toolkit."""


class ShapeError(ValueError):
    """Array dimensions do not line up (message names both shapes)."""


class DataError(ValueError):
    """Invalid or inconsistent input data (bad cell, month gap, unknown province)."""


class CoverageError(DataError):
    """A required (province, period) combination is absent."""


class CompletenessError(ValueError):
    """A report set is missing a required region or model variant."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class ConfigError(ValueError):
    """A configuration file or flag could not be parsed or validated."""


class WorkerError(RuntimeError):
    """A pool worker died before it answered, or its answer cannot be pickled."""
