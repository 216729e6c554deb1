"""Exception hierarchy shared across the toolkit.

Three top-level families map onto the CLI exit codes: configuration/usage
problems (exit 2), data problems (exit 3), numerical failures (exit 4).
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ToolkitError):
    """Invalid parameter, option, or configuration value."""


class DataError(ToolkitError):
    """Problem with the content of input data."""


class SchemaError(DataError):
    """A required column is missing or declared with the wrong role."""


class IntegrityError(DataError):
    """Duplicate timestamps or a broken sampling grid."""


class ParseError(DataError):
    """A cell or line could not be parsed."""


class SplitError(DataError):
    """A chronological split produced an empty partition."""


class SelectionError(DataError):
    """Unknown feature or feature-group name."""


class PipelineError(DataError):
    """A processing step is missing one of its input columns."""


class NumericError(ToolkitError):
    """Numerical failure: singular system, overflow, or non-finite values."""
