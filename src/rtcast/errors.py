"""Exception hierarchy shared across the toolkit.

One class per CLI exit code, each a :class:`ToolkitError`: ``ConfigError``
for configuration and usage problems (exit 2), ``DataError`` for problems
with the content of input data (exit 3) and ``NumericError`` for numerical
failures (exit 4). The message, not a subclass, says what went wrong.
"""
from contextlib import contextmanager

import numpy as np


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ToolkitError):
    """Invalid parameter, option, or configuration value."""


class DataError(ToolkitError):
    """Problem with the content of input data."""


class NumericError(ToolkitError):
    """Numerical failure: singular system, overflow, or non-finite values."""


@contextmanager
def float_range(what: str):
    """Raise numpy overflow and invalid values in a block (or a decorated
    function) as NumericError: finite inputs can still overflow to inf/NaN."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{what} left the float range: {exc}") from exc
