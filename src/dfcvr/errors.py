"""Shared exception types.

The CLI maps these onto exit codes: configuration and data-format problems
exit with 1, numerical failures with 2.
"""

import contextlib


class DfcvrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DfcvrError):
    """Invalid configuration value or CLI usage."""


class DataFormatError(DfcvrError):
    """Malformed, inconsistent or unwritable dataset, checkpoint or report."""


class NumericalError(DfcvrError):
    """Numerical failure: divergence, non-convergence, non-finite values."""


@contextlib.contextmanager
def writing(path: str):
    """Raise an ``OSError`` from writing ``path`` as a DataFormatError."""
    try:
        yield
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot write: {exc.strerror}") from None
