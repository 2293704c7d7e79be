"""Shared exception types.

The CLI maps these onto exit codes: configuration and data-format problems
exit with 1, numerical failures with 2.
"""

import contextlib
import math
import sys
from typing import get_args, get_origin


class DfcvrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DfcvrError):
    """Invalid configuration value or CLI usage."""


# The ranges a setting may be required to lie in.
_RULES = {
    "finite": lambda v: True,
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    # A synthetic log's feature dimension: its drift plane needs two axes.
    "at least 2": lambda v: v >= 2,
    # A seed: optim.minibatches packs it into 32 bits of its key.
    "in [0, 2**32)": lambda v: 0 <= v < 2**32,
    # A synthetic horizon: click times are drawn below it as int64.
    "in [1, 2**63]": lambda v: 1 <= v <= 2**63,
    # An array size: numpy's dimensions are int64.
    "in [1, 2**63)": lambda v: 1 <= v < 2**63,
    # A float64 count: numpy sizes an array in intp bytes, up to sys.maxsize.
    "addressable as float64": lambda v: 8 * v <= sys.maxsize,
}


def require(rule: str, **settings) -> None:
    """Raise a ConfigError for the first setting that is not a finite
    number satisfying ``rule``, a key of ``_RULES``.

    A tuple setting is checked element by element; integers are finite
    at any size, and a positive one is at least 1.
    """
    ok = _RULES[rule]
    what = "finite" if rule == "finite" else f"finite and {rule}"
    for name, value in settings.items():
        for v in value if isinstance(value, tuple) else (value,):
            if not ((isinstance(v, int) or math.isfinite(v)) and ok(v)):
                raise ConfigError(f"{name} must be {what}, got {v}")


def decode(tp: type, value, name: str):
    """``value``, read from JSON, as a setting of type ``tp``: ``int``,
    ``float`` (an integer too), ``str``, or a tuple of one, given as a list
    (or, from Python, a tuple).

    Anything else, a boolean included, is a ConfigError naming ``name``.
    """
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(decode(get_args(tp)[0], v, name) for v in value)
    kinds = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be of type {tp.__name__}, "
                          f"got {value!r}")
    return tp(value)


class DataFormatError(DfcvrError):
    """Malformed, inconsistent or unwritable dataset, checkpoint or report."""


class NumericalError(DfcvrError):
    """Numerical failure: divergence, non-convergence, non-finite values."""


@contextlib.contextmanager
def reading(path: str):
    """Raise an ``OSError`` from reading ``path`` as a DataFormatError."""
    try:
        yield
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from None


@contextlib.contextmanager
def writing(path: str):
    """Raise an ``OSError`` from writing ``path`` as a DataFormatError."""
    try:
        yield
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot write: {exc.strerror}") from None
