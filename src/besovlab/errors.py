"""Exception hierarchy shared across the package, and the check of config numbers.

Exit-code mapping for the CLI lives in cli.py, not here.
"""

import numbers


class BesovLabError(Exception):
    """Base class for all package errors."""


class ParameterError(BesovLabError):
    """A numeric parameter is outside its valid range."""


class ConfigurationError(BesovLabError):
    """A spec/config object is malformed (bad weight descriptor, missing sign, ...)."""


class ResolutionError(BesovLabError):
    """A request needs finer dyadic resolution than the data carries."""


class SizeError(BesovLabError):
    """Exact enumeration requested beyond the hard size cutoff."""


def config_number(value, field: str, integral: bool = False):
    """A number read from a config or sidecar: a float, or an int if `integral`.

    Booleans, non-numbers and, for an integral field, values with a fraction
    raise ConfigurationError: int() and float() would truncate 10.9 to 10 and
    read true as 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{field} must be a number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if not float(value).is_integer():
        raise ConfigurationError(f"{field} must be an integer, got {value!r}")
    return int(value)
