"""Exception types shared across the package, and the typed config reads
that raise ConfigError."""

import numbers


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class AssumptionViolation(DomainError):
    """A hypothesis of a stability bound (e.g. B < 1, S < 1) fails for the inputs."""


class ConstructionError(RuntimeError):
    """A constrained object (e.g. a mollifier) could not be built; the message
    names the violated bound."""


class NumericError(RuntimeError):
    """A quadrature or iteration failed to reach its tolerance.

    Carries the best available estimate and the achieved error bound so
    callers can decide whether to degrade gracefully.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ConfigError(ValueError):
    """A config value is missing or has the wrong type (CLI exit code 2)."""


REQUIRED = object()


def as_number(value, label: str, kind=float):
    """value as kind (float or int). A bool, a non-number or, for int, a
    non-integer raises ConfigError instead of being coerced; so does an
    integer too large for a float."""
    what = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ConfigError(f"{label} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{label} overflows a double") from None


_KINDS = {str: "a string", dict: "an object", list: "a list of numbers"}


def config_value(section: dict, key: str, default=REQUIRED, kind=float, where=""):
    """section[key] checked against kind, or default when the key is absent.
    float and int are checked by as_number; str and dict by type; list is a
    list of numbers, returned as written (an int entry stays an int)."""
    if key not in section:
        if default is REQUIRED:
            raise ConfigError(f"{where}{key} must be explicit")
        return default
    value = section[key]
    if kind in (float, int):
        return as_number(value, where + key, kind)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}{key} must be {_KINDS[kind]}, got {value!r}")
    if kind is list:
        for v in value:
            as_number(v, f"{where}{key}[]")
    return value
