"""Exception types shared across the package, and the one check of config
sections and catalog params against their (kind, default, lower bound)
tables."""

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


def config_value(section: dict, key: str, kind=float, where=""):
    """section[key] checked against kind; ConfigError when the key is absent.
    float and int are checked by as_number; str and dict by type; list is a
    list of numbers, returned as written (an int entry stays an int)."""
    if key not in section:
        raise ConfigError(f"{where}{key} must be explicit")
    value = section[key]
    if kind in (float, int):
        return as_number(value, where + key, kind)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}{key} must be {_KINDS[kind]}, got {value!r}")
    if kind is list:
        for v in value:
            as_number(v, f"{where}{key}[]")
    return value


class Checked(dict):
    """Checked values and the defaults of absent keys; reading a required
    key that was not given raises ConfigError."""

    where = ""

    def __missing__(self, key):
        raise ConfigError(f"{self.where}.{key} must be explicit")


def check_section(given, table: dict, where: str) -> Checked:
    """Check a config section or catalog params against its table, key ->
    (kind, default REQUIRED or None or a value, lower bound): ConfigError for
    an unknown key or a wrong type, DomainError for an int or a list length
    below the bound or a float not above it. Types each given value in place
    (an int written for a float becomes a float)."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    extra = set(given) - set(table)
    if extra:
        raise ConfigError(f"unknown keys in {where!r}: {sorted(extra)}")
    for key in given:
        kind, _, low = table[key]
        value = given[key] = config_value(given, key, kind, where + ".")
        size = len(value) if kind is list else value
        op = ">" if kind is float else ">="
        if low is not None and not (size > low or (op == ">=" and size == low)):
            raise DomainError(f"{where}.{key} must be {op} {low}"
                              f"{' entries long' if kind is list else ''}, got {value}")
    values = Checked({key: given.get(key, default) for key, (_, default, _)
                      in table.items() if key in given or default is not REQUIRED})
    values.where = where
    return values
