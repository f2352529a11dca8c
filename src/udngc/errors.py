"""Exception hierarchy shared across the package, and the finite-value check
of the parameter dataclasses."""
import dataclasses
import math
import numbers


class UdngcError(Exception):
    """Base class for all package errors."""


class ParameterError(UdngcError, ValueError):
    """A parameter violates its documented domain (non-positive density,
    eta1 > eta2, a divergent integral order, ...)."""


class InsufficientPointsError(UdngcError):
    """A query needs more base stations than the deployment provides."""


class ConfigError(UdngcError):
    """A scenario file is malformed or names an unknown key."""


class NumericalError(UdngcError):
    """Quadrature or another numerical routine failed to converge."""


def require_finite(params) -> None:
    """Raise :class:`ParameterError` naming the first real-valued field of the
    dataclass instance ``params`` that is nan or infinite; integers are
    always finite, and ``None`` and non-numeric fields are left to the
    caller's own checks."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Integral) or not isinstance(value, numbers.Real):
            continue
        if not math.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, got {value!r}")
