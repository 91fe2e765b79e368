"""Exception types shared across the package, and the type checks for settings."""
import numbers


class CrepError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CrepError, ValueError):
    """A setting is out of range: eps, a simulation or search parameter."""


class NetworkParseError(CrepError):
    """Network file is malformed: bad JSON, wrong types, unknown fields."""


class NetworkValidationError(CrepError):
    """Network violates a model invariant; the message names the invariant."""


class SynchronousStateError(CrepError):
    """No admissible synchronous state was found for these parameters."""


class NoConvergence(SynchronousStateError):
    """Newton iteration stalled (no halving of a step lowered the mismatch)
    or exhausted its budget without meeting the tolerance."""


class OutOfDomain(SynchronousStateError):
    """Converged phases violate the security domain on at least one line."""


class DegenerateSystemError(CrepError):
    """The reduced system is marginally stable; the invariant variance is undefined."""


class LyapunovSolveError(CrepError):
    """Lyapunov residual exceeded tolerance (near-singular reduced system), or
    the variances overflow the float range (huge capacities or noise)."""


class AllCensoredError(CrepError):
    """No Monte-Carlo trajectory exited before the horizon; mean undefined."""


class InfeasibleSpecError(CrepError):
    """Decision specification is infeasible or inconsistent with the network."""


class NoFeasiblePointError(CrepError):
    """Every candidate evaluated by the search lacked an admissible state."""


#: the errors meaning the metric is undefined for a network: it has no
#: admissible synchronous state, or its reduced system is marginally stable,
#: too ill-conditioned for the Lyapunov solve or beyond the float range
METRIC_UNDEFINED = (SynchronousStateError, DegenerateSystemError, LyapunovSolveError)


def is_number(value, integral: bool = False) -> bool:
    """Whether ``value`` is a real number, or with ``integral`` an integer, and not a bool."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def require_int(value, name: str, low: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int (not a bool) >= ``low``."""
    if not is_number(value, integral=True) or value < low:
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")


def require_real(value, name: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a real number (not a bool)."""
    if not is_number(value):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
