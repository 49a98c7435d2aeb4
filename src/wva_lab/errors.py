"""Exception types shared across the package, and the check that raises one."""

import numpy as np


class ConfigError(ValueError):
    """Invalid scenario id, config key, or parameter value (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Quadrature failed to converge or a sweep produced non-finite values
    (CLI exit code 3)."""


def holds(ok) -> bool:
    """Whether ``ok``, a bool or an array of them, holds everywhere."""
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def require(ok, message: str, *values) -> None:
    """Raise NumericalError unless ``ok`` (a bool, or an array of them) holds everywhere.  ``message`` is a
    format string for the entries of ``values`` (floats, or arrays like ``ok``) at the first place it fails."""
    if not holds(ok):
        at = int(np.argmin(ok))
        raise NumericalError(message.format(*(float(np.broadcast_to(v, np.shape(ok)).flat[at]) for v in values)))
