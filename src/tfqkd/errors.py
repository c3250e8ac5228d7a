"""Exception types shared across the package, and the argument checks that raise them."""

import math
import numbers

import numpy as np

__all__ = ["DomainError", "NumericFailure"]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NumericFailure(RuntimeError):
    """A quadrature or optimization routine could not reach its accuracy target.

    Carries the accuracy that was actually achieved so callers can decide
    whether to retry with a larger work budget.
    """

    def __init__(self, message, achieved=None, target=None):
        super().__init__(message)
        self.achieved = achieved
        self.target = target


def _check_positive(*named) -> None:
    """:class:`DomainError` for the first ``(name, value)`` pair, in order,
    whose value is not finite and positive (NaN is not)."""
    for name, value in named:
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value}")


def _check_epsilon(epsilon) -> None:
    """:class:`DomainError` unless the intercepted fraction lies in [0, 1] (NaN does not)."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in [0, 1], got {epsilon}")


def _check_count(name: str, value, least: int) -> int:
    """``value`` as an int, or :class:`DomainError` unless it is an integer >= ``least``
    (2.0 counts as 2; NaN, infinities, None and strings do not)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value % 1 == 0
            and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_widths(values, m: int | None = None) -> np.ndarray:
    """``values`` as a float array of alphas or, given ``m``, of betas; :class:`DomainError` unless
    each alpha and each ``beta * m`` lies in [1e-12, 1e12] (NaN does not), the one width domain,
    over which every path is exact and raises no floating-point warning."""
    values = np.asarray(values, dtype=float)
    widths = values if m is None else np.minimum(values, 1e12) * m  # capped, so the product can't overflow
    ok = (widths >= 1e-12) & (widths <= 1e12)
    if not ok.all():
        raise DomainError(f"alpha must lie in [1e-12, 1e12], got {values[~ok][0]}" if m is None else
                          f"beta * m must lie in [1e-12, 1e12], got beta = {values[~ok][0]} at m = {m}")
    return values
