"""Exception types shared across the package.

The CLI maps these onto process exit codes: bad inputs exit 1, numerical
failures (divergence, infeasible width search) exit 2, I/O problems exit 3.
"""

import numpy as np


class ValidationError(ValueError):
    """Arguments or file contents that violate a documented precondition."""


def check_count(value, what, least=1):
    """value as an int, when it is an integer >= least: an int, or a float
    with an integral value.  Anything else raises a ValidationError that
    names what; a fractional count is rejected, never truncated."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return n


def check_array(value, what, shape):
    """value as a float64 array whose ndim and sizes match shape (None
    matches any size) and whose entries are all finite.  Anything else,
    a value numpy cannot convert included, raises a ValidationError that
    names what.  A float64 ndarray passes without a copy."""
    if type(value) is not np.ndarray or value.dtype != np.float64:
        try:
            value = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{what} must be a float array, got a {type(value).__name__}") from None
    if value.shape != shape and (value.ndim != len(shape) or any(
            n is not None and n != got for n, got in zip(shape, value.shape))):
        want = ", ".join("*" if n is None else str(n) for n in shape)
        raise ValidationError(
            f"{what} must have shape ({want}{',' * (len(shape) == 1)}), got {value.shape}")
    if not np.isfinite(value).all():
        raise ValidationError(f"{what} contains non-finite entries")
    return value


def check_addressable(rows, cols, what):
    """Raise a ValidationError, what followed by 'larger than the address
    space', when a rows x cols float64 matrix cannot be addressed: numpy
    rejects that size with a ValueError, not a MemoryError."""
    if rows * cols > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"{what} larger than the address space")


class DivergenceError(RuntimeError):
    """Iterates or losses left the representable range during a solve."""

    def __init__(self, iteration, message=None):
        self.iteration = int(iteration)
        if message is None:
            message = f"solve diverged at iteration {self.iteration}"
        super().__init__(message)

    def __reduce__(self):
        # pickle rebuilds from (iteration, message), not from self.args
        return type(self), (self.iteration, str(self))


class InfeasibleError(RuntimeError):
    """No parameter value satisfies the requested constraints."""
