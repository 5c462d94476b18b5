"""Exception types shared across the package, and the argument checks."""

import numbers
import os
import sys

import numpy as np


class PixelBoostError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PixelBoostError, ValueError):
    """An argument is outside its documented domain."""


class ShapeError(ParameterError):
    """Array arguments have incompatible shapes."""


class NumericError(PixelBoostError, ArithmeticError):
    """A computation produced non-finite values."""


class TrainingError(PixelBoostError):
    """Training diverged or could not proceed."""


class CodecError(PixelBoostError, ValueError):
    """An image file is malformed or truncated."""


class UnsupportedFormatError(CodecError):
    """An image file uses a feature outside the supported subset."""


class CheckpointError(PixelBoostError, ValueError):
    """A checkpoint file is corrupt or inconsistent with its spec."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint file declares a format version newer than this code."""


class DegenerateFitError(PixelBoostError, ValueError):
    """A goodness-of-fit comparison has no usable bins."""


# the most values one call may be asked to allocate for an array, 2**26 (512
# MiB of float64): a work-sizing argument past it is refused before anything
# is allocated.  bicubic_resize's largest output, 8192^2 pixels, is this size.
_MAX_VALUES = 1 << 26


def _shown(value):
    """``repr(value)`` for a refusal message, which never raises as a huge int's does."""
    try:
        return repr(value)
    except ValueError:  # past Python's limit on an int's decimal digits
        return f"<{type(value).__name__} too long to show>"


def _read_exact(fh, n, what, error):
    """The next ``n`` bytes of ``fh``.  ``error`` refuses a length past the
    bytes left before reading, and a short read after (the file may shrink)."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise error(f"truncated {what}: {n} bytes declared, {remaining} remain")
    buf = fh.read(n)
    if len(buf) != n:
        raise error(f"truncated {what}: {n} bytes declared, {len(buf)} read")
    return buf


def _require_size(name, values):
    """``values``, the array values an argument asks for; refused past _MAX_VALUES."""
    if values > _MAX_VALUES:
        raise ParameterError(
            f"{name} asks for {_shown(values)} values, more than {_MAX_VALUES}")
    return values


def _require_type(name, value, kind):
    """``value``; refused unless an instance of ``kind``, one of the library's classes."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be a {kind.__name__}, got {_shown(value):.60}")
    return value


def _require_int(name, value, low=None):
    """``value`` as an int; refused, not truncated, unless an integer >= ``low``.

    A bool is refused too: ``True`` is an Integral that would pass as 1.
    """
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ParameterError(f"{name} must be an integer{bound}, got {_shown(value)}")
    return int(value)


def _require_positive(name, value, below=sys.float_info.max):
    """``value`` as a float; refused unless a real number, not a bool, in (0, below)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:  # compared as a float: a numpy float32 would cast ``below`` to its type
        x = float(value) if real else 0.0
    except OverflowError:  # an int or Fraction past the float range
        x = 0.0
    if not 0 < x < below:
        bound = "" if below == sys.float_info.max else f", below {below:g}"
        raise ParameterError(
            f"{name} must be positive and finite{bound}, got {_shown(value)}")
    return x


def _require_arrays(*arrays):
    """Each argument as a float64 array, in a list; all must have one shape."""
    try:
        arrays = [np.asarray(a) for a in arrays]
        if "c" in [a.dtype.kind for a in arrays]:
            raise TypeError("complex values")
        arrays = [a.astype(np.float64, copy=False) for a in arrays]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"expected an array of real numbers: {exc}") from exc
    if len({a.shape for a in arrays}) > 1:
        raise ShapeError(f"shape mismatch: {' vs '.join(str(a.shape) for a in arrays)}")
    return arrays
