"""Exception types shared across the package, and the integer check."""

import numbers


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


def _require_int(name, value, low=None):
    """``value`` as an int; refused, not truncated, unless an integer >= ``low``.

    A bool is refused too: ``True`` is an Integral that would pass as 1.
    """
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
