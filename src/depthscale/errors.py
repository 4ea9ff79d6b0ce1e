"""Exception types shared across the package.

Two families matter for callers: InputError covers malformed files,
shapes, coordinates, and arguments (CLI exit code 2), DegeneracyError
covers fits or normalizations that cannot produce usable numbers
(CLI exit code 3 once every fallback is exhausted). The value checks
behind most InputErrors are shared here; none takes a bool.
"""

import math
from numbers import Integral, Real


def is_int_at_least(value, floor: int) -> bool:
    """True for an integer, not a bool, >= floor."""
    return type(value) is not bool and isinstance(value, Integral) and value >= floor


def is_finite_real(value, low: float = -math.inf, *, above: bool = False) -> bool:
    """True for a finite real number, not a bool, >= low (> low if `above`)."""
    real = type(value) is not bool and isinstance(value, Real) and -math.inf < value < math.inf
    return real and (value > low if above else value >= low)


def is_depth_range(value) -> bool:
    """True for a pair of finite real numbers, not bools, with 0 < min <= max."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        return False
    return is_finite_real(lo, 0, above=True) and is_finite_real(hi, lo)


class DepthScaleError(Exception):
    """Base class for all package errors."""


class InputError(DepthScaleError):
    """Bad input data: files, shapes, coordinates, or arguments."""


class DegeneracyError(DepthScaleError):
    """A fit or normalization that is numerically unusable."""


class OutOfBounds(InputError):
    """A pixel coordinate falls outside the grid."""


class DuplicateSample(InputError):
    """Two sparse measurements share the same pixel."""


class DimensionMismatch(InputError):
    """Paired grids disagree on height or width."""


class NoSamples(InputError):
    """An operation that needs sparse measurements received none."""


class TooManyRequested(InputError):
    """More samples requested than valid pixels available."""


class InvalidSpec(InputError):
    """A scene specification violates its own constraints."""


class UnknownFormat(InputError):
    """File contents match no supported format."""


class CorruptHeader(InputError):
    """A file header or payload is malformed or truncated."""


class DimensionOverflow(InputError):
    """Declared grid dimensions are implausibly large."""


class NoOverlap(InputError):
    """No pixel is evaluable in both prediction and ground truth."""


class DegenerateGrid(DegeneracyError):
    """A grid with too few valid pixels or zero spread to normalize."""


class InsufficientSamples(DegeneracyError):
    """Fewer observations than the fit kind requires."""


class DegenerateDesign(DegeneracyError):
    """The fit's design matrix is rank deficient or ill conditioned."""


class NonFiniteFit(DegeneracyError):
    """A fit whose parameters overflow or are undefined in 64-bit arithmetic."""


class ZeroMedian(DegeneracyError):
    """Median-ratio scaling hit a zero median in the denominator."""
