"""Inverse-depth conversion and affine-invariant normalization.

Depth foundation models typically emit inverse depth. `invert_depth`
turns that into relative depth, and `affine_invariant_normalize`
recenters and rescales the relative map to zero median and unit mean
absolute deviation, so downstream fits always start from a canonical
scale regardless of the model's arbitrary output range.

Both functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, InputError
from .grids import DepthGrid

MEDIAN_MAD = "median-mad"
MEAN_STD = "mean-std"
NORMALIZATION_MODES = (MEDIAN_MAD, MEAN_STD)

DEFAULT_INVERT_EPSILON = 1e-6


@dataclass(frozen=True)
class NormalizationStats:
    """Translation and scale removed from a relative depth map."""

    t: float
    s: float


def lower_median(values: np.ndarray) -> float:
    """Median as the element at index (n - 1) // 2 of the sorted order.

    For even counts this picks the lower of the two middle elements,
    which keeps the result an actual sample and makes it deterministic.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise InputError("median of an empty set")
    k = (flat.size - 1) // 2
    return float(np.partition(flat, k)[k])


def invert_depth(grid: DepthGrid, epsilon: float = DEFAULT_INVERT_EPSILON) -> DepthGrid:
    """Per-pixel reciprocal 1 / max(d, epsilon) at valid pixels.

    The clamp absorbs zero disparity (sky-like pixels) instead of
    producing infinities; validity is preserved unchanged.
    """
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    out = np.maximum(grid.values, epsilon)
    np.divide(1.0, out, out=out)
    return DepthGrid.adopt(out, grid.valid)


def affine_invariant_normalize(
    grid: DepthGrid, mode: str = MEDIAN_MAD
) -> tuple[DepthGrid, NormalizationStats]:
    """Normalize a relative map to zero translation and unit scale.

    In the default mode the translation is the (lower) median over
    valid pixels and the scale is the mean absolute deviation from it.
    The alternative "mean-std" mode uses mean and population standard
    deviation instead. The mask is unchanged.

    Raises DegenerateGrid for constant maps or fewer than 2 valid
    pixels, where the scale would be zero.
    """
    if mode not in NORMALIZATION_MODES:
        raise InputError(f"unknown normalization mode {mode!r}")
    v = grid.valid_values()
    if v.size < 2:
        raise DegenerateGrid(f"normalization needs at least 2 valid pixels, got {v.size}")
    if mode == MEDIAN_MAD:
        t = lower_median(v)
        np.subtract(v, t, out=v)  # `v` is a copy; the deviations replace it
        s = float(np.mean(np.abs(v, out=v)))
    else:
        t = float(np.mean(v))
        s = float(np.std(v))
    del v
    if s <= 0.0:
        raise DegenerateGrid("constant depth map has zero spread")
    out = np.subtract(grid.values, t)
    out /= s
    return DepthGrid.adopt(out, grid.valid), NormalizationStats(t=t, s=s)
