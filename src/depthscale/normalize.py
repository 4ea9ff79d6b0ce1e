"""Inverse-depth conversion and affine-invariant normalization.

Depth foundation models typically emit inverse depth. `invert_depth`
turns that into relative depth. `normalization_stats` finds the t and s
that recenter and rescale the relative map, as `(v - t) / s`, to zero
median and unit mean absolute deviation, so downstream fits always start
from a canonical scale regardless of the model's arbitrary output range.
The pipeline normalizes each pixel it reads; `affine_invariant_normalize`
builds the whole normalized map.

A map whose translation or scale is not a finite 64-bit number (its
values so large that their sums overflow) is refused with DegenerateGrid,
as a map with zero spread is, and without floating-point warnings.

Both functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, InputError
from .grids import DepthGrid

MEDIAN_MAD = "median-mad"
MEAN_STD = "mean-std"
NORMALIZATION_MODES = (MEDIAN_MAD, MEAN_STD)

# Disparities are floored here before inversion.
INVERT_EPSILON = 1e-6


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


def invert_depth(grid: DepthGrid) -> DepthGrid:
    """Per-pixel reciprocal 1 / max(d, INVERT_EPSILON) at valid pixels.

    The clamp absorbs zero disparity (sky-like pixels) instead of
    producing infinities; validity is preserved unchanged.
    """
    out = np.maximum(grid.values, INVERT_EPSILON)
    np.divide(1.0, out, out=out)
    return DepthGrid.adopt(out, grid.valid)


def normalization_stats(grid: DepthGrid, mode: str = MEDIAN_MAD) -> NormalizationStats:
    """The translation and scale that normalize a relative map.

    In the default mode the translation is the (lower) median over
    valid pixels and the scale is the mean absolute deviation from it.
    The alternative "mean-std" mode uses mean and population standard
    deviation instead.

    Raises DegenerateGrid for constant maps or fewer than 2 valid
    pixels, where the scale would be zero, and for maps whose translation
    or scale overflows to a non-finite number. Raises InputError where a
    valid pixel's normalized value would not be finite: rounding
    `(v - t) / s` is monotone in v, so checking the largest |v - t| checks
    every valid pixel.
    """
    if mode not in NORMALIZATION_MODES:
        raise InputError(f"unknown normalization mode {mode!r}")
    v = grid.valid_values()
    if v.size < 2:
        raise DegenerateGrid(f"normalization needs at least 2 valid pixels, got {v.size}")
    # Sums of huge values overflow; the finite check below refuses them.
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == MEDIAN_MAD:
            t = lower_median(v)
            np.subtract(v, t, out=v)  # `v` is a copy; the deviations replace it
            s = float(np.add.reduce(np.abs(v, out=v)) / v.size)  # np.mean's sum and division
            far = np.maximum.reduce(v)
        else:
            t = float(np.mean(v))
            s = float(np.std(v))
            far = max(abs(np.minimum.reduce(v) - t), abs(np.maximum.reduce(v) - t))
        del v
        if not (math.isfinite(t) and math.isfinite(s)):
            raise DegenerateGrid(f"translation {t} or scale {s} overflows 64-bit floats")
        if s <= 0.0:
            raise DegenerateGrid("constant depth map has zero spread")
        if not np.isfinite(far / s):
            raise InputError("non-finite depth value at a valid pixel")
    return NormalizationStats(t=t, s=s)


def affine_invariant_normalize(
    grid: DepthGrid, mode: str = MEDIAN_MAD
) -> tuple[DepthGrid, NormalizationStats]:
    """The normalized map `(v - t) / s`, with the same mask, and its `normalization_stats`."""
    stats = normalization_stats(grid, mode)
    out = np.subtract(grid.values, stats.t)
    out /= stats.s
    return DepthGrid.adopt(out, grid.valid), stats
