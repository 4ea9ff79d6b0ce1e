"""Dense depth grids, label grids, and sparse depth samples.

Conventions shared by the whole package:

- Row-major indexing with the origin at the top-left pixel.
- Invalid pixels are tracked with an explicit boolean mask, and a
  `DepthGrid` holds +0.0 at each of them, so whole-frame arithmetic on
  its values needs no mask; file loaders map stored zeros to invalid.
- Every array a grid holds is read-only, so every instance is immutable
  and safe to share across threads. The constructors copy the caller's
  arrays; the library's own producers hand over the arrays they have
  just computed (`DepthGrid.adopt`, `LabelGrid.adopt`), which the grid
  keeps without a copy after the same checks. A read-only validity
  mask, such as another grid's, is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateSample, InputError


class _Handed:
    """An array a producer has just made and hands to a grid to keep."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray, dtype):
        if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.flags.writeable):
            raise TypeError(f"a grid adopts only a writable {np.dtype(dtype)} array")
        self.array = array


def _readonly(arr, dtype) -> np.ndarray:
    """The read-only array kept for `arr`: a handed-over array itself, else a
    copy, which a cast to an integer dtype must leave with the same values."""
    if isinstance(arr, _Handed):
        out = arr.array
    else:
        source = np.asarray(arr)
        with np.errstate(invalid="ignore"):  # a NaN cast to an integer
            out = source.astype(dtype)
        if source.dtype != out.dtype and out.dtype.kind == "i" and not np.array_equal(out, source):
            raise InputError(f"{source.dtype} values change when cast to {out.dtype}")
    out.setflags(write=False)
    return out


def _frozen_mask(arr) -> bool:
    """True for a read-only bool array that nothing it views can write to."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == bool):
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


@dataclass(frozen=True, eq=False)
class DepthGrid:
    """H x W depth values plus a per-pixel validity mask.

    Values are meters for metric and ground-truth grids (strictly
    positive at valid pixels there) and unitless for relative or
    normalized grids. Values are finite, and exactly +0.0 at invalid pixels.
    """

    values: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        handed = isinstance(self.values, _Handed)
        values = self.values.array if handed else np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InputError(f"depth grid must be 2-D and non-empty, got shape {values.shape}")
        valid = self.valid
        if not _frozen_mask(valid):
            valid = _readonly(np.ones(values.shape, bool) if valid is None else valid, bool)
        if valid.shape != values.shape:
            raise InputError(f"validity mask shape {valid.shape} != values shape {values.shape}")
        # The one writer of invalid pixels: in place in an adopted array,
        # else in the grid's copy.
        if handed:
            np.copyto(values, 0.0, where=~valid)
        else:
            values = np.where(valid, values, 0.0)
        values.setflags(write=False)
        if not np.isfinite(values).all():
            raise InputError("non-finite depth value at a valid pixel")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    @classmethod
    def adopt(cls, values: np.ndarray, valid: np.ndarray | None = None) -> "DepthGrid":
        """A grid that keeps `values` itself, for the library's own producers.

        `values` must be a writable float64 array that the caller has just
        made and holds nowhere else: its invalid pixels are set to +0.0
        in place and it becomes read-only. A writable `valid` is kept the
        same way; a read-only one, such as another grid's, is shared. The
        checks are the constructor's.
        """
        if isinstance(valid, np.ndarray) and valid.flags.writeable:
            valid = _Handed(valid, bool)
        return cls(_Handed(values, np.float64), valid)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def valid_values(self) -> np.ndarray:
        """Values at valid pixels, flattened in row-major order."""
        return self.values[self.valid]


@dataclass(frozen=True, eq=False)
class LabelGrid:
    """H x W grid of non-negative region labels (a segmentation mask)."""

    labels: np.ndarray

    def __post_init__(self):
        labels = _readonly(self.labels, np.int32)
        if labels.ndim != 2 or labels.shape[0] < 1 or labels.shape[1] < 1:
            raise InputError(f"label grid must be 2-D and non-empty, got shape {labels.shape}")
        if labels.min() < 0:
            raise InputError("region labels must be non-negative")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def adopt(cls, labels: np.ndarray) -> "LabelGrid":
        """A grid that keeps `labels`, a writable int32 array the caller has
        just made and holds nowhere else, read-only and without a copy."""
        return cls(_Handed(labels, np.int32))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def is_canonical(self) -> bool:
        """True when the label set is exactly {0 .. max}."""
        return is_label_range(self.labels.ravel()[run_starts(self.labels)])


@dataclass(frozen=True, eq=False)
class SparseSamples:
    """Sparse (row, col, depth) measurements in meters.

    Depths are strictly positive and finite; each pixel appears at most
    once. Bounds against a particular grid are checked where the samples
    are consumed.
    """

    rows: np.ndarray
    cols: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        rows = _readonly(self.rows, np.int64)
        cols = _readonly(self.cols, np.int64)
        depths = _readonly(self.depths, np.float64)
        if not (rows.ndim == cols.ndim == depths.ndim == 1):
            raise InputError("sample arrays must be one-dimensional")
        if not (rows.size == cols.size == depths.size):
            raise InputError("sample arrays must have equal length")
        if rows.size:
            if rows.min() < 0 or cols.min() < 0:
                raise InputError("sample coordinates must be non-negative")
            if not np.isfinite(depths).all() or depths.min() <= 0:
                raise InputError("sample depths must be finite and strictly positive")
            order = np.lexsort((cols, rows))
            r, c = rows[order], cols[order]
            if ((r[1:] == r[:-1]) & (c[1:] == c[:-1])).any():
                raise DuplicateSample("duplicate (row, col) in sparse samples")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "depths", depths)

    @classmethod
    def from_points(cls, points) -> "SparseSamples":
        """Build from an iterable of (row, col, depth) triples."""
        pts = list(points)
        if not pts:
            empty = np.empty(0)
            return cls(empty.astype(np.int64), empty.astype(np.int64), empty)
        rows, cols, depths = zip(*pts)
        return cls(np.asarray(rows), np.asarray(cols), np.asarray(depths))

    @property
    def points(self) -> list[tuple[int, int, float]]:
        return [(int(r), int(c), float(d)) for r, c, d in zip(self.rows, self.cols, self.depths)]

    def __len__(self) -> int:
        return int(self.rows.size)


def run_starts(labels: np.ndarray) -> np.ndarray:
    """Flat indices where a horizontal run of equal labels starts.

    Every row starts a run, so no run spans two rows.
    """
    flat = labels.ravel()
    start = np.empty(flat.size, dtype=bool)
    start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    start[:: labels.shape[1]] = True
    return np.flatnonzero(start)


def is_label_range(labels: np.ndarray) -> bool:
    """True when the non-negative values of `labels` are exactly {0 .. max}.

    Every label of a grid appears at one of its run starts, so the labels
    at the run starts answer this for the whole grid.
    """
    top = int(labels.max())
    # A label range has no more labels than entries; checking that first
    # keeps bincount from allocating up to a huge label.
    return top < labels.size and bool(np.bincount(labels, minlength=top + 1).all())


def paint_runs(first_run: np.ndarray, starts: np.ndarray, shape: tuple[int, int]) -> LabelGrid:
    """The canonical grid whose run i, starting at flat index `starts[i]`,
    belongs to the region whose first run is `first_run[i]`.

    Runs are in row-major order (`starts` ascending, as from `run_starts`),
    so ranking the regions by their first runs ranks them by first
    appearance. The labels are written in one int32 frame, which the grid
    adopts.
    """
    rank = np.cumsum(first_run == np.arange(first_run.size), dtype=np.int32) - 1
    out = np.repeat(rank[first_run], np.diff(starts, append=shape[0] * shape[1]))
    return LabelGrid.adopt(out.reshape(shape))


def canonicalize_labels(mask: LabelGrid) -> LabelGrid:
    """Remap labels to {0 .. R-1} by order of first appearance.

    The scan is row-major, so the region containing the top-left pixel
    becomes label 0. Idempotent.

    The first-appearance order is read from the run starts alone: only
    the first pixel of each horizontal run of equal labels takes part
    in the ranking.
    """
    starts = run_starts(mask.labels)
    inverse = np.unique(mask.labels.ravel()[starts], return_inverse=True)[1]
    first = np.full(inverse.max() + 1, starts.size)
    np.minimum.at(first, inverse, np.arange(starts.size))
    return paint_runs(first[inverse], starts, mask.shape)
