"""Evaluation metrics between predicted and ground-truth metric depth.

Standard monocular-depth error set: mean absolute relative error, RMSE,
RMSE in natural-log space, mean absolute log10 error, and the three
threshold accuracies delta < 1.25^i. Pixels count when both grids are
valid and the ground-truth depth lies inside the evaluation range, which
must be two finite numbers with 0 < min <= max (InputError otherwise).
Predictions are clamped to the range minimum before logarithms (rather
than excluded) so pixel counts stay comparable across methods. A
prediction <= 0 is never inside a delta threshold: its ratio to the
ground truth counts as infinite, with no floating-point warning. A term
or a sum of terms that overflows makes its metric infinite, also with
no warning, and an overflowed ratio is a delta miss too. Callers should
clamp predictions themselves if negative values are possible; the
rescaling pipeline always does."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import DimensionMismatch, InputError, NoOverlap, is_depth_range
from .grids import DepthGrid

# Most pixels per leaf of evaluate's elementwise terms: their temporaries stay in cache.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class MetricReport:
    """One evaluation over the overlapping valid pixels."""

    abs_rel: float
    rmse: float
    rmse_log: float
    log10: float
    delta1: float
    delta2: float
    delta3: float
    valid_pixel_count: int

    def row(self, image_id: str, method: str, region_aware: bool, n_samples: int, seed: int) -> dict:
        """Flat record matching CSV_COLUMNS, for benchmark output."""
        run = (image_id, method, str(bool(region_aware)).lower(), n_samples, seed)
        return dict(zip(CSV_COLUMNS, run + astuple(self)))


# The CSV column of each MetricReport field, where it is not the field's name.
_CSV_NAMES = {"delta1": "d1", "delta2": "d2", "delta3": "d3", "valid_pixel_count": "n_valid"}
METRIC_COLUMNS = tuple(_CSV_NAMES.get(f.name, f.name) for f in fields(MetricReport))
CSV_COLUMNS = ("image_id", "method", "region_aware", "n_samples", "seed") + METRIC_COLUMNS


def pairwise_sums(n: int, leaf: int, sums_of) -> np.ndarray:
    """`np.add.reduce` of each term over n items, bit for bit, from leaf sums.

    `sums_of(start, stop)` returns each term's `np.add.reduce` over items
    start..stop-1 as one array; it is called on the leaves in order. This
    relies on NumPy's pairwise summation layout: a run of n > 128 items
    sums its first n//2 - (n//2) % 8 items and the rest separately, and a
    run of at most 128 is never split. The leaves are the largest runs of
    that tree with at most max(leaf, 128) items; their sums add up the
    tree in NumPy's order. test_pairwise_sums_match_add_reduce fails if a
    NumPy upgrade changes the layout.
    """
    leaf = max(leaf, 128)  # NumPy's PW_BLOCKSIZE

    def node(start: int, size: int) -> np.ndarray:
        if size <= leaf:
            return sums_of(start, start + size)
        half = size // 2 - (size // 2) % 8
        return node(start, half) + node(start + half, size - half)

    return node(0, n)


def evaluate(
    pred: DepthGrid, gt: DepthGrid, depth_range: tuple[float, float] = (0.001, 10.0)
) -> MetricReport:
    """Compute the metric set over pixels valid in both grids.

    Range gating applies to ground truth only: gt must lie in
    [depth_range[0], depth_range[1]]. Raises InputError for a range that
    is not two finite numbers with 0 < min <= max, and NoOverlap when no
    pixel qualifies.
    """
    if not is_depth_range(depth_range):
        raise InputError(
            f"evaluation range must be two finite numbers with 0 < min <= max, got {depth_range}"
        )
    if pred.shape != gt.shape:
        raise DimensionMismatch(f"prediction shape {pred.shape} != ground truth shape {gt.shape}")
    lo, hi = depth_range
    mask = gt.values >= lo
    mask &= gt.values <= hi
    mask &= pred.valid
    mask &= gt.valid
    # Each mean is np.mean of one full-length term array, bit for bit,
    # with no such array: the terms are computed a leaf of NumPy's
    # summation tree at a time, and the leaf sums add up that tree. Per-row
    # counts of the counted pixels locate a leaf.
    row_ends = np.count_nonzero(mask, axis=1).cumsum()
    count = int(row_ends[-1])
    if count == 0:
        raise NoOverlap("no pixel is valid in both grids within the evaluation range")
    flat_mask, flat_p, flat_g = mask.ravel(), pred.values.ravel(), gt.values.ravel()
    hits = [0, 0, 0]

    def flat_index(k: int) -> int:
        row = int(row_ends.searchsorted(k, side="right"))
        before = row_ends[row - 1] if row else 0
        return row * mask.shape[1] + int(np.flatnonzero(mask[row])[k - before])

    def leaf_sums(start: int, stop: int) -> np.ndarray:
        span = slice(flat_index(start), flat_index(stop - 1) + 1)
        p, g = flat_p[span][flat_mask[span]], flat_g[span][flat_mask[span]]
        # p, g and two arrays reused for every term: four leaf-long arrays in all
        t = p - g
        u = np.abs(t)
        u /= g
        abs_rel = np.add.reduce(u)
        squares = np.add.reduce(np.square(t, out=t))
        # g / p where p > 0; an infinite ratio, a miss, where p <= 0
        u.fill(np.inf)
        np.divide(g, p, out=u, where=p > 0)
        np.maximum(u, np.divide(p, g, out=t), out=u)
        for i in range(3):
            hits[i] += int(np.count_nonzero(u < 1.25 ** (i + 1)))
        np.maximum(p, lo, out=p)  # predictions are clamped before logarithms
        np.subtract(np.log(p, out=t), np.log(g, out=u), out=t)
        log_squares = np.add.reduce(np.square(t, out=t))
        np.subtract(np.log10(p, out=t), np.log10(g, out=u), out=t)
        return np.array([abs_rel, squares, log_squares, np.add.reduce(np.abs(t, out=t))])

    # Leaves of a sixteenth of the counted pixels, kept between _BLOCK / 4
    # and _BLOCK: a leaf's four arrays stay under a quarter of a grid from
    # 4 * _BLOCK counted pixels on, and a small frame takes few leaves.
    leaf = min(_BLOCK, max(count // 16, _BLOCK // 4))
    with np.errstate(over="ignore"):  # an overflow is an infinite term or mean
        abs_rel, mse, mse_log, log10 = pairwise_sums(count, leaf, leaf_sums) / count
    # exact integer counts: the same float as np.mean over the booleans
    delta1, delta2, delta3 = (h / count for h in hits)
    return MetricReport(
        abs_rel=float(abs_rel),
        rmse=float(np.sqrt(mse)),
        rmse_log=float(np.sqrt(mse_log)),
        log10=float(log10),
        delta1=delta1,
        delta2=delta2,
        delta3=delta3,
        valid_pixel_count=count,
    )
