"""Evaluation metrics between predicted and ground-truth metric depth.

Standard monocular-depth error set: mean absolute relative error, RMSE,
RMSE in natural-log space, mean absolute log10 error, and the three
threshold accuracies delta < 1.25^i. Pixels count when both grids are
valid and the ground-truth depth lies inside the evaluation range, which
must be two finite numbers with 0 < min <= max (InputError otherwise).
Predictions are clamped to the range minimum before logarithms (rather
than excluded) so pixel counts stay comparable across methods. A
prediction <= 0 is never inside a delta threshold: its ratio to the
ground truth counts as infinite, with no floating-point warning.
Callers should clamp predictions themselves if negative values are
possible; the rescaling pipeline always does."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import DimensionMismatch, InputError, NoOverlap, is_depth_range
from .grids import DepthGrid

# Pixels per block of evaluate's elementwise terms: their temporaries stay in cache.
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
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise NoOverlap("no pixel is valid in both grids within the evaluation range")
    # Each mean reduces one full-length term array, as np.mean over the
    # whole gather would. The terms are computed a block of pixels at a
    # time, in two passes that fill the same two term arrays, so no other
    # full-length array exists.
    first, second = np.empty((2, count))
    flat_mask = mask.ravel()
    flat_p, flat_g = pred.values.ravel(), gt.values.ravel()

    def blocks():
        """(span in the term arrays, pred, gt) of each block's counted pixels."""
        done = 0
        for start in range(0, flat_mask.size, _BLOCK):
            sel = flat_mask[start : start + _BLOCK]
            p = flat_p[start : start + _BLOCK][sel]
            g = flat_g[start : start + _BLOCK][sel]
            yield slice(done, done + p.size), p, g
            done += p.size

    hits = [0, 0, 0]
    for span, p, g in blocks():
        diff = p - g
        np.divide(np.abs(diff), g, out=first[span])
        np.square(diff, out=second[span])
        # g / p where p > 0; an infinite ratio, a miss, where p <= 0
        ratio = np.divide(g, p, out=np.full(p.shape, np.inf), where=p > 0)
        np.maximum(ratio, p / g, out=ratio)
        for i in range(3):
            hits[i] += int(np.count_nonzero(ratio < 1.25 ** (i + 1)))
    abs_rel = float(np.mean(first))
    rmse = float(np.sqrt(np.mean(second)))
    for span, p, g in blocks():
        p_log = np.maximum(p, lo)
        np.square(np.log(p_log) - np.log(g), out=first[span])
        np.abs(np.log10(p_log) - np.log10(g), out=second[span])
    rmse_log = float(np.sqrt(np.mean(first)))
    log10 = float(np.mean(second))
    # exact integer counts: the same float as np.mean over the booleans
    delta1, delta2, delta3 = (h / count for h in hits)
    return MetricReport(
        abs_rel=abs_rel,
        rmse=rmse,
        rmse_log=rmse_log,
        log10=log10,
        delta1=delta1,
        delta2=delta2,
        delta3=delta3,
        valid_pixel_count=count,
    )
