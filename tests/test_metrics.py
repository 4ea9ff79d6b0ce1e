import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale import io, metrics
from depthscale.errors import NoOverlap
from depthscale.grids import DepthGrid
from depthscale.metrics import MetricReport, evaluate

RANGE = (0.001, 10.0)


def grid(values, valid=None):
    return DepthGrid(np.atleast_2d(np.asarray(values, dtype=np.float64)), valid)


def naive_evaluate(pred, gt, depth_range):
    """Per-pixel loop reference with exact (fsum) accumulation."""
    lo, hi = depth_range
    abs_rel, sq, sq_log, l10 = [], [], [], []
    hits = [0, 0, 0]
    count = 0
    for r in range(pred.height):
        for c in range(pred.width):
            if not (pred.valid[r, c] and gt.valid[r, c]):
                continue
            g = gt.values[r, c]
            if g < lo or g > hi:
                continue
            count += 1
            p = pred.values[r, c]
            abs_rel.append(abs(p - g) / g)
            sq.append((p - g) ** 2)
            p_log = max(p, lo)
            sq_log.append((math.log(p_log) - math.log(g)) ** 2)
            l10.append(abs(math.log10(p_log) - math.log10(g)))
            ratio = max(p / g, g / p)
            for i in range(3):
                hits[i] += ratio < 1.25 ** (i + 1)
    if count == 0:
        raise NoOverlap("empty")
    return {
        "abs_rel": math.fsum(abs_rel) / count,
        "rmse": math.sqrt(math.fsum(sq) / count),
        "rmse_log": math.sqrt(math.fsum(sq_log) / count),
        "log10": math.fsum(l10) / count,
        "d1": hits[0] / count,
        "d2": hits[1] / count,
        "d3": hits[2] / count,
        "n": count,
    }


def test_perfect_prediction():
    g = grid([[1.0, 2.0], [3.0, 4.0]])
    report = evaluate(g, g, RANGE)
    assert report.abs_rel == 0.0
    assert report.rmse == 0.0
    assert report.delta1 == report.delta2 == report.delta3 == 1.0


def test_hand_computed_pair():
    report = evaluate(grid([2.0, 4.0]), grid([1.0, 4.0]), RANGE)
    assert report.abs_rel == 0.5
    assert report.rmse == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert report.delta1 == 0.5  # ratio 2 fails, ratio 1 passes
    assert report.valid_pixel_count == 2


def test_invalid_gt_pixels_excluded():
    gt_values = np.array([[1.0, 0.0]])
    gt = DepthGrid(gt_values, gt_values != 0.0)
    report = evaluate(grid([1.0, 5.0]), gt, RANGE)
    assert report.valid_pixel_count == 1
    assert report.abs_rel == 0.0


def test_range_gating_applies_to_gt_only():
    report = evaluate(grid([20.0, 2.0]), grid([20.0, 2.0]), RANGE)
    assert report.valid_pixel_count == 1  # gt 20 m is outside the range


def test_no_overlap():
    with pytest.raises(NoOverlap):
        evaluate(grid([1.0]), grid([50.0]), RANGE)


def test_prediction_clamped_before_logs():
    report = evaluate(grid([0.0005]), grid([1.0]), RANGE)
    assert math.isfinite(report.rmse_log)
    assert report.log10 == pytest.approx(3.0, rel=1e-12)  # log10(1 / 0.001)


def test_delta_one_for_scales_inside_first_threshold():
    gt = grid(np.linspace(0.5, 8.0, 24).reshape(4, 6))
    for c in (0.81, 1.0, 1.24):
        report = evaluate(grid(c * gt.values), gt, RANGE)
        assert report.delta1 == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 12))
def test_matches_naive_loop(seed, h, w):
    rng = np.random.default_rng(seed)
    pred = DepthGrid(rng.uniform(0.01, 12.0, (h, w)), rng.random((h, w)) > 0.1)
    gt = DepthGrid(rng.uniform(0.01, 12.0, (h, w)), rng.random((h, w)) > 0.1)
    try:
        want = naive_evaluate(pred, gt, RANGE)
    except NoOverlap:
        with pytest.raises(NoOverlap):
            evaluate(pred, gt, RANGE)
        return
    got = evaluate(pred, gt, RANGE)
    assert got.valid_pixel_count == want["n"]
    assert abs(got.abs_rel - want["abs_rel"]) < 1e-12
    assert abs(got.rmse - want["rmse"]) < 1e-12
    assert abs(got.rmse_log - want["rmse_log"]) < 1e-12
    assert abs(got.log10 - want["log10"]) < 1e-12
    assert got.delta1 == want["d1"]
    assert got.delta2 == want["d2"]
    assert got.delta3 == want["d3"]
    # monotone thresholds hold for every input
    assert got.delta1 <= got.delta2 <= got.delta3


def reference_evaluate(pred, gt, depth_range):
    """evaluate as one gather and full-length temporaries, before its blocking."""
    lo, hi = depth_range
    mask = pred.valid & gt.valid & (gt.values >= lo) & (gt.values <= hi)
    count = int(mask.sum())
    if count == 0:
        raise NoOverlap("no pixel is valid in both grids within the evaluation range")
    p = pred.values[mask]
    g = gt.values[mask]
    diff = p - g
    abs_rel = float(np.mean(np.abs(diff) / g))
    rmse = float(np.sqrt(np.mean(diff**2)))
    p_log = np.maximum(p, lo)
    rmse_log = float(np.sqrt(np.mean((np.log(p_log) - np.log(g)) ** 2)))
    log10 = float(np.mean(np.abs(np.log10(p_log) - np.log10(g))))
    ratio = np.maximum(p / g, g / p)
    delta1 = float(np.mean(ratio < 1.25))
    delta2 = float(np.mean(ratio < 1.25**2))
    delta3 = float(np.mean(ratio < 1.25**3))
    return MetricReport(abs_rel, rmse, rmse_log, log10, delta1, delta2, delta3, count)


@st.composite
def prediction_pairs(draw):
    """Prediction and ground truth with partly disjoint validity: predictions
    below the range floor, zero or negative at valid pixels; ground truth
    partly outside the range."""
    h, w = draw(st.sampled_from([(1, 1), (3, 7), (16, 16), (40, 61), (130, 131)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lo, hi = draw(st.sampled_from([(0.001, 10.0), (0.2, 5.0)]))
    gt = rng.uniform(lo / 2, hi * 1.2, (h, w))
    pred = gt * rng.uniform(0.5, 1.6, (h, w))
    # ratios exactly at the delta thresholds
    at = rng.random((h, w)) < 0.2
    gt[at] = rng.choice([0.5, 1.0, 2.0, 4.0], size=int(at.sum()))
    pred[at] = gt[at] * rng.choice([1.25, 1.25**2, 1.25**3, 1 / 1.25], size=int(at.sum()))
    odd = rng.random((h, w))
    pred[odd < 0.05] = rng.uniform(0.0, lo, (h, w))[odd < 0.05]  # below the floor
    pred[(0.05 <= odd) & (odd < 0.08)] = 0.0
    pred[(0.08 <= odd) & (odd < 0.1)] = -rng.uniform(0.0, 3.0, (h, w))[(0.08 <= odd) & (odd < 0.1)]
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    pred_grid = DepthGrid(pred, rng.random((h, w)) >= share)
    gt_grid = DepthGrid(gt, rng.random((h, w)) >= share)
    return pred_grid, gt_grid, (lo, hi)


@settings(max_examples=150, deadline=None)
@given(prediction_pairs(), st.sampled_from([16, 64, 1000, metrics._BLOCK]))
def test_blocked_evaluate_matches_reference_bit_for_bit(case, block):
    pred, gt, depth_range = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # g / p at p == 0, in both
        try:
            want = reference_evaluate(pred, gt, depth_range)
        except NoOverlap:
            with pytest.raises(NoOverlap):
                evaluate(pred, gt, depth_range)
            return
        with mock.patch.object(metrics, "_BLOCK", block):
            got = evaluate(pred, gt, depth_range)
    assert repr(got) == repr(want)


def reference_row(
    report: MetricReport, image_id: str, method: str, region_aware: bool, n_samples: int, seed: int
) -> dict:
    """The field-by-field MetricReport.row it replaced."""
    return {
        "image_id": image_id,
        "method": method,
        "region_aware": str(bool(region_aware)).lower(),
        "n_samples": n_samples,
        "seed": seed,
        "abs_rel": report.abs_rel,
        "rmse": report.rmse,
        "rmse_log": report.rmse_log,
        "log10": report.log10,
        "d1": report.delta1,
        "d2": report.delta2,
        "d3": report.delta3,
        "n_valid": report.valid_pixel_count,
    }


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        MetricReport,
        *[st.floats(allow_infinity=True, allow_nan=True)] * 7,
        st.integers(0, 2**40),
    ),
    st.text(max_size=8),
    st.text(max_size=8),
    st.booleans(),
    st.integers(0, 10**6),
    st.integers(0, 2**31),
)
def test_row_matches_field_by_field_reference(report, image_id, method, region_aware, n, seed):
    row = report.row(image_id, method, region_aware, n, seed)
    want = reference_row(report, image_id, method, region_aware, n, seed)
    # repr: NaN compares unequal to itself but prints alike
    assert repr(list(row.items())) == repr(list(want.items()))
    assert tuple(row) == metrics.CSV_COLUMNS


def test_report_csv_header(tmp_path):
    report = MetricReport(0.5, 1.0, float("nan"), 0.25, 0.125, 0.5, 1.0, 8)
    io.save_report([report.row("img", "slf", True, 10, 2)], tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == (
        "image_id,method,region_aware,n_samples,seed,abs_rel,rmse,rmse_log,log10,d1,d2,d3,n_valid\n"
        "img,slf,true,10,2,0.5,1.0,nan,0.25,0.125,0.5,1.0,8\n"
    )
