import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale import io, metrics
from depthscale.errors import InputError, NoOverlap
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
            ratio = max(p / g, g / p) if p > 0 else math.inf
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


def test_non_positive_predictions_miss_every_threshold():
    gt = grid([[1.0, 2.0], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for worst in (-100.0, -0.0, 0.0):
            report = evaluate(grid([[worst, 2.0], [3.0, 4.5]]), gt, RANGE)
            assert (report.delta1, report.delta2, report.delta3) == (0.75, 0.75, 0.75)


def test_overflowing_terms_make_infinite_metrics_without_warning():
    # a finite but huge prediction: its squared error, its relative error
    # and its ratio to the ground truth overflow, and so can a mean's sum
    cases = [
        ([[1e300, 2.0]], [[1.0, 2.0]], {"rmse": math.inf, "abs_rel": 5e299}),
        ([[1e306, 2.0]], [[0.001, 2.0]], {"rmse": math.inf, "abs_rel": math.inf}),
        ([[1.5e308, 1.5e308]], [[1.0, 1.0]], {"rmse": math.inf, "abs_rel": math.inf}),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pred, gt, want in cases:
            report = evaluate(grid(pred), grid(gt), (0.001, 10.0))
            assert {name: getattr(report, name) for name in want} == want
            # the huge pixels miss every threshold; the others hit
            hits = sum(p == g for p, g in zip(pred[0], gt[0])) / 2
            assert (report.delta1, report.delta2, report.delta3) == (hits,) * 3
            assert math.isfinite(report.rmse_log) and math.isfinite(report.log10)


@pytest.mark.parametrize(
    "depth_range",
    [(0.0, 10.0), (-1.0, 10.0), (5.0, 1.0), (1.0, math.inf), (math.nan, 1.0), (True, 2.0),
     (1.0,), (1.0, 2.0, 3.0), None],
)
def test_evaluation_range_must_be_finite_positive_and_ordered(depth_range):
    g = grid([[1.0, 2.0]])
    with pytest.raises(InputError, match=re.escape(f"got {depth_range}")):
        evaluate(g, g, depth_range)


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
    ratio = np.full(p.shape, np.inf)  # a prediction <= 0 is a miss
    pos = p > 0
    ratio[pos] = np.maximum(p[pos] / g[pos], g[pos] / p[pos])
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
        warnings.simplefilter("error", RuntimeWarning)  # not even at p <= 0
        try:
            want = reference_evaluate(pred, gt, depth_range)
        except NoOverlap:
            with pytest.raises(NoOverlap):
                evaluate(pred, gt, depth_range)
            return
        with mock.patch.object(metrics, "_BLOCK", block):
            got = evaluate(pred, gt, depth_range)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("leaf", [16, 64, 1000, metrics._BLOCK])
def test_pairwise_sums_match_add_reduce(leaf):
    # Fails if NumPy's pairwise summation layout changes: evaluate relies on it.
    rng = np.random.default_rng(leaf)
    top = 2**20 + 1
    lengths = {*range(1, 301), *(2**k + d for k in range(1, 21) for d in (-1, 0, 1))}
    lengths |= set(rng.integers(301, top, 12).tolist())
    # magnitudes spread over 16 decades, so that any other order of additions shows
    terms = rng.standard_normal((2, top)) * 10.0 ** rng.integers(-8, 9, (2, top))
    for n in sorted(lengths):
        leaves = []

        def sums_of(start, stop):
            leaves.append((start, stop))
            return np.array([np.add.reduce(term[start:stop]) for term in terms])

        got = metrics.pairwise_sums(n, leaf, sums_of)
        want = np.array([np.add.reduce(term[:n]) for term in terms])
        assert got.tobytes() == want.tobytes(), n
        # the leaves cover 0..n-1 in order, none longer than max(leaf, 128)
        assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]] and leaves[-1][1] == n
        assert max(b - a for a, b in leaves) <= max(leaf, 128)


def test_evaluate_peak_memory_is_under_half_a_grid():
    # The two full-length term arrays evaluate held put its peak at about
    # 3.7 grids above its inputs on this frame. Now it holds the 1/8-grid
    # mask and four arrays of one leaf, a sixteenth of the counted pixels.
    rng = np.random.default_rng(4)
    gt = DepthGrid(rng.uniform(0.5, 9.0, (240, 320)), rng.random((240, 320)) > 0.01)
    pred = DepthGrid(gt.values * rng.uniform(0.8, 1.25, gt.shape))
    evaluate(pred, gt)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(pred, gt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * gt.values.nbytes


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
