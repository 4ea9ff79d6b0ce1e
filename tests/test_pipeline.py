import math

import numpy as np
import pytest

from depthscale.errors import DegeneracyError, DimensionMismatch, NoSamples
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
from depthscale.metrics import evaluate
from depthscale.normalize import affine_invariant_normalize
from depthscale.pipeline import PipelineConfig, rescale

WIDE_CLAMP = (0.001, 100.0)


def uniform_mask(shape):
    return LabelGrid(np.zeros(shape, dtype=np.int32))


def sample_at(gt, pixels):
    return SparseSamples.from_points([(r, c, float(gt[r, c])) for r, c in pixels])


def reports_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.region_id, ra.hop, ra.samples_used, ra.params) != (
            rb.region_id,
            rb.hop,
            rb.samples_used,
            rb.params,
        ):
            return False
        if not (
            ra.residual_rmse == rb.residual_rmse
            or (math.isnan(ra.residual_rmse) and math.isnan(rb.residual_rmse))
        ):
            return False
    return True


def relative_map(seed=0, shape=(8, 10)):
    rng = np.random.default_rng(seed)
    return DepthGrid(rng.uniform(1.0, 3.0, shape))


def test_single_region_slf_equals_global_linear():
    d_in = relative_map(1)
    gt = 2.0 * d_in.values + 1.0
    samples = sample_at(gt, [(0, 0), (3, 4), (7, 9), (5, 2)])
    cfg = PipelineConfig(method="slf", clamp=WIDE_CLAMP)
    from_rescale, reports = rescale(d_in, uniform_mask(d_in.shape), samples, cfg)
    global_cfg = PipelineConfig(method="global-linear", clamp=WIDE_CLAMP)
    from_global, _ = rescale(d_in, uniform_mask(d_in.shape), samples, global_cfg)
    assert np.array_equal(from_rescale.values, from_global.values)
    assert len(reports) == 1
    assert reports[0].params.provenance == "own"


def test_two_region_exact_recovery():
    d_in = relative_map(2)
    normalized, _ = affine_invariant_normalize(d_in)
    labels = np.zeros(d_in.shape, dtype=np.int32)
    labels[4:, :] = 1
    # ground truth from known per-region affine transforms of the
    # normalized map, offset large enough to stay positive
    gt = np.where(labels == 0, 2.0 * normalized.values + 8.0, 0.5 * normalized.values + 3.0)
    samples = sample_at(gt, [(0, 0), (1, 5), (2, 2), (5, 1), (6, 6), (7, 3)])
    out, reports = rescale(d_in, LabelGrid(labels), samples, PipelineConfig(clamp=WIDE_CLAMP))
    assert np.abs(out.values - gt).max() < 1e-9
    for report in reports:
        assert report.residual_rmse < 1e-9


def test_expansion_provenance():
    # region 0 holds one sample, region 1 holds three; SLF needs two
    labels = np.zeros((2, 4), dtype=np.int32)
    labels[:, 2:] = 1
    d_in = relative_map(3, (2, 4))
    gt = 3.0 * d_in.values + 2.0
    samples = sample_at(gt, [(0, 0), (0, 2), (1, 2), (1, 3)])
    out, reports = rescale(d_in, LabelGrid(labels), samples, PipelineConfig(clamp=WIDE_CLAMP))
    assert reports[0].params.provenance == "expanded"
    assert reports[0].hop == 1
    assert reports[0].samples_used == 4
    assert reports[1].params.provenance == "own"
    assert np.abs(out.values - gt).max() < 1e-9


def test_global_median_consistency():
    d_in = DepthGrid(np.array([[1.5, 2.0], [2.5, 3.0]]))
    gt = 3.0 * d_in.values
    samples = sample_at(gt, [(0, 0), (0, 1), (1, 0)])
    cfg = PipelineConfig(method="global-median", clamp=WIDE_CLAMP)
    out, _ = rescale(d_in, uniform_mask(d_in.shape), samples, cfg)
    # median methods fit the raw relative map, so output is exactly 3 * input
    assert np.array_equal(out.values, 3.0 * d_in.values)


def test_global_linear_exact_recovery():
    d_in = relative_map(4)
    gt = 1.7 * d_in.values + 0.4
    pixels = [(r, c) for r in range(0, 8, 3) for c in range(0, 10, 4)]
    samples = sample_at(gt, pixels)
    cfg = PipelineConfig(method="global-linear", clamp=WIDE_CLAMP)
    out, _ = rescale(d_in, uniform_mask(d_in.shape), samples, cfg)
    assert np.abs(out.values - gt).max() < 1e-9


def test_no_samples_rejected():
    d_in = relative_map(5)
    with pytest.raises(NoSamples):
        rescale(d_in, uniform_mask(d_in.shape), SparseSamples.from_points([]), PipelineConfig())


def test_dimension_mismatch_rejected():
    d_in = relative_map(6)
    samples = SparseSamples.from_points([(0, 0, 1.0), (1, 1, 2.0)])
    with pytest.raises(DimensionMismatch):
        rescale(d_in, uniform_mask((4, 4)), samples, PipelineConfig())


def test_degeneracy_surfaces_when_chain_exhausted():
    # two samples with identical relative depths: affine cannot fit and
    # the default chain's terminal global-linear fit fails too
    values = np.ones((2, 2))
    values[1, :] = 2.0
    d_in = DepthGrid(values)
    samples = SparseSamples.from_points([(0, 0, 1.0), (0, 1, 2.0)])
    cfg = PipelineConfig(method="slf", fallback_chain=("slf", "global-linear"))
    with pytest.raises(DegeneracyError):
        rescale(d_in, uniform_mask((2, 2)), samples, cfg)


def test_fallback_to_median_keeps_output():
    # same degenerate setup, but the chain may end in a median fit;
    # normalized values at the sampled row are 2, measurements are 4
    values = np.ones((2, 2))
    values[1, :] = 2.0
    d_in = DepthGrid(values)
    samples = SparseSamples.from_points([(1, 0, 4.0), (1, 1, 4.0)])
    cfg = PipelineConfig(method="slf", fallback_chain=("slf", "median"), clamp=WIDE_CLAMP)
    out, reports = rescale(d_in, uniform_mask((2, 2)), samples, cfg)
    assert reports[0].params.kind == "median"
    assert out.values[1, 0] == 4.0


def test_coverage_write_once():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 4, size=(9, 9))
    d_in = relative_map(8, (9, 9))
    gt = 2.0 * d_in.values + 1.0
    samples = sample_at(gt, [(r, c) for r in range(0, 9, 2) for c in range(0, 9, 2)])
    out, reports = rescale(d_in, LabelGrid(labels), samples, PipelineConfig(clamp=WIDE_CLAMP))
    assert np.array_equal(out.valid, d_in.valid)
    # every region id appears exactly once in the report list
    ids = [r.region_id for r in reports]
    assert ids == sorted(set(ids))


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=(8, 8))
    d_in = relative_map(10, (8, 8))
    gt = 1.3 * d_in.values + 0.2
    samples = sample_at(gt, [(r, c) for r in range(8) for c in range(0, 8, 3)])
    cfg = PipelineConfig(method="ssf", clamp=WIDE_CLAMP)
    out1, rep1 = rescale(d_in, LabelGrid(labels), samples, cfg)
    out2, rep2 = rescale(d_in, LabelGrid(labels), samples, cfg)
    assert np.array_equal(out1.values, out2.values)
    assert reports_equal(rep1, rep2)


def test_region_aware_dominates_global_on_heterogeneous_scene():
    d_in = relative_map(11, (12, 12))
    labels = np.zeros((12, 12), dtype=np.int32)
    labels[:, 6:] = 1
    gt_values = np.where(labels == 0, 2.5 * d_in.values + 1.0, 0.6 * d_in.values + 4.0)
    gt = DepthGrid(gt_values)
    pixels = [(r, c) for r in range(0, 12, 2) for c in range(0, 12, 2)]
    samples = sample_at(gt_values, pixels)
    cfg = PipelineConfig(method="slf", clamp=WIDE_CLAMP)
    aware, _ = rescale(d_in, LabelGrid(labels), samples, cfg)
    global_cfg = PipelineConfig(method="global-linear", clamp=WIDE_CLAMP)
    blind, _ = rescale(d_in, LabelGrid(labels), samples, global_cfg)
    assert evaluate(aware, gt, WIDE_CLAMP).abs_rel <= evaluate(blind, gt, WIDE_CLAMP).abs_rel


def test_interpolation_reproduces_sample_depths():
    # per-region planar-consistent measurements: SSF residuals vanish
    rng = np.random.default_rng(12)
    d_in = relative_map(13, (10, 10))
    labels = np.zeros((10, 10), dtype=np.int32)
    labels[5:, :] = 1
    xs = np.linspace(-1, 1, 10)
    x = np.broadcast_to(xs[None, :], (10, 10))
    y = np.broadcast_to(np.linspace(-1, 1, 10)[:, None], (10, 10))
    normalized, _ = affine_invariant_normalize(d_in)
    gt = np.where(
        labels == 0,
        1.5 * normalized.values + 0.3 * x - 0.2 * y + 6.0,
        0.8 * normalized.values - 0.4 * x + 0.1 * y + 4.0,
    )
    pixels = [(int(r), int(c)) for r, c in rng.integers(0, 10, size=(30, 2))]
    pixels = list(dict.fromkeys(pixels))
    samples = sample_at(gt, pixels)
    out, reports = rescale(
        d_in, LabelGrid(labels), samples, PipelineConfig(method="ssf", clamp=WIDE_CLAMP)
    )
    for report in reports:
        assert report.residual_rmse < 1e-9


def test_merge_same_label_keeps_islands_together():
    # same label on two islands: one region when merged, three when split
    labels = np.array([[1, 0, 1], [1, 0, 1]], dtype=np.int32)
    d_in = relative_map(14, (2, 3))
    gt = 2.0 * d_in.values + 1.0
    samples = sample_at(gt, [(0, 0), (1, 2), (0, 1), (1, 1)])
    merged_cfg = PipelineConfig(clamp=WIDE_CLAMP, merge_same_label=True)
    split_cfg = PipelineConfig(clamp=WIDE_CLAMP)
    _, merged_reports = rescale(d_in, LabelGrid(labels), samples, merged_cfg)
    _, split_reports = rescale(d_in, LabelGrid(labels), samples, split_cfg)
    assert len(merged_reports) == 2
    assert len(split_reports) == 3
