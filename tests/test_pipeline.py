import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from depthscale import cli, io
from depthscale.errors import (
    DegeneracyError,
    DepthScaleError,
    DimensionMismatch,
    InputError,
    InsufficientSamples,
    NoSamples,
    ZeroMedian,
)
from depthscale.fitting import (
    FitParams,
    apply_fit,
    fit_affine,
    fit_median_ratio,
    fit_planar,
    pair_observations,
    planar_terms,
)
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
from depthscale.metrics import evaluate
from depthscale.normalize import affine_invariant_normalize
from depthscale.pipeline import PipelineConfig, RegionReport, fit_regions, rescale
from depthscale.regions import SourceRings, build_region_graph, split_into_components
from depthscale.synth import generate_scene, random_scene, sample_uniform
from test_grids import label_grids, reference_canonicalize
from test_regions import reference_neighbors, reference_split

WIDE_CLAMP = (0.001, 100.0)


def uniform_mask(shape):
    return LabelGrid(np.zeros(shape, dtype=np.int32))


def sample_at(gt, pixels):
    return SparseSamples.from_points([(r, c, float(gt[r, c])) for r, c in pixels])


def reports_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.region_id, ra.provenance, ra.hop, ra.samples_used, ra.params) != (
            rb.region_id,
            rb.provenance,
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
    assert reports[0].provenance == "own"


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
    assert reports[0].provenance == "expanded"
    assert reports[0].hop == 1
    assert reports[0].samples_used == 4
    assert reports[1].provenance == "own"
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
    # same degenerate setup, but the chain may end in a median fit, which
    # fits the raw map: relative depths at the sampled row are 2, measurements 4
    values = np.ones((2, 2))
    values[1, :] = 2.0
    d_in = DepthGrid(values)
    samples = SparseSamples.from_points([(1, 0, 4.0), (1, 1, 4.0)])
    cfg = PipelineConfig(method="slf", fallback_chain=("slf", "median"), clamp=WIDE_CLAMP)
    out, reports = rescale(d_in, uniform_mask((2, 2)), samples, cfg)
    assert reports[0].params.kind == "median"
    assert out.values[1, 0] == 4.0


@pytest.mark.parametrize("method", ["slf", "ssf"])
@pytest.mark.parametrize("pixel", [(5, 5), (10, 3)])
def test_median_fallback_fits_the_raw_map(method, pixel):
    # One sample: slf and ssf fall back to median, whose ratio of medians
    # needs the positive raw depths, not the zero-median normalized ones.
    d_in = DepthGrid(np.random.default_rng(0).uniform(1.0, 5.0, (20, 20)))
    gt = 2.0 * d_in.values
    cfg = PipelineConfig(method=method, clamp=WIDE_CLAMP)
    out, [report] = rescale(d_in, uniform_mask(d_in.shape), sample_at(gt, [pixel]), cfg)
    assert (report.params.kind, report.params.alpha, report.provenance) == ("median", 2.0, "own")
    assert np.abs(out.values - gt).max() < 1e-12


@pytest.mark.parametrize("method", ["slf", "ssf", "median", "global-linear", "global-median"])
def test_samples_all_on_invalid_pixels_rejected(method):
    d_in = relative_map(7)
    valid = np.ones(d_in.shape, dtype=bool)
    valid[2] = False
    d_in = DepthGrid(d_in.values, valid)
    samples = SparseSamples.from_points([(2, 1, 2.0), (2, 4, 3.0), (2, 9, 1.0)])
    with pytest.raises(NoSamples, match=r"^no usable sample: all 3 lie on invalid depth pixels$"):
        rescale(d_in, uniform_mask(d_in.shape), samples, PipelineConfig(method=method))


def test_global_linear_fits_every_observation_as_one_list(monkeypatch):
    import depthscale.pipeline as pipeline

    calls = []

    def recording(kind, obs, groups, *args, _fit=pipeline.fit_batch, **kwargs):
        calls.append((kind, [rows.tolist() for rows in groups]))
        return _fit(kind, obs, groups, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_batch", recording)
    d_in, mask, samples = sparse_fragments()
    _, reports = rescale(d_in, mask, samples, PipelineConfig(method="global-linear"))
    assert calls == [("affine", [list(range(len(samples)))])]
    assert all(r.params is reports[0].params and r.provenance == "global" for r in reports)


EXHAUSTED_CHAINS = [
    (("slf", "global-median", "global-linear"), InsufficientSamples,
     "affine fit needs >= 2 observations, got 1"),
    (("slf", "global-linear", "global-median"), ZeroMedian, "median of relative depths is zero"),
]


@pytest.mark.parametrize("chain, error, message", EXHAUSTED_CHAINS)
def test_exhausted_chain_raises_the_last_global_entrys_reason(chain, error, message):
    # one sample, on a raw relative depth of 0: every entry is left without a fit
    values = relative_map(8).values.copy()
    values[3, 3] = 0.0
    d_in = DepthGrid(values)
    samples = SparseSamples.from_points([(3, 3, 2.0)])
    cfg = PipelineConfig(method="slf", fallback_chain=chain)
    with pytest.raises(error, match=rf"^{message}$"):
        rescale(d_in, uniform_mask(d_in.shape), samples, cfg)


@pytest.mark.parametrize("chain, error, message", EXHAUSTED_CHAINS)
def test_exhausted_chain_raises_the_memoized_refusal(monkeypatch, chain, error, message):
    # The reason is the refusal `fit_batch` gave the global list, not a
    # second fit of it: no one-list fit may run.
    import depthscale.fitting as fitting
    import depthscale.pipeline as pipeline

    def refit(*args, **kwargs):
        raise AssertionError("the global list was fitted a second time")

    for owner in (pipeline, fitting):
        for name in ("fit_affine", "fit_planar", "fit_median_ratio"):
            monkeypatch.setattr(owner, name, refit)
    test_exhausted_chain_raises_the_last_global_entrys_reason(chain, error, message)


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


@pytest.fixture(scope="module")
def twenty_region_scene():
    spec = random_scene(1, height=240, width=320, region_range=(20, 20))
    gt, rel, mask = generate_scene(spec)
    return rel, mask, sample_uniform(gt, 1000, 0)


@pytest.mark.parametrize("method", ["slf", "ssf", "median", "global-linear"])
def test_rescale_peak_memory_is_a_few_grids(twenty_region_scene, method):
    # the output is written in one label-indexed pass, not one full-frame
    # pass per region, and grids adopt the arrays the library has just
    # made, so the peak stays a few grids whatever the region count
    rel, mask, samples = twenty_region_scene
    tracemalloc.start()
    try:
        rescale(rel, mask, samples, PipelineConfig(method=method))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * rel.values.nbytes


@pytest.mark.parametrize("method", ["ssf", "slf"])
def test_fit_stage_memory_is_a_few_bytes_per_hop_pair(method, monkeypatch):
    # A fragmented 40x40 frame whose 40 samples all sit in its top-left
    # corner, so the far regions grow the rings wide and every region ends
    # up holding most sources: (region, source) pairs within the final
    # radius far outnumber fits. The fit stage holds each pair once, in
    # 32-bit ids, so what it allocates beyond the fits it returns stays
    # under 32 bytes per pair.
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 6, size=(40, 40))
    depth = DepthGrid(rng.uniform(0.5, 5.0, (40, 40)))
    picked = rng.choice(100, size=40, replace=False)
    samples = SparseSamples(picked // 10, picked % 10, rng.uniform(0.5, 8.0, 40))
    cfg = PipelineConfig(method=method)
    paired = pair_observations(affine_invariant_normalize(depth, cfg.normalization)[0], samples)
    graph = build_region_graph(split_into_components(LabelGrid(labels)), paired)
    made = []
    init = SourceRings.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(SourceRings, "__init__", recording)
    tracemalloc.start()
    try:
        fit_regions(graph, paired, cfg, depth)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = graph.n_regions
    hops = shortest_path(
        csr_matrix((np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n)),
        unweighted=True,
    )
    pairs = np.count_nonzero(hops[:, graph.sample_counts > 0] <= made[0].radius)
    assert pairs > 10 * n
    assert peak - kept < 32 * pairs


def test_cli_frame_peak_memory_is_a_few_grids(twenty_region_scene, tmp_path):
    # `depthscale rescale` then `depthscale evaluate` on files: loaders read
    # into the arrays their grids keep, the inverse depth is dropped once
    # inverted, and evaluate holds two term arrays, not four
    rel, mask, samples = twenty_region_scene
    gt = DepthGrid(np.clip(rel.values, 0.5, 9.0))  # inside the evaluation range
    io.save_depth(DepthGrid(1.0 / rel.values), tmp_path / "depth.pfm")
    io.save_mask(mask, tmp_path / "mask.pgm")
    io.save_samples(samples, tmp_path / "samples.csv")
    io.save_depth(gt, tmp_path / "gt.dpg")
    out = str(tmp_path / "metric.dpg")
    argvs = [
        ["rescale", "--depth", str(tmp_path / "depth.pfm"), "--mask", str(tmp_path / "mask.pgm"),
         "--samples", str(tmp_path / "samples.csv"), "--method", "ssf", "--out", out],
        ["evaluate", "--pred", out, "--gt", str(tmp_path / "gt.dpg")],
    ]
    with redirect_stdout(StringIO()):
        assert [cli.main(argv) for argv in argvs] == [0, 0]  # warm-up
        tracemalloc.start()
        try:
            assert [cli.main(argv) for argv in argvs] == [0, 0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 7 * rel.values.nbytes


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_hops", -1),
        ("max_hops", 1.5),
        ("max_hops", True),
        ("cond_max", -1.0),
        ("cond_max", 0.0),
        ("cond_max", math.nan),
        ("cond_max", math.inf),
        ("clamp", [1, 2, 3]),
        ("clamp", ["a", "b"]),
        ("clamp", [0.5, None]),
        ("clamp", [True, 2]),
        ("clamp", [2.0, 1.0]),
        ("clamp", 5),
        ("fallback_chain", 5),
        ("fallback_chain", [["median"]]),
        ("fallback_chain", ["slf"]),
        ("cond_max", True),
        ("connectivity", 4.0),
        ("merge_same_label", "false"),
        ("merge_same_label", 1),
        ("clamp", [1.0, math.inf]),
    ],
)
def test_config_rejects_out_of_range_hops_and_condition(field, value):
    with pytest.raises(InputError, match=field):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("min_samples_linear", 2.5),
        ("min_samples_linear", True),
        ("min_samples_linear", "3"),
        ("min_samples_linear", 1),
        ("min_samples_planar", 4.0),
        ("min_samples_planar", 3),
    ],
)
def test_config_requires_integer_sample_minima(field, value):
    with pytest.raises(InputError, match=field):
        PipelineConfig(**{field: value})


def test_config_accepts_numpy_integer_sample_minima():
    cfg = PipelineConfig(min_samples_linear=np.int64(3), min_samples_planar=np.int32(5))
    assert [cfg.minimum_for(kind) for kind in ("affine", "planar", "median")] == [3, 5, 1]



def test_regions_fitting_on_their_own_compute_no_hop_distances(twenty_region_scene, monkeypatch):
    # every region holds enough samples for slf, so nothing expands
    from depthscale.regions import SourceRings

    def unexpected(self):
        raise AssertionError("hop distances computed")

    monkeypatch.setattr(SourceRings, "grow", unexpected)
    monkeypatch.setattr(SourceRings, "component_samples", property(unexpected))
    _, reports = rescale(*twenty_region_scene, PipelineConfig(method="slf"))
    assert {r.provenance for r in reports} == {"own"}


def sparse_fragments():
    """Many small regions and few samples, so most regions expand and many
    reach the same sample-holding regions in the same order."""
    rng = np.random.default_rng(11)
    labels = np.kron(rng.integers(0, 4, size=(10, 12)), np.ones((2, 2), dtype=np.int64))
    h, w = labels.shape
    d_in = DepthGrid(rng.uniform(0.5, 5.0, (h, w)))
    picked = rng.choice(h * w, size=7, replace=False)
    samples = SparseSamples(picked // w, picked % w, rng.uniform(0.5, 8.0, picked.size))
    return d_in, LabelGrid(labels), samples


@pytest.mark.parametrize("method", ["ssf", "slf", "median"])
def test_rescale_fits_each_observation_list_once(monkeypatch, method):
    import depthscale.pipeline as pipeline

    calls = []

    def recording(kind, obs, groups, *args, _fit=pipeline.fit_batch, **kwargs):
        calls.extend((kind, rows.tobytes()) for rows in groups)
        return _fit(kind, obs, groups, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_batch", recording)
    _, reports = rescale(*sparse_fragments(), PipelineConfig(method=method))
    expanded = sum(r.provenance == "expanded" for r in reports)
    assert expanded > len(calls) > 1
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("method", ["ssf", "slf", "median"])
def test_regions_placed_on_one_fit_share_it(monkeypatch, method):
    # A fit belongs to its observation list, its placement to the region:
    # every region placed on a list's fit holds that one object, with its
    # own provenance and hop, also where two regions reach the list at
    # different hops.
    import depthscale.pipeline as pipeline

    fits = []

    def recording(*args, _fit=pipeline.fit_batch, **kwargs):
        params = _fit(*args, **kwargs)
        fits.extend(p for p in params if p is not None)
        return params

    monkeypatch.setattr(pipeline, "fit_batch", recording)
    _, reports = rescale(*sparse_fragments(), PipelineConfig(method=method))
    across_hops = 0
    for fit in fits:
        placed = [r for r in reports if r.params == fit]
        assert all(r.params is fit for r in placed)
        assert all(r.provenance == ("own" if r.hop == 0 else "expanded") for r in placed)
        across_hops += len({r.hop for r in placed}) > 1
    assert across_hops


def test_reports_are_built_only_when_read(monkeypatch, tmp_path):
    # `rescale` returns its reports as columns: neither it nor the CLI,
    # which writes the report file from them, builds a RegionReport, and
    # each index or iteration step builds one.
    import depthscale.pipeline as pipeline

    built = []

    def counting(*args, _report=pipeline.RegionReport):
        built.append(args[0])
        return _report(*args)

    monkeypatch.setattr(pipeline, "RegionReport", counting)
    d_in, mask, samples = sparse_fragments()
    _, reports = rescale(d_in, mask, samples, PipelineConfig(method="slf"))
    io.save_depth(d_in, tmp_path / "rel.dpg")
    io.save_mask(mask, tmp_path / "mask.pgm")
    io.save_samples(samples, tmp_path / "samples.csv")
    paths = {flag: str(tmp_path / name) for flag, name in
             (("--depth", "rel.dpg"), ("--mask", "mask.pgm"), ("--samples", "samples.csv"))}
    with redirect_stdout(StringIO()):
        code = cli.main(["rescale", *(x for pair in paths.items() for x in pair),
                         "--already-depth", "--out", str(tmp_path / "metric.dpg")])
    assert code == 0 and built == []

    n = len(reports)
    assert [reports[0].region_id, reports[-1].region_id, reports[-n].region_id] == [0, n - 1, 0]
    assert built == [0, n - 1, 0]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            reports[index]
    built.clear()
    items = list(reports)
    assert built == list(range(n)) == [r.region_id for r in items]
    assert [r.as_dict() for r in items] == [reports[i].as_dict() for i in range(n)]
    assert all(r.params is reports.fits[fit] for r, fit in zip(items, reports.fit_of))
    assert len({id(r.params) for r in items}) == len(reports.fits) < n
    assert not any(c.flags.writeable for c in (reports.fit_of, reports.hop, reports.residual_rmse))


def test_fit_stage_raises_when_the_rings_stop_growing():
    # Region 0 holds one sample and slf needs two, so it must expand; with
    # a `grow` that adds nothing, the fit stage must raise, not spin. It
    # runs in a subprocess, so that a spin fails on the timeout instead of
    # hanging the suite.
    script = textwrap.dedent(
        """
        import numpy as np
        from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
        from depthscale.pipeline import PipelineConfig, rescale
        from depthscale.regions import SourceRings

        SourceRings.grow = lambda self: False
        labels = np.zeros((2, 4), dtype=np.int32)
        labels[:, 2:] = 1
        d_in = DepthGrid(np.random.default_rng(3).uniform(1.0, 3.0, (2, 4)))
        samples = SparseSamples([0, 0, 1, 1], [0, 2, 2, 3], [1.0, 2.0, 3.0, 4.0])
        rescale(d_in, LabelGrid(labels), samples, PipelineConfig(method="slf"))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert "RuntimeError: hop rings stopped growing, 1 unsettled region(s) left" in done.stderr


def reference_region_fits(d_in, mask, samples, cfg):
    """The fit stage as a slow, obvious oracle for `rescale`.

    Samples are grouped over the original sample list, and a position
    map turns a group into paired rows on every attempt (samples on
    invalid pixels have no row); with no row at all, the frame has no
    usable sample. Each fallback-chain entry walks its own rings over
    pixel-by-pixel adjacency, ascending ids within a ring. Median-ratio
    entries pair the samples with the raw map, and their fits map the
    normalized one as alpha * (s * normalized + t). Returns what
    `rescale` returns, the map written by `apply_fit`.
    """
    if cfg.method in ("slf", "ssf", "global-linear"):
        working, stats = affine_invariant_normalize(d_in, cfg.normalization)
    else:
        working, stats = d_in, None
    if cfg.merge_same_label:
        labels = reference_canonicalize(mask.labels)
    else:
        labels = reference_split(mask.labels, cfg.connectivity)
    neighbors = reference_neighbors(labels, cfg.connectivity)
    region_of = labels[samples.rows, samples.cols]
    own = [[i for i in range(len(samples)) if region_of[i] == r] for r in range(len(neighbors))]
    paired = pair_observations(working, samples)
    if len(paired) == 0:
        raise NoSamples(f"no usable sample: all {len(samples)} lie on invalid depth pixels")
    raw = pair_observations(d_in, samples)
    kept = working.valid[samples.rows, samples.cols]
    position = np.cumsum(kept) - 1

    def obs_for(indices, source):
        return source.take(np.array([position[i] for i in indices if kept[i]], dtype=np.int64))

    fits = {
        "slf": (fit_affine, cfg.min_samples_linear, paired),
        "ssf": (lambda obs: fit_planar(obs, cond_max=cfg.cond_max), cfg.min_samples_planar, paired),
        "median": (fit_median_ratio, 1, raw),
        "global-linear": (fit_affine, None, paired),
        "global-median": (fit_median_ratio, None, raw),
    }
    if cfg.method.startswith("global-"):
        chain = (cfg.method,)
    elif cfg.method in cfg.fallback_chain:
        chain = cfg.fallback_chain[cfg.fallback_chain.index(cfg.method):]
    else:
        chain = (cfg.method,) + cfg.fallback_chain

    chosen = []
    for region in range(len(neighbors)):
        params, last_error = None, None
        for entry in chain:
            fit, minimum, source = fits[entry]
            if minimum is None:
                try:
                    params, placement = fit(source), ("global", 0)
                except DegeneracyError as err:
                    last_error = err
                    continue
                break
            included, frontier, hop = [region], [region], 0
            accumulated = list(own[region])
            while True:
                obs = obs_for(accumulated, source)
                if len(obs) >= minimum:
                    try:
                        params = fit(obs)
                        break
                    except DegeneracyError:
                        pass
                if cfg.max_hops is not None and hop >= cfg.max_hops:
                    break
                ring = sorted({n for r in frontier for n in neighbors[r]} - set(included))
                if not ring:
                    break
                included += ring
                accumulated += [i for r in ring for i in own[r]]
                frontier, hop = ring, hop + 1
            if params is not None:
                placement = ("own" if hop == 0 else "expanded", hop)
                break
        if params is None:
            if last_error is not None:
                raise last_error
            raise InsufficientSamples(
                f"region {region}: fallback chain {chain} exhausted without a usable fit"
            )
        chosen.append((params, placement))

    applied = []
    for params, _ in chosen:
        if stats is not None and params.kind == "median":
            a = params.alpha
            params = FitParams("affine", a * stats.s, a * stats.t, 0.0, 0.0, params.support, 1.0)
        applied.append(params)
    out = apply_fit(working, LabelGrid(labels), planar_terms(applied), cfg.clamp)
    reports = []
    for region, (params, placement) in enumerate(chosen):
        obs = obs_for(own[region], paired)
        rmse = math.nan
        if len(obs):
            rmse = float(np.sqrt(np.mean((out.values[obs.rows, obs.cols] - obs.z1) ** 2)))
        reports.append(RegionReport(region, params, *placement, rmse))
    return out, reports


def outcome(run, *args):
    """Output bytes and reports of one run, or its error's type and message."""
    try:
        out, reports = run(*args)
    except DepthScaleError as err:
        return type(err).__name__, str(err)
    return (
        out.values.tobytes(),
        out.valid.tobytes(),
        [r.params for r in reports],
        repr([r.as_dict() for r in reports]),
    )


# the default chain, and chains with more than one global entry or a
# global entry before the last one
FALLBACK_CHAINS = [
    PipelineConfig().fallback_chain,
    ("ssf", "slf", "global-median", "global-linear"),
    ("slf", "global-linear", "median"),
    ("ssf", "global-linear", "global-median"),
]


@st.composite
def fit_stage_inputs(draw):
    """Fragmented masks, samples partly on invalid (inf/nan) pixels, any config."""
    labels = draw(label_grids(max_side=14, min_values=2))
    h, w = labels.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    valid = rng.random((h, w)) > draw(st.sampled_from([0.0, 0.2, 0.5]))
    values = rng.uniform(0.5, 5.0, (h, w))
    values[~valid] = draw(st.sampled_from([np.inf, np.nan, 0.0]))
    if draw(st.booleans()):
        values[: h // 2 + 1][valid[: h // 2 + 1]] = 2.0  # constant z2 over a band
    n = int(rng.integers(1, min(14, h * w) + 1))
    picked = rng.choice(h * w, size=n, replace=False)
    samples = SparseSamples(picked // w, picked % w, rng.uniform(0.5, 8.0, n))
    cfg = PipelineConfig(
        method=draw(st.sampled_from(["slf", "ssf", "median", "global-linear", "global-median"])),
        connectivity=draw(st.sampled_from([4, 8])),
        max_hops=draw(st.sampled_from([None, 0, 1, 3])),
        merge_same_label=draw(st.booleans()),
        cond_max=draw(st.sampled_from([1e8, 10.0])),
        clamp=WIDE_CLAMP,
        fallback_chain=draw(st.sampled_from(FALLBACK_CHAINS)),
    )
    return DepthGrid(values, valid), LabelGrid(labels), samples, cfg


@settings(max_examples=400, deadline=None)
@given(fit_stage_inputs())
def test_fit_stage_matches_reference(inputs):
    want = outcome(reference_region_fits, *inputs)
    assert outcome(rescale, *inputs) == want


def reference_report_as_dict(r: RegionReport) -> dict:
    """The RegionReport.as_dict of the records that kept the placement on the
    fit, field by field: the keys in the order the report JSON was written."""
    return {
        "region_id": r.region_id,
        "hop": r.hop,
        "samples_used": r.params.support,
        "residual_rmse": None if math.isnan(r.residual_rmse) else r.residual_rmse,
        "kind": r.params.kind,
        "alpha": r.params.alpha,
        "beta": r.params.beta,
        "gamma": r.params.gamma,
        "delta": r.params.delta,
        "support": r.params.support,
        "condition": r.params.condition,
        "provenance": r.provenance,
    }


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.builds(
        FitParams,
        st.sampled_from(["affine", "planar", "median"]),
        finite, finite, finite, finite,
        st.integers(0, 10**6),
        finite,
    ),
    st.sampled_from(["own", "expanded", "global"]),
    st.integers(0, 100),
    st.one_of(st.just(math.nan), st.floats(0.0, 1e6)),
)
def test_region_report_as_dict_matches_reference(region_id, params, provenance, hop, rmse):
    report = RegionReport(region_id, params, provenance, hop, rmse)
    assert report.samples_used == params.support
    assert list(report.as_dict().items()) == list(reference_report_as_dict(report).items())


def test_region_report_json_keys(tmp_path):
    labels = np.zeros((2, 4), dtype=np.int32)
    labels[:, 2:] = 1
    d_in = relative_map(3, (2, 4))
    samples = sample_at(3.0 * d_in.values + 2.0, [(0, 2), (1, 2), (1, 3)])
    _, reports = rescale(d_in, LabelGrid(labels), samples, PipelineConfig(clamp=WIDE_CLAMP))
    io.save_region_reports(reports, tmp_path / "regions.json")
    doc = json.loads((tmp_path / "regions.json").read_text())
    assert [sorted(r) for r in doc] == 2 * [[
        "alpha", "beta", "condition", "delta", "gamma", "hop", "kind", "provenance",
        "region_id", "residual_rmse", "samples_used", "support",
    ]]
    assert doc[0]["residual_rmse"] is None and doc[0]["hop"] == 1 and doc[0]["samples_used"] == 3
