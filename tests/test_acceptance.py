"""Acceptance gates for the whole pipeline, one test per criterion.

Each test prints a PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines for passing criteria too). These checks are
property-based and directional: exact recovery on invertible synthetic
distortions, oracle agreement for fits and metrics, and ordering of the
region-aware and surface-fit variants against their baselines.
"""

import math
import time

import numpy as np
import pytest

from depthscale import io
from depthscale.cli import main as cli_main
from depthscale.errors import NoOverlap
from depthscale.fitting import fit_affine, fit_planar
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
from depthscale.metrics import evaluate
from depthscale.normalize import affine_invariant_normalize, lower_median
from depthscale.pipeline import PipelineConfig, rescale
from depthscale.synth import generate_scene, random_scene, sample_uniform
from test_fitting import obs_from, reference_apply
from test_regions import reference_split

CLAMP = (0.001, 10.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def samples_with_region_floor(gt, mask, n, seed, floor):
    """Uniform draw topped up so every region holds >= floor samples."""
    base = sample_uniform(gt, n, seed)
    labels = mask.labels
    taken = set(zip(base.rows.tolist(), base.cols.tolist()))
    counts = np.bincount(labels[base.rows, base.cols], minlength=labels.max() + 1)
    extra = []
    for region_id, count in enumerate(counts):
        deficit = floor - int(count)
        if deficit <= 0:
            continue
        rows, cols = np.nonzero((labels == region_id) & gt.valid)
        for r, c in zip(rows.tolist(), cols.tolist()):
            if (r, c) not in taken:
                extra.append((r, c, float(gt.values[r, c])))
                taken.add((r, c))
                deficit -= 1
                if deficit == 0:
                    break
        assert deficit == 0, f"region {region_id} too small for floor {floor}"
    if not extra:
        return base
    er, ec, ed = (np.asarray(v) for v in zip(*extra))
    return SparseSamples(
        np.concatenate([base.rows, er]),
        np.concatenate([base.cols, ec]),
        np.concatenate([base.depths, ed]),
    )


def recovery_scene(seed, distortion):
    """640x480 scene with 6-20 bent-surface regions, shared geometry per seed."""
    return random_scene(
        seed,
        height=480,
        width=640,
        region_range=(6, 20),
        distortion=distortion,
        scale_range=(0.5, 3.0),
        shift_range=(-15.0, 7.0),
        curvature_range=(0.3, 1.0),
        depth_range=(1.0, 9.0),
        min_region_pixels=400,
    )


def test_criterion_01_exact_recovery_slf():
    worst_err = 0.0
    worst_time = 0.0
    for seed in range(20):
        spec = recovery_scene(seed, "affine")
        gt, rel, mask = generate_scene(spec)
        samples = samples_with_region_floor(gt, mask, 2000, [seed], floor=2)
        start = time.perf_counter()
        out, _ = rescale(rel, mask, samples, PipelineConfig(method="slf", clamp=CLAMP))
        elapsed = time.perf_counter() - start
        worst_err = max(worst_err, float(np.abs(out.values - gt.values).max()))
        worst_time = max(worst_time, elapsed)
    report(
        "criterion-1 exact recovery (SLF)",
        worst_err < 1e-6 and worst_time < 1.0,
        f"max error {worst_err:.3e} m (< 1e-6), slowest scene {worst_time:.2f} s (< 1 s)",
    )


def test_criterion_02_exact_recovery_ssf():
    worst_err = 0.0
    worst_ratio = math.inf
    for seed in range(20):
        spec = recovery_scene(seed, "planar")
        gt, rel, mask = generate_scene(spec)
        samples = samples_with_region_floor(gt, mask, 2000, [seed], floor=4)
        ssf, _ = rescale(rel, mask, samples, PipelineConfig(method="ssf", clamp=CLAMP))
        slf, _ = rescale(rel, mask, samples, PipelineConfig(method="slf", clamp=CLAMP))
        worst_err = max(worst_err, float(np.abs(ssf.values - gt.values).max()))
        ssf_abs_rel = max(evaluate(ssf, gt, CLAMP).abs_rel, 1e-300)
        worst_ratio = min(worst_ratio, evaluate(slf, gt, CLAMP).abs_rel / ssf_abs_rel)
    report(
        "criterion-2 exact recovery (SSF)",
        worst_err < 1e-6 and worst_ratio > 10.0,
        f"SSF max error {worst_err:.3e} m (< 1e-6), min SLF/SSF AbsRel ratio {worst_ratio:.1f} (> 10)",
    )


def test_criterion_03_region_aware_dominance():
    aware_means = []
    blind_means = []
    violations = 0
    for seed in range(100, 150):
        spec = random_scene(
            seed,
            height=240,
            width=320,
            region_range=(5, 12),
            distortion="affine",
            scale_range=(0.5, 3.0),
            shift_range=(-15.0, 7.0),
            depth_range=(1.0, 9.0),
            min_region_pixels=200,
        )
        gt, rel, mask = generate_scene(spec)
        samples = samples_with_region_floor(gt, mask, 1000, [seed], floor=2)
        aware, _ = rescale(rel, mask, samples, PipelineConfig(method="slf", clamp=CLAMP))
        blind, _ = rescale(rel, mask, samples, PipelineConfig(method="global-linear", clamp=CLAMP))
        a = evaluate(aware, gt, CLAMP).abs_rel
        b = evaluate(blind, gt, CLAMP).abs_rel
        violations += a > b
        aware_means.append(a)
        blind_means.append(b)
    improvement = float(np.mean(blind_means)) / max(float(np.mean(aware_means)), 1e-300)
    report(
        "criterion-3 region-aware dominance",
        violations == 0 and improvement >= 2.0,
        f"0 violations on 50 scenes required (got {violations}), "
        f"mean improvement {improvement:.1f}x (>= 2x)",
    )


BUDGETS = (250, 500, 1000, 2000)


@pytest.fixture(scope="module")
def noisy_planar_sweep():
    """Mean AbsRel per (method, budget) over 20 seeded noisy scenes."""
    sums = {(m, b): 0.0 for m in ("slf", "ssf") for b in BUDGETS}
    seeds = range(200, 220)
    for seed in seeds:
        spec = random_scene(
            seed,
            height=240,
            width=320,
            region_range=(6, 12),
            distortion="planar",
            scale_range=(0.5, 3.0),
            shift_range=(-5.0, 5.0),
            curvature_range=(0.3, 1.0),
            depth_range=(1.0, 9.0),
            min_region_pixels=200,
        )
        gt, rel, mask = generate_scene(spec)
        for budget in BUDGETS:
            samples = sample_uniform(gt, budget, [seed, budget], noise_sigma=0.02)
            for method in ("slf", "ssf"):
                out, _ = rescale(rel, mask, samples, PipelineConfig(method=method, clamp=CLAMP))
                sums[(method, budget)] += evaluate(out, gt, CLAMP).abs_rel
    return {key: value / len(seeds) for key, value in sums.items()}


def test_criterion_04_budget_monotonicity(noisy_planar_sweep):
    ok = True
    details = []
    for method in ("slf", "ssf"):
        series = [noisy_planar_sweep[(method, b)] for b in BUDGETS]
        for smaller, larger in zip(series, series[1:]):
            ok &= larger <= smaller * 1.02  # 2% relative slack per adjacent pair
        details.append(f"{method}: " + " -> ".join(f"{v:.5f}" for v in series))
    report("criterion-4 budget monotonicity", ok, "; ".join(details))


def test_criterion_05_ssf_beats_slf(noisy_planar_sweep):
    gaps = {b: noisy_planar_sweep[("slf", b)] - noisy_planar_sweep[("ssf", b)] for b in BUDGETS}
    ok = all(gap >= 0.0 for gap in gaps.values())
    report(
        "criterion-5 SSF <= SLF at every budget",
        ok,
        ", ".join(f"{b}: gap {gap:+.5f}" for b, gap in gaps.items()),
    )


def brute_force_least_squares(design, target, box, grid_steps=7, sweeps=80000):
    """Independent search oracle: dense grid + exact 1-D coordinate descent."""
    d = design.shape[1]
    axes = [np.linspace(-box, box, grid_steps)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    errs = ((mesh @ design.T - target) ** 2).sum(axis=1)
    params = mesh[int(np.argmin(errs))].astype(np.float64).copy()
    residual = target - design @ params
    for _ in range(sweeps):
        largest = 0.0
        for j in range(d):
            g = design[:, j]
            step = float(g @ residual) / float(g @ g)
            params[j] += step
            residual = residual - step * g
            largest = max(largest, abs(step))
        if largest < 1e-13 * (1.0 + float(np.abs(params).max())):
            break
    return params


def test_criterion_06_fitting_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for case in range(1000):
        planar = case % 2 == 1
        while True:
            n = int(rng.integers(4, 7)) if planar else int(rng.integers(2, 7))
            x = rng.uniform(-1, 1, n)
            y = rng.uniform(-1, 1, n)
            z2 = rng.uniform(0.5, 3.0, n)
            design = (
                np.column_stack([z2, x, y, np.ones(n)])
                if planar
                else np.column_stack([z2, np.ones(n)])
            )
            if np.linalg.cond(design) <= 15.0:
                break
        true = rng.uniform(-2.0, 2.0, design.shape[1])
        z1 = design @ true + rng.normal(0.0, 0.2, n)
        if z1.min() <= 0:
            z1 = z1 + (0.1 - z1.min())
        obs = obs_from(z2, z1, x, y)
        if planar:
            p = fit_planar(obs)
            got = np.array([p.alpha, p.beta, p.gamma, p.delta])
        else:
            p = fit_affine(obs)
            got = np.array([p.alpha, p.beta])
        oracle = brute_force_least_squares(design, z1, box=10.0)
        worst = max(worst, float(np.abs(got - oracle).max()))
    report(
        "criterion-6 fitting oracle equivalence",
        worst < 1e-4,
        f"1000 observation sets, worst parameter gap {worst:.2e} (< 1e-4)",
    )


def test_criterion_07_normalization_properties():
    rng = np.random.default_rng(707)
    worst_median = 0.0
    worst_mad = 0.0
    exact_failures = 0
    for _ in range(1000):
        h, w = int(rng.integers(2, 13)), int(rng.integers(1, 13))
        while True:
            values = rng.integers(-3200, 3200, size=(h, w)) / 64.0
            if np.ptp(values) > 0:
                break
        grid = DepthGrid(values)
        out, _ = affine_invariant_normalize(grid)
        v = out.valid_values()
        worst_median = max(worst_median, abs(lower_median(v)))
        worst_mad = max(worst_mad, abs(float(np.mean(np.abs(v))) - 1.0))
        # exactly representable affine transform: equivariance must be exact
        a = 2.0 ** int(rng.integers(-3, 9))
        b = int(rng.integers(-640, 641)) / 64.0
        out2, _ = affine_invariant_normalize(DepthGrid(a * values + b))
        exact_failures += not np.array_equal(out.values, out2.values)
    report(
        "criterion-7 normalization properties",
        worst_median < 1e-9 and worst_mad < 1e-9 and exact_failures == 0,
        f"1000 grids: |median| <= {worst_median:.1e} (< 1e-9), "
        f"|mad - 1| <= {worst_mad:.1e} (< 1e-9), exact equivariance failures {exact_failures}",
    )


def naive_metrics(pred, gt, depth_range):
    """Per-pixel reference implementation with exact accumulation."""
    lo, hi = depth_range
    abs_rel, sq, sq_log, l10 = [], [], [], []
    hits = [0, 0, 0]
    for r in range(pred.height):
        for c in range(pred.width):
            if not (pred.valid[r, c] and gt.valid[r, c]):
                continue
            g = gt.values[r, c]
            if g < lo or g > hi:
                continue
            p = pred.values[r, c]
            abs_rel.append(abs(p - g) / g)
            sq.append((p - g) ** 2)
            p_log = max(p, lo)
            sq_log.append((math.log(p_log) - math.log(g)) ** 2)
            l10.append(abs(math.log10(p_log) - math.log10(g)))
            ratio = max(p / g, g / p)
            for i in range(3):
                hits[i] += ratio < 1.25 ** (i + 1)
    n = len(abs_rel)
    if n == 0:
        raise NoOverlap("empty")
    return (
        math.fsum(abs_rel) / n,
        math.sqrt(math.fsum(sq) / n),
        math.sqrt(math.fsum(sq_log) / n),
        math.fsum(l10) / n,
        hits[0] / n,
        hits[1] / n,
        hits[2] / n,
        n,
    )


def test_criterion_08_metrics_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        h, w = int(rng.integers(2, 65)), int(rng.integers(2, 65))
        pred = DepthGrid(rng.uniform(0.01, 12.0, (h, w)), rng.random((h, w)) > 0.1)
        gt = DepthGrid(rng.uniform(0.01, 12.0, (h, w)), rng.random((h, w)) > 0.1)
        want = naive_metrics(pred, gt, CLAMP)
        got = evaluate(pred, gt, CLAMP)
        fields = (
            got.abs_rel,
            got.rmse,
            got.rmse_log,
            got.log10,
            got.delta1,
            got.delta2,
            got.delta3,
            got.valid_pixel_count,
        )
        worst = max(worst, float(np.abs(np.subtract(fields, want)).max()))
    hand = evaluate(
        DepthGrid(np.array([[2.0, 4.0]])), DepthGrid(np.array([[1.0, 4.0]])), CLAMP
    )
    hand_ok = hand.abs_rel == 0.5 and abs(hand.rmse - math.sqrt(0.5)) < 1e-15 and hand.delta1 == 0.5
    report(
        "criterion-8 metrics oracle",
        worst < 1e-12 and hand_ok,
        f"100 random pairs, worst field gap {worst:.2e} (< 1e-12); hand-computed pair ok={hand_ok}",
    )


def test_criterion_09_termination_and_coverage():
    rng = np.random.default_rng(909)
    methods = ("slf", "ssf", "median")
    for case in range(500):
        h, w = int(rng.integers(3, 29)), int(rng.integers(3, 29))
        labels = rng.integers(0, int(rng.integers(2, 7)), size=(h, w))
        if case % 5 == 0:  # sprinkle single-pixel regions
            for _ in range(3):
                labels[rng.integers(0, h), rng.integers(0, w)] = 99
        valid = rng.random((h, w)) > 0.05
        values = rng.uniform(0.5, 5.0, (h, w))
        d_in = DepthGrid(values, valid)
        flat_valid = np.flatnonzero(valid.ravel())
        if flat_valid.size < 2:
            continue
        n = int(rng.integers(2, min(13, flat_valid.size + 1)))
        picked = rng.choice(flat_valid, size=n, replace=False)
        samples = SparseSamples(picked // w, picked % w, rng.uniform(0.5, 8.0, n))
        mask = LabelGrid(labels)
        cfg = PipelineConfig(method=methods[case % 3], clamp=CLAMP)
        out, reports = rescale(d_in, mask, samples, cfg)
        # output validity mirrors the input
        assert np.array_equal(out.valid, d_in.valid)
        # every region of the split mask appears exactly once in the report
        expected = reference_split(labels, cfg.connectivity)
        n_regions = int(expected.max()) + 1
        assert [r.region_id for r in reports] == list(range(n_regions))
        # and every valid pixel holds its own region's reported fit
        if cfg.method == "median":
            working = d_in
        else:
            working, _ = affine_invariant_normalize(d_in, cfg.normalization)
        written = np.zeros((h, w), dtype=bool)
        for r in reports:
            values, sel = reference_apply(working, r.params, expected == r.region_id, CLAMP)
            assert np.array_equal(out.values[sel], values[sel])
            written |= sel
        assert np.array_equal(written, d_in.valid)
    report(
        "criterion-9 termination and coverage",
        True,
        "500 fuzzed masks rescaled: every valid pixel written by its own region's fit,"
        " one report per region",
    )


def test_criterion_10_manifest_determinism(tmp_path):
    spec = random_scene(
        42,
        height=60,
        width=80,
        region_range=(4, 7),
        distortion="affine",
        shift_range=(-4.0, 4.0),
        depth_range=(1.0, 9.0),
        min_region_pixels=30,
    )
    gt, rel, mask = generate_scene(spec)
    scene = tmp_path / "scenes" / "scene00"
    scene.mkdir(parents=True)
    io.save_depth(gt, scene / "gt.dpg")
    io.save_depth(rel, scene / "rel.dpg")
    io.save_mask(mask, scene / "mask.pgm")

    manifest = io.RunManifest(
        depth_path=str(scene / "rel.dpg"),
        mask_path=str(scene / "mask.pgm"),
        gt_path=str(scene / "gt.dpg"),
        n_samples=300,
        seed=5,
        config=PipelineConfig(method="ssf"),
        already_depth=True,
        out_depth=str(tmp_path / "out.dpg"),
        out_report=str(tmp_path / "out.regions.json"),
    )
    manifest_path = tmp_path / "run.json"
    io.save_manifest(manifest, manifest_path)

    assert cli_main(["rescale", "--manifest", str(manifest_path)]) == 0
    depth_once = (tmp_path / "out.dpg").read_bytes()
    report_once = (tmp_path / "out.regions.json").read_bytes()
    assert cli_main(["rescale", "--manifest", str(manifest_path)]) == 0
    same_rescale = (
        depth_once == (tmp_path / "out.dpg").read_bytes()
        and report_once == (tmp_path / "out.regions.json").read_bytes()
    )

    bench_args = [
        "bench",
        "--scene-dir", str(tmp_path / "scenes"),
        "--methods", "slf,ssf",
        "--budgets", "100,200",
        "--seeds", "0,1",
    ]
    assert cli_main(bench_args + ["--out", str(tmp_path / "b1.csv")]) == 0
    assert cli_main(bench_args + ["--out", str(tmp_path / "b2.csv")]) == 0
    same_bench = (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()

    report(
        "criterion-10 manifest determinism",
        same_rescale and same_bench,
        f"rescale replay byte-identical={same_rescale}, bench replay byte-identical={same_bench}",
    )
