import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from depthscale.errors import InputError, InvalidSpec, TooManyRequested
from depthscale.fitting import normalized_coords
from depthscale.grids import DepthGrid
from depthscale.metrics import evaluate
from depthscale.pipeline import PipelineConfig, rescale
from depthscale.synth import (
    Distortion,
    Plane,
    RegionSpec,
    SceneSpec,
    generate_scene,
    random_scene,
    sample_beams,
    sample_uniform,
    scene_from_json,
    scene_samples,
    scene_to_json,
)
from depthscale.synth import _TAG_LAYOUT, _layout_labels, _rng, _voronoi_labels


def flat_scene(depth=2.0, distortion=None):
    distortion = distortion or Distortion("affine", a=1.0, b=0.0)
    return SceneSpec(
        height=4,
        width=6,
        layout="grid",
        regions=(RegionSpec(Plane(0.0, 0.0, depth), distortion),),
        seed=0,
        depth_range=(0.5, 9.0),
        grid_rows=1,
        grid_cols=1,
    )


def test_identity_distortion():
    gt, rel, mask = generate_scene(flat_scene())
    assert np.all(gt.values == 2.0)
    assert np.array_equal(gt.values, rel.values)
    assert mask.labels.max() == 0


def test_affine_distortion_inverse():
    gt, rel, _ = generate_scene(flat_scene(distortion=Distortion("affine", a=2.0, b=1.0)))
    assert np.allclose(rel.values, (gt.values - 1.0) / 2.0)


def test_surface_leaving_range_rejected():
    spec = SceneSpec(
        height=4,
        width=4,
        layout="grid",
        regions=(RegionSpec(Plane(5.0, 0.0, 2.0), Distortion("affine")),),
        seed=0,
        depth_range=(0.5, 4.0),
        grid_rows=1,
        grid_cols=1,
    )
    with pytest.raises(InvalidSpec):
        generate_scene(spec)


@pytest.mark.parametrize(
    "depth_range", [(1.0, float("inf")), (0.0, 9.0), (9.0, 1.0), (1.0, float("nan"))]
)
def test_depth_range_must_be_finite_and_ordered(depth_range):
    # an infinite maximum would make generate_scene's range check accept any surface
    one_plane = (RegionSpec(Plane(5.0, 0.0, 2.0), Distortion("affine")),)
    with pytest.raises(InvalidSpec, match="depth range"):
        SceneSpec(4, 4, "grid", one_plane, 0, depth_range, grid_rows=1, grid_cols=1)
    spec = random_scene(3, height=20, width=30, region_range=(4, 4), min_region_pixels=5)
    doc = json.loads(scene_to_json(spec))
    with pytest.raises(InvalidSpec, match="depth range"):
        scene_from_json(json.dumps({**doc, "depth_range": list(depth_range)}))


def test_region_count_must_match_layout():
    with pytest.raises(InvalidSpec):
        SceneSpec(
            height=4,
            width=4,
            layout="grid",
            regions=(),
            seed=0,
            grid_rows=2,
            grid_cols=2,
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["affine", "planar", "nonlinear"]))
def test_inverse_distortion_consistency(seed, family):
    spec = random_scene(
        seed,
        height=24,
        width=32,
        region_range=(2, 5),
        distortion=family,
        shift_range=(-4.0, 4.0),
        curvature_range=(0.1, 0.6),
        min_region_pixels=5,
    )
    gt, rel, mask = generate_scene(spec)
    x, y = np.broadcast_arrays(*normalized_coords(*np.ogrid[:24, :32], 24, 32))
    recovered = np.zeros_like(gt.values)
    for i, region in enumerate(spec.regions):
        sel = mask.labels == i
        recovered[sel] = region.distortion.forward(rel.values[sel], x[sel], y[sel])
    assert np.abs(recovered - gt.values).max() < 1e-12


def test_monotone_distortions_preserve_ordering():
    for family in ("affine", "nonlinear"):
        spec = random_scene(
            5, height=20, width=20, region_range=(2, 3), distortion=family,
            shift_range=(-3.0, 3.0), min_region_pixels=5,
        )
        gt, rel, mask = generate_scene(spec)
        for i in range(spec.n_regions):
            sel = mask.labels == i
            order_gt = np.argsort(gt.values[sel], kind="stable")
            order_rel = np.argsort(rel.values[sel], kind="stable")
            assert np.array_equal(order_gt, order_rel)


def test_planar_distortion_needs_surface_fit():
    # bent ground truth with slope-bearing distortions: the affine fit
    # has residual while the surface fit recovers exactly
    spec = random_scene(
        17,
        height=48,
        width=64,
        region_range=(3, 4),
        distortion="planar",
        shift_range=(-3.0, 3.0),
        curvature_range=(0.4, 1.0),
        min_region_pixels=40,
    )
    gt, rel, mask = generate_scene(spec)
    samples = sample_uniform(gt, 600, 3)
    ssf, _ = rescale(rel, mask, samples, PipelineConfig(method="ssf"))
    slf, _ = rescale(rel, mask, samples, PipelineConfig(method="slf"))
    assert evaluate(ssf, gt).abs_rel < 1e-9
    assert evaluate(slf, gt).abs_rel > 1e-4


def test_bent_scene_ground_truth_is_the_surface_at_the_fitters_coordinates():
    plane = Plane(0.3, -0.2, 5.0, 0.1, 0.05)
    spec = SceneSpec(
        height=480,
        width=640,
        layout="grid",
        regions=(RegionSpec(plane, Distortion("planar", a=1.5, bx=0.4, by=-0.3, c=-2.0)),),
        seed=0,
        depth_range=(1.0, 9.0),
        grid_rows=1,
        grid_cols=1,
    )
    gt, rel, _ = generate_scene(spec)
    x, y = normalized_coords(*np.ogrid[:480, :640], 480, 640)
    depths = plane.depth(x, y)
    assert gt.values.tobytes() == depths.tobytes()
    assert rel.values.tobytes() == spec.regions[0].distortion.inverse(depths, x, y).tobytes()


def reference_generate_scene(spec):
    """generate_scene as one full-frame label mask per region, on normalized_coords."""
    labels = _layout_labels(spec)
    h, w = labels.shape
    x, y = np.broadcast_arrays(*normalized_coords(*np.ogrid[:h, :w], h, w))
    gt = np.zeros((h, w))
    rel = np.zeros((h, w))
    for i, region in enumerate(spec.regions):
        sel = labels == i
        depths = region.plane.depth(x[sel], y[sel])
        gt[sel] = depths
        rel[sel] = region.distortion.inverse(depths, x[sel], y[sel])
    return gt, rel, labels


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("family", ["affine", "planar", "nonlinear"])
@pytest.mark.parametrize("layout", ["grid", "voronoi"])
def test_generate_scene_matches_per_region_mask_loop(layout, family, curved):
    sizes = [(37, 53), (61, 47), (96, 128)] + [(1, 9), (8, 1)] * (layout == "grid")
    for seed, (h, w) in itertools.product(range(2), sizes):
        spec = random_scene(
            seed, height=h, width=w, region_range=(2, 30) if h * w > 2000 else (1, 4),
            layout=layout, distortion=family,
            curvature_range=(0.1, 0.6) if curved else None, min_region_pixels=1,
        )
        got = generate_scene(spec)
        want = reference_generate_scene(spec)
        for made, expected in zip((got[0].values, got[1].values, got[2].labels), want):
            assert made.tobytes() == expected.tobytes(), (seed, h, w)


def test_grid_cells_without_pixels_stay_empty():
    # three row bands over two rows: the third band's regions own no pixel
    distortion = Distortion("affine", a=2.0)
    regions = tuple(RegionSpec(Plane(0.1 * i, 0.2, 3.0), distortion) for i in range(6))
    spec = SceneSpec(height=2, width=5, layout="grid", regions=regions, seed=0,
                     depth_range=(1.0, 9.0), grid_rows=3, grid_cols=2)
    gt, rel, mask = generate_scene(spec)
    assert sorted(np.unique(mask.labels)) == [0, 1, 2, 3]
    want = reference_generate_scene(spec)
    assert (gt.values.tobytes(), rel.values.tobytes()) == (want[0].tobytes(), want[1].tobytes())


# ---------------------------------------------------------------- sampling


def test_sample_all_valid_pixels():
    gt, _, _ = generate_scene(flat_scene())
    samples = sample_uniform(gt, 24, seed=1)
    assert len(samples) == 24
    assert len(set((r, c) for r, c, _ in samples.points)) == 24


def test_sample_count_and_distinctness():
    gt = DepthGrid(np.random.default_rng(0).uniform(1, 5, (480, 640)))
    samples = sample_uniform(gt, 250, seed=9)
    assert len(samples) == 250


def test_sample_determinism():
    gt, _, _ = generate_scene(flat_scene())
    a = sample_uniform(gt, 10, seed=42)
    b = sample_uniform(gt, 10, seed=42)
    assert a.points == b.points
    c = sample_uniform(gt, 10, seed=43)
    assert a.points != c.points


def test_sample_too_many():
    gt, _, _ = generate_scene(flat_scene())
    with pytest.raises(TooManyRequested):
        sample_uniform(gt, 25, seed=0)


def test_sample_noise_is_seeded_and_positive():
    gt = DepthGrid(np.full((40, 40), 0.01))
    a = sample_uniform(gt, 100, seed=3, noise_sigma=0.05)
    b = sample_uniform(gt, 100, seed=3, noise_sigma=0.05)
    assert np.array_equal(a.depths, b.depths)
    assert a.depths.min() > 0
    assert not np.array_equal(a.depths, gt.values[a.rows, a.cols])


def test_beams_single_middle_row():
    gt = DepthGrid(np.random.default_rng(1).uniform(1, 5, (480, 640)))
    samples = sample_beams(gt, 1)
    assert len(samples) == 640
    assert set(samples.rows.tolist()) == {240}
    assert np.array_equal(samples.depths, gt.values[240, :])


def test_beams_every_row():
    gt = DepthGrid(np.random.default_rng(2).uniform(1, 5, (5, 3)))
    samples = sample_beams(gt, 5)
    assert len(samples) == 15


def test_beams_even_spacing():
    gt = DepthGrid(np.ones((480, 8)))
    samples = sample_beams(gt, 2)
    assert set(samples.rows.tolist()) == {120, 360}


def test_beams_skip_invalid_pixels():
    valid = np.ones((4, 4), dtype=bool)
    valid[2, 1] = False
    gt = DepthGrid(np.ones((4, 4)), valid)
    samples = sample_beams(gt, 4)
    assert len(samples) == 15


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n": 2.5}, "n_samples"),
        ({"n": True}, "n_samples"),
        ({"n": "3"}, "n_samples"),
        ({"n": -1}, "n_samples"),
        ({"beams": 2.0}, "beams"),
        ({"beams": 0}, "beams"),
        ({"seed": "1"}, "seed"),
        ({"seed": 1.7}, "seed"),
        ({"seed": None}, "seed"),
        ({"seed": [1, "2"]}, "seed"),
        ({"seed": -1}, "seed"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"noise_sigma": -1.0}, "noise_sigma"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
        ({"noise_sigma": True}, "noise_sigma"),
    ],
)
def test_sampling_rejects_malformed_inputs(kwargs, field):
    gt = DepthGrid(np.random.default_rng(0).uniform(1, 5, (8, 8)))
    uniform = {"n": 5, "seed": 3, "noise_sigma": 0.1, **kwargs}
    beams = {"beams": 2, "seed": 3, "noise_sigma": 0.1, **kwargs}
    if "beams" not in kwargs:
        with pytest.raises(InputError, match=field):
            sample_uniform(gt, uniform.pop("n"), **uniform)
    if "n" not in kwargs:
        with pytest.raises(InputError, match=field):
            sample_beams(gt, beams.pop("beams"), **beams)


def test_sampling_accepts_numpy_integers():
    gt = DepthGrid(np.random.default_rng(0).uniform(1, 5, (8, 8)))
    plain = sample_uniform(gt, 5, [3, 1], noise_sigma=0.1)
    typed = sample_uniform(gt, np.int64(5), [np.int32(3), np.uint8(1)], noise_sigma=np.float64(0.1))
    assert plain.points == typed.points
    assert sample_beams(gt, np.int16(2)).points == sample_beams(gt, 2).points


def test_scene_samples_uses_per_region_sigma():
    noisy = Distortion("affine", a=1.0, b=0.0, noise_sigma=0.1)
    clean = Distortion("affine", a=1.0, b=0.0, noise_sigma=0.0)
    spec = SceneSpec(
        height=4,
        width=8,
        layout="grid",
        regions=(RegionSpec(Plane(0, 0, 2.0), clean), RegionSpec(Plane(0, 0, 4.0), noisy)),
        seed=0,
        depth_range=(0.5, 9.0),
        grid_rows=1,
        grid_cols=2,
    )
    gt, _, mask = generate_scene(spec)
    samples = scene_samples(spec, gt, mask, 32, seed=5)
    in_clean = mask.labels[samples.rows, samples.cols] == 0
    assert np.array_equal(samples.depths[in_clean], gt.values[samples.rows, samples.cols][in_clean])
    assert not np.array_equal(
        samples.depths[~in_clean], gt.values[samples.rows, samples.cols][~in_clean]
    )


# ------------------------------------------------------------------- specs


def test_scene_spec_json_round_trip():
    spec = random_scene(7, height=30, width=40, region_range=(3, 6), min_region_pixels=5)
    again = scene_from_json(scene_to_json(spec))
    assert again == spec


@pytest.mark.parametrize(
    "field,value",
    [("seed", 2.7), ("seed", "2"), ("seed", True), ("seed", -1), ("height", 20.0),
     ("width", "30"), ("grid_rows", 1.5), ("grid_cols", None), ("sites", 3.0)],
)
def test_scene_spec_json_rejects_non_integer_counts(field, value):
    spec = random_scene(2, height=20, width=30, region_range=(3, 3), min_region_pixels=5)
    doc = json.loads(scene_to_json(spec))
    doc[field] = value
    with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
        scene_from_json(json.dumps(doc))


@pytest.mark.parametrize("value", ["1", None, True, float("nan"), float("inf"), [1.0]])
@pytest.mark.parametrize("part,field", [("plane", "m"), ("plane", "qy"), ("distortion", "a"),
                                        ("distortion", "noise_sigma")])
def test_scene_spec_json_rejects_non_finite_numbers(part, field, value):
    spec = random_scene(2, height=20, width=30, region_range=(3, 3), min_region_pixels=5)
    doc = json.loads(scene_to_json(spec))
    doc["regions"][2][part][field] = value
    with pytest.raises(InvalidSpec, match=re.escape(f"regions[2].{part}.{field} must be a finite")):
        scene_from_json(json.dumps(doc))


def test_scene_spec_json_fields_by_dataclass():
    spec = random_scene(3, height=20, width=30, region_range=(4, 4), layout="grid",
                        min_region_pixels=5)
    doc = json.loads(scene_to_json(spec))
    # format_version is ignored, and fields with defaults may be left out
    del doc["format_version"], doc["sites"], doc["regions"][0]["plane"]["qx"]
    assert scene_from_json(json.dumps(doc)) == spec
    for where in (doc, doc["regions"][1]["distortion"]):
        where["colour"] = 1
        with pytest.raises(InvalidSpec, match="unknown fields"):
            scene_from_json(json.dumps(doc))
        del where["colour"]
    for required in ("depth_range", "layout", "height"):
        with pytest.raises(InvalidSpec, match=required):
            scene_from_json(json.dumps({k: v for k, v in doc.items() if k != required}))
    for bad in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(InvalidSpec, match="missing or mistypes"):
            scene_from_json(json.dumps({**doc, "depth_range": bad}))
    doc["regions"][0]["plane"]["l"] = 10**400  # an int no float holds
    with pytest.raises(InvalidSpec, match="too large"):
        scene_from_json(json.dumps(doc))
    doc["regions"][0]["plane"] = [1.0, 2.0, 3.0]
    with pytest.raises(InvalidSpec, match=re.escape("regions[0].plane must be an object")):
        scene_from_json(json.dumps(doc))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.5, "0.1", None, True])
def test_distortion_noise_sigma_must_be_finite_and_non_negative(sigma):
    with pytest.raises(InvalidSpec, match="noise_sigma"):
        Distortion("affine", noise_sigma=sigma)
    with pytest.raises(InvalidSpec, match="noise_sigma"):
        random_scene(0, height=10, width=10, region_range=(2, 2), noise_sigma=sigma)


def reference_scene_to_json(spec: SceneSpec) -> str:
    """The field-by-field writer scene_to_json replaced."""
    doc = {
        "format_version": 1,
        "height": spec.height,
        "width": spec.width,
        "layout": spec.layout,
        "grid_rows": spec.grid_rows,
        "grid_cols": spec.grid_cols,
        "sites": spec.sites,
        "seed": spec.seed,
        "depth_range": list(spec.depth_range),
        "regions": [
            {"plane": dataclasses.asdict(r.plane), "distortion": dataclasses.asdict(r.distortion)}
            for r in spec.regions
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("layout", ["grid", "voronoi"])
@pytest.mark.parametrize("distortion", ["affine", "planar", "nonlinear"])
def test_scene_to_json_matches_field_by_field_writer(layout, distortion):
    for seed in range(4):
        spec = random_scene(
            seed, height=24, width=32, region_range=(2, 6), layout=layout, distortion=distortion,
            curvature_range=(0.1, 0.4) if seed % 2 else None, noise_sigma=0.01 * (seed // 2),
            min_region_pixels=5,
        )
        assert scene_to_json(spec) == reference_scene_to_json(spec)


def test_voronoi_regions_all_present():
    spec = random_scene(21, height=60, width=80, region_range=(8, 12), min_region_pixels=25)
    _, _, mask = generate_scene(spec)
    counts = np.bincount(mask.labels.ravel(), minlength=spec.n_regions)
    assert counts.min() >= 25
    assert counts.size == spec.n_regions


@pytest.mark.parametrize(
    "size, region_range, min_pixels",
    [((30, 40), (20, 40), 3), ((24, 24), (8, 30), 0), ((60, 80), (12, 12), 30)],
)
def test_voronoi_redraws_match_per_site_check(size, region_range, min_pixels):
    # The layout each seed settles on, against the check it replaced: one
    # ndimage.label per site, every cell exactly one 4-connected piece.
    redrawn = 0
    for seed in range(10):
        spec = random_scene(
            seed, height=size[0], width=size[1], region_range=region_range,
            min_region_pixels=min_pixels,
        )
        for attempt in range(64):
            candidate = dataclasses.replace(spec, seed=seed + 100003 * attempt)
            labels = generate_scene(candidate)[2].labels
            owned = np.bincount(labels.ravel(), minlength=spec.n_regions)
            if owned.min() >= min_pixels and all(
                ndimage.label(labels == i)[1] == 1 for i in range(spec.n_regions)
            ):
                break
        assert spec.seed == candidate.seed
        redrawn += attempt > 0
    assert redrawn > 0


def test_grid_layout_row_major_labels():
    spec = SceneSpec(
        height=4,
        width=4,
        layout="grid",
        regions=tuple(
            RegionSpec(Plane(0, 0, 2.0 + i), Distortion("affine")) for i in range(4)
        ),
        seed=0,
        depth_range=(0.5, 9.0),
        grid_rows=2,
        grid_cols=2,
    )
    _, _, mask = generate_scene(spec)
    assert np.array_equal(
        mask.labels, [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]]
    )


def reference_voronoi_labels(site_r, site_c, h, w):
    """One full-frame distance map per site; a strict < keeps ties on the lower index."""
    rr = np.arange(h, dtype=np.float64)[:, None]
    cc = np.arange(w, dtype=np.float64)[None, :]
    best = np.full((h, w), np.inf)
    labels = np.zeros((h, w), dtype=np.int32)
    for i in range(len(site_r)):
        d2 = (rr - site_r[i]) ** 2 + (cc - site_c[i]) ** 2
        closer = d2 < best
        labels[closer] = i
        best = np.where(closer, d2, best)
    return labels


def test_voronoi_labels_match_per_site_loop_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(300):
        h, w = rng.integers(1, 16, size=2)
        sites = int(rng.integers(1, 12))
        # half-integer sites put pixels at equal distance from two sites,
        # and repeated sites tie everywhere
        site_r = rng.integers(0, 2 * h, sites) / 2.0
        site_c = rng.integers(0, 2 * w, sites) / 2.0
        if sites > 1:
            site_r[-1], site_c[-1] = site_r[0], site_c[0]
        labels = _voronoi_labels(site_r, site_c, h, w)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, reference_voronoi_labels(site_r, site_c, h, w))
    # the sites _layout_labels draws for real specs
    for seed, size in ((0, (48, 64)), (3, (31, 17))):
        spec = random_scene(seed, height=size[0], width=size[1], region_range=(5, 30),
                            min_region_pixels=0)
        site_rng = _rng(spec.seed, _TAG_LAYOUT)
        site_r = site_rng.uniform(0, size[0], spec.sites)
        site_c = site_rng.uniform(0, size[1], spec.sites)
        expected = reference_voronoi_labels(site_r, site_c, *size)
        assert np.array_equal(_layout_labels(spec), expected)
