"""Synthetic piecewise-planar scenes with known per-region distortions.

A scene is a ground-truth depth map assembled from per-region surfaces,
plus a relative map produced by applying each region's *inverse*
distortion to the ground truth. A correct fitter must therefore map the
relative map back onto the ground truth to numerical precision, which
makes these scenes the exact-recovery oracle for the pipeline.

Surfaces are planes in the normalized [-1, 1] image coordinates, with
optional quadratic terms that bend them; bent surfaces make the
relative map nonlinear in (x, y), which is what separates a surface
fit from a plain scale-and-shift fit under slope-bearing distortions.
Each pixel's (x, y) is `fitting.normalized_coords` of its row and
column, the same numbers the fitter pairs with a sample there, so a
scene's ground truth is its surface evaluated exactly where a fit
reads it. A scene is built region by region on the pixels one stable
sort of the labels lists, so its cost grows with pixels plus regions.

All randomness is derived from a single seed, split deterministically
per purpose, so identical specs yield identical scenes and samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import InputError, InvalidSpec, TooManyRequested, is_finite_real, is_int_at_least
from .fitting import normalized_coords
from .grids import DepthGrid, LabelGrid, SparseSamples
from .regions import split_into_components

LAYOUT_GRID = "grid"
LAYOUT_VORONOI = "voronoi"

DISTORT_AFFINE = "affine"
DISTORT_PLANAR = "planar"
DISTORT_NONLINEAR = "nonlinear"
DISTORTION_KINDS = (DISTORT_AFFINE, DISTORT_PLANAR, DISTORT_NONLINEAR)

# Sub-seed tags so the coordinate draw, the measurement noise, and the
# scene layout never share a random stream.
_TAG_COORDS = 1
_TAG_NOISE = 2
_TAG_LAYOUT = 3

# Noisy sample depths are floored here to keep them strictly positive.
MIN_SAMPLE_DEPTH = 1e-6


def _rng(seed, tag: int) -> np.random.Generator:
    key = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    if not all(is_int_at_least(k, 0) for k in key):
        raise InputError(f"seed must be an integer >= 0 or a sequence of them, got {seed!r}")
    return np.random.default_rng([tag] + [int(k) for k in key])


def _add_noise(depths: np.ndarray, noise_sigma, seed) -> np.ndarray:
    """`depths` plus seeded Gaussian noise of `noise_sigma` meters, kept positive."""
    if not is_finite_real(noise_sigma, 0):
        raise InputError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    if noise_sigma == 0:
        return depths
    noise = _rng(seed, _TAG_NOISE).normal(0.0, noise_sigma, size=depths.size)
    return np.maximum(depths + noise, MIN_SAMPLE_DEPTH)


@dataclass(frozen=True)
class Plane:
    """Depth surface over normalized coordinates.

    depth(x, y) = m*x + n*y + l + qx*x^2 + qy*y^2. The quadratic terms
    default to zero (a true plane); nonzero values bend the surface,
    which is used to exercise model misspecification.
    """

    m: float
    n: float
    l: float
    qx: float = 0.0
    qy: float = 0.0

    def depth(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.m * x + self.n * y + self.l + self.qx * x * x + self.qy * y * y


@dataclass(frozen=True)
class Distortion:
    """Invertible map from ground truth to relative depth for one region.

    affine:    rel = (gt - b) / a
    planar:    rel = (gt - bx*x - by*y - c) / a
    nonlinear: rel = gt ** gamma

    `a` must be positive so relative ordering survives; `noise_sigma`
    is Gaussian noise applied to sparse sample depths only, never to
    the dense relative map.
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    bx: float = 0.0
    by: float = 0.0
    c: float = 0.0
    gamma: float = 1.2
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTORTION_KINDS:
            raise InvalidSpec(f"unknown distortion kind {self.kind!r}")
        if self.kind in (DISTORT_AFFINE, DISTORT_PLANAR) and self.a <= 0:
            raise InvalidSpec("distortion scale a must be positive")
        if self.kind == DISTORT_NONLINEAR and self.gamma <= 0:
            raise InvalidSpec("nonlinear exponent gamma must be positive")
        if not is_finite_real(self.noise_sigma, 0):
            raise InvalidSpec(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")

    def inverse(self, gt: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ground truth -> relative depth."""
        if self.kind == DISTORT_AFFINE:
            return (gt - self.b) / self.a
        if self.kind == DISTORT_PLANAR:
            return (gt - self.bx * x - self.by * y - self.c) / self.a
        return gt**self.gamma

    def forward(self, rel: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Relative depth -> ground truth (the map a fitter must find)."""
        if self.kind == DISTORT_AFFINE:
            return self.a * rel + self.b
        if self.kind == DISTORT_PLANAR:
            return self.a * rel + self.bx * x + self.by * y + self.c
        return rel ** (1.0 / self.gamma)


@dataclass(frozen=True)
class RegionSpec:
    plane: Plane
    distortion: Distortion


@dataclass(frozen=True)
class SceneSpec:
    """Complete description of one synthetic scene.

    Grid layout tiles the image into grid_rows x grid_cols cells;
    voronoi layout labels pixels by their nearest of `sites` seeded
    random sites (ties go to the lower site index). `regions[i]`
    describes the region labeled i in the emitted mask.
    """

    height: int
    width: int
    layout: str
    regions: tuple[RegionSpec, ...]
    seed: int
    depth_range: tuple[float, float] = (0.001, 10.0)
    grid_rows: int = 0
    grid_cols: int = 0
    sites: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise InvalidSpec("scene dimensions must be positive")
        lo, hi = self.depth_range
        if not (0.0 < lo < hi < math.inf):
            raise InvalidSpec(f"depth range needs 0 < min < max < inf, got {self.depth_range}")
        if self.layout == LAYOUT_GRID:
            expected = self.grid_rows * self.grid_cols
            if self.grid_rows < 1 or self.grid_cols < 1:
                raise InvalidSpec("grid layout needs grid_rows and grid_cols >= 1")
        elif self.layout == LAYOUT_VORONOI:
            expected = self.sites
            if self.sites < 1:
                raise InvalidSpec("voronoi layout needs sites >= 1")
        else:
            raise InvalidSpec(f"unknown layout {self.layout!r}")
        if len(self.regions) != expected:
            raise InvalidSpec(
                f"layout defines {expected} regions but {len(self.regions)} were specified"
            )

    @property
    def n_regions(self) -> int:
        return len(self.regions)


def _layout_labels(spec: SceneSpec) -> np.ndarray:
    h, w = spec.height, spec.width
    if spec.layout == LAYOUT_GRID:
        row_band = np.minimum(np.arange(h) * spec.grid_rows // h, spec.grid_rows - 1)
        col_band = np.minimum(np.arange(w) * spec.grid_cols // w, spec.grid_cols - 1)
        return (row_band[:, None] * spec.grid_cols + col_band[None, :]).astype(np.int32)
    rng = _rng(spec.seed, _TAG_LAYOUT)
    site_r = rng.uniform(0, h, spec.sites)
    site_c = rng.uniform(0, w, spec.sites)
    return _voronoi_labels(site_r, site_c, h, w)


def _voronoi_labels(site_r: np.ndarray, site_c: np.ndarray, h: int, w: int) -> np.ndarray:
    """Each pixel's nearest site by squared distance; argmin gives ties to the lower index."""
    d2_row = (np.arange(h, dtype=np.float64)[:, None] - site_r) ** 2
    d2_col = (np.arange(w, dtype=np.float64)[:, None] - site_c) ** 2
    labels = np.empty((h, w), dtype=np.int32)
    for r in range(h):
        labels[r] = np.argmin(d2_row[r] + d2_col, axis=1)
    return labels


def generate_scene(spec: SceneSpec) -> tuple[DepthGrid, DepthGrid, LabelGrid]:
    """Materialize (ground truth, relative map, region mask) from a spec.

    Deterministic in the spec's seed. Raises InvalidSpec if any region's
    surface leaves the declared depth range.
    """
    labels = _layout_labels(spec)
    h, w = spec.height, spec.width
    # One stable sort lists each region's pixels, row-major, as one slice.
    order = np.argsort(labels, axis=None, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(labels.ravel(), minlength=spec.n_regions))]
    x, y = normalized_coords(*np.divmod(order, w), h, w)
    gt, rel = np.zeros((2, h * w))
    lo, hi = spec.depth_range
    tol = 1e-9 * max(1.0, hi)
    for i, region in enumerate(spec.regions):
        part = slice(bounds[i], bounds[i + 1])
        if part.start == part.stop:
            continue
        depths = region.plane.depth(x[part], y[part])
        if depths.min() < lo - tol or depths.max() > hi + tol:
            raise InvalidSpec(
                f"region {i} surface leaves depth range [{lo}, {hi}]: "
                f"[{depths.min():.4f}, {depths.max():.4f}]"
            )
        gt[order[part]] = depths
        rel[order[part]] = region.distortion.inverse(depths, x[part], y[part])
    gt, rel = (DepthGrid.adopt(values.reshape(h, w)) for values in (gt, rel))
    return gt, rel, LabelGrid.adopt(labels)


def sample_uniform(
    gt: DepthGrid, n: int, seed, noise_sigma: float = 0.0
) -> SparseSamples:
    """Draw n distinct valid pixels uniformly without replacement.

    Depths are the ground-truth values, with optional Gaussian noise
    (floored at a tiny positive value to keep depths legal). The seed
    may be an int or a sequence of ints; identical seeds reproduce the
    identical sample set.
    """
    if not is_int_at_least(n, 0):
        raise InputError(f"n_samples must be an integer >= 0, got {n!r}")
    flat_valid = np.flatnonzero(gt.valid.ravel())
    if n > flat_valid.size:
        raise TooManyRequested(f"requested {n} samples but only {flat_valid.size} valid pixels")
    picked = _rng(seed, _TAG_COORDS).choice(flat_valid, size=n, replace=False)
    rows = picked // gt.width
    cols = picked % gt.width
    return SparseSamples(rows, cols, _add_noise(gt.values[rows, cols], noise_sigma, seed))


def sample_beams(
    gt: DepthGrid, beams: int, seed=0, noise_sigma: float = 0.0
) -> SparseSamples:
    """Sample full scanlines at evenly spaced heights, one per beam.

    Beam k reads every valid pixel of row floor((k + 0.5) * H / beams),
    emulating a low-beam-count range sensor swept across the image.
    With beams == height every valid pixel is sampled.
    """
    height = gt.height
    if not is_int_at_least(beams, 1):
        raise InputError(f"beams must be an integer >= 1, got {beams!r}")
    if beams > height:
        raise TooManyRequested(f"{beams} beams exceed {height} image rows")
    beam_rows = (2 * np.arange(beams, dtype=np.int64) + 1) * height // (2 * beams)
    row_sel = np.zeros(height, dtype=bool)
    row_sel[beam_rows] = True
    keep = gt.valid & row_sel[:, None]
    rows, cols = np.nonzero(keep)
    return SparseSamples(rows, cols, _add_noise(gt.values[rows, cols], noise_sigma, seed))


def scene_samples(
    spec: SceneSpec, gt: DepthGrid, mask: LabelGrid, n: int, seed
) -> SparseSamples:
    """Uniform sampling that honors each region's own noise_sigma."""
    clean = sample_uniform(gt, n, seed, noise_sigma=0.0)
    sigmas = np.array(
        [spec.regions[i].distortion.noise_sigma for i in range(spec.n_regions)]
    )
    per_sample = sigmas[mask.labels[clean.rows, clean.cols]]
    if (per_sample > 0).any():
        noise = _rng(seed, _TAG_NOISE).normal(0.0, 1.0, size=len(clean)) * per_sample
        depths = np.maximum(clean.depths + noise, MIN_SAMPLE_DEPTH)
        return SparseSamples(clean.rows, clean.cols, depths)
    return clean


def random_scene(
    seed: int,
    height: int = 480,
    width: int = 640,
    region_range: tuple[int, int] = (6, 20),
    layout: str = LAYOUT_VORONOI,
    distortion: str = DISTORT_AFFINE,
    scale_range: tuple[float, float] = (0.5, 3.0),
    shift_range: tuple[float, float] = (-15.0, 7.0),
    slope_range: tuple[float, float] = (0.3, 1.2),
    curvature_range: tuple[float, float] | None = None,
    noise_sigma: float = 0.0,
    depth_range: tuple[float, float] = (1.0, 9.0),
    min_region_pixels: int = 25,
) -> SceneSpec:
    """Draw a heterogeneous scene spec with per-region random distortions.

    Surfaces are guaranteed to stay inside `depth_range` on the whole
    image. Voronoi layouts are redrawn (with a shifted sub-seed) until
    every site owns at least `min_region_pixels` pixels, so the region
    count is exact.
    """
    rng = _rng(seed, _TAG_LAYOUT)
    count = int(rng.integers(region_range[0], region_range[1] + 1))
    lo, hi = depth_range
    span = hi - lo

    def draw_plane() -> Plane:
        # Keep |m|+|n|+|qx|+|qy| under ~35% of the span, then center the
        # offset so the surface cannot leave the range anywhere.
        budget = 0.35 * span
        m = rng.uniform(*slope_range) * rng.choice([-1.0, 1.0])
        n = rng.uniform(*slope_range) * rng.choice([-1.0, 1.0])
        qx = qy = 0.0
        if curvature_range is not None:
            qx = rng.uniform(*curvature_range) * rng.choice([-1.0, 1.0])
            qy = rng.uniform(*curvature_range) * rng.choice([-1.0, 1.0])
        total = abs(m) + abs(n) + abs(qx) + abs(qy)
        if total > budget:
            factor = budget / total
            m, n, qx, qy = m * factor, n * factor, qx * factor, qy * factor
            total = budget
        l = rng.uniform(lo + 1.05 * total, hi - 1.05 * total)
        return Plane(m=m, n=n, l=l, qx=qx, qy=qy)

    def draw_distortion() -> Distortion:
        if distortion == DISTORT_AFFINE:
            return Distortion(
                kind=DISTORT_AFFINE,
                a=rng.uniform(*scale_range),
                b=rng.uniform(*shift_range),
                noise_sigma=noise_sigma,
            )
        if distortion == DISTORT_PLANAR:
            return Distortion(
                kind=DISTORT_PLANAR,
                a=rng.uniform(*scale_range),
                bx=rng.uniform(-1.0, 1.0),
                by=rng.uniform(-1.0, 1.0),
                c=rng.uniform(*shift_range),
                noise_sigma=noise_sigma,
            )
        if distortion == DISTORT_NONLINEAR:
            return Distortion(
                kind=DISTORT_NONLINEAR, gamma=rng.uniform(1.05, 1.4), noise_sigma=noise_sigma
            )
        raise InputError(f"unknown distortion family {distortion!r}")

    # Planes are drawn before any distortion so that two calls with the
    # same seed but different distortion families share their geometry.
    planes = tuple(draw_plane() for _ in range(count))
    regions = tuple(RegionSpec(plane, draw_distortion()) for plane in planes)

    if layout == LAYOUT_GRID:
        rows = max(1, int(np.sqrt(count)))
        while count % rows:
            rows -= 1
        spec = SceneSpec(
            height=height,
            width=width,
            layout=LAYOUT_GRID,
            regions=regions,
            seed=seed,
            depth_range=depth_range,
            grid_rows=rows,
            grid_cols=count // rows,
        )
        return spec
    if layout != LAYOUT_VORONOI:
        raise InputError(f"unknown layout {layout!r}")
    # Redraw sites until every region is usable: big enough, and in one
    # piece (digitized voronoi cells can fray into disconnected slivers,
    # which would silently change the effective region count).
    for attempt in range(64):
        spec = SceneSpec(
            height=height,
            width=width,
            layout=LAYOUT_VORONOI,
            regions=regions,
            seed=seed + 100003 * attempt,
            depth_range=depth_range,
            sites=count,
        )
        labels = _layout_labels(spec)
        owned = np.bincount(labels.ravel(), minlength=count)
        if owned.min() < max(min_region_pixels, 1):
            continue
        # every site owns pixels, so `count` components means one piece each
        if split_into_components(LabelGrid(labels), 4).labels.max() + 1 == count:
            return spec
    raise InvalidSpec(
        f"could not place {count} connected voronoi cells with >= {min_region_pixels} pixels each"
    )


def scene_to_json(spec: SceneSpec) -> str:
    return json.dumps({"format_version": 1, **asdict(spec)}, indent=2, sort_keys=True) + "\n"


def _from_fields(cls, doc, prefix: str, **given):
    """`cls` built from the JSON object `doc`, read by the dataclass's fields.

    Fields in `given` are taken from it, the others from `doc`, where a
    field with a default may be left out. An int field must be an integer
    >= 0, a float field a finite real, and every key must name a field;
    otherwise InvalidSpec names the field, after `prefix`.
    """
    if not isinstance(doc, dict):
        raise InvalidSpec(f"scene spec field {prefix.rstrip('.')} must be an object")
    unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise InvalidSpec(f"scene spec has unknown fields {[prefix + key for key in unknown]}")
    values = dict(given)
    for f in (f for f in fields(cls) if f.name not in given):
        value = doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
        name = prefix + f.name
        if f.type == "int" and not is_int_at_least(value, 0):
            raise InvalidSpec(f"scene spec field {name} must be an integer >= 0, got {value!r}")
        finite = type(value) is not bool and isinstance(value, Real) and math.isfinite(value)
        if f.type == "float" and not finite:
            raise InvalidSpec(f"scene spec field {name} must be a finite number, got {value!r}")
        values[f.name] = value
    return cls(**values)


def scene_from_json(text: str) -> SceneSpec:
    """Parse a spec written by `scene_to_json`, ignoring its format_version.

    Counts and the seed must be integers >= 0 and the surface and
    distortion numbers finite; a wrong or unknown field raises InvalidSpec.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidSpec(f"scene spec is not valid JSON: {err}") from err
    try:
        regions = tuple(
            RegionSpec(
                _from_fields(Plane, r["plane"], f"regions[{i}].plane."),
                _from_fields(Distortion, r["distortion"], f"regions[{i}].distortion."),
            )
            for i, r in enumerate(doc["regions"])
        )
        doc = {key: value for key, value in doc.items() if key != "format_version"}
        return _from_fields(
            SceneSpec, doc, "", regions=regions, depth_range=tuple(doc["depth_range"])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise InvalidSpec(f"scene spec is missing or mistypes a field: {err}") from err


def save_scene_spec(spec: SceneSpec, path) -> None:
    Path(path).write_text(scene_to_json(spec))


def load_scene_spec(path) -> SceneSpec:
    try:
        text = Path(path).read_text()
    except FileNotFoundError as err:
        raise InputError(f"no such file: {path}") from err
    return scene_from_json(text)
