"""The benchmark workloads: seeded inputs, one frame, and its checks.

A workload builds a list of scenes from the run's seed (`build`), runs
one frame on a scene (`frame`, the timed call), turns what the frame
returned into comparable output (`output`, untimed) and checks that
output against computations made apart from depthscale (`check`).
Scene k of seed s depends only on (workload, s, k).

Library functions are looked up as module attributes at call time
(`pipeline.rescale`, `cli.main`), so the tracer's wrappers are seen
without changing any library file.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import itertools
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from depthscale import cli, grids, io, pipeline, synth

import checks

CLAMP = (0.001, 10.0)


def scene_seed(seed: int, workload_tag: int, *keys: int) -> int:
    """An int seed for one scene, independent across workloads and scenes."""
    return int(np.random.SeedSequence([seed, workload_tag, *keys]).generate_state(1)[0])


@dataclass
class GridOutput:
    """A rescaled grid and its region reports, as returned by the library."""

    values: np.ndarray
    valid: np.ndarray
    reports: list[dict]

    def same(self, other: "GridOutput") -> bool:
        return (
            self.values.tobytes() == other.values.tobytes()
            and self.valid.tobytes() == other.valid.tobytes()
            and self.reports == other.reports
        )


def _grid_output(result) -> GridOutput:
    grid, reports = result
    return GridOutput(grid.values, grid.valid, [r.as_dict() for r in reports])


class Fragmented:
    """Criterion-9-style fuzzed masks: small grids with 2-6 labels scattered
    per pixel, single-pixel regions, ~5% invalid pixels, 2-12 samples,
    methods cycling slf/ssf/median.

    Every seed gets the same make-up: one frame per (height, width, label
    count) in a full factorial, with the method, the sample count and the
    single-pixel regions fixed by the frame's index. Seeds change where
    labels, invalid pixels and samples fall, but not the mix of sizes and
    sample counts that sets how far regions must expand, which dominates
    the cost.
    """

    name = "fragmented"
    tag = 2
    SIDES = (4, 10, 16, 22, 28)
    LABELS = (2, 3, 4, 5, 6)
    METHODS = ("slf", "ssf", "median")

    def __init__(self, smoke: bool = False):
        combos = list(itertools.product(self.SIDES, self.SIDES, self.LABELS))
        self.combos = combos[::20] if smoke else combos
        self.n_scenes = len(self.combos)

    def build(self, seed: int, k: int, workdir: Path) -> dict:
        h, w, n_labels = self.combos[k]
        rng = np.random.default_rng(scene_seed(seed, self.tag, k))
        labels = rng.integers(0, n_labels, size=(h, w))
        if k % 5 == 0:  # single-pixel regions
            for _ in range(3):
                labels[rng.integers(0, h), rng.integers(0, w)] = 99
        valid = rng.random((h, w)) > 0.05
        values = rng.uniform(0.5, 5.0, (h, w))
        flat_valid = np.flatnonzero(valid.ravel())
        n = min(2 + k % 11, flat_valid.size)
        picked = rng.choice(flat_valid, size=n, replace=False)
        return {
            "depth": grids.DepthGrid(values, valid),
            "mask": grids.LabelGrid(labels),
            "samples": grids.SparseSamples(picked // w, picked % w, rng.uniform(0.5, 8.0, n)),
            "method": self.METHODS[k % 3],
        }

    def frame(self, scene: dict):
        cfg = pipeline.PipelineConfig(method=scene["method"], clamp=CLAMP)
        return pipeline.rescale(scene["depth"], scene["mask"], scene["samples"], cfg)

    def output(self, scene: dict, result) -> GridOutput:
        return _grid_output(result)

    def check(self, scene: dict, out: GridOutput) -> None:
        depth, samples = scene["depth"], scene["samples"]
        inp = {
            "labels": scene["mask"].labels,
            "values": depth.values,
            "valid": depth.valid,
            "rows": samples.rows,
            "cols": samples.cols,
            "method": scene["method"],
            "clamp": CLAMP,
        }
        checks.check_fragmented(inp, out.values, out.valid, out.reports)

    def alloc_scenes(self, scenes: list) -> list:
        """The frames on the largest grid, whose peaks bound the others'."""
        biggest = max(h * w for h, w, _ in self.combos)
        return [s for s, (h, w, _) in zip(scenes, self.combos) if h * w == biggest]


@dataclass
class FileOutput:
    """What one CLI frame leaves behind: exit codes, files and printed text."""

    codes: tuple[int, int]
    depth: bytes
    report: bytes
    printed: str

    def same(self, other: "FileOutput") -> bool:
        return self == other


def read_dpg(data: bytes) -> np.ndarray:
    """Decode a DPG1 grid: magic, u32 height, u32 width, little-endian f64."""
    checks.require(data[:4] == b"DPG1", "output is not a DPG1 grid")
    height, width = struct.unpack("<II", data[4:12])
    checks.require(len(data) == 12 + 8 * height * width, "truncated DPG1 grid")
    return np.frombuffer(data, dtype="<f8", offset=12).reshape(height, width)


def parse_printed(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("abs_rel", "rmse", "d1"):
            out[parts[0]] = float(parts[1])
    return out


class LidarFiles:
    """The README's file flow through `cli.main`: rescale a PFM inverse-depth
    map with a 16-bit PGM mask and a 16-scanline samples CSV, then evaluate
    against a DPG ground truth."""

    name = "lidar-files"
    tag = 3
    invalid_tag = 4
    INVALID_SHARE = 0.01

    def __init__(self, smoke: bool = False):
        self.height, self.width, self.regions, self.beams = (
            (96, 128, 6, 12) if smoke else (480, 640, 20, 16)
        )
        self.n_scenes = 1 if smoke else 3

    def _scene(self, seed: int, k: int):
        """First draw whose every region is crossed by at least two beams,
        so every region can fit a surface from its own samples."""
        beam_rows = (2 * np.arange(self.beams) + 1) * self.height // (2 * self.beams)
        for attempt in itertools.count():
            spec = synth.random_scene(
                scene_seed(seed, self.tag, k, attempt),
                height=self.height,
                width=self.width,
                region_range=(self.regions, self.regions),
                distortion="planar",
                shift_range=(-6.0, -1.5),
                curvature_range=(0.2, 1.0),
                min_region_pixels=self.height * self.width // (4 * self.regions),
            )
            gt, rel, mask = synth.generate_scene(spec)
            labels = mask.labels[beam_rows]
            crossed = [np.any(labels == i, axis=1).sum() for i in range(spec.n_regions)]
            if min(crossed) >= 2:
                return gt, rel, mask

    def build(self, seed: int, k: int, workdir: Path) -> dict:
        gt, rel, mask = self._scene(seed, k)
        rng = np.random.default_rng(scene_seed(seed, self.invalid_tag, k))
        valid = rng.random(gt.shape) >= self.INVALID_SHARE
        disparity = np.where(valid, 1.0 / rel.values, 0.0)
        samples = synth.sample_beams(gt, self.beams)
        d = workdir / f"{self.name}-{k}"
        d.mkdir(parents=True, exist_ok=True)
        paths = {name: str(d / name) for name in ("depth.pfm", "mask.pgm", "samples.csv", "gt.dpg")}
        io.save_depth(grids.DepthGrid(disparity, valid), paths["depth.pfm"])
        io.save_mask(mask, paths["mask.pgm"])
        io.save_samples(samples, paths["samples.csv"])
        io.save_depth(gt, paths["gt.dpg"])
        out = str(d / "metric.dpg")
        return {
            "rescale": ["rescale", "--depth", paths["depth.pfm"], "--mask", paths["mask.pgm"],
                        "--samples", paths["samples.csv"], "--method", "ssf", "--out", out],
            "evaluate": ["evaluate", "--pred", out, "--gt", paths["gt.dpg"]],
            "out": out,
            "report": out + ".regions.json",
            # What the method sees: the float32 disparity, inverted.
            "rel": 1.0 / np.maximum(disparity.astype(np.float32).astype(np.float64), 1e-6),
            "valid": valid,
            "labels": mask.labels,
            "gt": gt.values,
            "samples": samples,
        }

    def frame(self, scene: dict):
        printed = _stdio.StringIO()
        with contextlib.redirect_stdout(printed):
            codes = (cli.main(scene["rescale"]), cli.main(scene["evaluate"]))
        return codes, printed.getvalue()

    def output(self, scene: dict, result) -> FileOutput:
        codes, printed = result
        return FileOutput(
            codes,
            Path(scene["out"]).read_bytes(),
            Path(scene["report"]).read_bytes(),
            printed,
        )

    def check(self, scene: dict, out: FileOutput) -> None:
        checks.require(out.codes == (0, 0), f"CLI exit codes {out.codes}")
        pred = read_dpg(out.depth)
        pred_valid = pred != 0.0
        checks.check_validity(pred, pred_valid, scene["valid"], CLAMP)
        reports = json.loads(out.report)
        comp = checks.partition(scene["labels"])
        checks.check_report_order(reports, int(comp.max()) + 1)
        samples = scene["samples"]
        checks.check_own_minimum(
            reports, checks.own_sample_counts(comp, scene["valid"], samples.rows, samples.cols)
        )
        inp = {
            "rel": scene["rel"],
            "valid": scene["valid"],
            "gt": scene["gt"],
            "rows": samples.rows,
            "cols": samples.cols,
            "depths": samples.depths,
        }
        checks.check_planar_recovery(inp, comp, reports, pred, checks.FLOAT32_TOL_M)
        gt = scene["gt"]
        checks.check_printed_metrics(
            parse_printed(out.printed), checks.depth_metrics(pred, pred_valid, gt, gt != 0.0)
        )

    def alloc_scenes(self, scenes: list) -> list:
        return scenes


WORKLOADS = {w.name: w for w in (Fragmented, LidarFiles)}
