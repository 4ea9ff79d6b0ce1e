#!/usr/bin/env python3
"""Per-stage tracemalloc table for one lidar-files-style CLI frame.

Builds inputs like those of the benchmark's lidar-files workload for one
scene (a float32 PFM inverse-depth map with 1% invalid pixels, a 16-bit
PGM mask of Voronoi regions, a scanline samples CSV and a DPG ground
truth; the scene draws use their own seeding), then runs
`depthscale rescale --method ssf` and `depthscale evaluate` in process
under tracemalloc, as the benchmark's `peak_alloc_mb` does. Each stage
function is wrapped where its caller looks it up, and prints one row:
the memory live when it is entered and the peak while it runs, both
counted from the start of the frame. The last row is the frame peak.

Example:
    python scripts/peak_by_stage.py --seed 0
    python scripts/peak_by_stage.py --height 96 --width 128 --regions 6 --beams 12
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io as _stdio
import itertools
import sys
import tempfile
import tracemalloc
from pathlib import Path

try:
    import depthscale  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from depthscale import cli, grids, io, synth

# Stage name -> (module, attribute) where its caller looks it up. None of
# these calls another, so each row's peak is its own.
STAGES = {
    "io.load_depth": ("depthscale.io", "load_depth"),
    "io.load_mask": ("depthscale.io", "load_mask"),
    "io.load_samples": ("depthscale.io", "load_samples"),
    "invert_depth": ("depthscale.cli", "invert_depth"),
    "affine_invariant_normalize": ("depthscale.pipeline", "affine_invariant_normalize"),
    "split_into_components": ("depthscale.pipeline", "split_into_components"),
    "pair_observations": ("depthscale.pipeline", "pair_observations"),
    "build_region_graph": ("depthscale.pipeline", "build_region_graph"),
    "fit_regions": ("depthscale.pipeline", "fit_regions"),
    "apply_fit": ("depthscale.pipeline", "apply_fit"),
    "io.save_depth": ("depthscale.io", "save_depth"),
    "io.save_region_reports": ("depthscale.io", "save_region_reports"),
    "evaluate": ("depthscale.cli", "evaluate"),
}
INVALID_SHARE = 0.01


def build_inputs(args, workdir: Path) -> tuple[list[str], list[str]]:
    """Write one scene's input files; the rescale and evaluate arguments."""
    beam_rows = (2 * np.arange(args.beams) + 1) * args.height // (2 * args.beams)
    for attempt in itertools.count():
        spec = synth.random_scene(
            int(np.random.SeedSequence([args.seed, attempt]).generate_state(1)[0]),
            height=args.height,
            width=args.width,
            region_range=(args.regions, args.regions),
            distortion="planar",
            shift_range=(-6.0, -1.5),
            curvature_range=(0.2, 1.0),
            min_region_pixels=args.height * args.width // (4 * args.regions),
        )
        gt, rel, mask = synth.generate_scene(spec)
        labels = mask.labels[beam_rows]
        # every region crossed by two scanlines, so each fits on its own samples
        if min(np.any(labels == i, axis=1).sum() for i in range(spec.n_regions)) >= 2:
            break
    valid = np.random.default_rng(args.seed).random(gt.shape) >= INVALID_SHARE
    paths = {name: str(workdir / name) for name in ("depth.pfm", "mask.pgm", "samples.csv", "gt.dpg")}
    io.save_depth(grids.DepthGrid(np.where(valid, 1.0 / rel.values, 0.0), valid), paths["depth.pfm"])
    io.save_mask(mask, paths["mask.pgm"])
    io.save_samples(synth.sample_beams(gt, args.beams), paths["samples.csv"])
    io.save_depth(gt, paths["gt.dpg"])
    out = str(workdir / "metric.dpg")
    rescale = ["rescale", "--depth", paths["depth.pfm"], "--mask", paths["mask.pgm"],
               "--samples", paths["samples.csv"], "--method", "ssf", "--out", out]
    return rescale, ["evaluate", "--pred", out, "--gt", paths["gt.dpg"]]


def traced_frame(argvs: list[list[str]]) -> tuple[list[tuple[str, int, int]], int]:
    """Run `cli.main` on each argv under tracemalloc, with every stage wrapped.

    Returns (stage, live bytes on entry, peak bytes inside) per call in
    call order, and the frame's peak.
    """
    rows: list[tuple[str, int, int]] = []
    frame_peak = 0
    undo = []

    def wrap(name, fn):
        def traced(*a, **k):
            nonlocal frame_peak
            live, peak = tracemalloc.get_traced_memory()
            frame_peak = max(frame_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*a, **k)
            finally:
                inside = tracemalloc.get_traced_memory()[1]
                frame_peak = max(frame_peak, inside)
                rows.append((name, live, inside))

        return traced

    for name, (module, attr) in STAGES.items():
        owner = importlib.import_module(module)
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrap(name, getattr(owner, attr)))
    printed = _stdio.StringIO()
    try:
        gc.collect()
        tracemalloc.start()
        with contextlib.redirect_stdout(printed):
            codes = [cli.main(argv) for argv in argvs]
        frame_peak = max(frame_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    if codes != [0] * len(argvs):
        raise SystemExit(f"CLI exit codes {codes}:\n{printed.getvalue()}")
    return rows, frame_peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--regions", type=int, default=20)
    parser.add_argument("--beams", type=int, default=16)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        argvs = build_inputs(args, Path(tmp))
        with contextlib.redirect_stdout(_stdio.StringIO()):
            cli.main(argvs[0])  # warm-up: imports and caches stay out of the table
        rows, frame_peak = traced_frame(argvs)
    grid_mb = args.height * args.width * 8 / 1e6
    print(f"# {args.height}x{args.width}, {args.regions} regions, {args.beams} beams, seed {args.seed}; "
          f"one float64 grid is {grid_mb:.3f} MB")
    print(f"{'stage':<28} {'live MB':>9} {'peak MB':>9}")
    for name, live, peak in rows:
        print(f"{name:<28} {live / 1e6:>9.3f} {peak / 1e6:>9.3f}")
    print(f"{'frame':<28} {'':>9} {frame_peak / 1e6:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
