#!/usr/bin/env python3
"""Per-stage tracemalloc table for the benchmark's lidar-files CLI frame.

Builds the inputs of the benchmark's lidar-files workload for one scene
with `workloads.LidarFiles(smoke).build(seed, 0, workdir)` (a float32 PFM
inverse-depth map with 1% invalid pixels, a 16-bit PGM mask of Voronoi
regions, a scanline samples CSV and a DPG ground truth), then runs
`depthscale rescale --method ssf` and `depthscale evaluate` in process
under tracemalloc, as the benchmark's `peak_alloc_mb` does. Each stage
function is wrapped where its caller looks it up, and prints one row:
the memory live when it is entered and the peak while it runs, both
counted from the start of the frame. The last row is the frame peak.

Example:
    python scripts/peak_by_stage.py --seed 0
    python scripts/peak_by_stage.py --smoke"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io as _stdio
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
try:
    import depthscale  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from depthscale import cli

import workloads

# Stage name -> (module, attribute) where its caller looks it up. None of
# these calls another, so each row's peak is its own.
STAGES = {
    "io.load_depth": ("depthscale.io", "load_depth"),
    "io.load_mask": ("depthscale.io", "load_mask"),
    "io.load_samples": ("depthscale.io", "load_samples"),
    "invert_depth": ("depthscale.cli", "invert_depth"),
    "normalization_stats": ("depthscale.pipeline", "normalization_stats"),
    "pair_observations": ("depthscale.pipeline", "pair_observations"),
    "split_regions": ("depthscale.pipeline", "split_regions"),
    "fit_regions": ("depthscale.pipeline", "fit_regions"),
    "apply_fit": ("depthscale.pipeline", "apply_fit"),
    "io.save_depth": ("depthscale.io", "save_depth"),
    "io.save_region_reports": ("depthscale.io", "save_region_reports"),
    "evaluate": ("depthscale.cli", "evaluate"),
}


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
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke scene")
    args = parser.parse_args(argv)

    workload = workloads.LidarFiles(args.smoke)
    with tempfile.TemporaryDirectory() as tmp:
        scene = workload.build(args.seed, 0, Path(tmp))
        argvs = [scene["rescale"], scene["evaluate"]]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            cli.main(argvs[0])  # warm-up: imports and caches stay out of the table
        rows, frame_peak = traced_frame(argvs)
    h, w = workload.height, workload.width
    print(f"# {h}x{w}, {workload.regions} regions, {workload.beams} beams, seed {args.seed}; "
          f"one float64 grid is {h * w * 8 / 1e6:.3f} MB")
    print(f"{'stage':<28} {'live MB':>9} {'peak MB':>9}")
    for name, live, peak in rows:
        print(f"{name:<28} {live / 1e6:>9.3f} {peak / 1e6:>9.3f}")
    print(f"{'frame':<28} {'':>9} {frame_peak / 1e6:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
