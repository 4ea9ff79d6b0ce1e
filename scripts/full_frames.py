#!/usr/bin/env python3
"""Time, peak memory and output hashes of `rescale` on fragmented full frames.

Each frame's mask is random b x b blocks over 6 labels (seed 0), which
`rescale` splits into its connected components: at 480x640, 4x4 blocks
give 12,911 regions and 2x2 blocks 51,523. The relative depth and the
ground truth are independent uniform draws, and the samples are drawn
uniformly from the ground truth (`synth.sample_uniform`, seed 0). Each
frame runs with 300 and with 3,000 samples, method slf.

For each frame it prints the region count, the min and median `rescale`
time over `--repeats` calls, the tracemalloc peak of one more call, the
min time of `io.save_region_reports` over `--repeats` writes of its
reports, and a SHA-256 of the output values, the validity mask and the
bytes that write put in the report file, so that two checkouts can be
compared by their hashes.

Example:
    python scripts/full_frames.py
    python scripts/full_frames.py --repeats 9
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

try:
    import depthscale  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from depthscale import io
from depthscale.grids import DepthGrid, LabelGrid
from depthscale.pipeline import PipelineConfig, rescale
from depthscale.synth import sample_uniform

BLOCKS = (4, 2)
SAMPLES = (300, 3000)
LABELS = 6
SEED = 0


def frame(height: int, width: int, block: int) -> tuple[DepthGrid, LabelGrid, DepthGrid]:
    """The relative depth, the block mask and the ground truth of one frame."""
    rng = np.random.default_rng(SEED)
    blocks = rng.integers(0, LABELS, (-(-height // block), -(-width // block)), dtype=np.int32)
    labels = np.repeat(np.repeat(blocks, block, axis=0), block, axis=1)[:height, :width]
    rel = DepthGrid(rng.uniform(0.5, 5.0, (height, width)))
    gt = DepthGrid(rng.uniform(1.0, 9.0, (height, width)))
    return rel, LabelGrid(labels), gt


def write_reports(reports, repeats: int = 1) -> tuple[float, bytes]:
    """The min time of `repeats` `io.save_region_reports` calls into a
    temporary directory, and the bytes the last one wrote."""
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "regions.json"
        for _ in range(repeats):
            started = time.perf_counter()
            io.save_region_reports(reports, path)
            times.append(time.perf_counter() - started)
        return min(times), path.read_bytes()


def output_hash(out: DepthGrid, report: bytes) -> str:
    """SHA-256 of the output values, the validity mask and the report file's bytes."""
    digest = hashlib.sha256(out.values.tobytes())
    digest.update(out.valid.tobytes())
    digest.update(report)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    cfg = PipelineConfig(method="slf")
    print(f"# {args.height}x{args.width}, random blocks over {LABELS} labels, slf, seed {SEED}")
    print(f"{'blocks':>6} {'samples':>7} {'regions':>7} {'min s':>7} {'median s':>8} "
          f"{'peak MB':>8} {'write s':>7}  sha256")
    for block in BLOCKS:
        rel, mask, gt = frame(args.height, args.width, block)
        for n in SAMPLES:
            samples = sample_uniform(gt, n, SEED)
            times = []
            for _ in range(args.repeats):
                started = time.perf_counter()
                out, reports = rescale(rel, mask, samples, cfg)
                times.append(time.perf_counter() - started)
            del out, reports
            gc.collect()
            tracemalloc.start()
            try:
                out, reports = rescale(rel, mask, samples, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            write_s, report = write_reports(reports, args.repeats)
            print(f"{f'{block}x{block}':>6} {n:>7} {len(reports):>7} {min(times):>7.3f} "
                  f"{statistics.median(times):>8.3f} {peak / 1e6:>8.1f} {write_s:>7.3f}  "
                  f"{output_hash(out, report)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
