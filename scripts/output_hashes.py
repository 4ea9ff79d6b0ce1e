#!/usr/bin/env python3
"""SHA-256 of the outputs of fixed cases, so that two checkouts can be compared.

It prints one line per case, `<case> <sha256>`:

- fragmented seeds 0-3, every scene as `perfbench/workloads.py` builds
  it, run plain, with `merge_same_label` and with 8-connectivity (the
  output values, validity and region report file of each scene), and
  seed 0 also with `global-linear` and with `ssf` under mean-std
  normalization;
- the lidar-files seed-0 frame through `cli.main` (the depth file, the
  region report file and the printed metrics);
- the four `scripts/full_frames.py` frames.

The library comes from the import path, so that one copy of this script
can hash another checkout:

    python scripts/output_hashes.py
    PYTHONPATH=/path/to/other/src python scripts/output_hashes.py

`--against /path/to/other/src` does both: it hashes the cases with this
import path's library, re-runs them in a subprocess with the other
library, prints each case whose hash differs (`<case> <this> <other>`)
and exits 1 if any does, 0 if none does.

`--smoke` builds the benchmark's smoke scenes, and `--height`/`--width`
size the full frames.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
try:
    import depthscale  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from depthscale.pipeline import PipelineConfig, rescale
from depthscale.synth import sample_uniform

import workloads
from full_frames import BLOCKS, SAMPLES, SEED, frame, output_hash, write_reports

FRAGMENTED_SEEDS = (0, 1, 2, 3)
VARIANTS = {"plain": {}, "merge": {"merge_same_label": True}, "conn8": {"connectivity": 8}}
# Seed 0 alone also runs the normalizing paths the scenes' own methods miss.
SEED0_VARIANTS = {
    "global-linear": {"method": "global-linear"},
    "ssf-mean-std": {"method": "ssf", "normalization": "mean-std"},
}


def fragmented_lines(smoke: bool, workdir: Path):
    workload = workloads.Fragmented(smoke)
    for seed in FRAGMENTED_SEEDS:
        scenes = [workload.build(seed, k, workdir) for k in range(workload.n_scenes)]
        for name, fields in (VARIANTS | SEED0_VARIANTS if seed == 0 else VARIANTS).items():
            digest = hashlib.sha256()
            for scene in scenes:
                cfg = replace(PipelineConfig(method=scene["method"], clamp=workloads.CLAMP), **fields)
                out, reports = rescale(scene["depth"], scene["mask"], scene["samples"], cfg)
                digest.update(output_hash(out, write_reports(reports)[1]).encode())
            yield f"fragmented/seed{seed}/{name}", digest.hexdigest()


def lidar_line(smoke: bool, workdir: Path):
    workload = workloads.LidarFiles(smoke)
    scene = workload.build(0, 0, workdir)
    out = workload.output(scene, workload.frame(scene))
    digest = hashlib.sha256(repr(out.codes).encode())
    for part in (out.depth, out.report, out.printed.encode()):
        digest.update(hashlib.sha256(part).digest())
    return "lidar-files/seed0", digest.hexdigest()


def full_frame_lines(height: int, width: int):
    cfg = PipelineConfig(method="slf")
    for block in BLOCKS:
        rel, mask, gt = frame(height, width, block)
        for n in SAMPLES:
            out, reports = rescale(rel, mask, sample_uniform(gt, n, SEED), cfg)
            yield f"full-frame/{block}x{block}/{n}", output_hash(out, write_reports(reports)[1])


def other_hashes(args) -> dict[str, str]:
    """The same cases hashed in a subprocess whose library is the one under `args.against`."""
    src = Path(args.against).resolve()
    if not (src / "depthscale" / "__init__.py").is_file():
        raise SystemExit(f"no depthscale package under {src}")
    cmd = [sys.executable, __file__, "--height", str(args.height), "--width", str(args.width)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(cmd + ["--smoke"] * args.smoke, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"hashing with {src} exited {done.returncode}:\n{done.stderr}")
    return dict(line.split() for line in done.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke scenes")
    parser.add_argument("--height", type=int, default=480, help="full-frame height")
    parser.add_argument("--width", type=int, default=640, help="full-frame width")
    parser.add_argument("--against", metavar="SRC", help="another checkout's src/ to compare with")
    args = parser.parse_args(argv)

    # The lidar-files frame prints its file paths: build it under a fixed
    # relative directory, so that its hash does not depend on where it ran.
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            workdir = Path("work")
            lines = [*fragmented_lines(args.smoke, workdir), lidar_line(args.smoke, workdir)]
        finally:
            os.chdir(here)
    lines += full_frame_lines(args.height, args.width)
    if not args.against:
        for case, digest in lines:
            print(case, digest)
        return 0
    other = other_hashes(args)
    rows = [(case, digest, other.pop(case, "-")) for case, digest in lines]
    rows += [(case, "-", digest) for case, digest in other.items()]  # hashed by the other alone
    differ = [row for row in rows if row[1] != row[2]]
    for row in differ:
        print(*row)
    print(f"{len(differ)} of {len(rows)} cases differ from {args.against}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
