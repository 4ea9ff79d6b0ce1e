#!/usr/bin/env python3
"""Python-level calls per frame of the benchmark's workloads, by depthscale function.

Builds the scenes of each workload in `perfbench/workloads.py` (every
fragmented scene of the seed, and the first lidar-files frame), runs
each frame once as a warm-up, then runs them again under
`sys.setprofile` and counts its `call` events (Python functions) and
`c_call` events (builtin and C functions, NumPy's array methods among
them). NumPy ufuncs and operators raise no event. The counts repeat
exactly from run to run; they change with the NumPy version, since
NumPy's own Python wrappers count too.

Each call is charged to the innermost depthscale function running when
it is made: a depthscale function's own call is charged to its caller.
Calls made outside any depthscale function go to `(outside)`.

For each workload it prints the exact calls over its frames in total and
of each kind, with the same per frame beside them, then the functions
charged the most calls per frame.

Example:
    python scripts/call_counts.py
    python scripts/call_counts.py --seed 1 --top 40
    python scripts/call_counts.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
try:
    import depthscale
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import depthscale
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np

import workloads

PACKAGE = str(Path(depthscale.__file__).parent)
OUTSIDE = "(outside)"


def _owner(frame) -> str:
    """`module.function` of the innermost depthscale frame at or above `frame`."""
    while frame is not None:
        code = frame.f_code
        if code.co_filename.startswith(PACKAGE):
            return f"{Path(code.co_filename).stem}.{code.co_qualname}"
        frame = frame.f_back
    return OUTSIDE


def count_calls(workload, scenes) -> tuple[Counter, Counter]:
    """Calls made by one pass over `scenes`: by event kind and by charged function."""
    kinds: Counter = Counter()
    owners: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            kinds[event] += 1
            owners[_owner(frame.f_back)] += 1
        elif event == "c_call":
            kinds[event] += 1
            owners[_owner(frame)] += 1

    sys.setprofile(profile)
    try:
        for scene in scenes:
            workload.frame(scene)
    finally:
        sys.setprofile(None)
    return kinds, owners


def report(name: str, frames: int, kinds: Counter, owners: Counter, top: int) -> None:
    calls, c_calls = kinds["call"], kinds["c_call"]
    total = calls + c_calls
    print(f"{name}: {frames} frame(s), {total} calls ({calls} call, {c_calls} c_call); "
          f"per frame {total / frames:.1f} ({calls / frames:.1f} call, {c_calls / frames:.1f} c_call)")
    for owner, n in owners.most_common(top):
        print(f"  {n / frames:>9.1f}  {owner}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="functions listed per workload")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke scenes")
    args = parser.parse_args(argv)

    print(f"# seed {args.seed}, numpy {np.__version__}, python {sys.version.split()[0]}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload, n_scenes in (
            (workloads.Fragmented(args.smoke), None),
            (workloads.LidarFiles(args.smoke), 1),
        ):
            n = workload.n_scenes if n_scenes is None else n_scenes
            scenes = [workload.build(args.seed, k, Path(tmp)) for k in range(n)]
            for scene in scenes:  # warm-up: imports and caches stay out of the counts
                workload.frame(scene)
            kinds, owners = count_calls(workload, scenes)
            report(workload.name, len(scenes), kinds, owners, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
