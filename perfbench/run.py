"""depthscale benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload regions-200 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (setup_s, frame_ms_p50, frames_per_s,
peak_alloc_mb); with `--trace 1` they are the per-layer ones, recorded by
wrappers around the library's layer functions. Each run also writes its
metrics to perfbench/results/. `--workload all` runs every workload, each
in its own process; `--smoke` shrinks every input so a run takes seconds.
See perfbench/README.md for the workloads, seeds and reference figures.
"""

from __future__ import annotations

import os

# One thread per process, pinned before NumPy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

# Metric names and units, defined once in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def pin_allocator() -> bool:
    """Fix glibc malloc to serve large arrays from the heap and never trim it.

    By default glibc moves its mmap threshold as blocks are freed, so how
    many full-frame arrays cost fresh pages depends on the process's
    allocation history: processes on the same input measured 2,000 to
    110,000 minor faults per regions-200 frame, and median frame times of
    1.01 to 1.50 s. A fixed policy makes every run pay the same.
    Returns False where mallopt is unavailable (non-glibc).
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    big = 1 << 30
    return bool(libc.mallopt(m_mmap_threshold, big)) and bool(libc.mallopt(m_trim_threshold, big))


def set_up(workload, seed: int, workdir: Path, tracer) -> tuple[list, list, dict]:
    """Build, warm up and check every scene; time each scene's set-up.

    Returns the scenes, the checked warm-up output of each (None where the
    frame raised) and a record of set-up times and check failures.
    """
    from checks import CheckFailed

    scenes, refs = [], []
    record = {"setup_s": [], "synth_ms": [], "errors": []}
    for k in range(workload.n_scenes):
        start = time.perf_counter()
        scene = workload.build(seed, k, workdir)
        try:
            result = workload.frame(scene)
        except Exception as err:  # counted as failed frames in the timed phase
            result = None
            print(f"scene {k} warm-up raised {type(err).__name__}: {err}", file=sys.stderr)
        record["setup_s"].append(time.perf_counter() - start)
        if tracer:
            record["synth_ms"].append(tracer.take_ms("synth.scene"))
        ref = None if result is None else workload.output(scene, result)
        if ref is not None:
            try:
                workload.check(scene, ref)
            except CheckFailed as err:
                record["errors"].append(f"scene {k}: {err}")
        scenes.append(scene)
        refs.append(ref)
    return scenes, refs, record


def timed_rounds(workload, scenes, refs, seconds: float, tracer) -> dict:
    """Whole rounds over the scenes until `seconds` have passed.

    Whole rounds make every run attempt the same mix of frames. Each
    completed frame must reproduce its scene's checked warm-up output.
    """
    times, busy, attempted, failed, mismatched = [], 0.0, 0, 0, 0
    start = time.perf_counter()
    while True:
        for scene, ref in zip(scenes, refs):
            gc.collect()
            if tracer:
                tracer.begin_frame()
            t0 = time.perf_counter()
            try:
                result = workload.frame(scene)
            except Exception:
                result = None
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_frame()
            attempted += 1
            busy += dt
            if result is None:
                failed += 1
                continue
            times.append(dt)
            if ref is None or not workload.output(scene, result).same(ref):
                mismatched += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"times": times, "busy": busy, "attempted": attempted, "failed": failed,
            "mismatched": mismatched}


def peak_alloc_mb(workload, scenes) -> float:
    """Largest tracemalloc peak of one frame, each frame in its own pass."""
    peaks = []
    for scene in workload.alloc_scenes(scenes):
        gc.collect()
        tracemalloc.start()
        try:
            workload.frame(scene)
        except Exception:
            pass  # already counted as failed in the timed phase
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return max(peaks) / 1e6


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run: set-up, timed rounds, then the untimed allocation pass.

    With `trace`, scene generation is timed during set-up, and every layer
    during the timed rounds, which then give the per-layer metrics.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install_synth()
        scenes, refs, record = set_up(workload, seed, workdir, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    gc.collect()
    gc.freeze()
    try:
        if tracer:
            tracer.install()
        timed = timed_rounds(workload, scenes, refs, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    errors = record["errors"]
    if timed["mismatched"]:
        errors.append(f"{timed['mismatched']} timed frames differ from the checked warm-up output")
    times = timed["times"]
    run = {"correct": not errors, "attempted": timed["attempted"], "failed": timed["failed"],
           "errors": errors, "frame_ms": [t * 1e3 for t in times]}
    if not times:
        raise SystemExit("error: every timed frame raised; nothing to measure")
    frame_ms_p50 = statistics.median(times) * 1e3
    if tracer:
        metrics = tracer.metrics()
        metrics["synth.scene_ms"] = statistics.median(record["synth_ms"])
        metrics["traced.frame_ms_p50"] = frame_ms_p50
    else:
        metrics = {
            "setup_s": statistics.median(record["setup_s"]),
            "frame_ms_p50": frame_ms_p50,
            "frames_per_s": len(times) / timed["busy"],
            "peak_alloc_mb": peak_alloc_mb(workload, scenes),
        }
    run["metrics"] = metrics
    return run


def run_all(args) -> int:
    """Every workload in its own process, as the single-workload runs do."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="depthscale benchmark")
    parser.add_argument("--workload", required=True,
                        help="regions-200, fragmented, lidar-files, or all")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of the timed phase; whole rounds of frames run until it ends")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single round, for tests")
    args = parser.parse_args(argv)

    # The benchmark measures the checkout it sits in, never an installed copy.
    try:
        import depthscale
    except ImportError as err:
        print(f"error: cannot import depthscale from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if Path(depthscale.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: depthscale imported from {depthscale.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    allocator_pinned = pin_allocator()
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = measure(workload, args.seed, seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "allocator_pinned": allocator_pinned,
        **run,
    }
    (results / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for message in run["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{run['attempted']} frames attempted, {run['failed']} failed, "
          f"correct={run['correct']}")
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in run["metrics"].items()}
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
