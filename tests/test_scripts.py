"""Smoke runs of the scripts under scripts/, so a renamed library name shows."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_exact_recovery_demo(tmp_path):
    done = run_script("exact_recovery_demo.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    # the scene's distortions are planar, so ssf recovers it to rounding error
    ssf = next(line.split() for line in done.stdout.splitlines() if line.startswith("ssf "))
    assert float(ssf[-1]) < 1e-9


def test_run_sweep(tmp_path):
    done = run_script(
        "run_sweep.py",
        "--work-dir", str(tmp_path / "sweep"),
        "--scenes", "2",
        "--height", "60",
        "--width", "80",
        "--budgets", "50",
        "--seeds", "0",
        "--beams", "1",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep" / "results.csv").exists()


def test_bench_pairs_smoke(tmp_path):
    # both sides are this checkout: the layout is what is checked, not the figures
    out = tmp_path / "BENCH_smoke.json"
    done = run_script(
        "bench_pairs.py", str(ROOT), str(ROOT), "--out", str(out), "--smoke", "--pairs", "2",
        "--traced-pairs", "1", "--parent-commit", "0" * 40, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["all_correct"] and doc["failed_frames"] == 0
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py"))
    assert doc["src_lines"] == {"parent": lines, "change": lines}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert [(r["pair"], r["side"], r["trace"], r.get("workload")) for r in doc["runs"]] == [
        (0, "parent", 0, None), (0, "change", 0, None), (1, "change", 0, None),
        (1, "parent", 0, None),
    ] + [(0, side, 1, w) for w in workloads for side in ("parent", "change")]
    assert sorted(doc["summary"]) == sorted(
        f"{w}/{m['name']}" for w in workloads for m in spec["end_to_end"]
    )
    for metric in doc["summary"].values():
        assert metric["pairs_change_better"] + metric["pairs_change_worse"] <= 2
        assert set(metric) >= {"parent_median", "change_median", "parent_iqr", "change_worse_by",
                               "within_bound"}
    assert sorted(doc["traced_medians"]) == sorted(workloads)
    assert "io.load_samples_ms" in doc["traced_medians"]["lidar-files"]
    assert "fitting.fit_calls" in doc["traced_medians"]["fragmented"]


def test_peak_by_stage_smoke(tmp_path):
    done = run_script(
        "peak_by_stage.py", "--height", "48", "--width", "64", "--regions", "4", "--beams", "8",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if not line.startswith(("#", "stage"))]
    stages = [row[0] for row in rows]
    # the rescale stages in call order, the three depth loads, then the frame
    assert stages[:4] == ["io.load_depth", "io.load_mask", "io.load_samples", "invert_depth"]
    assert stages.count("io.load_depth") == 3 and "apply_fit" in stages and "evaluate" in stages
    assert stages[-1] == "frame"
    frame_peak = float(rows[-1][-1])
    assert all(0 <= float(live) <= float(peak) <= frame_peak for _, live, peak in rows[:-1])


def test_full_frames_smoke(tmp_path):
    # small, with room for the 3,000 distinct samples the script draws
    done = run_script("full_frames.py", "--height", "60", "--width", "80", "--repeats", "1",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == [
        ("4x4", "300"), ("4x4", "3000"), ("2x2", "300"), ("2x2", "3000")
    ]
    for _, _, regions, fastest, median, peak, write, digest in rows:
        assert int(regions) > 0 and 0 < float(fastest) <= float(median) and float(peak) > 0
        assert float(write) >= 0 and len(digest) == 64


def test_output_hashes_smoke(tmp_path):
    done = run_script("output_hashes.py", "--smoke", "--height", "60", "--width", "80",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [case for case, _ in rows] == [
        f"fragmented/seed{seed}/{variant}"
        for seed in range(4)
        for variant in ("plain", "merge", "conn8")
    ] + ["lidar-files/seed0"] + [
        f"full-frame/{b}x{b}/{n}" for b in (4, 2) for n in (300, 3000)
    ]
    assert all(len(digest) == 64 for _, digest in rows)
    assert not any(tmp_path.iterdir())  # the lidar-files frame's files are gone
    same = run_script("output_hashes.py", "--smoke", "--height", "60", "--width", "80",
                      "--against", str(ROOT / "src"), cwd=tmp_path)
    assert (same.returncode, same.stdout) == (0, ""), same.stderr
    assert same.stderr == f"0 of {len(rows)} cases differ from {ROOT / 'src'}\n"
