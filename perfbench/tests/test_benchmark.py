"""Tests of the benchmark's own checks, and smoke runs of every workload.

Each check must reject a deliberately corrupted output. Run from the
repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_frame(workload, workdir: Path, k: int = 0):
    scene = workload.build(0, k, workdir)
    return scene, workload.output(scene, workload.frame(scene))


@pytest.fixture(scope="module")
def fragmented(tmp_path_factory):
    w = workloads.Fragmented(smoke=True)
    return (w, *first_frame(w, tmp_path_factory.mktemp("fragmented"), k=3))


@pytest.fixture(scope="module")
def lidar(tmp_path_factory):
    w = workloads.LidarFiles(smoke=True)
    return (w, *first_frame(w, tmp_path_factory.mktemp("lidar")))


def own_pixel(out_valid, reports, labels) -> tuple[int, int]:
    """A valid pixel of a region with an own fit."""
    comp = checks.partition(labels)
    own = np.array([r["provenance"] == "own" for r in reports])
    r, c = np.argwhere(own[comp] & out_valid)[0]
    return int(r), int(c)


def test_checks_accept_real_outputs(fragmented, lidar):
    for w, scene, out in (fragmented, lidar):
        w.check(scene, out)


def test_fragmented_check_rejects_one_pixel_off(fragmented):
    w, scene, out = fragmented
    values = out.values.copy()
    values[tuple(np.argwhere(out.valid)[-1])] += 1e-3
    with pytest.raises(CheckFailed, match="reported parameters"):
        w.check(scene, replace(out, values=values))


def test_fragmented_check_rejects_missing_report(fragmented):
    w, scene, out = fragmented
    with pytest.raises(CheckFailed, match="region reports"):
        w.check(scene, replace(out, reports=out.reports[1:]))


def test_fragmented_check_rejects_reordered_reports(fragmented):
    w, scene, out = fragmented
    reports = [dict(r) for r in out.reports]
    reports[0], reports[1] = reports[1], reports[0]
    with pytest.raises(CheckFailed, match="order"):
        w.check(scene, replace(out, reports=reports))


def test_fragmented_check_rejects_unfounded_own_fit(fragmented):
    w, scene, out = fragmented
    counts = checks.own_sample_counts(
        checks.partition(scene["mask"].labels),
        scene["depth"].valid,
        scene["samples"].rows,
        scene["samples"].cols,
    )
    rid = int(np.argmin(counts))
    assert counts[rid] == 0
    reports = [dict(r) for r in out.reports]
    reports[rid]["provenance"] = "own"
    with pytest.raises(CheckFailed, match="own"):
        checks.check_own_minimum(reports, counts)


def test_lidar_check_rejects_wrong_abs_rel(lidar):
    w, scene, out = lidar
    lines = []
    for line in out.printed.splitlines():
        if line.startswith("abs_rel "):
            line = f"abs_rel {float(line.split()[1]) * 1.01!r}"
        lines.append(line)
    with pytest.raises(CheckFailed, match="abs_rel"):
        w.check(scene, replace(out, printed="\n".join(lines) + "\n"))


def with_pixel(out, pixel, value: float):
    pred = workloads.read_dpg(out.depth).copy()
    pred[pixel] = value
    return replace(out, depth=out.depth[:12] + pred.astype("<f8").tobytes())


def test_lidar_check_rejects_one_pixel_off(lidar):
    w, scene, out = lidar
    pred = workloads.read_dpg(out.depth)
    pixel = own_pixel(pred != 0.0, json.loads(out.report), scene["labels"])
    with pytest.raises(CheckFailed, match="ground truth"):
        w.check(scene, with_pixel(out, pixel, pred[pixel] + 1e-3))


def test_lidar_check_rejects_changed_validity(lidar):
    w, scene, out = lidar
    pixel = tuple(np.argwhere(scene["valid"])[0])
    with pytest.raises(CheckFailed, match="validity"):
        w.check(scene, with_pixel(out, pixel, 0.0))


def test_lidar_check_rejects_wrong_parameters(lidar):
    w, scene, out = lidar
    reports = json.loads(out.report)
    reports[0]["alpha"] *= 1.001
    with pytest.raises(CheckFailed, match="least squares"):
        w.check(scene, replace(out, report=json.dumps(reports).encode()))


def test_lidar_check_rejects_missing_report(lidar):
    w, scene, out = lidar
    report = json.dumps(json.loads(out.report)[:-1]).encode()
    with pytest.raises(CheckFailed, match="region reports"):
        w.check(scene, replace(out, report=report))


def test_partition_numbers_components_by_first_appearance():
    labels = np.array([[5, 5, 1], [1, 5, 1], [1, 1, 5]])
    expected = np.array([[0, 0, 1], [2, 0, 1], [2, 2, 3]])
    np.testing.assert_array_equal(checks.partition(labels), expected)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(name):
    result = last_json(run_bench("--workload", name, "--seed", "3", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_repeats_counts(name):
    args = ("--workload", name, "--seed", "3", "--smoke", "--trace", "1")
    first, second = last_json(run_bench(*args)), last_json(run_bench(*args))
    assert first["correct"] and second["correct"]
    assert {m: v["unit"] for m, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for metric, value in first["metrics"].items():
        if metric.endswith(("_calls", "_ratio", ".rings")):
            assert value == second["metrics"][metric], metric


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "lidar-files", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
