"""Smoke runs of the scripts under scripts/, so a renamed library name shows."""

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
