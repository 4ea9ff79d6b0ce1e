import csv
import json

import numpy as np
import pytest

from depthscale import io
from depthscale.cli import main
from depthscale.grids import DepthGrid
from depthscale.pipeline import PipelineConfig, rescale
from depthscale.synth import generate_scene, random_scene, sample_uniform, save_scene_spec


@pytest.fixture
def scene_dir(tmp_path):
    """Two small materialized scenes plus their spec files."""
    root = tmp_path / "scenes"
    for i in range(2):
        spec = random_scene(
            100 + i,
            height=40,
            width=50,
            region_range=(3, 5),
            distortion="affine",
            shift_range=(-4.0, 4.0),
            min_region_pixels=20,
        )
        sub = root / f"scene{i:02d}"
        sub.mkdir(parents=True)
        save_scene_spec(spec, sub / "spec.json")
        assert main(["synth", "--spec", str(sub / "spec.json"), "--out-dir", str(sub)]) == 0
    return root


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_rescale_then_evaluate_exact_recovery(tmp_path, scene_dir, capsys):
    scene = scene_dir / "scene00"
    out = tmp_path / "metric.dpg"
    code = main(
        [
            "rescale",
            "--depth", str(scene / "rel.dpg"),
            "--mask", str(scene / "mask.pgm"),
            "--gt", str(scene / "gt.dpg"),
            "--n-samples", "400",
            "--seed", "3",
            "--method", "slf",
            "--already-depth",
            "--out", str(out),
        ]
    )
    assert code == 0
    code = main(["evaluate", "--pred", str(out), "--gt", str(scene / "gt.dpg")])
    assert code == 0
    printed = capsys.readouterr().out
    abs_rel = float(next(line.split()[1] for line in printed.splitlines() if line.startswith("abs_rel")))
    assert abs_rel < 1e-9


def test_rescale_writes_region_report(tmp_path, scene_dir):
    scene = scene_dir / "scene00"
    out = tmp_path / "metric.dpg"
    report = tmp_path / "regions.json"
    code = main(
        [
            "rescale",
            "--depth", str(scene / "rel.dpg"),
            "--mask", str(scene / "mask.pgm"),
            "--gt", str(scene / "gt.dpg"),
            "--n-samples", "300",
            "--already-depth",
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    import json

    rows = json.loads(report.read_text())
    assert rows and all("alpha" in r and "provenance" in r for r in rows)


def test_sample_uniform_and_beams(tmp_path, scene_dir):
    scene = scene_dir / "scene00"
    out = tmp_path / "s.csv"
    assert main(["sample", "--gt", str(scene / "gt.dpg"), "--n-samples", "25", "--out", str(out)]) == 0
    assert len(io.load_samples(out)) == 25
    assert main(["sample", "--gt", str(scene / "gt.dpg"), "--beams", "2", "--out", str(out)]) == 0
    beams = io.load_samples(out)
    assert set(beams.rows.tolist()) == {10, 30}


def test_bench_cardinality_and_determinism(tmp_path, scene_dir):
    out1 = tmp_path / "bench1.csv"
    out2 = tmp_path / "bench2.csv"
    args = [
        "bench",
        "--scene-dir", str(scene_dir),
        "--methods", "slf,ssf",
        "--budgets", "40,80",
        "--seeds", "0,1",
        "--beams", "1",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    rows = read_csv(out1)
    # 2 scenes x (2 methods x 2 budgets x 2 seeds + 1 beam x 2 seeds)
    assert len(rows) == 2 * (2 * 2 * 2 + 2)
    assert out1.read_bytes() == out2.read_bytes()
    beam_rows = [r for r in rows if r["method"] == "lf-lidar-1beam"]
    assert beam_rows and all(r["region_aware"] == "false" for r in beam_rows)


def test_manifest_replay_byte_identical(tmp_path, scene_dir):
    scene = scene_dir / "scene01"
    manifest = io.RunManifest(
        depth_path=str(scene / "rel.dpg"),
        mask_path=str(scene / "mask.pgm"),
        gt_path=str(scene / "gt.dpg"),
        n_samples=200,
        seed=11,
        config=PipelineConfig(method="ssf"),
        already_depth=True,
        out_depth=str(tmp_path / "out.dpg"),
        out_report=str(tmp_path / "out.regions.json"),
    )
    path = tmp_path / "run.json"
    io.save_manifest(manifest, path)
    assert main(["rescale", "--manifest", str(path)]) == 0
    first_depth = (tmp_path / "out.dpg").read_bytes()
    first_report = (tmp_path / "out.regions.json").read_bytes()
    assert main(["rescale", "--manifest", str(path)]) == 0
    assert (tmp_path / "out.dpg").read_bytes() == first_depth
    assert (tmp_path / "out.regions.json").read_bytes() == first_report


def test_evaluate_pgm_scale_flag(tmp_path, capsys):
    payload = np.array([[5000, 2000]], dtype=">u2").tobytes()
    for name in ("pred.pgm", "gt.pgm"):
        (tmp_path / name).write_bytes(b"P5\n2 1\n65535\n" + payload)
    code = main(
        [
            "evaluate",
            "--pred", str(tmp_path / "pred.pgm"),
            "--gt", str(tmp_path / "gt.pgm"),
            "--pgm-scale", "1000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "abs_rel 0.0" in out


def test_exit_code_input_error(tmp_path, capsys):
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "missing.dpg"),
            "--mask", str(tmp_path / "missing.pgm"),
            "--samples", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "out.dpg"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_degenerate(tmp_path, capsys):
    # constant relative map cannot be normalized
    io.save_depth(DepthGrid(np.full((4, 4), 3.0)), tmp_path / "rel.dpg")
    io.save_depth(DepthGrid(np.full((4, 4), 2.0)), tmp_path / "gt.dpg")
    from depthscale.grids import LabelGrid

    io.save_mask(LabelGrid(np.zeros((4, 4), dtype=np.int32)), tmp_path / "mask.pgm")
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.dpg"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--gt", str(tmp_path / "gt.dpg"),
            "--n-samples", "4",
            "--already-depth",
            "--out", str(tmp_path / "out.dpg"),
        ]
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_global_method_through_cli(tmp_path, scene_dir):
    scene = scene_dir / "scene00"
    out = tmp_path / "metric.dpg"
    code = main(
        [
            "rescale",
            "--depth", str(scene / "rel.dpg"),
            "--mask", str(scene / "mask.pgm"),
            "--gt", str(scene / "gt.dpg"),
            "--n-samples", "200",
            "--method", "global-linear",
            "--already-depth",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert io.load_depth(out).n_valid > 0
    # one report per region, all sharing the single global fit
    rows = json.loads((tmp_path / "metric.dpg.regions.json").read_text())
    assert len(rows) == int(io.load_mask(scene / "mask.pgm").labels.max()) + 1
    assert {r["provenance"] for r in rows} == {"global"}
    assert len({(r["alpha"], r["beta"]) for r in rows}) == 1


def test_global_linear_with_one_sample_is_degenerate(tmp_path, scene_dir, capsys):
    scene = scene_dir / "scene00"
    path = tmp_path / "one.csv"
    path.write_text("row,col,depth_m\n5,5,2.5\n")
    code = main(
        [
            "rescale",
            "--depth", str(scene / "rel.dpg"),
            "--mask", str(scene / "mask.pgm"),
            "--samples", str(path),
            "--method", "global-linear",
            "--already-depth",
            "--out", str(tmp_path / "metric.dpg"),
        ]
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.fixture
def sparse_scene(tmp_path):
    """12 regions and 6 samples: most regions must borrow from neighbors."""
    spec = random_scene(
        5,
        height=60,
        width=80,
        region_range=(12, 12),
        distortion="affine",
        shift_range=(-4.0, 4.0),
        min_region_pixels=30,
    )
    gt, rel, mask = generate_scene(spec)
    samples = sample_uniform(gt, 6, 0)
    io.save_depth(rel, tmp_path / "rel.dpg")
    io.save_mask(mask, tmp_path / "mask.pgm")
    io.save_samples(samples, tmp_path / "samples.csv")
    return rel, mask, samples


def test_max_hops_flag_reaches_pipeline(tmp_path, sparse_scene):
    rel, mask, samples = sparse_scene
    out = tmp_path / "metric.dpg"
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.dpg"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(tmp_path / "samples.csv"),
            "--already-depth",
            "--max-hops", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    metric, reports = rescale(rel, mask, samples, PipelineConfig(max_hops=0))
    io.save_region_reports(reports, tmp_path / "library.json")
    assert (tmp_path / "metric.dpg.regions.json").read_bytes() == (
        tmp_path / "library.json"
    ).read_bytes()
    assert {r.hop for r in reports} == {0}
    # without the cap the same scene expands, so the flag is what held it
    _, unlimited = rescale(rel, mask, samples, PipelineConfig())
    assert max(r.hop for r in unlimited) > 0


def test_write_manifest_replays_pgm_scale_and_max_hops(tmp_path, sparse_scene):
    rel, _, _ = sparse_scene
    stored = np.round(rel.values * 1000.0).astype(">u2")
    (tmp_path / "rel.pgm").write_bytes(b"P5\n80 60\n65535\n" + stored.tobytes())
    out = tmp_path / "metric.dpg"
    report = tmp_path / "metric.dpg.regions.json"
    manifest = tmp_path / "run.json"
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.pgm"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(tmp_path / "samples.csv"),
            "--method", "ssf",
            "--already-depth",
            "--pgm-scale", "7",
            "--max-hops", "1",
            "--out", str(out),
            "--write-manifest", str(manifest),
        ]
    )
    assert code == 0
    recorded = io.load_manifest(manifest)
    assert recorded.pgm_scale == 7.0
    assert recorded.config.max_hops == 1
    first_depth, first_report = out.read_bytes(), report.read_bytes()
    out.unlink()
    report.unlink()
    assert main(["rescale", "--manifest", str(manifest)]) == 0
    assert out.read_bytes() == first_depth
    assert report.read_bytes() == first_report


def test_seed_era_manifest_replays(tmp_path, sparse_scene):
    # the key set manifests had before max_hops, pgm_scale, cond_max
    # and fallback_chain were recorded
    doc = {
        "already_depth": True,
        "beams": None,
        "clamp": [0.2, 5.0],
        "connectivity": 8,
        "depth_path": "rel.dpg",
        "format_version": 1,
        "gt_path": None,
        "mask_path": "mask.pgm",
        "merge_same_label": False,
        "method": "ssf",
        "min_samples_linear": 2,
        "min_samples_planar": 4,
        "n_samples": None,
        "noise_sigma": 0.0,
        "normalization": "median-mad",
        "out_depth": "replay.dpg",
        "out_report": "replay.json",
        "samples_path": "samples.csv",
        "seed": 0,
    }
    (tmp_path / "seed.json").write_text(json.dumps(doc))
    assert main(["rescale", "--manifest", str(tmp_path / "seed.json")]) == 0
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.dpg"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(tmp_path / "samples.csv"),
            "--method", "ssf",
            "--already-depth",
            "--clamp", "0.2,5",
            "--connectivity", "8",
            "--out", str(tmp_path / "flags.dpg"),
            "--report", str(tmp_path / "flags.json"),
        ]
    )
    assert code == 0
    assert (tmp_path / "replay.dpg").read_bytes() == (tmp_path / "flags.dpg").read_bytes()
    assert (tmp_path / "replay.json").read_bytes() == (tmp_path / "flags.json").read_bytes()


def test_rescale_tolerates_non_finite_pfm_pixels(tmp_path, sparse_scene, capsys):
    rel, _, _ = sparse_scene
    values = rel.values.copy()
    values[0, :3] = np.inf
    values[1, 0] = np.nan
    payload = np.flipud(values).astype("<f4").tobytes()
    (tmp_path / "rel.pfm").write_bytes(b"Pf\n80 60\n-1.0\n" + payload)
    out = tmp_path / "metric.dpg"
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.pfm"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(tmp_path / "samples.csv"),
            "--already-depth",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "4 non-finite" in capsys.readouterr().err
    valid = io.load_depth(out).valid
    assert not valid[0, :3].any() and not valid[1, 0]
