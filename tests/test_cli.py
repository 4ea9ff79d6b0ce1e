import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depthscale import io
from depthscale.cli import build_parser, main
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


def test_write_manifest_into_subdirectory_replays(tmp_path, sparse_scene, monkeypatch):
    # paths typed relative to the working directory are recorded relative
    # to the manifest's directory, which is where a replay reads them from
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "again").mkdir()
    code = main(
        [
            "rescale",
            "--depth", "rel.dpg",
            "--mask", "mask.pgm",
            "--samples", "samples.csv",
            "--method", "ssf",
            "--already-depth",
            "--out", "first.dpg",
            "--write-manifest", "sub/run.json",
        ]
    )
    assert code == 0
    assert io.load_manifest("sub/run.json").depth_path == "../rel.dpg"
    outputs = [tmp_path / "first.dpg", tmp_path / "first.dpg.regions.json"]
    first = [p.read_bytes() for p in outputs]
    # replay, re-writing the manifest elsewhere, then replay that one
    for argv in (["--manifest", "sub/run.json", "--write-manifest", "again/run.json"],
                 ["--manifest", "again/run.json"]):
        for p in outputs:
            p.unlink()
        assert main(["rescale", *argv]) == 0
        assert [p.read_bytes() for p in outputs] == first


def test_out_of_range_max_hops_and_cond_max_exit_2(tmp_path, sparse_scene, capsys):
    # out-of-range settings stop the run before any output is written
    flags = [
        "rescale",
        "--depth", str(tmp_path / "rel.dpg"),
        "--mask", str(tmp_path / "mask.pgm"),
        "--samples", str(tmp_path / "samples.csv"),
        "--already-depth",
        "--out", str(tmp_path / "metric.dpg"),
    ]
    assert main([*flags, "--max-hops", "-1"]) == 2
    assert "max_hops" in capsys.readouterr().err
    assert not (tmp_path / "metric.dpg").exists()
    assert main([*flags, "--write-manifest", str(tmp_path / "run.json")]) == 0
    (tmp_path / "metric.dpg").unlink()
    doc = json.loads((tmp_path / "run.json").read_text())
    doc["cond_max"] = -1
    (tmp_path / "run.json").write_text(json.dumps(doc))
    assert main(["rescale", "--manifest", str(tmp_path / "run.json")]) == 2
    assert "cond_max" in capsys.readouterr().err
    assert not (tmp_path / "metric.dpg").exists()


def test_non_finite_pgm_scale_exits_2(tmp_path, sparse_scene, capsys):
    rel, _, _ = sparse_scene
    stored = np.round(rel.values * 1000.0).astype(">u2")
    (tmp_path / "rel.pgm").write_bytes(b"P5\n80 60\n65535\n" + stored.tobytes())
    flags = [
        "rescale",
        "--depth", str(tmp_path / "rel.pgm"),
        "--mask", str(tmp_path / "mask.pgm"),
        "--samples", str(tmp_path / "samples.csv"),
        "--already-depth",
        "--out", str(tmp_path / "metric.dpg"),
    ]
    evaluate = ["evaluate", "--pred", str(tmp_path / "rel.pgm"), "--gt", str(tmp_path / "rel.pgm")]
    for scale in ("nan", "inf"):
        assert main([*flags, "--pgm-scale", scale]) == 2
        assert "PGM depth scale" in capsys.readouterr().err
        assert main([*evaluate, "--pgm-scale", scale]) == 2
        assert "PGM depth scale" in capsys.readouterr().err
    (tmp_path / "rel.pgm.scale").write_text("nan\n")
    assert main(flags) == 2
    assert "PGM depth scale" in capsys.readouterr().err
    (tmp_path / "rel.pgm.scale").unlink()
    assert main([*flags, "--write-manifest", str(tmp_path / "run.json")]) == 0
    (tmp_path / "metric.dpg").unlink()
    doc = json.loads((tmp_path / "run.json").read_text())
    doc["pgm_scale"] = float("nan")
    (tmp_path / "run.json").write_text(json.dumps(doc))
    assert main(["rescale", "--manifest", str(tmp_path / "run.json")]) == 2
    assert "PGM depth scale" in capsys.readouterr().err
    assert not (tmp_path / "metric.dpg").exists()


def test_fractional_sample_minimum_in_manifest_exits_2(tmp_path, sparse_scene, capsys):
    flags = [
        "rescale",
        "--depth", str(tmp_path / "rel.dpg"),
        "--mask", str(tmp_path / "mask.pgm"),
        "--samples", str(tmp_path / "samples.csv"),
        "--already-depth",
        "--out", str(tmp_path / "metric.dpg"),
        "--write-manifest", str(tmp_path / "run.json"),
    ]
    assert main(flags) == 0
    (tmp_path / "metric.dpg").unlink()
    doc = json.loads((tmp_path / "run.json").read_text())
    for value in (2.5, "3"):
        doc["min_samples_linear"] = value
        (tmp_path / "run.json").write_text(json.dumps(doc))
        assert main(["rescale", "--manifest", str(tmp_path / "run.json")]) == 2
        assert "min_samples_linear" in capsys.readouterr().err
    assert not (tmp_path / "metric.dpg").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("already_depth", "false"),
        ("depth_path", 5),
        ("out_depth", None),
        ("gt_path", None),  # with samples_path also null: no sample source
        ("n_samples", 2.5),
        ("seed", "1"),
        ("seed", 1.5),
        ("noise_sigma", float("nan")),
        ("noise_sigma", -1.0),
        ("clamp", [1, 2, 3]),
        ("clamp", ["a", "b"]),
        ("clamp", [0.5, None]),
        ("clamp", 5),
        ("fallback_chain", 5),
        ("noise_sigma", True),
        ("merge_same_label", "false"),
        ("connectivity", 4.0),
        ("cond_max", True),
        ("clamp", [0.001, float("inf")]),
    ],
)
def test_malformed_manifest_field_exits_2(tmp_path, scene_dir, capsys, field, value):
    scene = scene_dir / "scene00"
    flags = [
        "rescale",
        "--depth", str(scene / "rel.dpg"),
        "--mask", str(scene / "mask.pgm"),
        "--gt", str(scene / "gt.dpg"),
        "--n-samples", "50",
        "--already-depth",
        "--out", str(tmp_path / "metric.dpg"),
        "--write-manifest", str(tmp_path / "run.json"),
    ]
    assert main(flags) == 0
    (tmp_path / "metric.dpg").unlink()
    doc = json.loads((tmp_path / "run.json").read_text())
    doc[field] = value
    (tmp_path / "run.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["rescale", "--manifest", str(tmp_path / "run.json")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "metric.dpg").exists()


@pytest.mark.parametrize("doc", [[1, 2], "run", 5, None])
def test_manifest_that_is_not_an_object_exits_2(tmp_path, capsys, doc):
    (tmp_path / "run.json").write_text(json.dumps(doc))
    assert main(["rescale", "--manifest", str(tmp_path / "run.json")]) == 2
    assert capsys.readouterr().err.startswith("error: manifest must be a JSON object")


def test_sample_rejects_negative_noise_sigma(tmp_path, scene_dir, capsys):
    gt = scene_dir / "scene00" / "gt.dpg"
    for draw in (["--n-samples", "5"], ["--beams", "2"]):
        argv = ["sample", "--gt", str(gt), *draw, "--noise-sigma", "-1", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert "noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_rescale_flags_store_under_record_field_names():
    # cmd_rescale and cmd_bench fill RunManifest and PipelineConfig from the
    # parsed flags by field name, so a flag stored under another name would
    # silently drop its setting
    parser = build_parser()
    rescale_ns = vars(parser.parse_args(["rescale"]))
    bench_ns = vars(parser.parse_args(["bench", "--scene-dir", "d", "--out", "o"]))
    manifest_fields = {f.name for f in dataclasses.fields(io.RunManifest)}
    config_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    without_flags = {"fallback_chain", "cond_max"}
    assert manifest_fields - rescale_ns.keys() == {"config", "format_version"}
    assert config_fields - rescale_ns.keys() == without_flags
    assert config_fields - bench_ns.keys() == without_flags | {"method"}



def test_sample_coordinate_beyond_int64_exits_2(tmp_path, sparse_scene, capsys):
    samples = tmp_path / "huge.csv"
    samples.write_text("row,col,depth_m\n1,1,2.5\n9223372036854775808,1,1.5\n")
    argv = ["rescale", "--depth", str(tmp_path / "rel.dpg"), "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(samples), "--already-depth", "--out", str(tmp_path / "out.dpg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {samples}:3: coordinate 9223372036854775808 is outside the int64 range\n"
    assert not (tmp_path / "out.dpg").exists()


def test_reused_parser_matches_a_fresh_one(tmp_path, sparse_scene, capsys):
    # main() parses with one parser per process; each call must see only its own flags
    common = ["--depth", str(tmp_path / "rel.dpg"), "--mask", str(tmp_path / "mask.pgm"),
              "--samples", str(tmp_path / "samples.csv"), "--already-depth"]
    calls = [
        ["rescale", *common, "--method", "ssf", "--max-hops", "1", "--clamp", "0.2,5",
         "--merge-same-label", "--out", str(tmp_path / "a.dpg")],
        ["rescale", *common, "--out", str(tmp_path / "b.dpg")],
        ["evaluate", "--pred", str(tmp_path / "b.dpg"), "--gt", str(tmp_path / "rel.dpg"),
         "--seed", "4"],
        ["rescale", *common, "--connectivity", "8", "--out", str(tmp_path / "c.dpg")],
    ]
    for argv in calls:
        assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
        assert main(argv) == 0
    assert build_parser() is build_parser()
    capsys.readouterr()
    # the run without flags matches a run in a process that never saw the others
    rel, mask, samples = sparse_scene
    metric, _ = rescale(rel, mask, samples, PipelineConfig())
    assert io.load_depth(tmp_path / "b.dpg").values.tobytes() == metric.values.tobytes()


def test_cli_import_loads_no_scipy():
    # SciPy is a test-only dependency: the library and its CLI start without it
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, depthscale.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("value", ["1", None, float("nan")])
def test_synth_bad_plane_coefficient_exits_2(tmp_path, capsys, value):
    spec = random_scene(2, height=20, width=30, region_range=(3, 3), min_region_pixels=5)
    save_scene_spec(spec, tmp_path / "spec.json")
    doc = json.loads((tmp_path / "spec.json").read_text())
    doc["regions"][1]["plane"]["m"] = value
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scene spec field regions[1].plane.m must be a finite number")
    assert not (tmp_path / "o").exists()


def test_synth_infinite_depth_range_exits_2(tmp_path, capsys):
    spec = random_scene(2, height=20, width=30, region_range=(3, 3), min_region_pixels=5)
    save_scene_spec(spec, tmp_path / "spec.json")
    doc = json.loads((tmp_path / "spec.json").read_text())
    doc["depth_range"] = [1.0, float("inf")]
    (tmp_path / "spec.json").write_text(json.dumps(doc))  # written as Infinity
    argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: depth range needs 0 < min < max < inf")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth", "bench"])
def test_missing_input_path_exits_2(tmp_path, capsys, command):
    missing, out = tmp_path / "missing", tmp_path / "out"
    argv = {
        "synth": ["synth", "--spec", str(missing), "--out-dir", str(out)],
        "bench": ["bench", "--scene-dir", f"{missing}/", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"
    assert not out.exists()


def test_bench_scene_dir_that_is_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "scenes").write_text("")
    argv = ["bench", "--scene-dir", str(tmp_path / "scenes"), "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: not a directory: {tmp_path / 'scenes'}\n"


def test_evaluate_prints_metrics_in_column_order(tmp_path, scene_dir, capsys):
    scene = scene_dir / "scene00"
    out = tmp_path / "eval.csv"
    argv = ["evaluate", "--pred", str(scene / "rel.dpg"), "--gt", str(scene / "gt.dpg"),
            "--image-id", "s0", "--method", "slf", "--region-aware", "--n-samples", "7",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [key for key, _ in printed] == [
        "abs_rel", "rmse", "rmse_log", "log10", "d1", "d2", "d3", "n_valid"
    ]
    (row,) = read_csv(out)
    assert list(row.items())[:5] == [
        ("image_id", "s0"), ("method", "slf"), ("region_aware", "true"), ("n_samples", "7"),
        ("seed", "3"),
    ]
    assert [(key, row[key]) for key, _ in printed] == [tuple(line) for line in printed]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_affine_fit_whose_variance_underflows_expands(tmp_path, capsys):
    # Region 1 (rows 2-3) holds relative depths near 1e-170: its own
    # affine fit passes the spread test, but the centred squares underflow
    # to zero. That fit is rejected, so the region expands.
    from depthscale.grids import LabelGrid, SparseSamples

    values = np.empty((4, 4))
    values[:2] = np.linspace(-2.0, 2.0, 8).reshape(2, 4)
    values[2:] = np.linspace(1e-170, 4e-170, 8).reshape(2, 4)
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[2:] = 1
    pixels = [(0, 0), (0, 3), (2, 0), (2, 1), (3, 2)]
    io.save_depth(DepthGrid(values), tmp_path / "rel.dpg")
    io.save_mask(LabelGrid(labels), tmp_path / "mask.pgm")
    io.save_samples(
        SparseSamples.from_points([(r, c, 1.0 + r + 0.5 * c) for r, c in pixels]),
        tmp_path / "samples.csv",
    )
    out = tmp_path / "metric.dpg"
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.dpg"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(tmp_path / "samples.csv"),
            "--already-depth",
            "--method", "slf",
            "--out", str(out),
        ]
    )
    assert code == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "metric.dpg.regions.json").read_text())
    assert [(r["provenance"], r["hop"]) for r in doc] == [("own", 0), ("expanded", 1)]


@pytest.mark.parametrize("method", ["slf", "median"])
def test_samples_all_on_invalid_pixels_exit_2(tmp_path, capsys, method):
    # stored zeros are invalid depth: no sample is usable, an input error
    from depthscale.grids import LabelGrid, SparseSamples

    values = np.random.default_rng(4).uniform(1.0, 3.0, (4, 5))
    values[1] = 0.0
    io.save_depth(DepthGrid(values), tmp_path / "rel.dpg")
    io.save_mask(LabelGrid(np.zeros((4, 5), dtype=np.int32)), tmp_path / "mask.pgm")
    io.save_samples(SparseSamples.from_points([(1, 0, 2.0), (1, 3, 2.5)]), tmp_path / "s.csv")
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.dpg"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--samples", str(tmp_path / "s.csv"),
            "--already-depth",
            "--method", method,
            "--out", str(tmp_path / "metric.dpg"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: no usable sample: all 2 lie on invalid depth pixels\n"
    )


@pytest.mark.parametrize("clamp", ["0,10", "5,1", "-1,10", "1,inf"])
def test_evaluate_range_outside_positive_finite_exits_2(tmp_path, capsys, clamp):
    # a valid prediction at -1 m would put inf into rmse_log and log10
    io.save_depth(DepthGrid([[-1.0, 2.0], [3.0, 4.0]]), tmp_path / "pred.dpg")
    io.save_depth(DepthGrid([[1.0, 2.0], [3.0, 4.0]]), tmp_path / "gt.dpg")
    code = main(["evaluate", "--pred", str(tmp_path / "pred.dpg"), "--gt", str(tmp_path / "gt.dpg"),
                 f"--clamp={clamp}"])
    assert code == 2
    lo, hi = (float(part) for part in clamp.split(","))
    assert capsys.readouterr().err == (
        f"error: evaluation range must be two finite numbers with 0 < min <= max, got {(lo, hi)}\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["slf", "ssf"])
@pytest.mark.parametrize("normalization", ["median-mad", "mean-std"])
def test_rescale_of_a_map_whose_normalization_overflows_exits_3(
    tmp_path, capsys, method, normalization
):
    from depthscale.grids import LabelGrid

    values = np.random.default_rng(0).uniform(1e307, 1.7e308, (4, 4))
    io.save_depth(DepthGrid(values), tmp_path / "rel.dpg")
    io.save_depth(DepthGrid(np.full((4, 4), 2.0)), tmp_path / "gt.dpg")
    io.save_mask(LabelGrid(np.zeros((4, 4), dtype=np.int32)), tmp_path / "mask.pgm")
    code = main(
        [
            "rescale",
            "--depth", str(tmp_path / "rel.dpg"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--gt", str(tmp_path / "gt.dpg"),
            "--n-samples", "8",
            "--already-depth",
            "--method", method,
            "--normalization", normalization,
            "--out", str(tmp_path / "out.dpg"),
        ]
    )
    assert code == 3
    assert "overflows" in capsys.readouterr().err
