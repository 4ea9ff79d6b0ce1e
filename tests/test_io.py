import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings

from test_normalize import grids_with_junk

from depthscale.errors import (
    CorruptHeader,
    DimensionOverflow,
    DuplicateSample,
    InputError,
    UnknownFormat,
)
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
from depthscale.pipeline import PipelineConfig
from depthscale import io


def test_pfm_round_trip(tmp_path):
    grid = DepthGrid(np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "depth.pfm"
    io.save_depth(grid, path)
    back = io.load_depth(path)
    assert np.array_equal(back.values, grid.values)
    assert back.valid.all()
    # saving the loaded grid reproduces the file byte for byte
    path2 = tmp_path / "again.pfm"
    io.save_depth(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_pfm_zeros_become_invalid(tmp_path):
    grid = DepthGrid(np.array([[1.0, 0.0]]), np.array([[True, False]]))
    path = tmp_path / "d.pfm"
    io.save_depth(grid, path)
    back = io.load_depth(path)
    assert back.valid.tolist() == [[True, False]]


def test_pfm_non_finite_become_invalid(tmp_path, capsys):
    values = np.array([[1.0, np.inf], [np.nan, 2.0]], dtype="<f4")
    path = tmp_path / "sky.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + np.flipud(values).tobytes())
    back = io.load_depth(path)
    assert back.valid.tolist() == [[True, False], [False, True]]
    assert back.values.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert "2 non-finite" in capsys.readouterr().err


def test_pfm_big_endian_load(tmp_path):
    # positive scale marks big-endian payload
    values = np.array([[1.5, 2.5]], dtype=">f4")
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n2 1\n1.0\n" + values.tobytes())
    back = io.load_depth(path)
    assert np.array_equal(back.values, [[1.5, 2.5]])


def test_pfm_rows_are_bottom_up(tmp_path):
    # rows stored bottom-up: the first stored row is the image's last
    payload = np.array([3.0, 4.0, 1.0, 2.0], dtype="<f4").tobytes()
    path = tmp_path / "rows.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
    back = io.load_depth(path)
    assert np.array_equal(back.values, [[1.0, 2.0], [3.0, 4.0]])


def test_pfm_color_rejected(tmp_path):
    path = tmp_path / "c.pfm"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(UnknownFormat):
        io.load_depth(path)


def test_pfm_truncated(tmp_path):
    path = tmp_path / "t.pfm"
    path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 8)
    with pytest.raises(CorruptHeader):
        io.load_depth(path)


def test_pgm_depth_with_scale(tmp_path):
    path = tmp_path / "d.pgm"
    payload = np.array([[5000]], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n1 1\n65535\n" + payload)
    back = io.load_depth(path, pgm_scale=1000.0)
    assert back.values[0, 0] == 5.0


def test_pgm_sidecar_scale(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + np.array([[200]], dtype=">u2").tobytes())
    (tmp_path / "d.pgm.scale").write_text("100\n")
    assert io.load_depth(path).values[0, 0] == 2.0
    # explicit argument wins over the sidecar
    assert io.load_depth(path, pgm_scale=1000.0).values[0, 0] == 0.2


def test_dpg_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.001, 10.0, (7, 5))
    valid = rng.random((7, 5)) > 0.2
    grid = DepthGrid(values, valid)
    path = tmp_path / "d.dpg"
    io.save_depth(grid, path)
    back = io.load_depth(path)
    assert np.array_equal(back.values[back.valid], grid.values[valid])
    assert np.array_equal(back.valid, valid)


def reference_depth_bytes(values, valid, suffix):
    """A depth file as written by masking the values at save time."""
    h, w = values.shape
    stored = np.where(valid, values, 0.0)
    if suffix == ".pfm":
        stored = stored.astype(np.float32)
        return f"Pf\n{w} {h}\n-1.0\n".encode("ascii") + np.flipud(stored).astype("<f4").tobytes()
    return io.DPG_MAGIC + struct.pack("<II", h, w) + stored.astype("<f8").tobytes()


@settings(max_examples=100, deadline=None)
@given(grids_with_junk())
def test_saved_bytes_match_save_time_masking(tmp_path_factory, case):
    values, valid = case
    path = tmp_path_factory.mktemp("save")
    for suffix in (".pfm", ".dpg"):
        io.save_depth(DepthGrid(values, valid), path / f"d{suffix}")
        assert (path / f"d{suffix}").read_bytes() == reference_depth_bytes(values, valid, suffix)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_pgm_scale_must_be_finite_and_positive(tmp_path, scale):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + np.array([[200]], dtype=">u2").tobytes())
    with pytest.raises(InputError, match="PGM depth scale"):
        io.load_depth(path, pgm_scale=scale)
    (tmp_path / "d.pgm.scale").write_text(f"{scale}\n")
    with pytest.raises(InputError, match="PGM depth scale"):
        io.load_depth(path)


def test_dpg_truncated(tmp_path):
    path = tmp_path / "t.dpg"
    path.write_bytes(b"DPG1" + struct.pack("<II", 4, 4) + b"\x00" * 16)
    with pytest.raises(CorruptHeader):
        io.load_depth(path)


def test_dpg_dimension_overflow(tmp_path):
    path = tmp_path / "big.dpg"
    path.write_bytes(b"DPG1" + struct.pack("<II", 1 << 20, 1 << 20))
    with pytest.raises(DimensionOverflow):
        io.load_depth(path)


def test_unknown_format(tmp_path):
    path = tmp_path / "mystery.bin"
    path.write_bytes(b"????12345678")
    with pytest.raises(UnknownFormat):
        io.load_depth(path)


def test_missing_file():
    with pytest.raises(InputError):
        io.load_depth("/nonexistent/depth.pfm")


def test_mask_round_trip(tmp_path):
    mask = LabelGrid(np.array([[0, 1, 2], [3, 3, 3]]))
    path = tmp_path / "m.pgm"
    io.save_mask(mask, path)
    back = io.load_mask(path)
    assert np.array_equal(back.labels, mask.labels)


def test_mask_max_value_gives_label_count(tmp_path):
    labels = np.array([[0, 1], [2, 3]])
    path = tmp_path / "m.pgm"
    io.save_mask(LabelGrid(labels), path)
    back = io.load_mask(path)
    assert back.labels.max() == 3  # 4 labels before connectivity split


def test_samples_csv_round_trip(tmp_path):
    samples = SparseSamples.from_points([(0, 0, 2.5), (3, 1, 0.125)])
    path = tmp_path / "s.csv"
    io.save_samples(samples, path)
    back = io.load_samples(path)
    assert back.points == samples.points


def test_samples_csv_single_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("row,col,depth_m\n0,0,2.5\n")
    back = io.load_samples(path)
    assert back.points == [(0, 0, 2.5)]


def test_samples_csv_rejects_bad_depth_with_warning(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("row,col,depth_m\n0,0,2.5\n1,1,-3.0\n2,2,1.5\n")
    back = io.load_samples(path)
    assert len(back) == 2
    assert "dropping sample" in capsys.readouterr().err


def test_samples_csv_drops_each_non_finite_or_non_positive_depth(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text(
        "row,col,depth_m\n0,0,nan\n0,1,inf\n0,2,-inf\n0,3,0\n0,4,-0.0\n\n0,5,1e-300\n0,6,1.5\n"
    )
    back = io.load_samples(path)
    assert back.points == [(0, 5, 1e-300), (0, 6, 1.5)]
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"warning: {path}:{n}: dropping sample with depth {d}"
        for n, d in [(2, "nan"), (3, "inf"), (4, "-inf"), (5, "0.0"), (6, "-0.0")]
    ]


def test_samples_csv_duplicate(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("row,col,depth_m\n0,0,2.5\n0,0,3.5\n")
    with pytest.raises(DuplicateSample):
        io.load_samples(path)


def test_samples_csv_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("r,c,d\n0,0,2.5\n")
    with pytest.raises(CorruptHeader):
        io.load_samples(path)


def test_manifest_round_trip(tmp_path):
    manifest = io.RunManifest(
        depth_path="rel.dpg",
        mask_path="mask.pgm",
        out_depth="out.dpg",
        out_report="out.json",
        config=PipelineConfig(
            method="ssf",
            clamp=(0.2, 5.0),
            max_hops=2,
            fallback_chain=("ssf", "median"),
            cond_max=1e6,
        ),
        gt_path="gt.dpg",
        n_samples=500,
        seed=7,
        pgm_scale=7.0,
    )
    path = tmp_path / "run.json"
    io.save_manifest(manifest, path)
    assert io.load_manifest(path) == manifest
    # flat JSON: pipeline settings sit beside the run's own fields
    doc = json.loads(path.read_text())
    assert "config" not in doc
    assert doc["method"] == "ssf" and doc["max_hops"] == 2 and doc["pgm_scale"] == 7.0


def test_manifest_seed_key_set_takes_defaults(tmp_path):
    doc = {
        "already_depth": False,
        "beams": None,
        "clamp": [0.2, 5.0],
        "connectivity": 8,
        "depth_path": "rel.dpg",
        "format_version": 1,
        "gt_path": "gt.dpg",
        "mask_path": "mask.pgm",
        "merge_same_label": False,
        "method": "slf",
        "min_samples_linear": 3,
        "min_samples_planar": 4,
        "n_samples": 100,
        "noise_sigma": 0.0,
        "normalization": "median-mad",
        "out_depth": "out.dpg",
        "out_report": "out.json",
        "samples_path": None,
        "seed": 1,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    manifest = io.load_manifest(path)
    assert manifest.config == PipelineConfig(
        method="slf", clamp=(0.2, 5.0), connectivity=8, min_samples_linear=3
    )
    assert manifest.pgm_scale is None
    assert manifest.n_samples == 100 and manifest.seed == 1


def test_manifest_rejects_unknown_field(tmp_path):
    path = tmp_path / "run.json"
    doc = json.loads(
        io.RunManifest(depth_path="d", mask_path="m", out_depth="o", out_report="r").to_json()
    )
    doc["colour"] = "blue"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptHeader):
        io.load_manifest(path)


def test_manifest_rejects_unknown_version(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"format_version": 99}\n')
    with pytest.raises(CorruptHeader):
        io.load_manifest(path)
