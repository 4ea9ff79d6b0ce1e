import csv
import json
import math
import re
import struct
import sys
import warnings
from contextlib import redirect_stderr
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_normalize import grids_with_junk

from depthscale.errors import (
    CorruptHeader,
    DimensionOverflow,
    DuplicateSample,
    InputError,
    UnknownFormat,
)
from depthscale.fitting import FIT_KINDS, FitParams
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
from depthscale.normalize import affine_invariant_normalize, invert_depth
from depthscale.pipeline import PipelineConfig, RegionReports, rescale
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


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0.0"])
def test_pfm_scale_must_be_finite_and_nonzero(tmp_path, scale):
    # the sign of the scale picks the byte order, so a scale without one is corrupt
    path = tmp_path / "s.pfm"
    path.write_bytes(b"Pf\n2 1\n" + scale.encode() + b"\n" + np.ones(2, "<f4").tobytes())
    with pytest.raises(CorruptHeader, match=rf"PFM scale must be finite and nonzero, got {scale}$"):
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


def test_saved_bytes_are_the_copies_the_writers_made_before(tmp_path):
    # grids holding arrays adopted from loaders and producers, written
    # from their buffers: the bytes of the former astype(...).tobytes()
    rng = np.random.default_rng(3)
    values, valid = rng.uniform(0.5, 5.0, (6, 9)), rng.random((6, 9)) > 0.2
    io.save_depth(DepthGrid(values, valid), tmp_path / "in.pfm")
    io.save_depth(DepthGrid(values, valid), tmp_path / "in.dpg")
    loaded = [io.load_depth(tmp_path / "in.pfm"), io.load_depth(tmp_path / "in.dpg")]
    made = [invert_depth(loaded[0]), affine_invariant_normalize(loaded[1])[0]]
    for i, grid in enumerate(loaded + made):
        h, w = grid.shape
        io.save_depth(grid, tmp_path / f"{i}.dpg")
        assert (tmp_path / f"{i}.dpg").read_bytes() == (
            io.DPG_MAGIC + struct.pack("<II", h, w) + grid.values.astype("<f8").tobytes()
        )
        io.save_depth(grid, tmp_path / f"{i}.pfm")
        assert (tmp_path / f"{i}.pfm").read_bytes() == (
            f"Pf\n{w} {h}\n-1.0\n".encode("ascii") + np.flipud(grid.values).astype("<f4").tobytes()
        )
    mask = LabelGrid(rng.integers(0, 65536, (6, 9)))
    io.save_mask(mask, tmp_path / "m.pgm")
    assert (tmp_path / "m.pgm").read_bytes() == (
        b"P5\n9 6\n65535\n" + mask.labels.astype(">u2").tobytes()
    )
    assert np.array_equal(io.load_mask(tmp_path / "m.pgm").labels, mask.labels)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0, True])
def test_pgm_scale_must_be_finite_and_positive(tmp_path, scale):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + np.array([[200]], dtype=">u2").tobytes())
    with pytest.raises(InputError, match="PGM depth scale"):
        io.load_depth(path, pgm_scale=scale)
    if type(scale) is bool:  # a sidecar holds a number's text, never a bool
        return
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


@pytest.mark.parametrize("by_row", [False, True])
def test_samples_csv_bad_pixel_names_line_and_pixel(tmp_path, by_row):
    # a quoted depth sends the whole body to the row parser
    depth = '"1.5"' if by_row else "1.5"
    path = tmp_path / "s.csv"
    path.write_text(f"row,col,depth_m\n1,2,{depth}\n-1,2,{depth}\n")
    with pytest.raises(InputError, match=r"s\.csv:3: negative coordinate in pixel \(-1, 2\)$"):
        io.load_samples(path)
    # a dropped depth does not count; the first line to repeat a pixel is named
    path.write_text(
        f"row,col,depth_m\n0,0,{depth}\n5,5,nan\n5,5,{depth}\n0,0,{depth}\n7,1,{depth}\n"
        f"7,1,{depth}\n"
    )
    with pytest.raises(DuplicateSample, match=r"s\.csv:5: pixel \(0, 0\) repeats line 2$"):
        io.load_samples(path)


def test_samples_csv_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("r,c,d\n0,0,2.5\n")
    with pytest.raises(CorruptHeader):
        io.load_samples(path)


def test_samples_csv_huge_coordinate_names_its_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("row,col,depth_m\n0,0,2.5\n3,9223372036854775808,1.5\n")
    with pytest.raises(CorruptHeader, match=r"s\.csv:3: coordinate 9223372036854775808 is outside"):
        io.load_samples(path)


def test_samples_csv_dropped_depths_need_one_parse(tmp_path, monkeypatch, capsys):
    path = tmp_path / "s.csv"
    path.write_text("row,col,depth_m\n0,0,2.5\n1,1,nan\n2,2,-1.0\n3,3,1.5\n")

    def row_parser(body, path):
        raise AssertionError("dropped depths sent the body to the row parser")

    monkeypatch.setattr(io, "_samples_by_row", row_parser)
    samples = io.load_samples(path)
    assert samples.rows.tolist() == [0, 3] and samples.depths.tolist() == [2.5, 1.5]
    assert capsys.readouterr().err == (
        f"warning: {path}:3: dropping sample with depth nan\n"
        f"warning: {path}:4: dropping sample with depth -1.0\n"
    )


def test_samples_csv_int_read_through_a_float_goes_to_the_row_parser(tmp_path):
    # NumPy >= 2.4 refuses an int field written as a float in the one-call
    # parse, so the row parser names the line
    with pytest.raises(ValueError):
        np.loadtxt(StringIO("1.5,2,3.0\n"), dtype=io._SAMPLE_DTYPE, delimiter=",", comments=None,
                   quotechar=None, ndmin=1)
    path = tmp_path / "s.csv"
    path.write_text("row,col,depth_m\n1.5,2,3.0\n")
    with pytest.raises(CorruptHeader, match=r"s\.csv:2: invalid literal for int\(\) with base 10: '1\.5'"):
        io.load_samples(path)


def reference_load_samples(path):
    """The row-at-a-time parser that load_samples' one-call parse replaced.

    The first negative coordinate, else the first line to repeat a pixel,
    raises naming its line and pixel.
    """
    rows, cols, depths, lines = [], [], [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != io.SAMPLES_HEADER:
            raise CorruptHeader(f"samples CSV must start with header {','.join(io.SAMPLES_HEADER)}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 3:
                raise CorruptHeader(f"{path}:{lineno}: expected 3 columns, got {len(record)}")
            try:
                r, c, d = int(record[0]), int(record[1]), float(record[2])
            except ValueError as err:
                raise CorruptHeader(f"{path}:{lineno}: {err}") from err
            if not math.isfinite(d) or d <= 0:
                print(f"warning: {path}:{lineno}: dropping sample with depth {d}", file=sys.stderr)
                continue
            rows.append(r)
            cols.append(c)
            depths.append(d)
            lines.append(lineno)
    rows_64, cols_64 = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    for lineno, r, c in zip(lines, rows, cols):
        if r < 0 or c < 0:
            raise InputError(f"{path}:{lineno}: negative coordinate in pixel ({r}, {c})")
    first = {}
    for lineno, r, c in zip(lines, rows, cols):
        if (r, c) in first:
            raise DuplicateSample(f"{path}:{lineno}: pixel ({r}, {c}) repeats line {first[r, c]}")
        first[r, c] = lineno
    return SparseSamples(rows_64, cols_64, np.asarray(depths, dtype=np.float64))


# Lines of a samples body, by which parser can read them. FAST lines are
# read by the one-call parse; DROP lines too, but their depth must be
# dropped; SLOW lines only by the row parser (underscores, full-width or
# Arabic-Indic digits, quotes); BAD lines by neither; WIDE lines hold a
# coordinate outside the int64 range.
INTS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 3).map(str),  # duplicates
    st.sampled_from(["+1", " 2", "3 ", "\t4\t", "05", "-0", "\u00a06", str(2**63 - 1)]),
)
DEPTHS = st.one_of(
    st.floats(0.001, 100.0).map(repr),
    st.sampled_from(["2", "+2.5", " 3.25 ", ".5", "5.", "1e3", "1E-3", "4.9e-324"]),
)
DROPPED = st.one_of(
    st.floats(max_value=0.0).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "-0.0", "0", "1e400", "1e-400"]),
)


def record(*fields):
    return st.tuples(*fields).map(",".join)


FAST = record(INTS, INTS, DEPTHS)
DROP = record(INTS, INTS, DROPPED)
SLOW = st.one_of(
    record(st.sampled_from(["1_0", "\uff11", "\u0663", '"6"']), INTS, DEPTHS),
    record(INTS, INTS, st.sampled_from(["1_0.5", "\uff13", '"4.5"', "\u00a07"])),
)
BAD = st.one_of(
    record(st.sampled_from(["1.0", "1e3", "#7", "7#", "", " ", "0x1", "1 2"]), INTS, DEPTHS),
    record(INTS, INTS, st.sampled_from(["#", "3.5#x", "", "0x10", "nan(1)", "1.5e", "3j"])),
    FAST.map(lambda line: line + ","),  # trailing comma
    st.sampled_from(["# comment", "1,2", "1,2,3,4", " ", "\t"]),
)
WIDE = record(st.sampled_from([str(2**63), str(-(2**63) - 1), str(2**64)]), INTS, DEPTHS)
BLANK = st.just("")


@st.composite
def sample_files(draw):
    """A samples CSV: LF, CRLF or CR line ends, maybe no final newline,
    and a body that the one-call parse takes whole, or with depths to
    drop, or that needs the row parser."""
    lines = draw(st.one_of(
        st.lists(FAST, max_size=12),
        st.lists(st.one_of(FAST, DROP, BLANK), max_size=12),
        st.lists(st.one_of(FAST, DROP, SLOW, BAD, WIDE, BLANK), max_size=12),
    ))
    odd = draw(st.none() | st.one_of(SLOW, BAD, WIDE))  # one odd line among the others
    if odd is not None:
        lines.insert(draw(st.integers(0, len(lines))), odd)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    body = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        body = body.rstrip("\r\n")
    header = draw(st.sampled_from(["row,col,depth_m\n", "row,col,depth_m\r\n", " row , col ,depth_m\n"]))
    return header + body


def load_outcome(load, path):
    """What a loader returns or raises, and what it prints on stderr."""
    err = StringIO()
    with redirect_stderr(err):
        try:
            samples = load(path)
            result = ("ok", samples.rows.tobytes(), samples.cols.tobytes(), samples.depths.tobytes())
        except Exception as exc:  # compared by type and message
            result = (type(exc), str(exc))
    return result, err.getvalue()


def first_wide_coordinate(path):
    """(line, value) of the first kept record with a coordinate outside int64."""
    with open(path, newline="") as handle:
        for lineno, record in enumerate(csv.reader(handle), start=1):
            if lineno > 1 and record and 0 < float(record[2]) < math.inf:
                for value in map(int, record[:2]):
                    if not -(2**63) <= value < 2**63:
                        return lineno, value


@settings(max_examples=500, deadline=None)
@given(sample_files())
@example("row,col,depth_m\n")
@example("row,col,depth_m\n\n\n")
@example("row,col,depth_m\n1,2,nan\n3,4,1.5\n")
@example("row,col,depth_m\n1,2,nan\n9223372036854775808,1,1.5\n3,4,0\n1,-9223372036854775809,2\n")
@example("row,col,depth_m\n1,1,1.5\r\n2,2,2.5\r\n")
@example("row,col,depth_m\n1,2,1.5\n-1,2,1.5\n0,0,1\n0,0,2\n")
@example("row,col,depth_m\n0,0,1.5\n1,1,inf\n1,1,2\n0,0,2.5\n1,1,3\n")
def test_samples_parse_matches_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("samples") / "s.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want, want_err = load_outcome(reference_load_samples, path)
    got, got_err = load_outcome(io.load_samples, path)
    assert got_err == want_err
    if want[0] is OverflowError:  # the reference let numpy's error escape
        lineno, value = first_wide_coordinate(path)
        want = (CorruptHeader, f"{path}:{lineno}: coordinate {value} is outside the int64 range")
    assert got == want


# floats the encoder writes differently or that round-trip at the edges
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308]
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def region_report_columns(draw):
    """Region report columns over a few fits of every kind; hop -1 places a
    fit as global, 0 as own and above 0 as expanded."""
    fit = st.builds(
        FitParams, st.sampled_from(FIT_KINDS), any_float, any_float, any_float, any_float,
        st.integers(0, 10**6), any_float,
    )
    fits = draw(st.lists(fit, min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))  # noqa: E731
    return RegionReports(
        fits, column(st.integers(0, len(fits) - 1)), column(st.integers(-1, 40)), column(any_float)
    )


@settings(max_examples=300, deadline=None)
@given(region_report_columns())
def test_region_report_writer_matches_json_dumps(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("reports") / "regions.json"
    io.save_region_reports(reports, path)
    want = json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    assert path.read_text() == want


def test_overflowing_rmse_is_written_as_null(tmp_path):
    # The sample of depth 1e200 lies far outside the clamp, so its squared
    # residual overflows: the RMSE is infinite, written as null, and no
    # RuntimeWarning is raised on the way.
    d_in = DepthGrid(np.random.default_rng(0).uniform(1.0, 5.0, (10, 10)))
    mask = LabelGrid(np.zeros((10, 10), dtype=np.int32))
    samples = SparseSamples.from_points([(1, 1, 2.0), (2, 5, 3.0), (3, 7, 1e200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, reports = rescale(d_in, mask, samples, PipelineConfig(method="slf"))
    assert reports[0].residual_rmse == math.inf
    assert reports[0].as_dict()["residual_rmse"] is None
    io.save_region_reports(reports, tmp_path / "regions.json")

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((tmp_path / "regions.json").read_text(), parse_constant=refuse)
    assert doc[0]["residual_rmse"] is None


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
