"""File formats, run manifests, and report serialization.

Depth grids travel as:

- PFM (Portable Float Map, ``Pf``): float32, bottom-up rows converted
  to top-down, endianness from the sign of the scale line. The common
  interchange format for depth exporters.
- 16-bit PGM (``P5``): integer depths divided by a scale factor
  (default 1000, i.e. millimeters), taken from an explicit argument or
  a ``<path>.scale`` sidecar file.
- Raw "DPG1": magic bytes, u32 height, u32 width, then row-major
  little-endian float64. Lossless for 64-bit grids; used in tests and
  for bit-exact manifest replay.

Stored zeros and non-finite values mean "no valid depth" in every
format. Masks are 16-bit PGM with the label as the pixel value; samples
are CSV with the header ``row,col,depth_m``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeader,
    DimensionOverflow,
    DuplicateSample,
    InputError,
    UnknownFormat,
    is_finite_real,
)
from .grids import DepthGrid, LabelGrid, SparseSamples
from .metrics import CSV_COLUMNS
from .pipeline import PipelineConfig, RegionReports

DPG_MAGIC = b"DPG1"
DEFAULT_PGM_SCALE = 1000.0  # stored integers are millimeters
MAX_PIXELS = 1 << 28
SAMPLES_HEADER = ["row", "col", "depth_m"]
_SAMPLE_DTYPE = np.dtype([("row", "<i8"), ("col", "<i8"), ("depth", "<f8")])
_INT64 = np.iinfo(np.int64)
MANIFEST_VERSION = 1


def _check_dims(height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise CorruptHeader(f"non-positive grid dimensions {height} x {width}")
    if height * width > MAX_PIXELS:
        raise DimensionOverflow(f"grid {height} x {width} exceeds {MAX_PIXELS} pixels")


def _read_token(f) -> bytes:
    """Next whitespace-delimited token; consumes one trailing whitespace byte."""
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            if token:
                return token
            raise CorruptHeader("unexpected end of header")
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _read_payload(f, shape: tuple[int, int], dtype, what: str) -> np.ndarray:
    """The next H x W items of `dtype` in `f`, read straight into a new array."""
    out = np.empty(shape, dtype=dtype)
    if f.readinto(out) != out.nbytes:
        raise CorruptHeader(f"truncated {what} payload")
    return out


def _grid_from_values(values: np.ndarray, path) -> DepthGrid:
    """The grid that adopts `values`, a fresh float64 array."""
    finite = np.isfinite(values)
    if not finite.all():
        print(
            f"warning: {path}: {int(values.size - finite.sum())} non-finite depths marked invalid",
            file=sys.stderr,
        )
    finite &= values != 0.0
    return DepthGrid.adopt(values, finite)


def _load_pfm(f) -> np.ndarray:
    kind = _read_token(f)
    if kind == b"PF":
        raise UnknownFormat("3-channel PFM is not supported; expected grayscale 'Pf'")
    if kind != b"Pf":
        raise CorruptHeader(f"bad PFM type token {kind!r}")
    try:
        width = int(_read_token(f))
        height = int(_read_token(f))
        scale = float(_read_token(f))
    except ValueError as err:
        raise CorruptHeader(f"malformed PFM header: {err}") from err
    _check_dims(height, width)
    if not (scale and math.isfinite(scale)):
        raise CorruptHeader(f"PFM scale must be finite and nonzero, got {scale!r}")
    data = _read_payload(f, (height, width), "<f4" if scale < 0 else ">f4", "PFM")
    return np.flipud(data).astype(np.float64)


def _save_pfm(grid: DepthGrid, f) -> None:
    f.write(f"Pf\n{grid.width} {grid.height}\n-1.0\n".encode("ascii"))
    f.write(np.ascontiguousarray(np.flipud(grid.values), dtype="<f4"))


def _load_pgm_raw(f) -> np.ndarray:
    magic = _read_token(f)
    if magic != b"P5":
        raise CorruptHeader(f"bad PGM magic {magic!r}")

    def next_value() -> int:
        while True:
            token = _read_token(f)
            if token.startswith(b"#"):  # comment runs to end of line
                f.readline()
                continue
            return int(token)

    try:
        width = next_value()
        height = next_value()
        maxval = next_value()
    except ValueError as err:
        raise CorruptHeader(f"malformed PGM header: {err}") from err
    _check_dims(height, width)
    if not 0 < maxval < 65536:
        raise CorruptHeader(f"PGM maxval {maxval} out of range")
    return _read_payload(f, (height, width), ">u2" if maxval > 255 else "u1", "PGM")


def _load_dpg(f) -> np.ndarray:
    magic = f.read(4)
    if magic != DPG_MAGIC:
        raise CorruptHeader(f"bad raw-grid magic {magic!r}")
    header = f.read(8)
    if len(header) != 8:
        raise CorruptHeader("truncated raw-grid header")
    height, width = struct.unpack("<II", header)
    _check_dims(height, width)
    # native float64 on little-endian hosts: the array the grid keeps
    return _read_payload(f, (height, width), "<f8", "raw-grid").astype(np.float64, copy=False)


def _save_dpg(grid: DepthGrid, f) -> None:
    f.write(DPG_MAGIC)
    f.write(struct.pack("<II", grid.height, grid.width))
    f.write(np.ascontiguousarray(grid.values, dtype="<f8"))


def _open(path) -> object:
    try:
        return open(path, "rb")
    except FileNotFoundError as err:
        raise InputError(f"no such file: {path}") from err


def _sidecar_scale(path) -> float | None:
    sidecar = Path(str(path) + ".scale")
    if sidecar.exists():
        try:
            return float(sidecar.read_text().strip())
        except ValueError as err:
            raise CorruptHeader(f"bad scale sidecar {sidecar}: {err}") from err
    return None


def load_depth(path, pgm_scale: float | None = None) -> DepthGrid:
    """Load a depth grid, sniffing PFM / PGM / DPG1 by magic bytes.

    Zeros and non-finite values (e.g. ``inf`` sky pixels) become invalid
    pixels; non-finite ones are counted in a warning on stderr. For PGM,
    depths are stored integers divided by `pgm_scale`; when not given, a
    ``<path>.scale`` sidecar is consulted, then the default of 1000
    (millimeter storage).
    """
    with _open(path) as f:
        magic = f.read(4)
        f.seek(0)
        if magic[:2] in (b"Pf", b"PF"):
            values = _load_pfm(f)
        elif magic[:2] == b"P5":
            raw = _load_pgm_raw(f)
            scale = pgm_scale if pgm_scale is not None else _sidecar_scale(path)
            if scale is None:
                scale = DEFAULT_PGM_SCALE
            if not is_finite_real(scale, 0, above=True):
                raise InputError(f"PGM depth scale must be finite and > 0, got {scale!r}")
            values = raw.astype(np.float64)
            values /= float(scale)
        elif magic == DPG_MAGIC:
            values = _load_dpg(f)
        else:
            raise UnknownFormat(f"unrecognized depth format in {path}")
    return _grid_from_values(values, path)


def save_depth(grid: DepthGrid, path) -> None:
    """Write a depth grid; the suffix picks the format (.pfm or .dpg).

    Invalid pixels are stored as zero. PFM narrows to float32; use .dpg
    when a lossless 64-bit round-trip matters.
    """
    suffix = Path(path).suffix.lower()
    with open(path, "wb") as f:
        if suffix == ".pfm":
            _save_pfm(grid, f)
        elif suffix == ".dpg":
            _save_dpg(grid, f)
        else:
            raise UnknownFormat(f"cannot infer depth format from suffix {suffix!r}")


def load_mask(path) -> LabelGrid:
    """Load a label grid from a PGM file (label = pixel value)."""
    with _open(path) as f:
        return LabelGrid.adopt(_load_pgm_raw(f).astype(np.int32))


def save_mask(mask: LabelGrid, path) -> None:
    if mask.labels.max() > 65535:
        raise InputError("labels above 65535 cannot be stored in 16-bit PGM")
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.width} {mask.height}\n65535\n".encode("ascii"))
        f.write(mask.labels.astype(">u2"))


def load_samples(path) -> SparseSamples:
    """Load sparse measurements from CSV with header ``row,col,depth_m``.

    Rows with non-positive or non-finite depths are rejected with a
    warning on stderr and the load continues; a malformed row, or a
    coordinate outside the int64 range, raises CorruptHeader naming its
    line; a negative coordinate raises InputError and a repeated pixel
    DuplicateSample, each naming its line and pixel.
    """
    try:
        handle = open(path, newline="")
    except FileNotFoundError as err:
        raise InputError(f"no such file: {path}") from err
    with handle:
        header = next(csv.reader(handle), None)
        if header is None or [h.strip() for h in header] != SAMPLES_HEADER:
            raise CorruptHeader(f"samples CSV must start with header {','.join(SAMPLES_HEADER)}")
        body = handle.read()
    samples = _samples_in_one_call(body, path)
    return _samples_by_row(body, path) if samples is None else samples


def _warn_dropped(path, lineno: int, depth: float) -> None:
    print(f"warning: {path}:{lineno}: dropping sample with depth {depth}", file=sys.stderr)


def _samples_in_one_call(body: str, path) -> SparseSamples | None:
    """The body parsed by one np.loadtxt call, or None where only the
    row-by-row parser gives the exact result: the call raises or skips a line."""
    if not body.strip():  # loadtxt warns on input without data
        return None
    try:  # an int field such as "1.5" or 2**63 raises, for the row parser to name
        table = np.loadtxt(
            StringIO(body), dtype=_SAMPLE_DTYPE, delimiter=",", comments=None,
            quotechar=None, ndmin=1,
        )
    except ValueError:  # also at a lone \r line end, which csv accepts
        return None
    # loadtxt skips empty lines; with none skipped, table row i is file line i + 2
    if len(table) != body.count("\n") + (not body.endswith("\n")):
        return None
    depths = table["depth"]
    keep = np.isfinite(depths) & (depths > 0)
    lines = np.arange(2, len(table) + 2)
    if not keep.all():
        for i in np.flatnonzero(~keep):
            _warn_dropped(path, int(i) + 2, float(depths[i]))
        table, lines = table[keep], lines[keep]
    return _located_samples(path, table["row"], table["col"], table["depth"], lines)


def _located_samples(path, rows, cols, depths, lines) -> SparseSamples:
    """SparseSamples of the kept records, read from file lines `lines`; a
    negative coordinate or a repeated pixel raises naming its line and pixel."""
    try:
        return SparseSamples(rows, cols, depths)
    except InputError:
        negative = np.flatnonzero((rows < 0) | (cols < 0))
        if negative.size:
            i = negative[0]
            raise InputError(
                f"{path}:{lines[i]}: negative coordinate in pixel ({rows[i]}, {cols[i]})"
            ) from None
        order = np.lexsort((cols, rows))  # stable: a pixel's lines stay in file order
        r, c = rows[order], cols[order]
        repeats = np.flatnonzero((r[1:] == r[:-1]) & (c[1:] == c[:-1])) + 1
        if repeats.size:
            k = repeats[np.argmin(order[repeats])]  # the first line to repeat a pixel
            i, first = order[k], order[k - 1]
            raise DuplicateSample(
                f"{path}:{lines[i]}: pixel ({rows[i]}, {cols[i]}) repeats line {lines[first]}"
            ) from None
        raise


def _samples_by_row(body: str, path) -> SparseSamples:
    """The body parsed one CSV record at a time, with each diagnostic's exact text."""
    rows: list[int] = []
    cols: list[int] = []
    depths: list[float] = []
    lines: list[int] = []
    out_of_range = None
    for lineno, record in enumerate(csv.reader(StringIO(body, newline="")), start=2):
        if not record:
            continue
        if len(record) != 3:
            raise CorruptHeader(f"{path}:{lineno}: expected 3 columns, got {len(record)}")
        try:
            r, c, d = int(record[0]), int(record[1]), float(record[2])
        except ValueError as err:
            raise CorruptHeader(f"{path}:{lineno}: {err}") from err
        if not math.isfinite(d) or d <= 0:
            _warn_dropped(path, lineno, d)
            continue
        wide = [v for v in (r, c) if not _INT64.min <= v <= _INT64.max]
        if wide and out_of_range is None:
            out_of_range = f"{path}:{lineno}: coordinate {wide[0]} is outside the int64 range"
        rows.append(r)
        cols.append(c)
        depths.append(d)
        lines.append(lineno)
    # reported after the loop, so that every other error and warning comes first
    if out_of_range is not None:
        raise CorruptHeader(out_of_range)
    return _located_samples(
        path,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(depths, dtype=np.float64),
        lines,
    )


def save_samples(samples: SparseSamples, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(SAMPLES_HEADER)
        for r, c, d in zip(samples.rows, samples.cols, samples.depths):
            writer.writerow([int(r), int(c), repr(float(d))])


def save_report(rows: list[dict], path) -> None:
    """Write benchmark rows as CSV in the canonical column order."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _json_tokens(values: list) -> list[str]:
    """The JSON of each value, cut from one C-encoded `json.dumps` of the list."""
    tokens = json.dumps(values)[1:-1].split(", ") if values else []
    # Cutting at ", " needs that no value's JSON holds it, which holds
    # because the only strings are fit kinds and provenances.
    if len(tokens) != len(values):
        raise ValueError(f"a value's JSON holds ', ': {values!r:.200}")
    return tokens


def save_region_reports(reports: RegionReports, path) -> None:
    """Write region reports as deterministic JSON.

    The bytes are those of `json.dumps([r.as_dict() for r in reports],
    indent=2, sort_keys=True)` and a newline, encoded a column at a time
    (the indenting encoder is pure Python) without building the reports:
    each fit's values once, placed on its regions by `fit_of`.
    """
    per_fit, fit_of, per_region = reports.columns()
    tokens = {key: _json_tokens(values) for key, values in per_region.items()}
    for key, values in per_fit.items():
        tokens[key] = np.array(_json_tokens(values), dtype=object)[fit_of].tolist()
    keys = sorted(tokens)
    record = "  {\n" + ",\n".join(f"    {json.dumps(key)}: %s" for key in keys) + "\n  }"
    records = ",\n".join(map(record.__mod__, zip(*(tokens[key] for key in keys))))
    Path(path).write_text(f"[\n{records}\n]\n" if records else "[]\n")


PATH_FIELDS = ("depth_path", "mask_path", "out_depth", "out_report", "samples_path", "gt_path")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay one rescaling run bit-exactly.

    `config` holds every pipeline setting; the JSON form is flat, with
    the config's fields beside the others. Samples come either from
    `samples_path` or are drawn from `gt_path` with `n_samples` or
    `beams` under `seed`. Relative paths are resolved against the
    manifest's own directory. A mistyped path or `already_depth` raises
    InputError naming the field; sampling fields are checked where used.
    """

    depth_path: str
    mask_path: str
    out_depth: str
    out_report: str
    config: PipelineConfig = PipelineConfig()
    samples_path: str | None = None
    gt_path: str | None = None
    n_samples: int | None = None
    beams: int | None = None
    noise_sigma: float = 0.0
    seed: int = 0
    already_depth: bool = False
    pgm_scale: float | None = None
    format_version: int = MANIFEST_VERSION

    def __post_init__(self):
        for f in fields(self):
            if f.name in PATH_FIELDS:
                path = getattr(self, f.name)
                # required paths have no default; optional ones default to None
                if not (isinstance(path, str) or (path is None and f.default is None)):
                    raise InputError(f"{f.name} must be a path string, got {path!r}")
        if type(self.already_depth) is not bool:
            raise InputError(f"already_depth must be true or false, got {self.already_depth!r}")

    def to_json(self) -> str:
        doc = asdict(self)
        doc.update(doc.pop("config"))
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_manifest(manifest: RunManifest, path) -> None:
    Path(path).write_text(manifest.to_json())


def load_manifest(path) -> RunManifest:
    """Read a manifest; pipeline keys it lacks take PipelineConfig defaults."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as err:
        raise InputError(f"no such file: {path}") from err
    except json.JSONDecodeError as err:
        raise CorruptHeader(f"manifest is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise CorruptHeader(f"manifest must be a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != MANIFEST_VERSION:
        raise CorruptHeader(f"unsupported manifest version {doc.get('format_version')!r}")
    settings = {f.name: doc.pop(f.name) for f in fields(PipelineConfig) if f.name in doc}
    try:
        return RunManifest(config=PipelineConfig(**settings), **doc)
    except TypeError as err:
        raise CorruptHeader(f"manifest has unknown or missing fields: {err}") from err
