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
import struct
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeader,
    DimensionOverflow,
    InputError,
    UnknownFormat,
)
from .grids import DepthGrid, LabelGrid, SparseSamples
from .metrics import CSV_COLUMNS
from .pipeline import PipelineConfig

DPG_MAGIC = b"DPG1"
DEFAULT_PGM_SCALE = 1000.0  # stored integers are millimeters
MAX_PIXELS = 1 << 28
SAMPLES_HEADER = ["row", "col", "depth_m"]
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


def _grid_from_values(values: np.ndarray, path) -> DepthGrid:
    finite = np.isfinite(values)
    if not finite.all():
        print(
            f"warning: {path}: {int(values.size - finite.sum())} non-finite depths marked invalid",
            file=sys.stderr,
        )
        values = np.where(finite, values, 0.0)
    return DepthGrid(values, values != 0.0)


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
    if scale == 0.0:
        raise CorruptHeader("PFM scale must be nonzero")
    dtype = "<f4" if scale < 0 else ">f4"
    payload = f.read(height * width * 4)
    if len(payload) != height * width * 4:
        raise CorruptHeader("truncated PFM payload")
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return np.flipud(data).astype(np.float64)


def _save_pfm(grid: DepthGrid, f) -> None:
    values = np.where(grid.valid, grid.values, 0.0).astype(np.float32)
    f.write(f"Pf\n{grid.width} {grid.height}\n-1.0\n".encode("ascii"))
    f.write(np.flipud(values).astype("<f4").tobytes())


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
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    payload = f.read(height * width * dtype.itemsize)
    if len(payload) != height * width * dtype.itemsize:
        raise CorruptHeader("truncated PGM payload")
    return np.frombuffer(payload, dtype=dtype).reshape(height, width)


def _load_dpg(f) -> np.ndarray:
    magic = f.read(4)
    if magic != DPG_MAGIC:
        raise CorruptHeader(f"bad raw-grid magic {magic!r}")
    header = f.read(8)
    if len(header) != 8:
        raise CorruptHeader("truncated raw-grid header")
    height, width = struct.unpack("<II", header)
    _check_dims(height, width)
    payload = f.read(height * width * 8)
    if len(payload) != height * width * 8:
        raise CorruptHeader("truncated raw-grid payload")
    return np.frombuffer(payload, dtype="<f8").reshape(height, width).copy()


def _save_dpg(grid: DepthGrid, f) -> None:
    f.write(DPG_MAGIC)
    f.write(struct.pack("<II", grid.height, grid.width))
    f.write(np.where(grid.valid, grid.values, 0.0).astype("<f8").tobytes())


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
            if scale <= 0:
                raise InputError("PGM depth scale must be positive")
            values = raw.astype(np.float64) / scale
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
        return LabelGrid(_load_pgm_raw(f).astype(np.int32))


def save_mask(mask: LabelGrid, path) -> None:
    if mask.labels.max() > 65535:
        raise InputError("labels above 65535 cannot be stored in 16-bit PGM")
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.width} {mask.height}\n65535\n".encode("ascii"))
        f.write(mask.labels.astype(">u2").tobytes())


def load_samples(path) -> SparseSamples:
    """Load sparse measurements from CSV with header ``row,col,depth_m``.

    Rows with non-positive or non-finite depths are rejected with a
    warning on stderr and the load continues; duplicate pixels raise
    DuplicateSample.
    """
    rows: list[int] = []
    cols: list[int] = []
    depths: list[float] = []
    try:
        handle = open(path, newline="")
    except FileNotFoundError as err:
        raise InputError(f"no such file: {path}") from err
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SAMPLES_HEADER:
            raise CorruptHeader(f"samples CSV must start with header {','.join(SAMPLES_HEADER)}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 3:
                raise CorruptHeader(f"{path}:{lineno}: expected 3 columns, got {len(record)}")
            try:
                r, c, d = int(record[0]), int(record[1]), float(record[2])
            except ValueError as err:
                raise CorruptHeader(f"{path}:{lineno}: {err}") from err
            if not np.isfinite(d) or d <= 0:
                print(
                    f"warning: {path}:{lineno}: dropping sample with depth {d}",
                    file=sys.stderr,
                )
                continue
            rows.append(r)
            cols.append(c)
            depths.append(d)
    return SparseSamples(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(depths, dtype=np.float64),
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


def save_region_reports(reports, path) -> None:
    """Write pipeline region reports as deterministic JSON."""
    doc = [r.as_dict() for r in reports]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay one rescaling run bit-exactly.

    `config` holds every pipeline setting; the JSON form is flat, with
    the config's fields beside the others. Samples come either from
    `samples_path` or are drawn from `gt_path` with `n_samples` or
    `beams` under `seed`. Relative paths are resolved against the
    manifest's own directory.
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
    if doc.get("format_version") != MANIFEST_VERSION:
        raise CorruptHeader(f"unsupported manifest version {doc.get('format_version')!r}")
    settings = {f.name: doc.pop(f.name) for f in fields(PipelineConfig) if f.name in doc}
    try:
        return RunManifest(config=PipelineConfig(**settings), **doc)
    except TypeError as err:
        raise CorruptHeader(f"manifest has unknown or missing fields: {err}") from err
