"""Correctness checks on benchmark outputs, computed apart from depthscale.

Each check recomputes what it needs with NumPy and SciPy from the inputs
the benchmark generated, or tests a property the method must have. None
compares against a stored copy of earlier output. A failed check raises
`CheckFailed` naming what differed.

Reports are taken in their JSON form (`RegionReport.as_dict()`, or the
region report file the CLI writes), so the same checks serve the library
and the file workloads.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

# The library's default planar condition limit and per-kind sample minima
# (PipelineConfig defaults: min_samples_linear=2, min_samples_planar=4).
COND_MAX = 1e8
MIN_OWN = {"affine": 2, "planar": 4, "median": 1}

# Output pixels must match the parameters the report gives, up to float64
# rounding: the benchmark applies them in its own arithmetic.
APPLY_RTOL = 1e-12
APPLY_ATOL = 1e-12
# Fitted parameters against an independent least-squares solve.
PARAM_RTOL = 1e-6
PARAM_ATOL = 1e-8
# Float32 inputs: 2**-24 relative rounding of the stored disparity moves the
# recovered depth by at most ~17 m * 2**-24 = 1e-6 m here; allow 10x that.
FLOAT32_TOL_M = 1e-5
# Printed metrics against the benchmark's own computation.
METRIC_RTOL = 1e-9

_FOUR = ndimage.generate_binary_structure(2, 1)


class CheckFailed(AssertionError):
    """An output that contradicts the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def partition(labels: np.ndarray) -> np.ndarray:
    """4-connected components of each label value, numbered by first appearance.

    Numbering follows the row-major scan, so the component holding the
    top-left pixel is 0.
    """
    comp = np.empty(labels.shape, dtype=np.int64)
    count = 0
    for value in np.unique(labels):
        lab, n = ndimage.label(labels == value, structure=_FOUR)
        inside = lab > 0
        comp[inside] = lab[inside] - 1 + count
        count += n
    flat = comp.ravel()
    first = np.full(count, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(count)
    return rank[comp]


def median_mad_normalize(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Zero lower-median, unit mean-absolute-deviation map (invalid pixels kept)."""
    v = values[valid]
    k = (v.size - 1) // 2
    t = float(np.partition(v, k)[k])
    s = float(np.mean(np.abs(v - t)))
    out = values.astype(np.float64, copy=True)
    out[valid] = (v - t) / s
    return out


def coords(rows, cols, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel indices mapped to [-1, 1]; a single row or column maps to 0."""
    cols = np.asarray(cols, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    x = 2.0 * cols / (width - 1) - 1.0 if width > 1 else np.zeros_like(cols)
    y = 2.0 * rows / (height - 1) - 1.0 if height > 1 else np.zeros_like(rows)
    return x, y


def own_sample_counts(comp, valid, rows, cols) -> np.ndarray:
    """Samples per region that land on a valid input pixel."""
    keep = valid[rows, cols]
    return np.bincount(comp[rows[keep], cols[keep]], minlength=int(comp.max()) + 1)


def check_validity(out_values, out_valid, in_valid, clamp) -> None:
    """Output validity equals input validity; valid values lie in the clamp range."""
    require(np.array_equal(out_valid, in_valid), "output validity differs from input validity")
    v = out_values[out_valid]
    lo, hi = clamp
    require(bool(np.all(np.isfinite(v))), "non-finite output value")
    require(bool(np.all((v >= lo) & (v <= hi))), f"output value outside clamp range {clamp}")


def check_report_order(reports: list[dict], n_regions: int) -> None:
    """One report per region of the partition, in first-appearance order."""
    require(len(reports) == n_regions, f"{len(reports)} region reports for {n_regions} regions")
    ids = [r["region_id"] for r in reports]
    require(ids == list(range(n_regions)), "region reports out of first-appearance order")


def check_own_minimum(reports: list[dict], own_counts: np.ndarray) -> None:
    """`own` provenance only where the region's own valid samples meet the kind's minimum."""
    for r in reports:
        if r["provenance"] == "own":
            need = MIN_OWN[r["kind"]]
            have = int(own_counts[r["region_id"]])
            require(
                have >= need,
                f"region {r['region_id']}: own {r['kind']} fit from {have} samples (< {need})",
            )


def apply_reports(reports: list[dict], comp: np.ndarray, working: np.ndarray, clamp) -> np.ndarray:
    """Every pixel mapped through its region's reported parameters, then clipped."""
    kind = np.array([r["kind"] for r in reports])
    alpha = np.array([r["alpha"] for r in reports], dtype=np.float64)
    beta = np.array([r["beta"] for r in reports], dtype=np.float64)
    gamma = np.array([r["gamma"] for r in reports], dtype=np.float64)
    delta = np.array([r["delta"] for r in reports], dtype=np.float64)
    planar = kind == "planar"
    slope_x = np.where(planar, beta, 0.0)[comp]
    slope_y = np.where(planar, gamma, 0.0)[comp]
    shift = np.where(planar, delta, np.where(kind == "affine", beta, 0.0))[comp]
    height, width = comp.shape
    rr, cc = np.indices(comp.shape)
    x, y = coords(rr, cc, height, width)
    return np.clip(alpha[comp] * working + slope_x * x + slope_y * y + shift, *clamp)


def check_fragmented(inp: dict, out_values, out_valid, reports: list[dict]) -> None:
    """Partition, per-region parameters and provenance of one fuzzed-mask frame.

    `inp` holds labels, values, valid, rows, cols, method and clamp.
    """
    valid = inp["valid"]
    check_validity(out_values, out_valid, valid, inp["clamp"])
    comp = partition(inp["labels"])
    check_report_order(reports, int(comp.max()) + 1)
    if inp["method"] in ("slf", "ssf"):
        working = median_mad_normalize(inp["values"], valid)
    else:
        working = inp["values"]
    expected = apply_reports(reports, comp, np.where(valid, working, 0.0), inp["clamp"])
    close = np.isclose(out_values, expected, rtol=APPLY_RTOL, atol=APPLY_ATOL) | ~valid
    if not close.all():
        r, c = np.argwhere(~close)[0]
        raise CheckFailed(
            f"pixel ({r}, {c}) of region {comp[r, c]} is {out_values[r, c]!r}, "
            f"its reported parameters give {expected[r, c]!r}"
        )
    check_own_minimum(reports, own_sample_counts(comp, valid, inp["rows"], inp["cols"]))


def planar_lstsq(z2, x, y, z1) -> tuple[np.ndarray, float]:
    """Least squares for z1 = a*z2 + b*x + c*y + d, with the design's condition."""
    design = np.column_stack([z2, x, y, np.ones_like(z2)])
    coef, _, _, sv = np.linalg.lstsq(design, z1, rcond=None)
    cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    return coef, cond


def check_planar_recovery(
    inp: dict, comp: np.ndarray, reports: list[dict], out_values, tol_m: float
) -> None:
    """Regions with enough well-conditioned own samples recover the ground truth.

    `inp` holds rel (the relative map the method fits, before its own
    normalization), valid, gt, rows, cols and depths. For each region
    holding at least 4 own valid samples, an independent least-squares
    solve on its own samples decides whether the library must accept an
    own surface fit (condition within COND_MAX); if so, the reported
    parameters must match that solve and the region's output must match
    the ground truth to `tol_m`. At least one region must qualify, so the
    check cannot pass vacuously.
    """
    valid = inp["valid"]
    rows, cols, z1 = inp["rows"], inp["cols"], inp["depths"]
    keep = valid[rows, cols]
    rows, cols, z1 = rows[keep], cols[keep], z1[keep]
    working = median_mad_normalize(inp["rel"], valid)
    height, width = comp.shape
    x, y = coords(rows, cols, height, width)
    region_of = comp[rows, cols]
    order = np.argsort(region_of, kind="stable")
    bounds = np.searchsorted(region_of[order], np.arange(len(reports) + 1))
    exact = np.zeros(len(reports), dtype=bool)
    for rid, report in enumerate(reports):
        idx = order[bounds[rid]:bounds[rid + 1]]
        if idx.size < MIN_OWN["planar"]:
            continue
        coef, cond = planar_lstsq(working[rows[idx], cols[idx]], x[idx], y[idx], z1[idx])
        if cond > COND_MAX:
            require(report["provenance"] != "own", f"region {rid}: own fit at condition {cond:.3e}")
            continue
        require(
            report["provenance"] == "own" and report["kind"] == "planar",
            f"region {rid}: {idx.size} own samples at condition {cond:.3e} but "
            f"{report['provenance']} {report['kind']} fit",
        )
        got = np.array([report["alpha"], report["beta"], report["gamma"], report["delta"]])
        require(
            bool(np.allclose(got, coef, rtol=PARAM_RTOL, atol=PARAM_ATOL)),
            f"region {rid}: parameters {got.tolist()} differ from least squares {coef.tolist()}",
        )
        exact[rid] = True
    require(bool(exact.any()), "no region has enough well-conditioned own samples to check")
    sel = exact[comp] & valid
    err = np.abs(out_values[sel] - inp["gt"][sel])
    require(
        float(err.max()) <= tol_m,
        f"own-fit regions miss the ground truth by up to {err.max():.3e} m",
    )


def depth_metrics(pred, pred_valid, gt, gt_valid, depth_range=(0.001, 10.0)) -> dict:
    """abs_rel, rmse and d1 over pixels valid in both with gt inside the range."""
    lo, hi = depth_range
    sel = pred_valid & gt_valid & (gt >= lo) & (gt <= hi)
    p, g = pred[sel], gt[sel]
    ratio = np.maximum(p / g, g / p)
    return {
        "abs_rel": float(np.mean(np.abs(p - g) / g)),
        "rmse": float(np.sqrt(np.mean((p - g) ** 2))),
        "d1": float(np.mean(ratio < 1.25)),
    }


def check_printed_metrics(printed: dict, expected: dict) -> None:
    for key, want in expected.items():
        require(key in printed, f"evaluate printed no {key}")
        got = printed[key]
        require(
            abs(got - want) <= METRIC_RTOL * max(abs(want), 1e-12),
            f"printed {key} {got!r} differs from recomputed {want!r}",
        )
