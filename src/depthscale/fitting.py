"""Least-squares estimators mapping relative depth to metric depth.

Three fit kinds share one parameter container:

- affine:   z1 = alpha * z2 + beta                (scale and shift)
- planar:   z1 = alpha * z2 + beta * x + gamma * y + delta
- median:   z1 = alpha * z2, alpha from the ratio of medians

Pixel coordinates are normalized to [-1, 1] before fitting, which keeps
the planar design well conditioned; slope parameters are therefore in
normalized-coordinate units. All arithmetic is 64-bit.

There is one fit implementation, `fit_batch`, which fits many
observation lists at once. It stacks the lists of each length n into
(k, n) arrays and runs every step of a fit once on the whole stack:
max/min and sums along the last axis, k (1, n) @ (n, 1) matmuls for the
dot products, one stacked `np.linalg.svd`, `np.partition` along the
last axis for the medians, and elementwise arithmetic for the rest.
Each of these does to every row exactly what the call on that row alone
does (the same pairwise summation, the same BLAS dot, the same LAPACK
call per matrix, the same selection, the same IEEE rounding), so a
stacked fit is bit-identical to the fit of its list alone. A fit whose
parameters are not all finite (an underflowed variance, an overflowed
ratio) is rejected like a degenerate one: in place of a fit, a list
gets the DegeneracyError saying why. `fit_affine`, `fit_planar` and
`fit_median_ratio` are `fit_batch` on one list, raising that refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    DegenerateDesign,
    InputError,
    InsufficientSamples,
    NonFiniteFit,
    OutOfBounds,
    ZeroMedian,
)
from .grids import DepthGrid, LabelGrid, SparseSamples
from .normalize import NormalizationStats

KIND_AFFINE = "affine"
KIND_PLANAR = "planar"
KIND_MEDIAN = "median"
FIT_KINDS = (KIND_AFFINE, KIND_PLANAR, KIND_MEDIAN)

# Algebraic minima: 2 unknowns, 4 unknowns, 1 ratio.
MIN_SUPPORT = {KIND_AFFINE: 2, KIND_PLANAR: 4, KIND_MEDIAN: 1}

DEFAULT_COND_MAX = 1e8

# Pixels per row block of apply_fit: its per-block arrays stay in cache.
_APPLY_BLOCK = 1 << 14

# z2 spread below this fraction of its magnitude counts as constant.
_RELATIVE_SPREAD_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class FitParams:
    """Parameters of one accepted fit, shared by every region placed on it.

    `beta` is the shift for affine fits and the x-slope for planar
    fits; `gamma` and `delta` are only meaningful for planar fits.
    `condition` estimates the conditioning of the design that produced
    the parameters (1.0 for median-ratio, which has no design).
    """

    kind: str
    alpha: float
    beta: float
    gamma: float
    delta: float
    support: int
    condition: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class PairedObservations:
    """Sparse metric depths paired with relative depths and coordinates.

    z1 holds the measured metric depths (strictly positive), z2 the
    relative depth at the same pixels, and (x, y) the pixel position
    normalized to [-1, 1].
    """

    rows: np.ndarray
    cols: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        n = self.rows.size
        if any(array.size != n for array in (self.cols, self.z1, self.z2, self.x, self.y)):
            raise InputError("paired observation arrays must have equal length")
        if n and np.minimum.reduce(self.z1) <= 0:
            raise InputError("measured metric depths must be strictly positive")

    def __len__(self) -> int:
        return int(self.rows.size)

    def take(self, positions: np.ndarray) -> "PairedObservations":
        return PairedObservations(
            rows=self.rows[positions],
            cols=self.cols[positions],
            z1=self.z1[positions],
            z2=self.z2[positions],
            x=self.x[positions],
            y=self.y[positions],
        )


def normalized_coords(
    rows: np.ndarray, cols: np.ndarray, height: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map pixel indices to x, y in [-1, 1] (single row/col maps to 0)."""
    if width > 1:
        x = 2.0 * np.asarray(cols, dtype=np.float64) / (width - 1) - 1.0
    else:
        x = np.zeros(np.asarray(cols).shape, dtype=np.float64)
    if height > 1:
        y = 2.0 * np.asarray(rows, dtype=np.float64) / (height - 1) - 1.0
    else:
        y = np.zeros(np.asarray(rows).shape, dtype=np.float64)
    return x, y


def pair_observations(
    d_rel: DepthGrid, samples: SparseSamples, stats: NormalizationStats | None = None
) -> PairedObservations:
    """Pair each sample with the relative depth at its pixel, normalized
    as `(v - stats.t) / stats.s` when `stats` is given.

    Samples landing on invalid relative-depth pixels are dropped. Order
    of the surviving samples is preserved.
    """
    height, width = d_rel.shape
    if len(samples) and (samples.rows.max() >= height or samples.cols.max() >= width):
        raise OutOfBounds(f"sample coordinates exceed grid shape ({height}, {width})")
    keep = d_rel.valid[samples.rows, samples.cols]
    rows = samples.rows[keep]
    cols = samples.cols[keep]
    x, y = normalized_coords(rows, cols, height, width)
    z2 = d_rel.values[rows, cols]
    if stats is not None:
        z2 -= stats.t
        z2 /= stats.s
    return PairedObservations(rows=rows, cols=cols, z1=samples.depths[keep], z2=z2, x=x, y=y)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of (k, n) arrays, as k (1, n) @ (n, 1) matmuls."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def _refusal(
    kind: str, n: int, condition: float, cond_max: float, design_ok: bool
) -> DegeneracyError:
    """Why a fit of kind `kind` on n observations is refused: too few of them, a
    design rejected at `condition`, or (`design_ok`) parameters not all finite."""
    if n < MIN_SUPPORT[kind]:
        if kind == KIND_MEDIAN:
            return InsufficientSamples("median-ratio fit needs at least 1 observation")
        return InsufficientSamples(f"{kind} fit needs >= {MIN_SUPPORT[kind]} observations, got {n}")
    if design_ok:
        return NonFiniteFit(f"{kind} fit parameters are not finite in 64-bit arithmetic")
    if kind == KIND_AFFINE:
        return DegenerateDesign("relative depths are constant; scale and shift are not identifiable")
    if kind == KIND_PLANAR:
        return DegenerateDesign(
            f"planar design condition {condition:.3e} exceeds {cond_max:.1e} (rank-deficient or near it)"
        )
    return ZeroMedian("median of relative depths is zero")


def _fit_stack(
    kind: str, obs: PairedObservations, rows: np.ndarray, cond_max: float
) -> list[FitParams | DegeneracyError]:
    """Fits of the observation lists obs[rows[i]], all of length n >= MIN_SUPPORT[kind].

    `rows` is a (k, n) integer array. Returns each row's FitParams, or
    the DegeneracyError saying why its fit is refused. Every row is
    solved, into one (k, 4) array of alpha, beta, gamma and delta; the
    caller turns floating-point warnings off: a row is fitted only where
    its design is accepted and its parameters are all finite, so a
    rejected design's division by zero, or a solve that overflows or
    divides by an underflowed zero, never reaches a FitParams. The
    reductions are the ufuncs' own, which `sum`, `max` and `min` call.
    """
    z1, z2 = obs.z1[rows], obs.z2[rows]
    k, n = z1.shape
    coeffs = np.zeros((k, 4))  # alpha, beta, gamma, delta of each row
    if kind == KIND_AFFINE:
        design = np.empty((k, n, 2))
        design[:, :, 0], design[:, :, 1] = z2, 1.0
        s = np.linalg.svd(design, compute_uv=False)
        condition = s[:, 0] / s[:, -1]
        high, low = np.maximum.reduce(z2, axis=1), np.minimum.reduce(z2, axis=1)
        # a constant z2 leaves scale and shift unidentifiable
        accepted = high - low > _RELATIVE_SPREAD_TOL * np.maximum(high, -low)
        z2_bar, z1_bar = np.add.reduce(z2, axis=1) / n, np.add.reduce(z1, axis=1) / n
        dz = z2 - z2_bar[:, None]
        alpha = _row_dots(dz, z1 - z1_bar[:, None]) / _row_dots(dz, dz)
        coeffs[:, 0], coeffs[:, 1] = alpha, z1_bar - alpha * z2_bar
    elif kind == KIND_PLANAR:
        design = np.empty((k, n, 4))
        design[:, :, 0], design[:, :, 1], design[:, :, 2] = z2, obs.x[rows], obs.y[rows]
        design[:, :, 3] = 1.0
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        condition = s[:, 0] / s[:, -1]
        accepted = condition <= cond_max
        scaled = (u.transpose(0, 2, 1) @ z1[:, :, None])[:, :, 0] / s
        coeffs = (vt.transpose(0, 2, 1) @ scaled[:, :, None])[:, :, 0]
    else:
        # z1 and z2 are this stack's own copies: partitioned in place
        mid = (n - 1) // 2
        z2.partition(mid, axis=1)
        z1.partition(mid, axis=1)
        m2 = z2[:, mid]
        accepted = m2 != 0.0
        coeffs[:, 0] = z1[:, mid] / m2
        condition = np.ones(k)
    fitted = accepted & np.logical_and.reduce(np.isfinite(coeffs), axis=1)
    outcomes = zip(coeffs.tolist(), condition.tolist(), fitted.tolist(), accepted.tolist())
    return [
        FitParams(kind, *terms, n, cond) if ok else _refusal(kind, n, cond, cond_max, design_ok)
        for terms, cond, ok, design_ok in outcomes
    ]


def fit_batch(
    kind: str,
    obs: PairedObservations,
    groups: Sequence[np.ndarray],
    cond_max: float = DEFAULT_COND_MAX,
) -> list[FitParams | DegeneracyError]:
    """The fit of kind `kind` on each observation list obs[groups[i]], or why it is refused.

    A refused list, too short for the kind or rejected as degenerate,
    gets the DegeneracyError its one-list fit raises. The lists of each
    length are fitted together as one stack, bit-identical to fitting
    each alone.
    """
    by_size: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        by_size.setdefault(len(group), []).append(i)
    params: list = [None] * len(groups)
    with np.errstate(all="ignore"):
        for n, at in by_size.items():
            if n >= MIN_SUPPORT[kind]:
                fits = _fit_stack(kind, obs, np.array([groups[i] for i in at]), cond_max)
            else:
                fits = [_refusal(kind, n, math.nan, cond_max, False) for _ in at]
            for i, fit in zip(at, fits):
                params[i] = fit
    return params


def _fit_one(kind: str, obs: PairedObservations, cond_max: float = DEFAULT_COND_MAX) -> FitParams:
    """`fit_batch` on every observation as one list; raises its refusal."""
    [fit] = fit_batch(kind, obs, [np.arange(len(obs))], cond_max)
    if isinstance(fit, DegeneracyError):
        raise fit
    return fit


def fit_affine(obs: PairedObservations) -> FitParams:
    """Least-squares scale and shift: minimize sum (alpha*z2 + beta - z1)^2.

    Solved by the closed-form 2x2 normal equations in centered form.
    Raises DegenerateDesign when the z2 values are constant to within a
    1e-12 relative spread.
    """
    return _fit_one(KIND_AFFINE, obs)


def fit_planar(obs: PairedObservations, cond_max: float = DEFAULT_COND_MAX) -> FitParams:
    """Least-squares surface fit z1 = alpha*z2 + beta*x + gamma*y + delta.

    Solved through the SVD of the design matrix [z2, x, y, 1], which
    doubles as the rank and condition check: a design whose condition
    exceeds `cond_max` (including exact rank deficiency, e.g. z2 lying
    in the span of x and y) raises DegenerateDesign, since beyond that
    the parameters are numerically meaningless in 64-bit arithmetic.
    """
    return _fit_one(KIND_PLANAR, obs, cond_max)


def fit_median_ratio(obs: PairedObservations) -> FitParams:
    """Scale by the ratio of medians: alpha = median(z1) / median(z2)."""
    return _fit_one(KIND_MEDIAN, obs)


def planar_terms(fits: Sequence[FitParams]) -> np.ndarray:
    """The (len(fits), 4) table of each fit's (alpha, x-slope, y-slope, offset)
    in the planar form: an affine fit is (alpha, 0, 0, beta), a median-ratio
    fit (alpha, 0, 0, 0)."""
    for p in fits:
        if p.kind not in FIT_KINDS:
            raise InputError(f"unknown fit kind {p.kind!r}")
    rows = [
        (p.alpha, p.beta, p.gamma, p.delta) if p.kind == KIND_PLANAR
        else (p.alpha, 0.0, 0.0, p.beta if p.kind == KIND_AFFINE else 0.0)
        for p in fits
    ]
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def apply_fit(
    d_rel: DepthGrid,
    mask: LabelGrid,
    terms: np.ndarray,
    clamp: tuple[float, float],
    stats: NormalizationStats | None = None,
) -> DepthGrid:
    """Apply row `terms[label]` of a `planar_terms` table to every pixel in
    one label-indexed pass.

    Each pixel gets ((alpha*z2 + beta*x) + gamma*y) + delta from its
    label's row, clamped into [min_depth, max_depth]; affine and median
    fits have zero slopes, which is exact for their own formulas because
    the clamp floor is positive. With `stats`, z2 is the pixel's value
    normalized as `(v - stats.t) / stats.s`. Valid where the input is.
    """
    lo, hi = float(clamp[0]), float(clamp[1])
    if not (0.0 < lo <= hi):
        raise InputError(f"clamp range must satisfy 0 < min <= max, got ({lo}, {hi})")
    if mask.shape != d_rel.shape:
        raise InputError(f"mask shape {mask.shape} != grid shape {d_rel.shape}")
    terms = np.asarray(terms, dtype=np.float64)
    if terms.ndim != 2 or terms.shape[1] != 4:
        raise InputError(f"planar terms must be an (n, 4) table, got shape {terms.shape}")
    top = np.maximum.reduce(mask.labels, axis=None)
    if top >= len(terms):
        raise InputError(f"label {top} has no planar terms ({len(terms)} given)")
    alpha, beta, gamma, delta = terms.T
    height, width = d_rel.shape
    x, y = normalized_coords(np.arange(height)[:, None], np.arange(width), height, width)
    out = np.empty(d_rel.shape)
    # One block of rows at a time, with its labels cast to intp once for
    # the four takes (an int32 index would be cast on every take). The
    # labels were checked above, so mode="clip" never clips; unlike the
    # default mode it writes `out` without an intermediate buffer.
    # np.clip's own loop is a maximum, then a minimum, NaN passing through.
    step = max(1, _APPLY_BLOCK // width)
    term = np.empty((min(step, height), width))
    for r0 in range(0, height, step):
        rows = slice(r0, r0 + step)
        labels = mask.labels[rows].astype(np.intp)
        o = out[rows]
        t = term[: len(o)]
        alpha.take(labels, out=o, mode="clip")
        if stats is None:
            o *= d_rel.values[rows]
        else:
            np.subtract(d_rel.values[rows], stats.t, out=t)
            t /= stats.s
            o *= t
        for coeff, coord in ((beta, x), (gamma, y[rows])):
            coeff.take(labels, out=t, mode="clip")
            t *= coord
            o += t
        delta.take(labels, out=t, mode="clip")
        o += t
        np.minimum(np.maximum(o, lo, out=o), hi, out=o)
    return DepthGrid.adopt(out, d_rel.valid)
