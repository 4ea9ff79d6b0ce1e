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
ratio) is rejected like a degenerate one. `fit_affine`, `fit_planar`
and `fit_median_ratio` are the kernel on one list, raising where it
would return None.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDesign,
    InputError,
    InsufficientSamples,
    NonFiniteFit,
    OutOfBounds,
    ZeroMedian,
)
from .grids import DepthGrid, LabelGrid, SparseSamples

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
        for name in ("cols", "z1", "z2", "x", "y"):
            if getattr(self, name).size != n:
                raise InputError("paired observation arrays must have equal length")
        if n and self.z1.min() <= 0:
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


def pair_observations(d_rel: DepthGrid, samples: SparseSamples) -> PairedObservations:
    """Pair each sample with the relative depth at its pixel.

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
    return PairedObservations(
        rows=rows,
        cols=cols,
        z1=samples.depths[keep],
        z2=d_rel.values[rows, cols],
        x=x,
        y=y,
    )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of (k, n) arrays, as k (1, n) @ (n, 1) matmuls."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def _fit_stack(
    kind: str, obs: PairedObservations, rows, cond_max: float
) -> tuple[list[FitParams | None], np.ndarray, np.ndarray]:
    """Fits of the observation lists obs[rows[i]], all of length n >= MIN_SUPPORT[kind].

    `rows` indexes each observation array into a (k, n) stack: a (k, n)
    integer array, or `np.s_[None, :]` for all observations as one list
    (a view, with nothing copied). Returns each row's FitParams, or None
    where its fit is rejected; each row's design condition (1.0 for
    median-ratio); and whether each row's design was accepted. Every row
    is solved, into one (k, 4) array of alpha, beta, gamma and delta,
    with floating-point warnings off: a row is fitted only where its
    design is accepted and its parameters are all finite, so a rejected
    design's division by zero, or a solve that overflows or divides by
    an underflowed zero, never reaches a FitParams.
    """
    z1, z2 = obs.z1[rows], obs.z2[rows]
    k, n = z1.shape
    coeffs = np.zeros((k, 4))  # alpha, beta, gamma, delta of each row
    with np.errstate(all="ignore"):
        if kind == KIND_AFFINE:
            s = np.linalg.svd(np.stack([z2, np.ones_like(z2)], axis=2), compute_uv=False)
            condition = s[:, 0] / s[:, -1]
            high, low = z2.max(axis=1), z2.min(axis=1)
            # a constant z2 leaves scale and shift unidentifiable
            accepted = high - low > _RELATIVE_SPREAD_TOL * np.maximum(high, -low)
            z2_bar, z1_bar = z2.sum(axis=1) / n, z1.sum(axis=1) / n
            dz = z2 - z2_bar[:, None]
            alpha = _row_dots(dz, z1 - z1_bar[:, None]) / _row_dots(dz, dz)
            coeffs[:, 0], coeffs[:, 1] = alpha, z1_bar - alpha * z2_bar
        elif kind == KIND_PLANAR:
            design = np.stack([z2, obs.x[rows], obs.y[rows], np.ones_like(z2)], axis=2)
            u, s, vt = np.linalg.svd(design, full_matrices=False)
            condition = s[:, 0] / s[:, -1]
            accepted = condition <= cond_max
            scaled = (np.swapaxes(u, 1, 2) @ z1[:, :, None])[:, :, 0] / s
            coeffs = (np.swapaxes(vt, 1, 2) @ scaled[:, :, None])[:, :, 0]
        else:
            mid = (n - 1) // 2
            m2 = np.partition(z2, mid, axis=1)[:, mid]
            accepted = m2 != 0.0
            coeffs[:, 0] = np.partition(z1, mid, axis=1)[:, mid] / m2
            condition = np.ones(k)
    fitted = accepted & np.isfinite(coeffs).all(axis=1)
    params = [
        FitParams(kind, *terms, n, cond) if ok else None
        for terms, cond, ok in zip(coeffs.tolist(), condition.tolist(), fitted.tolist())
    ]
    return params, condition, accepted


def fit_batch(
    kind: str,
    obs: PairedObservations,
    groups: Sequence[np.ndarray],
    cond_max: float = DEFAULT_COND_MAX,
) -> list[FitParams | None]:
    """The fit of kind `kind` on each observation list obs[groups[i]], or None.

    None marks a list the one-list fit would refuse: too short for the
    kind, or rejected as degenerate. The lists of each length are fitted
    together as one stack, bit-identical to fitting each alone.
    """
    by_size: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        by_size.setdefault(len(group), []).append(i)
    params: list[FitParams | None] = [None] * len(groups)
    for n, at in by_size.items():
        if n >= MIN_SUPPORT[kind]:
            fits = _fit_stack(kind, obs, np.array([groups[i] for i in at]), cond_max)[0]
            for i, fit in zip(at, fits):
                params[i] = fit
    return params


def _fit_all(kind: str, obs: PairedObservations, cond_max: float) -> tuple[FitParams | None, float]:
    """One fit on every observation: its FitParams, or None where its design
    is rejected, and its condition. Raises NonFiniteFit where the design is
    accepted but the parameters are not all finite."""
    [params], [condition], [accepted] = _fit_stack(kind, obs, np.s_[None, :], cond_max)
    if accepted and params is None:
        raise NonFiniteFit(f"{kind} fit parameters are not finite in 64-bit arithmetic")
    return params, condition


def fit_affine(obs: PairedObservations) -> FitParams:
    """Least-squares scale and shift: minimize sum (alpha*z2 + beta - z1)^2.

    Solved by the closed-form 2x2 normal equations in centered form.
    Raises DegenerateDesign when the z2 values are constant to within a
    1e-12 relative spread.
    """
    n = len(obs)
    if n < MIN_SUPPORT[KIND_AFFINE]:
        raise InsufficientSamples(f"affine fit needs >= 2 observations, got {n}")
    params, _ = _fit_all(KIND_AFFINE, obs, DEFAULT_COND_MAX)
    if params is None:
        raise DegenerateDesign("relative depths are constant; scale and shift are not identifiable")
    return params


def fit_planar(obs: PairedObservations, cond_max: float = DEFAULT_COND_MAX) -> FitParams:
    """Least-squares surface fit z1 = alpha*z2 + beta*x + gamma*y + delta.

    Solved through the SVD of the design matrix [z2, x, y, 1], which
    doubles as the rank and condition check: a design whose condition
    exceeds `cond_max` (including exact rank deficiency, e.g. z2 lying
    in the span of x and y) raises DegenerateDesign, since beyond that
    the parameters are numerically meaningless in 64-bit arithmetic.
    """
    n = len(obs)
    if n < MIN_SUPPORT[KIND_PLANAR]:
        raise InsufficientSamples(f"planar fit needs >= 4 observations, got {n}")
    params, cond = _fit_all(KIND_PLANAR, obs, cond_max)
    if params is None:
        raise DegenerateDesign(
            f"planar design condition {cond:.3e} exceeds {cond_max:.1e} (rank-deficient or near it)"
        )
    return params


def fit_median_ratio(obs: PairedObservations) -> FitParams:
    """Scale by the ratio of medians: alpha = median(z1) / median(z2)."""
    n = len(obs)
    if n < MIN_SUPPORT[KIND_MEDIAN]:
        raise InsufficientSamples("median-ratio fit needs at least 1 observation")
    params, _ = _fit_all(KIND_MEDIAN, obs, DEFAULT_COND_MAX)
    if params is None:
        raise ZeroMedian("median of relative depths is zero")
    return params


def _planar_terms(params: FitParams) -> tuple[float, float, float, float]:
    """A fit as (alpha, x-slope, y-slope, offset) of the planar form."""
    if params.kind == KIND_PLANAR:
        return params.alpha, params.beta, params.gamma, params.delta
    if params.kind == KIND_AFFINE:
        return params.alpha, 0.0, 0.0, params.beta
    if params.kind == KIND_MEDIAN:
        return params.alpha, 0.0, 0.0, 0.0
    raise InputError(f"unknown fit kind {params.kind!r}")


def apply_fit(
    d_rel: DepthGrid,
    mask: LabelGrid,
    params: Sequence[FitParams],
    clamp: tuple[float, float],
) -> DepthGrid:
    """Apply `params[label]` to every pixel in one label-indexed pass.

    Each pixel gets ((alpha*z2 + beta*x) + gamma*y) + delta from its
    label's planar terms, clamped into [min_depth, max_depth]; affine and
    median fits have zero slopes, which is exact for their own formulas
    because the clamp floor is positive. Valid where the input is.
    """
    lo, hi = float(clamp[0]), float(clamp[1])
    if not (0.0 < lo <= hi):
        raise InputError(f"clamp range must satisfy 0 < min <= max, got ({lo}, {hi})")
    if mask.shape != d_rel.shape:
        raise InputError(f"mask shape {mask.shape} != grid shape {d_rel.shape}")
    if mask.labels.max() >= len(params):
        raise InputError(f"label {mask.labels.max()} has no fit parameters ({len(params)} given)")
    alpha, beta, gamma, delta = np.array([_planar_terms(p) for p in params], dtype=np.float64).T
    x, y = normalized_coords(*np.ogrid[: d_rel.height, : d_rel.width], *d_rel.shape)
    out = np.empty(d_rel.shape)
    # One block of rows at a time, with its labels cast to intp once for
    # the four takes (an int32 index would be cast on every take). The
    # labels were checked above, so mode="clip" never clips; unlike the
    # default mode it writes `out` without an intermediate buffer.
    step = max(1, _APPLY_BLOCK // d_rel.width)
    term = np.empty((min(step, d_rel.height), d_rel.width))
    for r0 in range(0, d_rel.height, step):
        rows = slice(r0, r0 + step)
        labels = mask.labels[rows].astype(np.intp)
        o = out[rows]
        t = term[: len(o)]
        np.take(alpha, labels, out=o, mode="clip")
        o *= d_rel.values[rows]
        for coeff, coord in ((beta, x), (gamma, y[rows])):
            np.take(coeff, labels, out=t, mode="clip")
            t *= coord
            o += t
        np.take(delta, labels, out=t, mode="clip")
        o += t
        np.clip(o, lo, hi, out=o)
    return DepthGrid.adopt(out, d_rel.valid)
