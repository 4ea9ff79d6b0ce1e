"""Least-squares estimators mapping relative depth to metric depth.

Three fit kinds share one parameter container:

- affine:   z1 = alpha * z2 + beta                (scale and shift)
- planar:   z1 = alpha * z2 + beta * x + gamma * y + delta
- median:   z1 = alpha * z2, alpha from the ratio of medians

Pixel coordinates are normalized to [-1, 1] before fitting, which keeps
the planar design well conditioned; slope parameters are therefore in
normalized-coordinate units. All arithmetic is 64-bit. Every function
here is pure, so independent region fits may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, InputError, InsufficientSamples, OutOfBounds, ZeroMedian
from .grids import DepthGrid, SparseSamples
from .normalize import lower_median

KIND_AFFINE = "affine"
KIND_PLANAR = "planar"
KIND_MEDIAN = "median"
FIT_KINDS = (KIND_AFFINE, KIND_PLANAR, KIND_MEDIAN)

# Algebraic minima: 2 unknowns, 4 unknowns, 1 ratio.
MIN_SUPPORT = {KIND_AFFINE: 2, KIND_PLANAR: 4, KIND_MEDIAN: 1}

PROV_OWN = "own"
PROV_EXPANDED = "expanded"
PROV_GLOBAL = "global"

DEFAULT_COND_MAX = 1e8

# z2 spread below this fraction of its magnitude counts as constant.
_RELATIVE_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class FitParams:
    """Parameters of one accepted fit, with provenance for audit.

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
    provenance: str = PROV_OWN
    hop: int = 0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "support": self.support,
            "condition": self.condition,
            "provenance": self.provenance,
            "hop": self.hop,
        }


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


def _condition(design: np.ndarray) -> float:
    s = np.linalg.svd(design, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def fit_affine(obs: PairedObservations) -> FitParams:
    """Least-squares scale and shift: minimize sum (alpha*z2 + beta - z1)^2.

    Solved by the closed-form 2x2 normal equations in centered form.
    Raises DegenerateDesign when the z2 values are constant to within a
    1e-12 relative spread.
    """
    n = len(obs)
    if n < MIN_SUPPORT[KIND_AFFINE]:
        raise InsufficientSamples(f"affine fit needs >= 2 observations, got {n}")
    z1, z2 = obs.z1, obs.z2
    scale = float(np.max(np.abs(z2)))
    if float(np.ptp(z2)) <= _RELATIVE_SPREAD_TOL * scale:
        raise DegenerateDesign("relative depths are constant; scale and shift are not identifiable")
    z2_bar = float(np.mean(z2))
    z1_bar = float(np.mean(z1))
    dz = z2 - z2_bar
    alpha = float(dz @ (z1 - z1_bar)) / float(dz @ dz)
    return FitParams(
        kind=KIND_AFFINE,
        alpha=alpha,
        beta=z1_bar - alpha * z2_bar,
        gamma=0.0,
        delta=0.0,
        support=n,
        condition=_condition(np.column_stack([z2, np.ones_like(z2)])),
    )


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
    design = np.column_stack([obs.z2, obs.x, obs.y, np.ones(n)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cond = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
    if not np.isfinite(cond) or cond > cond_max:
        raise DegenerateDesign(
            f"planar design condition {cond:.3e} exceeds {cond_max:.1e} (rank-deficient or near it)"
        )
    coeffs = vt.T @ ((u.T @ obs.z1) / s)
    return FitParams(
        kind=KIND_PLANAR,
        alpha=float(coeffs[0]),
        beta=float(coeffs[1]),
        gamma=float(coeffs[2]),
        delta=float(coeffs[3]),
        support=n,
        condition=cond,
    )


def fit_median_ratio(obs: PairedObservations) -> FitParams:
    """Scale by the ratio of medians: alpha = median(z1) / median(z2)."""
    n = len(obs)
    if n < MIN_SUPPORT[KIND_MEDIAN]:
        raise InsufficientSamples("median-ratio fit needs at least 1 observation")
    m2 = lower_median(obs.z2)
    if m2 == 0.0:
        raise ZeroMedian("median of relative depths is zero")
    alpha = lower_median(obs.z1) / m2
    return FitParams(
        kind=KIND_MEDIAN,
        alpha=alpha,
        beta=0.0,
        gamma=0.0,
        delta=0.0,
        support=n,
        condition=1.0,
    )


def apply_fit(
    d_rel: DepthGrid,
    params: FitParams,
    subset: np.ndarray,
    clamp: tuple[float, float],
) -> DepthGrid:
    """Apply accepted fit parameters over a pixel subset.

    Returns a partial grid, valid exactly on `subset` intersected
    with the input's valid mask, with outputs clamped into the
    [min_depth, max_depth] range.
    """
    lo, hi = float(clamp[0]), float(clamp[1])
    if not (0.0 < lo <= hi):
        raise InputError(f"clamp range must satisfy 0 < min <= max, got ({lo}, {hi})")
    if subset.shape != d_rel.shape:
        raise InputError("pixel subset shape must match the grid")
    sel = subset & d_rel.valid
    z2 = d_rel.values[sel]
    if params.kind == KIND_AFFINE:
        out = params.alpha * z2 + params.beta
    elif params.kind == KIND_MEDIAN:
        out = params.alpha * z2
    elif params.kind == KIND_PLANAR:
        rows, cols = np.nonzero(sel)
        x, y = normalized_coords(rows, cols, d_rel.height, d_rel.width)
        out = params.alpha * z2 + params.beta * x + params.gamma * y + params.delta
    else:
        raise InputError(f"unknown fit kind {params.kind!r}")
    values = np.zeros(d_rel.shape, dtype=np.float64)
    values[sel] = np.clip(out, lo, hi)
    return DepthGrid(values, sel)
