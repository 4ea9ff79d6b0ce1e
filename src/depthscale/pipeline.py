"""End-to-end region-aware rescaling of relative depth to metric depth.

`rescale` normalizes the input map, extracts regions from the mask,
fits each region's transform from the sparse measurements inside it
(expanding over neighboring regions when a region is too thin, then
walking a fallback chain of simpler fit kinds), and writes the metric
depth map in one pass that applies each pixel's own region fit, looked
up by its label. Expanded fits are applied only to the origin region's
own pixels, so absorbed neighbors keep their independently fitted
parameters.

Region fits depend only on the immutable graph and sample set, so they
could run in parallel; execution here is sequential and the output is
bit-deterministic for identical inputs and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionMismatch,
    InputError,
    InsufficientSamples,
    NoSamples,
)
from .fitting import (
    KIND_AFFINE,
    KIND_MEDIAN,
    KIND_PLANAR,
    PROV_EXPANDED,
    PROV_GLOBAL,
    PROV_OWN,
    DEFAULT_COND_MAX,
    MIN_SUPPORT,
    FitParams,
    PairedObservations,
    apply_fit,
    fit_affine,
    fit_median_ratio,
    fit_planar,
    pair_observations,
)
from .grids import DepthGrid, LabelGrid, SparseSamples, canonicalize_labels
from .normalize import MEDIAN_MAD, NORMALIZATION_MODES, affine_invariant_normalize
from .regions import CONNECTIVITIES, build_region_graph, expand_until, split_into_components

METHOD_SLF = "slf"
METHOD_SSF = "ssf"
METHOD_MEDIAN = "median"
METHOD_GLOBAL_LINEAR = "global-linear"
METHOD_GLOBAL_MEDIAN = "global-median"
METHODS = (METHOD_SLF, METHOD_SSF, METHOD_MEDIAN, METHOD_GLOBAL_LINEAR, METHOD_GLOBAL_MEDIAN)

# Region-level fit kind behind each method name.
_REGION_KIND = {METHOD_SLF: KIND_AFFINE, METHOD_SSF: KIND_PLANAR, METHOD_MEDIAN: KIND_MEDIAN}
_GLOBAL_KIND = {METHOD_GLOBAL_LINEAR: KIND_AFFINE, METHOD_GLOBAL_MEDIAN: KIND_MEDIAN}
GLOBAL_METHODS = tuple(_GLOBAL_KIND)

# Gracefully reduce model complexity as data thins; the terminal global
# fit guarantees a depth map whenever any global fit is possible.
DEFAULT_FALLBACK_CHAIN = (METHOD_SSF, METHOD_SLF, METHOD_MEDIAN, METHOD_GLOBAL_LINEAR)

NYU_CLAMP = (0.001, 10.0)
VOID_CLAMP = (0.2, 5.0)

# Median-ratio scaling presumes positive relative depths, which the
# zero-median normalization destroys; those methods fit the raw map.
_NORMALIZING_METHODS = (METHOD_SLF, METHOD_SSF, METHOD_GLOBAL_LINEAR)


def _is_int_at_least(value, floor: int) -> bool:
    return type(value) is not bool and isinstance(value, Integral) and value >= floor


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that parameterizes one rescaling run."""

    method: str = METHOD_SLF
    min_samples_linear: int = 2
    min_samples_planar: int = 4
    max_hops: int | None = None
    clamp: tuple[float, float] = NYU_CLAMP
    connectivity: int = 4
    normalization: str = MEDIAN_MAD
    fallback_chain: tuple[str, ...] = DEFAULT_FALLBACK_CHAIN
    merge_same_label: bool = False
    cond_max: float = DEFAULT_COND_MAX

    def __post_init__(self):
        # JSON hands back lists; keep the config hashable and comparable.
        object.__setattr__(self, "clamp", tuple(self.clamp))
        object.__setattr__(self, "fallback_chain", tuple(self.fallback_chain))
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; choose from {METHODS}")
        for name, kind in (("min_samples_linear", KIND_AFFINE), ("min_samples_planar", KIND_PLANAR)):
            value, floor = getattr(self, name), MIN_SUPPORT[kind]
            if not _is_int_at_least(value, floor):
                raise InputError(f"{name} must be an integer >= {floor}, got {value!r}")
        hops = self.max_hops
        if hops is not None and not _is_int_at_least(hops, 0):
            raise InputError(f"max_hops must be None or an integer >= 0, got {hops!r}")
        if not (isinstance(self.cond_max, Real) and 0 < self.cond_max < math.inf):
            raise InputError(f"cond_max must be finite and > 0, got {self.cond_max!r}")
        if self.connectivity not in CONNECTIVITIES:
            raise InputError(f"connectivity must be one of {CONNECTIVITIES}")
        if self.normalization not in NORMALIZATION_MODES:
            raise InputError(f"unknown normalization {self.normalization!r}")
        lo, hi = self.clamp
        if not (0.0 < lo <= hi):
            raise InputError(f"clamp range must satisfy 0 < min <= max, got {self.clamp}")
        for entry in self.fallback_chain:
            if entry not in METHODS:
                raise InputError(f"unknown fallback chain entry {entry!r}")
        if not self.fallback_chain or self.fallback_chain[-1] not in (METHOD_MEDIAN, *GLOBAL_METHODS):
            raise InputError(
                "fallback chain must end in a method needing <= 1 sample or a global fit"
            )

    def minimum_for(self, kind: str) -> int:
        if kind == KIND_AFFINE:
            return self.min_samples_linear
        if kind == KIND_PLANAR:
            return self.min_samples_planar
        return MIN_SUPPORT[kind]


@dataclass(frozen=True)
class RegionReport:
    """Audit record for one region of a rescaling run."""

    region_id: int
    params: FitParams
    hop: int
    samples_used: int
    residual_rmse: float

    def as_dict(self) -> dict:
        rmse = None if math.isnan(self.residual_rmse) else self.residual_rmse
        return {
            "region_id": self.region_id,
            "hop": self.hop,
            "samples_used": self.samples_used,
            "residual_rmse": rmse,
            **self.params.as_dict(),
        }


def _effective_chain(cfg: PipelineConfig) -> tuple[str, ...]:
    """Attempt order for one region: the configured method, then weaker ones."""
    if cfg.method in _GLOBAL_KIND:
        return (cfg.method,)
    if cfg.method in cfg.fallback_chain:
        return cfg.fallback_chain[cfg.fallback_chain.index(cfg.method):]
    return (cfg.method,) + cfg.fallback_chain


def _fit(kind: str, obs: PairedObservations, cfg: PipelineConfig) -> FitParams:
    if kind == KIND_AFFINE:
        return fit_affine(obs)
    if kind == KIND_PLANAR:
        return fit_planar(obs, cond_max=cfg.cond_max)
    return fit_median_ratio(obs)


def rescale(
    d_in: DepthGrid,
    mask: LabelGrid,
    samples: SparseSamples,
    cfg: PipelineConfig = PipelineConfig(),
) -> tuple[DepthGrid, list[RegionReport]]:
    """Rescale a relative depth map to metric depth, region by region.

    `d_in` must already be relative depth (invert inverse-depth model
    output first). Returns the metric map plus one report per region.
    Every pixel of the output is written by the fit of its own region;
    output validity equals input validity.
    """
    if mask.shape != d_in.shape:
        raise DimensionMismatch(f"mask shape {mask.shape} != depth shape {d_in.shape}")
    if len(samples) == 0:
        raise NoSamples("rescaling requires at least one sparse measurement")
    height, width = d_in.shape
    if samples.rows.max() >= height or samples.cols.max() >= width:
        raise DimensionMismatch(f"sample coordinates exceed grid shape ({height}, {width})")

    if cfg.method in _NORMALIZING_METHODS:
        working, _ = affine_invariant_normalize(d_in, cfg.normalization)
    else:
        working = d_in

    if cfg.merge_same_label:
        region_mask = canonicalize_labels(mask)
    else:
        region_mask = split_into_components(mask, cfg.connectivity)
    # Samples on invalid pixels drop out here, so the graph's sample
    # groups index `paired` rows and a group's size is its observation count.
    paired = pair_observations(working, samples)
    graph = build_region_graph(region_mask, paired, cfg.connectivity)

    global_cache: dict[str, FitParams] = {}

    def global_fit(kind: str) -> FitParams:
        if kind not in global_cache:
            params = _fit(kind, paired, cfg)
            global_cache[kind] = replace(params, provenance=PROV_GLOBAL, hop=0)
        return global_cache[kind]

    chain = _effective_chain(cfg)
    chosen: list[FitParams] = []
    for region_id in range(graph.n_regions):
        params: FitParams | None = None
        last_error: DegeneracyError | None = None
        for entry in chain:
            if entry in _GLOBAL_KIND:
                try:
                    params = global_fit(_GLOBAL_KIND[entry])
                except DegeneracyError as err:
                    last_error = err
                    continue
                break
            kind = _REGION_KIND[entry]
            minimum = cfg.minimum_for(kind)
            found: dict[str, FitParams] = {}

            def need(accumulated: np.ndarray) -> bool:
                if accumulated.size < minimum:
                    return False
                try:
                    found["params"] = _fit(kind, paired.take(accumulated), cfg)
                except DegeneracyError:
                    return False
                return True

            expansion = expand_until(graph, region_id, need, cfg.max_hops)
            if "params" in found:
                provenance = PROV_OWN if expansion.hop == 0 else PROV_EXPANDED
                params = replace(found["params"], provenance=provenance, hop=expansion.hop)
                break
        if params is None:
            if last_error is not None:
                raise last_error
            raise InsufficientSamples(
                f"region {region_id}: fallback chain {chain} exhausted without a usable fit"
            )
        chosen.append(params)

    out = apply_fit(working, region_mask, chosen, cfg.clamp)

    reports = []
    for region_id, (own, params) in enumerate(zip(graph.samples, chosen)):
        if own.size:
            predicted = out.values[paired.rows[own], paired.cols[own]]
            rmse = float(np.sqrt(np.mean((predicted - paired.z1[own]) ** 2)))
        else:
            rmse = float("nan")
        reports.append(
            RegionReport(
                region_id=region_id,
                params=params,
                hop=params.hop,
                samples_used=params.support,
                residual_rmse=rmse,
            )
        )

    return out, reports
