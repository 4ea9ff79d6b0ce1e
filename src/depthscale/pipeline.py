"""End-to-end region-aware rescaling of relative depth to metric depth.

`rescale` normalizes the input map, extracts regions from the mask,
fits each region's transform from the sparse measurements inside it
(expanding over neighboring regions when a region is too thin, then
walking a fallback chain of simpler fit kinds), and merges the
per-region outputs into one metric depth map. Expanded fits are applied
only to the origin region's own pixels, so absorbed neighbors keep
their independently fitted parameters.

Region fits depend only on the immutable graph and sample set, so they
could run in parallel; execution here is sequential and the output is
bit-deterministic for identical inputs and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

# Gracefully reduce model complexity as data thins; the terminal global
# fit guarantees a depth map whenever any global fit is possible.
DEFAULT_FALLBACK_CHAIN = (METHOD_SSF, METHOD_SLF, METHOD_MEDIAN, METHOD_GLOBAL_LINEAR)

NYU_CLAMP = (0.001, 10.0)
VOID_CLAMP = (0.2, 5.0)

# Median-ratio scaling presumes positive relative depths, which the
# zero-median normalization destroys; those methods fit the raw map.
_NORMALIZING_METHODS = (METHOD_SLF, METHOD_SSF, METHOD_GLOBAL_LINEAR)


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
        if self.min_samples_linear < 2:
            raise InputError("min_samples_linear must be >= 2 (algebraic minimum)")
        if self.min_samples_planar < 4:
            raise InputError("min_samples_planar must be >= 4 (algebraic minimum)")
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
        if not self.fallback_chain or self.fallback_chain[-1] not in (
            METHOD_MEDIAN,
            METHOD_GLOBAL_LINEAR,
            METHOD_GLOBAL_MEDIAN,
        ):
            raise InputError(
                "fallback chain must end in a method needing <= 1 sample or a global fit"
            )

    def minimum_for(self, kind: str) -> int:
        if kind == KIND_AFFINE:
            return self.min_samples_linear
        if kind == KIND_PLANAR:
            return self.min_samples_planar
        return 1


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
    Every pixel of the output is written by exactly one region; output
    validity equals input validity.
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
    graph = build_region_graph(region_mask, samples, cfg.connectivity)

    paired = pair_observations(working, samples)
    # Map original sample index -> row in `paired` (-1 where dropped).
    kept = working.valid[samples.rows, samples.cols]
    position = np.cumsum(kept) - 1
    position[~kept] = -1

    def obs_for(sample_indices: np.ndarray) -> PairedObservations:
        pos = position[sample_indices]
        return paired.take(pos[pos >= 0])

    global_cache: dict[str, FitParams] = {}

    def global_fit(kind: str) -> FitParams:
        if kind not in global_cache:
            params = _fit(kind, paired, cfg)
            global_cache[kind] = replace(params, provenance=PROV_GLOBAL, hop=0)
        return global_cache[kind]

    chain = _effective_chain(cfg)
    chosen: list[FitParams] = []
    for region in graph.regions:
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
                obs = obs_for(accumulated)
                if len(obs) < minimum:
                    return False
                try:
                    found["params"] = _fit(kind, obs, cfg)
                except DegeneracyError:
                    return False
                return True

            expansion = expand_until(graph, region.id, need, cfg.max_hops)
            if "params" in found:
                provenance = PROV_OWN if expansion.hop == 0 else PROV_EXPANDED
                params = replace(found["params"], provenance=provenance, hop=expansion.hop)
                break
        if params is None:
            if last_error is not None:
                raise last_error
            raise InsufficientSamples(
                f"region {region.id}: fallback chain {chain} exhausted without a usable fit"
            )
        chosen.append(params)

    out_values = np.zeros(d_in.shape, dtype=np.float64)
    coverage = np.zeros(d_in.shape, dtype=np.int32)
    for region, params in zip(graph.regions, chosen):
        subset = np.zeros(d_in.shape, dtype=bool)
        subset[region.rows, region.cols] = True
        partial = apply_fit(working, params, subset, cfg.clamp)
        out_values[partial.valid] = partial.values[partial.valid]
        coverage[region.rows, region.cols] += 1
    if not (coverage == 1).all():
        raise AssertionError("internal invariant violated: pixels not written exactly once")

    reports = []
    for region, params in zip(graph.regions, chosen):
        pos = position[region.sample_indices]
        pos = pos[pos >= 0]
        if pos.size:
            own = paired.take(pos)
            predicted = out_values[own.rows, own.cols]
            rmse = float(np.sqrt(np.mean((predicted - own.z1) ** 2)))
        else:
            rmse = float("nan")
        reports.append(
            RegionReport(
                region_id=region.id,
                params=params,
                hop=params.hop,
                samples_used=params.support,
                residual_rmse=rmse,
            )
        )

    return DepthGrid(out_values, working.valid), reports
