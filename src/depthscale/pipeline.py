"""End-to-end region-aware rescaling of relative depth to metric depth.

`rescale` normalizes the input map, extracts regions from the mask,
fits each region's transform from the sparse measurements inside it,
and writes the metric depth map in one pass that applies each pixel's
own region fit, looked up by its label. Expanded fits are applied only
to the origin region's own pixels, so absorbed neighbors keep their
independently fitted parameters.

`fit_regions` is the fit stage. A region too thin for its fit kind, or
whose own fit is rejected, absorbs the sample-holding regions in order
of (hop distance, region id), trying a fit at each hop where one joins;
when that runs out it walks a fallback chain of simpler fit kinds,
ending in a global fit. Hop distances are computed once per frame, and
only when some region needs them. A fit is a pure function of its kind
and its ordered observations, so fits are memoized on (kind, ordered
absorbed regions), rejections included: each distinct observation list
is fitted once, and the lists that one round of attempts needs go to
`fitting.fit_batch` together. How a fit was placed on a region (its
provenance and hop) belongs to the region's report, so every region
placed on one list shares its FitParams. The output is bit-deterministic
for identical inputs and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    DEFAULT_COND_MAX,
    MIN_SUPPORT,
    FitParams,
    PairedObservations,
    apply_fit,
    fit_affine,
    fit_batch,
    fit_median_ratio,
    fit_planar,  # noqa: F401  (the benchmark's tracer wraps it under this name)
    pair_observations,
)
from .grids import DepthGrid, LabelGrid, SparseSamples, canonicalize_labels
from .normalize import MEDIAN_MAD, NORMALIZATION_MODES, affine_invariant_normalize
from .regions import (
    CONNECTIVITIES,
    RegionGraph,
    SourceRings,
    build_region_graph,
    expand_until,  # noqa: F401  (the benchmark's tracer wraps it under this name)
    split_into_components,
)

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

# How a region's fit was placed on it: from its own observations, from
# those of the regions within `hop` hops, or from every observation.
PROV_OWN = "own"
PROV_EXPANDED = "expanded"
PROV_GLOBAL = "global"

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
        for name in ("clamp", "fallback_chain"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise InputError(f"{name} must be a sequence, got {value!r}") from None
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
        clamp = self.clamp
        numbers = all(type(v) is not bool and isinstance(v, Real) for v in clamp)
        if not (len(clamp) == 2 and numbers and 0 < clamp[0] <= clamp[1]):
            raise InputError(f"clamp must be two numbers with 0 < min <= max, got {clamp}")
        for entry in self.fallback_chain:
            if entry not in METHODS:
                raise InputError(f"unknown fallback_chain entry {entry!r}; choose from {METHODS}")
        if not self.fallback_chain or self.fallback_chain[-1] not in (METHOD_MEDIAN, *GLOBAL_METHODS):
            raise InputError(
                "fallback_chain must end in a method needing <= 1 sample or a global fit"
            )

    def minimum_for(self, kind: str) -> int:
        if kind == KIND_AFFINE:
            return self.min_samples_linear
        if kind == KIND_PLANAR:
            return self.min_samples_planar
        return MIN_SUPPORT[kind]


@dataclass(frozen=True, slots=True)
class RegionReport:
    """Audit record for one region of a rescaling run: its fit, how the fit
    was placed on it (provenance and hop), and the RMSE of the output at
    the region's own observations (NaN without any)."""

    region_id: int
    params: FitParams
    provenance: str
    hop: int
    residual_rmse: float

    @property
    def samples_used(self) -> int:
        return self.params.support

    def as_dict(self) -> dict:
        rmse = None if math.isnan(self.residual_rmse) else self.residual_rmse
        return {
            "region_id": self.region_id,
            "hop": self.hop,
            "samples_used": self.samples_used,
            "residual_rmse": rmse,
            **self.params.as_dict(),
            "provenance": self.provenance,
        }


def _effective_chain(cfg: PipelineConfig) -> tuple[str, ...]:
    """Attempt order for one region: the configured method, then weaker ones."""
    if cfg.method in _GLOBAL_KIND:
        return (cfg.method,)
    if cfg.method in cfg.fallback_chain:
        return cfg.fallback_chain[cfg.fallback_chain.index(cfg.method):]
    return (cfg.method,) + cfg.fallback_chain


def _run_ids(values: np.ndarray, start: np.ndarray, stop: np.ndarray, n_values: int) -> np.ndarray:
    """One id per run values[start[i]:stop[i]] (non-empty), equal iff the runs are.

    Runs are numbered like the nodes of a trie, one offset at a time over
    the runs that long, so the work is proportional to their total length.
    """
    length = stop - start
    order = np.argsort(-length, kind="stable")
    start, length = start[order], length[order]
    ids = values[start].astype(np.int64)
    next_id = n_values
    for offset in range(1, int(length[0]) if length.size else 0):
        live = np.searchsorted(-length, -offset)  # runs longer than `offset`
        distinct, inverse = np.unique(
            ids[:live] * n_values + values[start[:live] + offset], return_inverse=True
        )
        ids[:live] = next_id + inverse
        next_id += distinct.size
    out = np.empty_like(ids)
    out[order] = ids
    return out


def fit_regions(
    graph: RegionGraph, paired: PairedObservations, cfg: PipelineConfig
) -> tuple[list[FitParams], list[str], list[int]]:
    """Each region's fit, provenance and hop, from the first chain entry with a fit.

    A region entry of kind k tries the region's own observations, then
    absorbs the sample-holding regions in order of (hop distance, id), at
    most `cfg.max_hops` hops out. Only those regions change the
    observations, so a fit is tried at hop 0 and at each hop where one
    joins, on the groups of the absorbed regions concatenated in that
    order. The first accepted fit is the region's, placed as "own" at hop
    0 and "expanded" beyond. An entry that runs out of regions passes to
    the next; a global entry fits every observation, placed as "global".

    Fits are memoized on (kind, absorbed sample-holding regions in
    order), rejections included, so each distinct observation list is
    fitted once per call. The regions are walked together, one attempt
    per region at a time, and only the distinct attempts reach Python;
    each round's lists missing from the memo are fitted in one
    `fit_batch` call, and only the global entries call the one-list
    fits. Hop distances come from `SourceRings`, grown only as far as the
    regions still without a fit need: not at all when every region fits
    its first entry on its own observations. A round in which the rings
    cannot grow for a region still unsettled raises RuntimeError.
    """
    chain = _effective_chain(cfg)
    rings = SourceRings(graph, cfg.max_hops)
    memo: dict[tuple, FitParams | None] = {}
    global_results: dict[str, FitParams | DegeneracyError] = {}

    def global_fit(kind: str) -> FitParams | DegeneracyError:
        if kind not in global_results:
            fit = fit_affine if kind == KIND_AFFINE else fit_median_ratio
            try:
                global_results[kind] = fit(paired)
            except DegeneracyError as err:
                global_results[kind] = err
        return global_results[kind]

    def attempt(kind: str, source, start, end) -> tuple[np.ndarray, np.ndarray]:
        """Fit the sources source[start:end] of each region; the lists not in
        the memo go to one `fit_batch` call. Returns which fitted, and their
        FitParams."""
        distinct, inverse = np.unique(
            _run_ids(source, start, end, graph.n_regions), return_index=True, return_inverse=True
        )[1:]
        keys = [(kind, tuple(source[start[i] : end[i]].tolist())) for i in distinct.tolist()]
        missing = [key for key in keys if key not in memo]
        if missing:
            groups = [np.concatenate([graph.group(r) for r in key]) for _, key in missing]
            memo.update(zip(missing, fit_batch(kind, paired, groups, cfg.cond_max)))
        results = np.fromiter((memo[key] for key in keys), dtype=object, count=len(keys))
        fitted = np.array([params is not None for params in results.tolist()], dtype=bool)
        return fitted[inverse], results[inverse]

    chosen = np.full(graph.n_regions, None, dtype=object)
    # the hop of each placed fit, -1 for a global one
    placed = np.zeros(graph.n_regions, dtype=np.int32)
    pending = np.arange(graph.n_regions)
    while True:
        # The sources within the radius of each region, as runs of
        # positions; a fit can be tried where a (region, hop) group ends.
        bounds, hop, source = rings.ordered()
        starts = np.ones(hop.size + 1, dtype=bool)
        np.not_equal(hop[1:], hop[:-1], out=starts[1:-1])
        starts[bounds] = True
        ends = np.flatnonzero(starts[1:]) + 1
        del starts
        # total[g]: the samples of every group before group g
        total = rings.counts[source]
        np.cumsum(total, out=total)
        total = np.concatenate([[0], total[ends - 1]])
        lo = bounds[pending]
        stop = np.searchsorted(ends, bounds[pending + 1], side="right")
        todo = np.arange(pending.size)  # into pending
        unresolved = pending[:0]
        for position, entry in enumerate(chain):
            if not todo.size:
                break
            if entry in _GLOBAL_KIND:
                result = global_fit(_GLOBAL_KIND[entry])
                if isinstance(result, FitParams):
                    chosen[pending[todo]] = result
                    placed[pending[todo]] = -1
                    todo = todo[:0]
                continue
            kind = _REGION_KIND[entry]
            # each region's first hop end with enough samples for this entry
            before = total[np.searchsorted(ends, lo[todo], side="right")]
            at = np.searchsorted(total[1:], before + cfg.minimum_for(kind))
            while (live := at < stop[todo]).any():
                end = ends[at[live]]
                fitted, params = attempt(kind, source, lo[todo[live]], end)
                regions = pending[todo[live][fitted]]
                chosen[regions] = params[fitted]
                placed[regions] = hop[end[fitted] - 1]
                at[live] += 1
                keep = ~live
                keep[live] = ~fitted
                todo, at = todo[keep], at[keep]
            if position == 0 and todo.size:
                # Out of hops to try: wait for wider rings, unless settled.
                settled = rings.settled(pending[todo])
                unresolved = pending[todo[~settled]]
                todo = todo[settled]
        if not unresolved.size:
            break
        # Grow the rings until each unresolved region has a new hop to try,
        # and enough samples for the first entry, or reaches all it can.
        pending = unresolved
        need = np.maximum(rings.reached[pending] + 1, cfg.minimum_for(_REGION_KIND[chain[0]]))
        need = np.minimum(need, rings.component_samples)
        radius = rings.radius
        while (rings.reached[pending] < need).any() and rings.grow():
            pass
        if rings.radius == radius:
            raise RuntimeError(f"hop rings stopped growing, {pending.size} unsettled region(s) left")

    chosen = chosen.tolist()
    # by identity: an == test would call FitParams.__eq__ on every region
    unfit = next((i for i, params in enumerate(chosen) if params is None), None)
    if unfit is not None:
        failed = [global_results[_GLOBAL_KIND[e]] for e in chain if e in _GLOBAL_KIND]
        if failed:
            raise failed[-1]
        raise InsufficientSamples(
            f"region {unfit}: fallback chain {chain} exhausted without a usable fit"
        )
    # the sign picks own (hop 0), expanded (hop > 0) or global (-1); names
    # in an object array, since a str array would take 32 bytes per region
    provenance = np.array([PROV_OWN, PROV_EXPANDED, PROV_GLOBAL], dtype=object)[np.sign(placed)]
    return chosen, provenance.tolist(), np.maximum(placed, 0).tolist()


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

    chosen, provenance, hop = fit_regions(graph, paired, cfg)
    out = apply_fit(working, region_mask, chosen, cfg.clamp)

    rmse = [float("nan")] * graph.n_regions
    for region_id in np.flatnonzero(graph.sample_counts).tolist():
        own = graph.group(region_id)
        predicted = out.values[paired.rows[own], paired.cols[own]]
        rmse[region_id] = float(np.sqrt(np.mean((predicted - paired.z1[own]) ** 2)))
    reports = [RegionReport(*r) for r in zip(range(graph.n_regions), chosen, provenance, hop, rmse)]

    return out, reports
