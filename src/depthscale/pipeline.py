"""End-to-end region-aware rescaling of relative depth to metric depth.

`rescale` normalizes the input map, extracts regions from the mask, fits
each region's transform from the sparse measurements inside it, and
writes the metric depth map in one pass that applies each pixel's own
region fit, looked up by its label. Expanded fits are applied only to
the origin region's own pixels, so absorbed neighbors keep their own
fits. Median-ratio fits, fallbacks too, use the raw map.

`fit_regions` is the fit stage. A region too thin for its fit kind, or
whose own fit is rejected, absorbs the sample-holding regions in order
of (hop distance, region id), trying a fit at each hop where one joins;
when that runs out it walks a fallback chain of simpler fit kinds,
ending in a global fit. Hop distances are computed once per frame, and
only when some region needs them. A fit is a pure function of its kind
and its ordered observations, so it is memoized, rejections included: a
region entry's on (kind, ordered absorbed regions), a global entry's on
(kind, None) for every observation. Each round's missing lists go to
`fitting.fit_batch`, the stage's only fit, together; a chain that runs
out raises the refusal it gave the last global entry. How a fit was
placed on a region (its provenance and hop) belongs to the region's
report, so every region placed on one list shares its FitParams. The
output is bit-deterministic for identical inputs and configuration.

Region results stay columns from the fit stage to the report file:
`fit_regions` returns the frame's distinct fits with each region's fit
index and hop, `apply_fit` takes one planar-terms row per region
gathered from the fits' table, and `rescale` returns `RegionReports`,
whose items are built only when read.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionMismatch,
    InputError,
    InsufficientSamples,
    NoSamples,
    is_depth_range,
    is_finite_real,
    is_int_at_least,
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
    fit_affine,  # noqa: F401  (the benchmark's tracer wraps these three under these names)
    fit_batch,
    fit_median_ratio,  # noqa: F401
    fit_planar,  # noqa: F401
    pair_observations,
    planar_terms,
)
from .grids import DepthGrid, LabelGrid, SparseSamples, canonicalize_labels
from .normalize import MEDIAN_MAD, NORMALIZATION_MODES, affine_invariant_normalize
from .regions import (
    CONNECTIVITIES,
    RegionGraph,
    SourceRings,
    build_region_graph,
    expand_until,  # noqa: F401  (the benchmark's tracer wraps these two under these names)
    split_into_components,  # noqa: F401
    split_regions,
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

# The methods that fit the normalized map (median-ratio fits see the raw one).
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
            if not is_int_at_least(value, floor):
                raise InputError(f"{name} must be an integer >= {floor}, got {value!r}")
        hops = self.max_hops
        if hops is not None and not is_int_at_least(hops, 0):
            raise InputError(f"max_hops must be None or an integer >= 0, got {hops!r}")
        if not is_finite_real(self.cond_max, 0, above=True):
            raise InputError(f"cond_max must be finite and > 0, got {self.cond_max!r}")
        if not (is_int_at_least(self.connectivity, 0) and self.connectivity in CONNECTIVITIES):
            raise InputError(f"connectivity must be one of {CONNECTIVITIES}")
        if type(self.merge_same_label) is not bool:
            raise InputError(f"merge_same_label must be true or false, got {self.merge_same_label!r}")
        if self.normalization not in NORMALIZATION_MODES:
            raise InputError(f"unknown normalization {self.normalization!r}")
        if not is_depth_range(self.clamp):
            raise InputError(f"clamp must be two finite numbers with 0 < min <= max, got {self.clamp}")
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
    the region's own observations (NaN without any; written as null, as
    any non-finite RMSE is)."""

    region_id: int
    params: FitParams
    provenance: str
    hop: int
    residual_rmse: float

    @property
    def samples_used(self) -> int:
        return self.params.support

    def as_dict(self) -> dict:
        rmse = self.residual_rmse if math.isfinite(self.residual_rmse) else None
        return {
            "region_id": self.region_id,
            "hop": self.hop,
            "samples_used": self.samples_used,
            "residual_rmse": rmse,
            **self.params.as_dict(),
            "provenance": self.provenance,
        }


# A region's provenance by its hop, min(hop, 1): own at 0, expanded
# beyond, global at -1.
_PROVENANCE = (PROV_OWN, PROV_EXPANDED, PROV_GLOBAL)


class RegionReports(Sequence[RegionReport]):
    """The region reports of one run as columns, read as a sequence of RegionReport.

    `fits` holds the run's distinct fits; for region i, `fit_of[i]` is
    the position of its fit in `fits`, `hop[i]` the hop the fit was
    placed at (-1 for a global fit) and `residual_rmse[i]` its RMSE.
    Item i is region i's RegionReport, built when it is read. The
    columns are read-only.
    """

    __slots__ = ("fits", "fit_of", "hop", "residual_rmse")

    def __init__(self, fits, fit_of, hop, residual_rmse):
        self.fits = tuple(fits)
        self.fit_of = _read_only(fit_of, np.intp)
        self.hop = _read_only(hop, np.int64)
        self.residual_rmse = _read_only(residual_rmse, np.float64)
        if not self.fit_of.size == self.hop.size == self.residual_rmse.size:
            raise InputError("region report columns must have equal length")

    def __len__(self) -> int:
        return self.fit_of.size

    def __getitem__(self, index: int) -> RegionReport:
        i = range(len(self))[operator.index(index)]  # from the end if negative; IndexError past it
        fit, hop, rmse = self.fits[self.fit_of[i]], int(self.hop[i]), float(self.residual_rmse[i])
        return RegionReport(i, fit, _PROVENANCE[min(hop, 1)], max(hop, 0), rmse)

    def columns(self) -> tuple[dict[str, list], np.ndarray, dict[str, list]]:
        """The items' `as_dict` values by key, without building the items.

        Returns the keys a fit gives, each with one value per fit in
        `fits`; `fit_of`, which picks each region's fit; and the keys a
        region gives, each with one value per region.
        """
        per_fit = {f.name: [getattr(p, f.name) for p in self.fits] for f in fields(FitParams)}
        per_fit["samples_used"] = per_fit["support"]
        rmse = self.residual_rmse.astype(object)
        rmse[~np.isfinite(self.residual_rmse)] = None
        provenance = np.array(_PROVENANCE, dtype=object)[np.minimum(self.hop, 1)]
        per_region = {
            "region_id": list(range(len(self))),
            "hop": np.maximum(self.hop, 0).tolist(),
            "residual_rmse": rmse.tolist(),
            "provenance": provenance.tolist(),
        }
        return per_fit, self.fit_of, per_region


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _effective_chain(cfg: PipelineConfig) -> tuple[str, ...]:
    """Attempt order for one region: the configured method, then weaker ones."""
    if cfg.method in _GLOBAL_KIND:
        return (cfg.method,)
    if cfg.method in cfg.fallback_chain:
        return cfg.fallback_chain[cfg.fallback_chain.index(cfg.method):]
    return (cfg.method,) + cfg.fallback_chain


def _first_and_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(values, return_index=True, return_inverse=True)[1:]` of a 1-D
    array: each distinct value's first index, ascending by value, and each
    entry's position among the distinct values."""
    order = values.argsort(kind="stable")
    ordered = values[order]
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return order[first], inverse


def _run_ids(values: np.ndarray, start: np.ndarray, stop: np.ndarray, n_values: int) -> np.ndarray:
    """One id per run values[start[i]:stop[i]] (non-empty), equal iff the runs are.

    Runs are numbered like the nodes of a trie, one offset at a time over
    the runs that long, so the work is proportional to their total length.
    """
    shorter = start - stop  # minus each run's length
    order = shorter.argsort(kind="stable")
    start, shorter = start[order], shorter[order]
    ids = values[start].astype(np.int64)
    next_id = n_values
    for offset in range(1, -int(shorter[0]) if shorter.size else 0):
        live = shorter.searchsorted(-offset)  # runs longer than `offset`
        first, inverse = _first_and_inverse(ids[:live] * n_values + values[start[:live] + offset])
        ids[:live] = next_id + inverse
        next_id += first.size
    out = np.empty_like(ids)
    out[order] = ids
    return out


def fit_regions(
    graph: RegionGraph, paired: PairedObservations, cfg: PipelineConfig, raw: DepthGrid
) -> tuple[list[FitParams], np.ndarray, np.ndarray]:
    """Each region's fit and hop, from the first chain entry with a fit.

    A region entry of kind k tries the region's own observations, then
    absorbs the sample-holding regions in order of (hop distance, id), at
    most `cfg.max_hops` hops out, trying a fit at hop 0 and at each hop
    where one joins, on the groups of the absorbed regions in that order.
    The first accepted fit is the region's, placed at that hop. An entry
    that runs out of regions passes to the next; a global entry fits
    every observation, placed at hop -1.
    Median-ratio fits see `raw`, the map before normalization, at the
    same pixels as `paired`.

    Fits are memoized on (kind, absorbed sample-holding regions in order),
    a global entry's on (kind, None), rejections included; each round's
    lists missing from the memo go to one `fit_batch` call. A chain that
    runs out raises the refusal `fit_batch` gave its last global entry,
    the only refusals kept.
    The hop rings (`SourceRings`) grow only as far as the regions still
    without a fit need, first for the regions too thin for the first chain
    entry, so that most frames take one round. This may reorder the fits
    returned, never the fit or hop of a region. A round in which they
    cannot grow for a region still unsettled raises RuntimeError.

    Returns the accepted fits, in the order they were fitted, and two
    int arrays over the regions: `fit_of`, the position of each region's
    fit in that list, and `hop`, the hop it was placed at (-1 for a
    global fit).
    """
    chain = _effective_chain(cfg)
    rings = SourceRings(graph, cfg.max_hops)
    accepted: list[FitParams] = []
    # each fitted list's position in `accepted`, -1 for a rejected one
    memo: dict[tuple, int] = {}
    # why each global entry's fit was refused, by kind (the only refusals raised)
    refused: dict[str, DegeneracyError] = {}
    # the observations a fit kind sees where they are not `paired`: median-ratio
    # fits see the raw map, gathered when first needed
    seen: dict[str, PairedObservations] = {}
    # the observations of each sample-holding region, as lists: a list join and
    # one np.array per key cost less than np.concatenate on a few short arrays
    spans = zip(graph.sample_bounds[rings.sources].tolist(), rings.counts[rings.sources].tolist())
    order = graph.sample_order
    group = {r: order[a : a + n].tolist() for r, (a, n) in zip(rings.sources.tolist(), spans)}

    def fits(kind: str, keys: list[tuple]) -> list[int]:
        """The memoized fit of each key; the lists not in the memo go to one `fit_batch`."""
        missing = [key for key in keys if key not in memo]
        if missing:
            if kind == KIND_MEDIAN and kind not in seen:
                seen[kind] = replace(paired, z2=raw.values[paired.rows, paired.cols])
            groups = [
                np.array([i for r in key for i in group[r]]) if key else np.arange(len(paired))
                for _, key in missing
            ]
            fitted = fit_batch(kind, seen.get(kind, paired), groups, cfg.cond_max)
            for key, params in zip(missing, fitted):
                if isinstance(params, FitParams):
                    memo[key] = len(accepted)
                    accepted.append(params)
                else:
                    memo[key] = -1
                    if key[1] is None:
                        refused[kind] = params
        return [memo[key] for key in keys]

    def attempt(kind: str, source, start, end) -> np.ndarray:
        """Fit source[start:end] of each region: its fit's position in `accepted`, or -1."""
        distinct, inverse = _first_and_inverse(_run_ids(source, start, end, graph.n_regions))
        keys = [
            (kind, tuple(source[a:b].tolist()))
            for a, b in zip(start[distinct].tolist(), end[distinct].tolist())
        ]
        return np.array(fits(kind, keys), dtype=np.intp)[inverse]

    def grow(regions: np.ndarray, need) -> None:
        """Grow the rings until each region reaches `need` samples or all it can."""
        need = np.minimum(need, rings.component_samples)
        while np.count_nonzero(rings.reached[regions] < need) and rings.grow():
            pass

    fit_of = np.full(graph.n_regions, -1, dtype=np.intp)
    # the hop of each placed fit, -1 for a global one
    placed = np.zeros(graph.n_regions, dtype=np.int32)
    pending = np.arange(graph.n_regions)
    if chain[0] in _REGION_KIND:  # most regions hold fewer samples than a fit needs
        first_need = cfg.minimum_for(_REGION_KIND[chain[0]])
        short = (rings.counts < first_need).nonzero()[0]
        if short.size:
            grow(short, first_need)
    while True:
        # The sources within the radius of each region, as runs of
        # positions; a fit can be tried where a (region, hop) group ends.
        bounds, hop, source = rings.ordered()
        starts = np.ones(hop.size + 1, dtype=bool)
        np.not_equal(hop[1:], hop[:-1], out=starts[1:-1])
        starts[bounds] = True
        ends = starts[1:].nonzero()[0] + 1
        del starts
        # total[g]: the samples of every group before group g
        total = rings.counts[source]
        total.cumsum(out=total)
        total = np.concatenate([[0], total[ends - 1]])
        lo = bounds[pending]
        stop = ends.searchsorted(bounds[pending + 1], side="right")
        todo = np.arange(pending.size)  # into pending
        unresolved = pending[:0]
        for position, entry in enumerate(chain):
            if not todo.size:
                break
            if entry in _GLOBAL_KIND:
                kind = _GLOBAL_KIND[entry]
                [fit] = fits(kind, [(kind, None)])
                if fit >= 0:
                    fit_of[pending[todo]] = fit
                    placed[pending[todo]] = -1
                    todo = todo[:0]
                continue
            kind = _REGION_KIND[entry]
            # each region's first hop end with enough samples for this entry
            before = total[ends.searchsorted(lo[todo], side="right")]
            at = total[1:].searchsorted(before + cfg.minimum_for(kind))
            while np.count_nonzero(live := at < stop[todo]):
                end = ends[at[live]]
                fit = attempt(kind, source, lo[todo[live]], end)
                fitted = fit >= 0
                regions = pending[todo[live][fitted]]
                fit_of[regions] = fit[fitted]
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
        radius = rings.radius
        grow(pending, np.maximum(rings.reached[pending] + 1, first_need))
        if rings.radius == radius:
            raise RuntimeError(f"hop rings stopped growing, {pending.size} unsettled region(s) left")

    unfit = (fit_of < 0).nonzero()[0]
    if unfit.size:
        last = next((_GLOBAL_KIND[e] for e in reversed(chain) if e in _GLOBAL_KIND), None)
        if last is not None:  # tried by every unfit region, and refused
            raise refused[last]
        raise InsufficientSamples(
            f"region {unfit[0]}: fallback chain {chain} exhausted without a usable fit"
        )
    return accepted, fit_of, placed


def _residual_rmse(out: DepthGrid, paired: PairedObservations, graph: RegionGraph) -> np.ndarray:
    """Each region's RMSE of `out` at its own observations, NaN without any.

    The regions holding n observations form one (k, n) stack, whose
    `sum(axis=1) / n` gives each row what `np.mean` of that row alone
    gives, bit for bit. A square that overflows makes the RMSE infinite.
    """
    rmse = np.full(graph.n_regions, np.nan)
    holding = graph.sample_counts.nonzero()[0]
    counts = graph.sample_counts[holding]
    with np.errstate(over="ignore"):
        squares = np.square(out.values[paired.rows, paired.cols] - paired.z1)
        for n in set(counts.tolist()):
            regions = holding[counts == n]
            rows = graph.sample_order[graph.sample_bounds[regions, None] + np.arange(n)]
            rmse[regions] = np.sqrt(np.add.reduce(squares[rows], axis=1) / n)
    return rmse


def rescale(
    d_in: DepthGrid,
    mask: LabelGrid,
    samples: SparseSamples,
    cfg: PipelineConfig = PipelineConfig(),
) -> tuple[DepthGrid, RegionReports]:
    """Rescale a relative depth map to metric depth, region by region.

    `d_in` must already be relative depth (invert inverse-depth model
    output first). Returns the metric map plus the region reports, one
    per region, held as columns.
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

    working, stats = d_in, None
    if cfg.method in _NORMALIZING_METHODS:
        working, stats = affine_invariant_normalize(d_in, cfg.normalization)

    # Samples on invalid pixels drop out here, so the graph's sample
    # groups index `paired` rows and a group's size is its observation count.
    paired = pair_observations(working, samples)
    if not len(paired):
        raise NoSamples(f"no usable sample: all {len(samples)} lie on invalid depth pixels")
    if cfg.merge_same_label:
        region_mask = canonicalize_labels(mask)
        graph = build_region_graph(region_mask, paired, cfg.connectivity)
    else:
        region_mask, graph = split_regions(mask, paired, cfg.connectivity)

    fits, fit_of, hop = fit_regions(graph, paired, cfg, d_in)
    terms = planar_terms(fits)
    if stats is not None:  # a median-ratio fit scales the raw map, which is s * normalized + t
        median = np.array([p.kind == KIND_MEDIAN for p in fits], dtype=bool)
        terms[median, 3] = terms[median, 0] * stats.t
        terms[median, 0] *= stats.s
    out = apply_fit(working, region_mask, terms[fit_of], cfg.clamp)
    return out, RegionReports(fits, fit_of, hop, _residual_rmse(out, paired, graph))
