"""Region extraction, the region graph, and hop distances over it.

A label grid is first split into spatially connected components
(segmentation exports may scatter one label across the image), then
each component becomes a node in a region adjacency graph, held as CSR
arrays. The graph also groups the samples by region: each group holds
indices into the sample set the graph was built from, which may be the
raw samples or the observations paired from them.

When a region alone does not hold enough sparse measurements, it
absorbs neighbouring regions breadth-first, one ring at a time, taking
regions within a ring in ascending-id order. That order is a sort by
(hop distance, region id), and only regions holding samples change what
is absorbed, so `SourceRings` computes hop distances once per frame,
from the sample-holding regions only, with one vectorized breadth-first
step per ring for all of them together: a ring is the neighbours of the
last ring, less the last two rings. It holds each (region, source) pair
once, region-major, with int32 region and source ids: labels are int32,
so there are fewer than 2**31 regions. `expand_until` keeps the
ring-by-ring walk for a single origin.

The split and the adjacency both work on horizontal runs of equal
labels. A few full-frame passes find the runs, and all later work is
per run, so the cost is O(H·W) whatever the number of label values. The
split joins the runs with a union-find in rounds (hooking, then pointer
jumping), in NumPy alone. Graphs are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, OutOfBounds
from .fitting import PairedObservations
from .grids import (
    LabelGrid,
    SparseSamples,
    canonicalize_labels,  # noqa: F401  (the benchmark's tracer wraps it under this name)
    is_label_range,
    paint_runs,
    run_starts,
)

CONNECTIVITIES = (4, 8)


def _cross_row_neighbors(
    starts: np.ndarray, shape: tuple[int, int], connectivity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair runs with pixels in the adjacent rows so that every touching run is met.

    Each run is paired with the pixel below its first pixel (and the two
    diagonal ones for 8-connectivity) and with the pixel above it (above
    and to the left for 8-connectivity). That meets every run it touches
    in the next or previous row: take touching runs starting at column a
    in row r and at column b in row r + 1. If b <= a (b <= a + 1 under
    8-connectivity), a pixel below the upper start is in the lower run;
    otherwise the pixel over (or up-left of) the lower start is in the
    upper run. So a fixed number of pairs per run suffice, whatever the
    run lengths. Returns the run index (into `starts`, ascending) and
    the flat index of the paired pixel.
    """
    height, width = shape
    row, col = np.divmod(starts, width)
    below, above = row < height - 1, row > 0
    if connectivity == 4:
        inside = np.stack([below, above], axis=1)
        offsets = np.array([width, -width])
    elif connectivity == 8:
        left, right = col > 0, col < width - 1
        inside = np.stack([below & left, below, below & right, above & left], axis=1)
        offsets = np.array([width - 1, width, width + 1, -width - 1])
    else:
        raise InputError(f"connectivity must be 4 or 8, got {connectivity}")
    run, which = np.nonzero(inside)
    return run, starts[run] + offsets[which]


def _bounds(keys: np.ndarray, n_groups: int) -> np.ndarray:
    """Start of each key 0 .. n_groups - 1 in the keys once sorted, then their count."""
    bounds = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_groups), out=bounds[1:])
    return bounds


@dataclass(frozen=True, eq=False)
class RegionGraph:
    """Per-region sample groups plus a symmetric, irreflexive adjacency, as CSR arrays.

    Regions are numbered by their label in the grid. The neighbours of
    region i are `indices[indptr[i]:indptr[i + 1]]`, ascending int32 ids; the
    samples inside it are `sample_order[sample_bounds[i]:sample_bounds[i + 1]]`,
    ascending indices into the sample set the graph was built from.
    """

    indptr: np.ndarray
    indices: np.ndarray
    sample_bounds: np.ndarray
    sample_order: np.ndarray

    @property
    def n_regions(self) -> int:
        return self.indptr.size - 1

    @property
    def sample_counts(self) -> np.ndarray:
        return np.diff(self.sample_bounds)

    def neighbors(self, region_id: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[region_id] : self.indptr[region_id + 1]].tolist())

    def group(self, region_id: int) -> np.ndarray:
        """Indices of the samples inside the region, ascending."""
        return self.sample_order[self.sample_bounds[region_id] : self.sample_bounds[region_id + 1]]


def _owners(bounds: np.ndarray) -> np.ndarray:
    """The group of each position, for groups at positions bounds[i]:bounds[i + 1]."""
    return np.repeat(np.arange(bounds.size - 1, dtype=np.int32), np.diff(bounds))


class SourceRings:
    """Hop distances from every sample-holding region, grown one ring at a time.

    A hop pair is a (region, source) pair, where a source is a region
    holding samples, at a given hop distance. Hop distance is symmetric,
    so the regions at hop h from a source are exactly the regions that
    hold that source in their own ring h. `grow` finds the pairs at the
    next hop, one vectorized breadth-first step for all sources together;
    `ordered` merges them into the one region-major store of every pair
    within `radius`. Region and source ids are int32, as labels are.
    `reached[r]` counts the samples of the sources within `radius` hops
    of region r.

    The graph is undirected, so a neighbour of a region at hop h from a
    source is at hop h - 1, h or h + 1 from it: the pairs at hop h + 1
    are the neighbours of the pairs at hop h, less the pairs at hops
    h - 1 and h, and no visited table is needed. Only those two levels
    are kept, as sorted int64 codes source index * n_regions + region.
    """

    def __init__(self, graph: RegionGraph, max_hops: int | None = None):
        self.graph = graph
        self.max_hops = max_hops
        self.counts = graph.sample_counts
        self.sources = np.flatnonzero(self.counts).astype(np.int32)
        self.reached = self.counts.copy()
        self.radius = 0
        # the store: region r's pairs are at positions bounds[r]:bounds[r + 1]
        self.bounds = _bounds(self.sources, graph.n_regions)
        self.hop = np.zeros(self.sources.size, dtype=np.int32)
        self.source = self.sources
        # the regions and sources of each level grown since the last `ordered`
        self._regions: list[np.ndarray] = []
        self._sources: list[np.ndarray] = []
        # the codes of the levels at hops radius - 1 and radius
        n = graph.n_regions
        self._last = (np.zeros(0, dtype=np.int64), np.arange(self.sources.size) * n + self.sources)

    def ordered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bounds, hop, source): every hop pair within `radius`, region-major.

        Region r's pairs are at positions bounds[r]:bounds[r + 1] of `hop`
        and `source`, sorted by hop, then source id: the order in which a
        ring-by-ring expansion from the region absorbs the sources.
        """
        if self._regions:
            sizes = [region.size for region in self._regions]
            region = np.concatenate([_owners(self.bounds), *self._regions])
            self._regions = []
            order = np.argsort(region, kind="stable")
            self.bounds = _bounds(region, self.graph.n_regions)
            del region
            # The stored pairs come first and each level is in (hop,
            # source) order, so the stable sort by region keeps that order.
            self.source = np.concatenate([self.source, *self._sources])[order]
            self._sources = []
            hops = np.arange(self.radius - len(sizes) + 1, self.radius + 1, dtype=np.int32)
            self.hop = np.concatenate([self.hop, np.repeat(hops, sizes)])[order]
        return self.bounds, self.hop, self.source

    def grow(self) -> bool:
        """Add the next level; False at `max_hops` or once no source reaches further."""
        graph, n = self.graph, self.graph.n_regions
        if not self.sources.size or self.radius == self.max_hops:
            return False
        previous, current = self._last
        local, region = np.divmod(current, n)
        lo = graph.indptr[region]
        degree = graph.indptr[region + 1] - lo
        at = np.repeat(lo - (np.cumsum(degree) - degree), degree)
        at += np.arange(at.size)
        step = np.repeat(local, degree)
        step *= n
        step += graph.indices[at]
        del at
        # One sort finds the new pairs: with the known codes doubled and the
        # neighbours' codes doubled plus one, a neighbour is new unless a
        # known pair or an equal neighbour sorts just before it.
        code = np.concatenate([previous, current, step])
        del step
        code <<= 1
        code[previous.size + current.size :] += 1
        code.sort()
        fresh = (code & 1).astype(bool)
        fresh[1:] &= code[1:] - code[:-1] > 1
        step = code[fresh] >> 1
        del code, fresh
        if not step.size:
            return False
        self._last = (current, step)
        local, region = np.divmod(step, n)
        region, source = region.astype(np.int32), self.sources[local]
        self._regions.append(region)
        self._sources.append(source)
        self.radius += 1
        self.reached += np.bincount(region, weights=self.counts[source], minlength=n).astype(
            np.int64
        )
        return True

    def settled(self, regions) -> np.ndarray:
        """Whether each region already reaches every source it may absorb."""
        if self.radius == self.max_hops:
            return np.ones(len(regions), dtype=bool)
        return self.reached[regions] == self.component_samples

    @property
    def component_samples(self) -> int:
        """Samples any region can ever reach: every sample of the frame.

        A graph from `build_region_graph` is connected, since every pixel
        has a label and the pixel grid is connected under either
        connectivity, so no component pass is needed.
        """
        return int(self.counts.sum())


@dataclass(frozen=True)
class Expansion:
    """Result of growing a region over its neighbors.

    `included` lists region ids in absorption order, origin first;
    `hop` counts the breadth-first rings that were absorbed.
    """

    origin: int
    included: tuple[int, ...]
    hop: int


def _compress(parent: np.ndarray) -> np.ndarray:
    """Pointer jumping: each node takes its grandparent until none changes,
    so every node then points at the root of its tree."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component, for the edges a[i]–b[i].

    A union-find in rounds, after Shiloach and Vishkin: each edge between
    two trees hooks the larger root under the smaller (under the smallest
    on offer, where edges compete for one root), then pointer jumping
    flattens the trees. A root is never hooked under a larger node, so a
    component's root ends as its smallest node. Each round hooks at least
    one root while an edge joins two trees.
    """
    parent = np.arange(n)
    while True:
        pa, pb = parent[a], parent[b]
        apart = pa != pb
        if not apart.any():
            return parent
        pa, pb = pa[apart], pb[apart]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        parent = _compress(parent)


def split_into_components(mask: LabelGrid, connectivity: int = 4) -> LabelGrid:
    """Split each label into its connected components and canonicalize.

    Pixels sharing a label but not spatially connected become separate
    regions. The output is canonical (labels = first-appearance order).
    One union-find pass (`_roots`) covers every label: its nodes are the
    horizontal runs of equal labels, joined where runs of the same label
    touch across rows. The cost is O(H·W) whatever the number of labels.
    Each component's root is its first run, which `paint_runs` ranks by
    first appearance, writing the runs in one pass. Labels are int32,
    like every label grid's, so there are fewer than 2**31 regions.
    """
    labels = mask.labels
    flat = labels.ravel()
    starts = run_starts(labels)
    run, pixel = _cross_row_neighbors(starts, labels.shape, connectivity)
    same = flat[starts][run] == flat[pixel]
    touched = np.searchsorted(starts, pixel[same], side="right") - 1
    return paint_runs(_roots(starts.size, run[same], touched), starts, labels.shape)


def build_region_graph(
    mask: LabelGrid, samples: SparseSamples | PairedObservations, connectivity: int = 4
) -> RegionGraph:
    """Build regions and adjacency from a canonical label grid.

    Adjacency holds between two regions iff some pixel of one touches a
    pixel of the other under the given connectivity. Each sample is
    assigned to the single region containing its pixel. `samples` may be
    raw samples or paired observations (only their rows and cols are
    read); the graph's sample groups index whichever was given.
    """
    labels = mask.labels
    height, width = labels.shape
    flat = labels.ravel()
    starts = run_starts(labels)
    run_label = flat[starts]
    if not is_label_range(run_label):
        raise InputError("mask is not canonical; run canonicalize_labels or split_into_components")
    n_regions = int(run_label.max()) + 1

    # Sample assignment, preserving sample order inside a region.
    if len(samples) and (samples.rows.max() >= height or samples.cols.max() >= width):
        raise OutOfBounds(f"sample coordinates exceed mask shape ({height}, {width})")
    region_of = labels[samples.rows, samples.cols]
    sample_order = np.argsort(region_of, kind="stable").astype(np.int64, copy=False)

    # Adjacency from label changes: inside a row they sit at run starts,
    # across rows the run starts' neighbours meet them all.
    run, pixel = _cross_row_neighbors(starts, labels.shape, connectivity)
    inner = np.flatnonzero(starts % width)
    p = np.concatenate([run_label[run], run_label[inner]]).astype(np.int64)
    q = np.concatenate([flat[pixel], run_label[inner - 1]]).astype(np.int64)
    change = p != q
    p, q = p[change], q[change]
    # One code per directed edge; sorted, they run by region, then by neighbour.
    codes = np.sort(np.concatenate([p * n_regions + q, q * n_regions + p]))
    codes = codes[np.diff(codes, prepend=-1) > 0]
    region, neighbor = np.divmod(codes, n_regions)
    return RegionGraph(
        indptr=_bounds(region, n_regions),
        indices=neighbor.astype(np.int32),
        sample_bounds=_bounds(region_of, n_regions),
        sample_order=sample_order,
    )


def expand_until(
    graph: RegionGraph,
    origin: int,
    need: Callable[[np.ndarray], bool],
    max_hops: int | None = None,
) -> Expansion:
    """Grow a region ring-by-ring until `need` accepts its samples.

    `need` receives the accumulated sample indices (in absorption
    order), first for the origin alone and then after each absorbed
    ring, and returns True once they suffice. The expansion is
    returned even when `need` is never satisfied, after all reachable
    regions (or `max_hops` rings) are absorbed; the caller decides the
    fallback. Deterministic: rings absorb in ascending region-id order.
    """
    if not 0 <= origin < graph.n_regions:
        raise InputError(f"origin region {origin} does not exist")
    included = [origin]
    seen = {origin}
    frontier = [origin]
    hop = 0
    accumulated = graph.group(origin)
    while not need(accumulated):
        if max_hops is not None and hop >= max_hops:
            break
        ring = sorted({n for rid in frontier for n in graph.neighbors(rid)} - seen)
        if not ring:
            break
        included.extend(ring)
        seen.update(ring)
        brought = [graph.group(rid) for rid in ring if graph.group(rid).size]
        if brought:
            accumulated = np.concatenate([accumulated, *brought])
        frontier = ring
        hop += 1
    return Expansion(origin=origin, included=tuple(included), hop=hop)
