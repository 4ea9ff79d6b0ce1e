"""Region extraction, adjacency, and deterministic neighbor expansion.

A label grid is first split into spatially connected components
(segmentation exports may scatter one label across the image), then
each component becomes a node in a region adjacency graph. When a
region alone does not hold enough sparse measurements, `expand_until`
absorbs neighboring regions breadth-first, one ring at a time, taking
regions within a ring in ascending-id order so the result is
reproducible.

Graphs are immutable once built; expansions for different origins are
independent and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage

from .errors import InputError, OutOfBounds
from .grids import LabelGrid, SparseSamples, canonicalize_labels

CONNECTIVITIES = (4, 8)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 4:
        return np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    if connectivity == 8:
        return np.ones((3, 3), dtype=bool)
    raise InputError(f"connectivity must be 4 or 8, got {connectivity}")


@dataclass(frozen=True, eq=False)
class Region:
    """One region: its pixels and the indices of samples inside it."""

    id: int
    rows: np.ndarray
    cols: np.ndarray
    sample_indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.rows.size)


@dataclass(frozen=True, eq=False)
class RegionGraph:
    """Regions plus a symmetric, irreflexive adjacency over their ids."""

    regions: tuple[Region, ...]
    neighbor_ids: tuple[tuple[int, ...], ...]

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def neighbors(self, region_id: int) -> tuple[int, ...]:
        return self.neighbor_ids[region_id]


@dataclass(frozen=True)
class Expansion:
    """Result of growing a region over its neighbors.

    `included` lists region ids in absorption order, origin first;
    `hop` counts the breadth-first rings that were absorbed.
    """

    origin: int
    included: tuple[int, ...]
    hop: int


def split_into_components(mask: LabelGrid, connectivity: int = 4) -> LabelGrid:
    """Split each label into its connected components and canonicalize.

    Pixels sharing a label but not spatially connected become separate
    regions. The output is canonical (labels = first-appearance order).
    """
    structure = _structure(connectivity)
    labels = mask.labels
    out = np.zeros(labels.shape, dtype=np.int32)
    offset = 0
    for value in np.unique(labels):
        component, count = ndimage.label(labels == value, structure=structure)
        sel = component > 0
        out[sel] = component[sel] - 1 + offset
        offset += count
    return canonicalize_labels(LabelGrid(out))


def build_region_graph(
    mask: LabelGrid, samples: SparseSamples, connectivity: int = 4
) -> RegionGraph:
    """Build regions and adjacency from a canonical label grid.

    Adjacency holds between two regions iff some pixel of one touches a
    pixel of the other under the given connectivity. Each sample is
    assigned to the single region containing its pixel.
    """
    labels = mask.labels
    height, width = labels.shape
    n_regions = int(labels.max()) + 1
    present = np.unique(labels)
    if present.size != n_regions:
        raise InputError("mask is not canonical; run canonicalize_labels or split_into_components")

    # Pixel lists per region via one stable sort of the flat label array.
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=n_regions)
    splits = np.cumsum(counts)[:-1]
    pixel_groups = np.split(order, splits)

    # Sample assignment, preserving original sample order inside a region.
    if len(samples):
        if samples.rows.max() >= height or samples.cols.max() >= width:
            raise OutOfBounds(f"sample coordinates exceed mask shape ({height}, {width})")
        region_of = labels[samples.rows, samples.cols]
        sample_order = np.argsort(region_of, kind="stable")
        sample_counts = np.bincount(region_of, minlength=n_regions)
        sample_groups = np.split(sample_order, np.cumsum(sample_counts)[:-1])
    else:
        sample_groups = [np.empty(0, dtype=np.int64)] * n_regions

    regions = tuple(
        Region(
            id=i,
            rows=pixel_groups[i] // width,
            cols=pixel_groups[i] % width,
            sample_indices=np.asarray(sample_groups[i], dtype=np.int64),
        )
        for i in range(n_regions)
    )

    # Adjacency from label discontinuities between neighboring pixels.
    pairs = [
        (labels[:, :-1], labels[:, 1:]),
        (labels[:-1, :], labels[1:, :]),
    ]
    if connectivity == 8:
        pairs += [
            (labels[:-1, :-1], labels[1:, 1:]),
            (labels[:-1, 1:], labels[1:, :-1]),
        ]
    elif connectivity != 4:
        raise InputError(f"connectivity must be 4 or 8, got {connectivity}")
    edge_set: set[tuple[int, int]] = set()
    for a, b in pairs:
        diff = a != b
        lo = np.minimum(a[diff], b[diff])
        hi = np.maximum(a[diff], b[diff])
        if lo.size:
            uniq = np.unique(np.stack([lo, hi], axis=1), axis=0)
            edge_set.update((int(p), int(q)) for p, q in uniq)

    neighbor_lists: list[list[int]] = [[] for _ in range(n_regions)]
    for p, q in edge_set:
        neighbor_lists[p].append(q)
        neighbor_lists[q].append(p)
    neighbor_ids = tuple(tuple(sorted(ns)) for ns in neighbor_lists)

    return RegionGraph(regions=regions, neighbor_ids=neighbor_ids)


def expand_until(
    graph: RegionGraph,
    origin: int,
    need: Callable[[np.ndarray], bool],
    max_hops: int | None = None,
) -> Expansion:
    """Grow a region ring-by-ring until `need` accepts its samples.

    `need` receives the accumulated sample indices (in absorption
    order) and returns True once they suffice. The expansion is
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
    chunks = [graph.regions[origin].sample_indices]
    while True:
        accumulated = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        if need(accumulated):
            break
        if max_hops is not None and hop >= max_hops:
            break
        ring = sorted({n for rid in frontier for n in graph.neighbors(rid)} - seen)
        if not ring:
            break
        included.extend(ring)
        seen.update(ring)
        chunks.extend(graph.regions[rid].sample_indices for rid in ring)
        chunks = [np.concatenate(chunks)]
        frontier = ring
        hop += 1
    return Expansion(origin=origin, included=tuple(included), hop=hop)
