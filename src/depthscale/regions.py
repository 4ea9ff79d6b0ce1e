"""Region extraction, adjacency, and deterministic neighbor expansion.

A label grid is first split into spatially connected components
(segmentation exports may scatter one label across the image), then
each component becomes a node in a region adjacency graph. The graph
also groups the samples by region: each group holds indices into the
sample set the graph was built from, which may be the raw samples or
the observations paired from them. When a region alone does not hold
enough sparse measurements, `expand_until` absorbs neighboring regions
breadth-first, one ring at a time, taking regions within a ring in
ascending-id order so the result is reproducible.

The split and the adjacency both work on horizontal runs of equal
labels. A few full-frame passes find the runs, and all later work is
per run, so the cost is O(H·W) whatever the number of label values.

Graphs are immutable once built; expansions for different origins are
independent and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InputError, OutOfBounds
from .fitting import PairedObservations
from .grids import LabelGrid, SparseSamples, canonicalize_labels, run_starts

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


def _group_bounds(keys: np.ndarray, n_groups: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of each key 0 .. n_groups - 1 in the keys, once sorted."""
    ends = np.cumsum(np.bincount(keys, minlength=n_groups)).tolist()
    return list(zip([0] + ends[:-1], ends))


@dataclass(frozen=True, eq=False)
class RegionGraph:
    """Per-region sample groups plus a symmetric, irreflexive adjacency.

    Regions are numbered by their label in the grid. `samples[i]` holds
    the indices of the samples inside region i, ascending.
    """

    samples: tuple[np.ndarray, ...]
    neighbor_ids: tuple[tuple[int, ...], ...]

    @property
    def n_regions(self) -> int:
        return len(self.neighbor_ids)

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
    One connected-components pass covers every label: its nodes are the
    horizontal runs of equal labels, joined where runs of the same label
    touch across rows. The cost is O(H·W) whatever the number of labels.
    """
    labels = mask.labels
    flat = labels.ravel()
    starts = run_starts(labels)
    run, pixel = _cross_row_neighbors(starts, labels.shape, connectivity)
    same = flat[starts][run] == flat[pixel]
    # `run` ascends, so the equal-label pairs fill a CSR matrix row by row.
    n_runs = starts.size
    indptr = np.zeros(n_runs + 1, dtype=np.intp)
    np.cumsum(np.bincount(run[same], minlength=n_runs), out=indptr[1:])
    touched = np.searchsorted(starts, pixel[same], side="right") - 1
    graph = csr_matrix((np.ones(touched.size), touched, indptr), shape=(n_runs, n_runs))
    _, component = connected_components(graph, directed=False)
    out = np.repeat(component, np.diff(starts, append=flat.size))
    return canonicalize_labels(LabelGrid(out.reshape(labels.shape)))


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
    n_regions = int(labels.max()) + 1
    if not mask.is_canonical():
        raise InputError("mask is not canonical; run canonicalize_labels or split_into_components")

    # Sample assignment, preserving sample order inside a region.
    if len(samples) and (samples.rows.max() >= height or samples.cols.max() >= width):
        raise OutOfBounds(f"sample coordinates exceed mask shape ({height}, {width})")
    region_of = labels[samples.rows, samples.cols]
    sample_order = np.argsort(region_of, kind="stable").astype(np.int64, copy=False)
    groups = tuple(sample_order[lo:hi] for lo, hi in _group_bounds(region_of, n_regions))

    # Adjacency from label changes: inside a row they sit at run starts,
    # across rows the run starts' neighbours meet them all.
    flat = labels.ravel()
    starts = run_starts(labels)
    run, pixel = _cross_row_neighbors(starts, labels.shape, connectivity)
    run_label = flat[starts]
    inner = np.flatnonzero(starts % width)
    p = np.concatenate([run_label[run], run_label[inner]]).astype(np.int64)
    q = np.concatenate([flat[pixel], run_label[inner - 1]]).astype(np.int64)
    change = p != q
    p, q = p[change], q[change]
    # One code per directed edge; sorted, they run by region, then by neighbour.
    codes = np.sort(np.concatenate([p * n_regions + q, q * n_regions + p]))
    codes = codes[np.diff(codes, prepend=-1) > 0]
    region, neighbor = np.divmod(codes, n_regions)
    neighbor = neighbor.tolist()
    neighbor_ids = tuple(tuple(neighbor[lo:hi]) for lo, hi in _group_bounds(region, n_regions))

    return RegionGraph(samples=groups, neighbor_ids=neighbor_ids)


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
    accumulated = graph.samples[origin]
    while not need(accumulated):
        if max_hops is not None and hop >= max_hops:
            break
        ring = sorted({n for rid in frontier for n in graph.neighbors(rid)} - seen)
        if not ring:
            break
        included.extend(ring)
        seen.update(ring)
        brought = [graph.samples[rid] for rid in ring if graph.samples[rid].size]
        if brought:
            accumulated = np.concatenate([accumulated, *brought])
        frontier = ring
        hop += 1
    return Expansion(origin=origin, included=tuple(included), hop=hop)
