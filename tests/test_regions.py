import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from depthscale import regions

from depthscale.errors import InputError
from depthscale.fitting import pair_observations
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples, canonicalize_labels
from depthscale.regions import (
    SourceRings,
    build_region_graph,
    expand_until,
    split_into_components,
    split_regions,
)
from test_grids import label_grids, reference_canonicalize

NO_SAMPLES = SparseSamples.from_points([])


def reference_split(labels: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """One `ndimage.label` pass per label value, then canonical labels.

    The per-label loop the split used to run, kept as the oracle.
    """
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    labels = np.asarray(labels)
    out = np.zeros(labels.shape, dtype=np.int32)
    offset = 0
    for value in np.unique(labels):
        component, count = ndimage.label(labels == value, structure=structure)
        sel = component > 0
        out[sel] = component[sel] - 1 + offset
        offset += count
    return reference_canonicalize(out)


def reference_neighbors(labels: np.ndarray, connectivity: int = 4) -> tuple:
    """Adjacency from every pair of neighbouring pixels, one by one."""
    h, w = labels.shape
    steps = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if connectivity == 8 else [])
    touching = [set() for _ in range(int(labels.max()) + 1)]
    for r in range(h):
        for c in range(w):
            for dr, dc in steps:
                if 0 <= r + dr < h and 0 <= c + dc < w:
                    p, q = int(labels[r, c]), int(labels[r + dr, c + dc])
                    if p != q:
                        touching[p].add(q)
                        touching[q].add(p)
    return tuple(tuple(sorted(ns)) for ns in touching)


def graph_of(labels, samples=NO_SAMPLES, connectivity=4):
    return build_region_graph(LabelGrid(np.asarray(labels)), samples, connectivity)


def adjacency(g):
    return tuple(g.neighbors(i) for i in range(g.n_regions))


def groups(g):
    return [list(g.group(i)) for i in range(g.n_regions)]


def test_two_column_regions_one_edge():
    g = graph_of([[0, 1], [0, 1]])
    assert g.n_regions == 2
    assert adjacency(g) == ((1,), (0,))


def test_uniform_mask_no_edges():
    g = graph_of(np.zeros((3, 3), dtype=int))
    assert g.n_regions == 1
    assert adjacency(g) == ((),)


def test_chain_adjacency():
    g = graph_of([[0], [1], [2]])
    assert adjacency(g) == ((1,), (0, 2), (1,))
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0, 2)
    assert g.indices.dtype == np.int32  # region ids, like labels


def test_diagonal_regions_not_adjacent_under_4():
    labels = [[0, 1], [1, 2]]
    assert 2 not in graph_of(labels).neighbors(0)
    assert 2 in graph_of(labels, connectivity=8).neighbors(0)


def test_non_canonical_mask_rejected():
    with pytest.raises(InputError):
        graph_of([[0, 2], [0, 2]])


def test_sample_assignment():
    samples = SparseSamples.from_points([(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)])
    g = graph_of([[0, 1], [0, 1]], samples)
    assert groups(g) == [[0], [1, 2]]


def test_sample_groups_index_the_samples_given():
    # the first sample sits on an invalid pixel, so pairing drops it
    mask = LabelGrid(np.array([[0, 1], [0, 1]]))
    grid = DepthGrid(np.ones((2, 2)), np.array([[False, True], [True, True]]))
    samples = SparseSamples.from_points([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)])
    paired = build_region_graph(mask, pair_observations(grid, samples))
    assert groups(paired) == [[1], [0]]
    raw = build_region_graph(mask, samples)
    assert groups(raw) == [[0, 2], [1]]


def test_split_disconnected_label():
    # one label, two islands: becomes two regions
    mask = LabelGrid(np.array([[1, 0, 1], [1, 0, 1]]))
    out = split_into_components(mask)
    assert out.labels.max() == 2
    assert out.labels[0, 0] != out.labels[0, 2]
    assert out.labels[0, 0] != out.labels[0, 1]


def test_split_8_connectivity_joins_diagonal():
    mask = LabelGrid(np.array([[1, 0], [0, 1]]))
    assert split_into_components(mask, 4).labels.max() == 3
    assert split_into_components(mask, 8).labels.max() == 1


def test_expand_satisfied_at_origin():
    samples = SparseSamples.from_points([(0, 0, 1.0), (1, 0, 2.0)])
    g = graph_of([[0, 1], [0, 1]], samples)
    exp = expand_until(g, 0, lambda idx: idx.size >= 2)
    assert exp.included == (0,)
    assert exp.hop == 0


def test_expand_one_hop_to_neighbor():
    # origin region 0 has no samples; its sole neighbor holds 5
    labels = [[0, 1, 1, 1, 1, 1]]
    samples = SparseSamples.from_points([(0, c, float(c)) for c in range(1, 6)])
    g = graph_of(labels, samples)
    exp = expand_until(g, 0, lambda idx: idx.size >= 2)
    assert exp.included == (0, 1)
    assert exp.hop == 1


def test_expand_exhausts_disconnected_component():
    # total samples reachable from region 0 stay below the requirement
    labels = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
    samples = SparseSamples.from_points([(0, 0, 1.0)])
    g = graph_of(labels, samples)
    exp = expand_until(g, 0, lambda idx: idx.size >= 5)
    assert exp.included == (0, 1)  # whole component absorbed, need still unmet
    assert exp.hop == 1


def test_expand_respects_max_hops():
    labels = [[0], [1], [2], [3]]
    samples = SparseSamples.from_points([(3, 0, 1.0)])
    g = graph_of(labels, samples)
    exp = expand_until(g, 0, lambda idx: idx.size >= 1, max_hops=1)
    assert exp.included == (0, 1)
    assert exp.hop == 1
    full = expand_until(g, 0, lambda idx: idx.size >= 1)
    assert full.included == (0, 1, 2, 3)
    assert full.hop == 3


def test_expand_ring_order_ascending():
    # center region 2 touches 0, 1, 3, 4; ring must list them ascending
    labels = np.array(
        [
            [0, 0, 1, 1],
            [3, 2, 2, 4],
            [3, 2, 2, 4],
        ]
    )
    mask = canonicalize_labels(LabelGrid(labels))
    g = build_region_graph(mask, NO_SAMPLES)
    origin = int(mask.labels[1, 1])
    exp = expand_until(g, origin, lambda idx: False)
    ring = exp.included[1:]
    assert list(ring) == sorted(ring)


@settings(max_examples=300, deadline=None)
@given(label_grids(max_side=30, min_values=2), st.sampled_from([4, 8]))
def test_split_and_graph_match_reference(labels, connectivity):
    out = split_into_components(LabelGrid(labels), connectivity).labels
    want = reference_split(labels, connectivity)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    g = build_region_graph(LabelGrid(want), NO_SAMPLES, connectivity)
    assert adjacency(g) == reference_neighbors(want, connectivity)


def spiral(n: int) -> np.ndarray:
    """A one-pixel wall winding inwards from the top row, 1 on 0."""
    out = np.zeros((n, n), dtype=np.int64)
    r, c = 0, -1
    for turn, steps in enumerate([n] + [s for s in range(n - 2, 0, -2) for _ in "ab"]):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[turn % 4]
        for _ in range(steps):
            r, c = r + dr, c + dc
            out[r, c] = 1
    return out


def comb(h: int, w: int) -> np.ndarray:
    """Teeth in every other column, joined by the bottom row, 1 on 0."""
    out = np.zeros((h, w), dtype=np.int64)
    out[:, ::2] = 1
    out[-1] = 1
    return out


def serpentine(h: int, w: int) -> np.ndarray:
    """Every other row, joined at alternating ends, 1 on 0."""
    out = np.zeros((h, w), dtype=np.int64)
    out[::2] = 1
    out[1::4, -1] = 1
    out[3::4, 0] = 1
    return out


def nested_rings(n: int) -> np.ndarray:
    """Concentric square rings one pixel wide, labelled by depth mod 3."""
    depth = np.minimum(np.arange(n), np.arange(n)[::-1])
    return np.minimum.outer(depth, depth) % 3


def hilbert(order: int) -> np.ndarray:
    """A one-pixel Hilbert curve through the even cells of a (2**(order+1) - 1) square, 1 on 0."""
    n = 2**order
    out = np.zeros((2 * n - 1, 2 * n - 1), dtype=np.int64)
    previous = None
    for d in range(n * n):
        x = y = 0
        s, t = 1, d
        while s < n:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx == 1:
                    x, y = s - 1 - x, s - 1 - y
                x, y = y, x
            x, y, t, s = x + s * rx, y + s * ry, t // 4, s * 2
        out[2 * y, 2 * x] = 1
        if previous is not None:
            out[y + previous[1], x + previous[0]] = 1
        previous = (x, y)
    return out


def orientations(labels: np.ndarray) -> list[np.ndarray]:
    """The eight rotations and reflections, which change the order of the runs."""
    turns = [np.rot90(labels, k) for k in range(4)]
    return [np.ascontiguousarray(a) for a in turns + [t.T for t in turns]]


# (mask, hooking rounds the split must take). The spirals, combs,
# serpentines and rings join long chains of runs but collapse in one or
# two rounds; the Hilbert curves take three to six, which random masks
# up to 30x30 do not reach (at most four).
WINDING_MASKS = {
    "spiral-64": (spiral(64), 2),
    "spiral-33": (spiral(33), 2),
    "comb-64": (comb(64, 64), 1),
    "comb-17x40": (comb(17, 40), 1),
    "serpentine-64": (serpentine(64, 64), 1),
    "serpentine-31x12": (serpentine(31, 12), 1),
    "rings-64": (nested_rings(64), 1),
    "rings-21": (nested_rings(21), 1),
    "hilbert-4": (hilbert(4), 3),
    "hilbert-5": (hilbert(5), 4),
}


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("name", list(WINDING_MASKS))
def test_split_matches_reference_on_winding_masks(name, connectivity):
    mask, min_rounds = WINDING_MASKS[name]
    for labels in orientations(mask):
        with mock.patch.object(regions, "_compress", wraps=regions._compress) as rounds:
            out = split_into_components(LabelGrid(labels), connectivity).labels
        assert out.tobytes() == reference_split(labels, connectivity).tobytes()
        assert rounds.call_count >= min_rounds


def assert_split_regions_is_split_then_graph(labels, connectivity, seed):
    # the shared run pass gives the bytes of the split, then the graph on it
    h, w = labels.shape
    rng = np.random.default_rng(seed)
    picked = rng.choice(h * w, size=int(rng.integers(0, min(12, h * w) + 1)), replace=False)
    samples = SparseSamples(picked // w, picked % w, np.ones(picked.size))
    mask = LabelGrid(labels)
    got_mask, got = split_regions(mask, samples, connectivity)
    want_mask = split_into_components(mask, connectivity)
    want = build_region_graph(want_mask, samples, connectivity)
    assert got_mask.labels.dtype == want_mask.labels.dtype
    assert got_mask.labels.tobytes() == want_mask.labels.tobytes()
    for name in ("indptr", "indices", "sample_bounds", "sample_order"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


@settings(max_examples=300, deadline=None)
@given(label_grids(max_side=30, min_values=2), st.sampled_from([4, 8]), st.integers(0, 2**32 - 1))
def test_split_regions_matches_split_then_graph(labels, connectivity, seed):
    assert_split_regions_is_split_then_graph(labels, connectivity, seed)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("name", list(WINDING_MASKS))
def test_split_regions_matches_split_then_graph_on_winding_masks(name, connectivity):
    for seed, labels in enumerate(orientations(WINDING_MASKS[name][0])):
        assert_split_regions_is_split_then_graph(labels, connectivity, seed)


def test_split_one_value_per_pixel():
    # every pixel its own run and, under 4-connectivity, its own region
    labels = np.arange(35).reshape(5, 7)
    assert np.array_equal(split_into_components(LabelGrid(labels * 1000), 4).labels, labels)
    for shape in ((1, 1), (1, 9), (9, 1)):
        labels = np.arange(np.prod(shape)).reshape(shape) % 2
        for connectivity in (4, 8):
            got = split_into_components(LabelGrid(labels), connectivity).labels
            assert np.array_equal(got, reference_split(labels, connectivity))


def test_split_rejects_unknown_connectivity():
    with pytest.raises(InputError):
        split_into_components(LabelGrid(np.zeros((2, 2), dtype=int)), 6)
    with pytest.raises(InputError):
        graph_of(np.zeros((2, 2), dtype=int), connectivity=6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
def test_partition_and_symmetry(h, w, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=(h * 3, w * 3))
    mask = split_into_components(LabelGrid(labels))
    g = build_region_graph(mask, NO_SAMPLES)
    # one region per label of the grid, and every region id labels some pixel
    assert g.n_regions == mask.labels.max() + 1
    assert np.array_equal(np.unique(mask.labels), range(g.n_regions))
    assert g.sample_bounds.size == g.n_regions + 1
    # adjacency is exactly the 4-neighbor label changes, both ways round
    lab = mask.labels
    left = np.r_[lab[:, :-1].ravel(), lab[:-1, :].ravel()]
    right = np.r_[lab[:, 1:].ravel(), lab[1:, :].ravel()]
    touching = {e for p, q in zip(left, right) if p != q for e in ((int(p), int(q)), (int(q), int(p)))}
    assert touching == {(a, b) for a in range(g.n_regions) for b in g.neighbors(a)}
    for a in range(g.n_regions):
        assert list(g.neighbors(a)) == sorted(set(g.neighbors(a)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_expansion_deterministic_and_monotone(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=(8, 8))
    mask = split_into_components(LabelGrid(labels))
    n_pix = mask.shape[0] * mask.shape[1]
    idx = rng.choice(n_pix, size=6, replace=False)
    samples = SparseSamples(idx // 8, idx % 8, rng.uniform(1.0, 5.0, 6))
    g = build_region_graph(mask, samples)
    origin = int(rng.integers(0, g.n_regions))
    previous = None
    for k in range(0, 7):
        exp = expand_until(g, origin, lambda i: i.size >= k)
        again = expand_until(g, origin, lambda i: i.size >= k)
        assert exp == again
        if previous is not None:
            assert exp.included[: len(previous)] == previous
        previous = exp.included


@settings(max_examples=150, deadline=None)
@given(
    label_grids(max_side=16, min_values=2),
    st.sampled_from([4, 8]),
    st.integers(0, 2**31 - 1),
    st.sampled_from([None, 0, 2]),
    st.sampled_from([1, 3]),
)
def test_source_rings_match_shortest_paths(labels, connectivity, seed, max_hops, levels):
    # after each ring, every (region, source) pair within the radius, in
    # (region, hop, source) order, as scipy's unweighted shortest paths give
    # them. The store is read after every `levels` rings: each read merges
    # the levels grown since the last, and the next ring grows on from the
    # last two levels all the same.
    mask = split_into_components(LabelGrid(labels), connectivity)
    h, w = labels.shape
    rng = np.random.default_rng(seed)
    picked = rng.choice(h * w, size=int(rng.integers(0, min(8, h * w) + 1)), replace=False)
    samples = SparseSamples(picked // w, picked % w, np.ones(picked.size))
    g = build_region_graph(mask, samples, connectivity)
    n = g.n_regions
    hops = shortest_path(
        csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n)), unweighted=True
    )
    counts = g.sample_counts
    sources = np.flatnonzero(counts)
    rings = SourceRings(g, max_hops)
    while True:
        within = hops[:, sources] <= rings.radius
        want = sorted(
            (r, int(hops[r, s]), s) for r in range(n) for s, ok in zip(sources, within[r]) if ok
        )
        bounds, hop, source = rings.ordered()
        assert hop.dtype == source.dtype == np.int32
        region = np.repeat(np.arange(n), np.diff(bounds))
        got = list(zip(region.tolist(), hop.tolist(), source.tolist()))
        assert got == want
        assert rings.reached.tolist() == (within * counts[sources]).sum(axis=1).tolist()
        if not any([rings.grow() for _ in range(levels)]):
            break
        assert rings.radius < n  # no hop distance reaches n
    # grown as far as it goes, every region holds what it can ever absorb
    assert max_hops is None or rings.radius <= max_hops
    assert rings.settled(np.arange(n)).all()


@pytest.fixture(scope="module")
def many_source_graph():
    # 240x320 in random 2x2 blocks over 6 labels: about 12.9k regions, and
    # 3,000 samples put about 2.6k of them among the sources
    rng = np.random.default_rng(0)
    labels = np.repeat(np.repeat(rng.integers(0, 6, (120, 160)), 2, axis=0), 2, axis=1)
    picked = rng.choice(240 * 320, size=3000, replace=False)
    samples = SparseSamples(picked // 320, picked % 320, np.ones(picked.size))
    return build_region_graph(split_into_components(LabelGrid(labels)), samples)


@pytest.mark.parametrize("max_hops", [1, 3])
def test_ring_growth_memory_is_a_few_bytes_per_hop_pair(many_source_graph, max_hops):
    # each ring is found from the last two levels alone, so growing the
    # rings allocates a few dozen bytes per hop pair found, however many
    # regions the frame has
    rings = SourceRings(many_source_graph, max_hops)
    tracemalloc.start()
    try:
        while rings.grow():
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rings.radius == max_hops
    pairs = rings.ordered()[1].size
    assert pairs > 5 * rings.sources.size
    assert peak < 128 * pairs


@settings(max_examples=150, deadline=None)
@given(label_grids(max_side=30), st.sampled_from([4, 8]), st.booleans())
def test_region_graph_is_one_component(labels, connectivity, merge_same_label):
    # SourceRings.component_samples lets every region reach every sample
    mask = LabelGrid(labels)
    if merge_same_label:
        mask = canonicalize_labels(mask)
    else:
        mask = split_into_components(mask, connectivity)
    g = build_region_graph(mask, NO_SAMPLES, connectivity)
    n = g.n_regions
    adjacency = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    assert connected_components(adjacency, directed=False)[0] == 1
