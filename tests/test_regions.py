import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale.errors import InputError
from depthscale.grids import LabelGrid, SparseSamples, canonicalize_labels
from depthscale.regions import (
    build_region_graph,
    expand_until,
    split_into_components,
)

NO_SAMPLES = SparseSamples.from_points([])


def graph_of(labels, samples=NO_SAMPLES, connectivity=4):
    return build_region_graph(LabelGrid(np.asarray(labels)), samples, connectivity)


def test_two_column_regions_one_edge():
    g = graph_of([[0, 1], [0, 1]])
    assert g.n_regions == 2
    assert g.neighbor_ids == ((1,), (0,))


def test_uniform_mask_no_edges():
    g = graph_of(np.zeros((3, 3), dtype=int))
    assert g.n_regions == 1
    assert g.neighbor_ids == ((),)


def test_chain_adjacency():
    g = graph_of([[0], [1], [2]])
    assert g.neighbor_ids == ((1,), (0, 2), (1,))
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0, 2)


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
    assert list(g.regions[0].sample_indices) == [0]
    assert list(g.regions[1].sample_indices) == [1, 2]


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
    # union of region pixels is the full grid, each pixel exactly once
    counts = np.zeros(mask.shape, dtype=int)
    for region in g.regions:
        counts[region.rows, region.cols] += 1
    assert (counts == 1).all()
    # adjacency is exactly the 4-neighbor label changes, both ways round
    lab = mask.labels
    left = np.r_[lab[:, :-1].ravel(), lab[:-1, :].ravel()]
    right = np.r_[lab[:, 1:].ravel(), lab[1:, :].ravel()]
    touching = {e for p, q in zip(left, right) if p != q for e in ((int(p), int(q)), (int(q), int(p)))}
    assert len(g.neighbor_ids) == g.n_regions
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
