import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale.errors import DuplicateSample, InputError, OutOfBounds
from depthscale.grids import (
    DepthGrid,
    LabelGrid,
    SparseSamples,
    canonicalize_labels,
    grid_to_samples,
    samples_to_grid,
)


def reference_canonicalize(labels: np.ndarray) -> np.ndarray:
    """Canonical labels from a sort of every pixel: the obvious form, kept as the oracle."""
    flat = np.asarray(labels).ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    return rank[inverse].reshape(np.shape(labels))


def reference_is_canonical(labels: np.ndarray) -> bool:
    return bool(np.unique(labels).size == np.max(labels) + 1)


def label_grids(max_side=12, max_label=65535, min_values=1):
    """Label grids of 1..max_side squared pixels, min_values..8 values up to max_label.

    Blocks of 1..4 pixels square, then scattered single pixels.
    """
    return st.tuples(
        st.integers(1, max_side),
        st.integers(1, max_side),
        st.lists(st.integers(0, max_label), min_size=min_values, max_size=8, unique=True),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    ).map(_label_grid)


def _label_grid(args):
    h, w, values, block, seed = args
    rng = np.random.default_rng(seed)
    coarse = rng.choice(values, size=(-(-h // block), -(-w // block)))
    labels = np.kron(coarse, np.ones((block, block), dtype=np.int64))[:h, :w]
    # scatter single pixels, which may also join or split the blocks
    k = int(rng.integers(0, h * w // 4 + 1))
    labels[rng.integers(0, h, k), rng.integers(0, w, k)] = rng.choice(values, size=k)
    return labels


def test_depth_grid_basics():
    g = DepthGrid(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert g.height == 2 and g.width == 2
    assert g.n_valid == 4
    assert not g.values.flags.writeable


def test_depth_grid_rejects_nonfinite_at_valid():
    values = np.array([[1.0, np.nan]])
    with pytest.raises(InputError):
        DepthGrid(values)
    # fine when the nan pixel is invalid
    g = DepthGrid(values, np.array([[True, False]]))
    assert g.n_valid == 1


@pytest.mark.parametrize("junk", [np.inf, -np.inf, np.nan, -0.0, 999.0])
def test_depth_grid_stores_positive_zero_at_invalid_pixels(junk):
    values = np.array([[1.5, junk], [junk, -0.0]])
    given = values.copy()
    g = DepthGrid(values, np.array([[True, False], [False, True]]))
    # +0.0 at invalid pixels; valid ones, -0.0 included, keep their bits
    assert g.values.tobytes() == np.array([[1.5, 0.0], [0.0, -0.0]]).tobytes()
    assert not g.values.flags.writeable
    assert values.tobytes() == given.tobytes()
    assert values.flags.writeable


def test_depth_grid_copies_a_read_only_input():
    values = np.frombuffer(np.array([2.0, np.inf]).tobytes()).reshape(1, 2)
    g = DepthGrid(values, np.array([[True, False]]))
    assert g.values.tolist() == [[2.0, 0.0]]
    assert not np.shares_memory(g.values, values)


def test_depth_grid_rejects_bad_shapes():
    with pytest.raises(InputError):
        DepthGrid(np.zeros(4))
    with pytest.raises(InputError):
        DepthGrid(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))


def test_canonicalize_two_region_relabel():
    mask = LabelGrid(np.array([[5, 5], [9, 9]]))
    out = canonicalize_labels(mask)
    assert np.array_equal(out.labels, [[0, 0], [1, 1]])


def test_canonicalize_single_region():
    out = canonicalize_labels(LabelGrid(np.full((2, 3), 7)))
    assert np.array_equal(out.labels, np.zeros((2, 3)))


def test_canonicalize_reorders_by_first_appearance():
    out = canonicalize_labels(LabelGrid(np.array([[0, 2], [2, 0]])))
    assert np.array_equal(out.labels, [[0, 1], [1, 0]])


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=36).map(np.asarray)
)
def test_canonicalize_is_idempotent(flat):
    mask = LabelGrid(flat.reshape(1, -1))
    once = canonicalize_labels(mask)
    twice = canonicalize_labels(once)
    assert once.is_canonical()
    assert np.array_equal(once.labels, twice.labels)


@settings(max_examples=300, deadline=None)
@given(label_grids())
def test_canonicalize_matches_unique_reference(labels):
    out = canonicalize_labels(LabelGrid(labels)).labels
    want = reference_canonicalize(labels)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(label_grids(max_label=40), st.booleans())
def test_is_canonical_matches_unique_reference(labels, canonicalize):
    mask = LabelGrid(labels)
    if canonicalize:
        mask = canonicalize_labels(mask)
    assert mask.is_canonical() == reference_is_canonical(mask.labels)


def test_is_canonical_with_labels_beyond_pixel_count():
    # more label values than pixels cannot be canonical, however large
    assert not LabelGrid(np.array([[0, 2**31 - 1], [1, 2]])).is_canonical()
    assert not LabelGrid(np.array([[0, 4], [1, 2]])).is_canonical()
    assert LabelGrid(np.array([[0, 3], [1, 2]])).is_canonical()
    assert not LabelGrid(np.full((4, 4), 65535)).is_canonical()


def test_samples_to_grid_single_point():
    s = SparseSamples.from_points([(0, 0, 2.0)])
    g = samples_to_grid(s, 2, 2)
    assert g.values[0, 0] == 2.0
    assert g.n_valid == 1


def test_samples_to_grid_empty():
    g = samples_to_grid(SparseSamples.from_points([]), 3, 3)
    assert g.n_valid == 0


def test_samples_to_grid_out_of_bounds():
    s = SparseSamples.from_points([(2, 0, 1.0)])
    with pytest.raises(OutOfBounds):
        samples_to_grid(s, 2, 2)


def test_duplicate_coordinate_rejected():
    with pytest.raises(DuplicateSample):
        SparseSamples.from_points([(0, 0, 1.0), (0, 0, 2.0)])


def test_duplicate_detected_at_huge_coordinates():
    big = 2**40
    # distinct pixels; a row-major code rows * (cols.max() + 1) + cols
    # wraps round int64 and gives the first two the same code
    distinct = SparseSamples.from_points([(big, 0, 1.0), (0, 0, 2.0), (0, 2**24 - 1, 3.0)])
    assert len(distinct) == 3
    distinct = SparseSamples.from_points(
        [(big, big + 1, 1.0), (big + 1, big, 2.0), (big, big, 3.0), (0, big, 4.0)]
    )
    assert len(distinct) == 4
    with pytest.raises(DuplicateSample):
        SparseSamples.from_points([(big, big + 1, 1.0), (big + 1, big, 2.0), (big, big + 1, 3.0)])
    with pytest.raises(DuplicateSample):
        SparseSamples.from_points([(2, 9, 1.0), (big, 3, 2.0), (7, 7, 1.0), (big, 3, 5.0)])


def test_sample_invariants():
    with pytest.raises(InputError):
        SparseSamples.from_points([(0, 0, -1.0)])
    with pytest.raises(InputError):
        SparseSamples.from_points([(0, 0, float("inf"))])
    with pytest.raises(InputError):
        SparseSamples.from_points([(-1, 0, 1.0)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: LabelGrid(np.array([[0, 2**40]])),  # would wrap to 0 in int32
        lambda: LabelGrid([[0.5, 1.7]]),  # would truncate to 0 and 1
        lambda: LabelGrid([[0.0, np.nan]]),
        lambda: LabelGrid(np.array([[0, 2**63]], dtype=np.uint64)),
        lambda: SparseSamples([1.5], [2.7], [1.0]),  # would keep pixel (1, 2)
        lambda: SparseSamples([0], [1e30], [1.0]),
    ],
)
def test_integer_cast_that_changes_a_value_is_refused(make):
    with pytest.raises(InputError, match="values change when cast to int"):
        make()


def test_integer_cast_that_keeps_every_value_is_accepted():
    assert LabelGrid([[0.0, 3.0]]).labels.tolist() == [[0, 3]]
    assert LabelGrid(np.array([[0, 2**31 - 1]], dtype=np.uint64)).labels.dtype == np.int32
    assert SparseSamples([1.0], np.array([2], dtype=np.int32), [1.0]).points == [(1, 2, 1.0)]


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 7), st.floats(0.01, 100.0, allow_nan=False)
        ),
        max_size=20,
        unique_by=lambda p: (p[0], p[1]),
    )
)
def test_round_trip_samples_grid(points):
    s = SparseSamples.from_points(points)
    back = grid_to_samples(samples_to_grid(s, 8, 8))
    assert sorted(back.points) == sorted(s.points)
