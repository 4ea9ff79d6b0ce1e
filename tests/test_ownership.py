"""Array ownership: grids copy their callers' arrays and adopt the library's own.

Every grid holds read-only arrays. The public constructors copy what
they are given; the library's producers hand over arrays they have just
computed, which the grid keeps without a copy, after the same checks.
"""

import numpy as np
import pytest

from depthscale import io
from depthscale.errors import InputError
from depthscale.fitting import FitParams, apply_fit, planar_terms
from depthscale.grids import (
    DepthGrid,
    LabelGrid,
    SparseSamples,
    canonicalize_labels,
    samples_to_grid,
)
from depthscale.normalize import affine_invariant_normalize, invert_depth
from depthscale.pipeline import PipelineConfig, rescale
from depthscale.regions import split_into_components


def junk_grid():
    """Values, validity (4 invalid pixels) and labels (3 values) of a 3x4 grid."""
    values = np.array(
        [[1.0, 2.0, 0.5, 4.0], [3.0, 2.5, 1.5, 0.25], [2.0, 1.0, 3.5, 0.75]]
    )
    valid = np.ones(values.shape, dtype=bool)
    valid[0, 1] = valid[1, 3] = valid[2, 0] = valid[2, 3] = False
    labels = np.array([[0, 0, 1, 1], [2, 0, 1, 1], [2, 2, 0, 1]], dtype=np.int32)
    return values, valid, labels


def assert_positive_zero_at_invalid(grid: DepthGrid):
    invalid = grid.values[~grid.valid]
    assert (invalid == 0.0).all() and not np.signbit(invalid).any()


def library_grids(tmp_path):
    """(name, input arrays, made grid) for every producer of grids."""
    values, valid, labels = junk_grid()
    rel = DepthGrid(values, valid)
    mask = LabelGrid(labels)
    samples = SparseSamples(np.array([0, 1, 2]), np.array([0, 2, 2]), np.array([2.0, 3.0, 4.0]))
    params = [FitParams("affine", 2.0, 0.5, 0.0, 0.0, 3, 1.0)] * 3
    normalized, _ = affine_invariant_normalize(rel)
    metric, _ = rescale(rel, mask, samples, PipelineConfig(min_samples_linear=2))
    io.save_depth(rel, tmp_path / "rel.pfm")
    io.save_depth(rel, tmp_path / "rel.dpg")
    io.save_mask(mask, tmp_path / "mask.pgm")
    return [
        ("invert_depth", rel.values, invert_depth(rel)),
        ("affine_invariant_normalize", rel.values, normalized),
        ("apply_fit", rel.values, apply_fit(rel, mask, planar_terms(params), (0.001, 10.0))),
        ("rescale", rel.values, metric),
        ("samples_to_grid", samples.depths, samples_to_grid(samples, 3, 4)),
        ("load_depth pfm", None, io.load_depth(tmp_path / "rel.pfm")),
        ("load_depth dpg", None, io.load_depth(tmp_path / "rel.dpg")),
        ("split_into_components", mask.labels, split_into_components(mask)),
        ("canonicalize_labels", mask.labels, canonicalize_labels(mask)),
        ("load_mask", None, io.load_mask(tmp_path / "mask.pgm")),
    ]


def test_constructors_copy_the_callers_arrays():
    values, valid, labels = junk_grid()
    grid, mask = DepthGrid(values, valid), LabelGrid(labels)
    kept = grid.values.copy(), grid.valid.copy(), mask.labels.copy()
    values[:] = 7.0
    valid[:] = True
    labels[:] = 5
    assert grid.values.tobytes() == kept[0].tobytes()
    assert (grid.valid == kept[1]).all() and (mask.labels == kept[2]).all()
    # a read-only view of a writable mask is still the caller's: copied
    view = valid.view()
    view.setflags(write=False)
    assert not np.shares_memory(DepthGrid(values, view).valid, valid)


def test_a_read_only_mask_is_shared():
    values, valid, _ = junk_grid()
    grid = DepthGrid(values, valid)
    assert DepthGrid(values, grid.valid).valid is grid.valid
    assert DepthGrid.adopt(values.copy(), grid.valid).valid is grid.valid
    assert invert_depth(grid).valid is grid.valid


def test_library_grids_share_no_memory_with_their_inputs(tmp_path):
    for name, given, made in library_grids(tmp_path):
        kept = made.values if isinstance(made, DepthGrid) else made.labels
        assert given is None or not np.shares_memory(kept, given), name


def test_every_returned_grid_is_read_only(tmp_path):
    for name, _, made in library_grids(tmp_path):
        arrays = (made.values, made.valid) if isinstance(made, DepthGrid) else (made.labels,)
        for arr in arrays:
            assert not arr.flags.writeable, name


def test_library_grids_hold_positive_zero_at_invalid_pixels(tmp_path):
    for name, _, made in library_grids(tmp_path):
        if isinstance(made, DepthGrid):
            assert not made.valid.all(), name
            assert_positive_zero_at_invalid(made)


@pytest.mark.parametrize("junk", [np.nan, -0.0, np.inf, -np.inf, -3.0])
def test_adopted_arrays_hold_positive_zero_at_invalid_pixels(junk):
    values, valid, _ = junk_grid()
    values[~valid] = junk
    values[0, 0] = -0.0  # a valid -0.0 keeps its sign, as in the constructor
    fresh = values.copy()
    grid = DepthGrid.adopt(fresh, valid.copy())
    assert grid.values is fresh  # kept, not copied
    assert_positive_zero_at_invalid(grid)
    assert np.signbit(grid.values[0, 0])
    assert grid.values.tobytes() == DepthGrid(values, valid).values.tobytes()
    assert not grid.values.flags.writeable and not grid.valid.flags.writeable


def test_adoption_runs_the_constructors_checks():
    values, valid, labels = junk_grid()
    values[0, 0] = np.nan
    with pytest.raises(InputError):
        DepthGrid.adopt(values.copy(), valid.copy())
    with pytest.raises(InputError):
        DepthGrid.adopt(np.zeros(4))
    with pytest.raises(InputError):
        DepthGrid.adopt(np.zeros((3, 4)), np.ones((4, 3), dtype=bool))
    labels[0, 0] = -1
    with pytest.raises(InputError):
        LabelGrid.adopt(labels)
    with pytest.raises(InputError):
        LabelGrid.adopt(np.zeros(3, dtype=np.int32))


def test_adoption_takes_only_fresh_arrays_of_the_grids_dtype():
    with pytest.raises(TypeError):
        DepthGrid.adopt(np.zeros((2, 2), dtype=np.float32))
    read_only = np.zeros((2, 2))
    read_only.setflags(write=False)
    with pytest.raises(TypeError):
        DepthGrid.adopt(read_only)
    with pytest.raises(TypeError):
        LabelGrid.adopt(np.zeros((2, 2), dtype=np.int64))
    labels = np.zeros((2, 2), dtype=np.int32)
    assert LabelGrid.adopt(labels).labels is labels
