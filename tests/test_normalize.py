import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale.errors import DegenerateGrid, InputError
from depthscale.grids import DepthGrid
from depthscale.normalize import (
    MEAN_STD,
    MEDIAN_MAD,
    affine_invariant_normalize,
    invert_depth,
    lower_median,
    normalization_stats,
)

# Values the caller may leave at invalid pixels; a grid reads all as +0.0.
JUNK = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, -3.0, 7.0, 999.0])


def grids_with_junk():
    """(values, valid) pairs up to 6x6, with JUNK at the invalid pixels.

    Valid values mix zeros, -0.0, values below the inversion epsilon and
    ordinary depths of either sign.
    """
    return st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1)).map(
        _grid_with_junk
    )


def _grid_with_junk(args):
    h, w, seed = args
    rng = np.random.default_rng(seed)
    values = rng.choice([0.0, -0.0, 1e-9, 0.5, -2.0], size=(h, w))
    values = np.where(rng.random((h, w)) < 0.6, rng.uniform(-5.0, 5.0, (h, w)), values)
    valid = rng.random((h, w)) < 0.7
    values[~valid] = rng.choice(JUNK, size=int((~valid).sum()))
    return values, valid


def reference_invert(values, valid, epsilon=1e-6):
    """Inversion by gather and scatter over the valid pixels only."""
    out = values.copy()
    out[valid] = 1.0 / np.maximum(values[valid], epsilon)
    return out


def reference_normalize(values, valid, mode):
    """Normalization by gather and scatter over the valid pixels only."""
    v = values[valid]
    if mode == MEDIAN_MAD:
        t = lower_median(v)
        s = float(np.mean(np.abs(v - t)))
    else:
        t = float(np.mean(v))
        s = float(np.std(v))
    out = values.copy()
    out[valid] = (v - t) / s
    return out, t, s


def assert_matches_at_valid(got, want, valid):
    """Same bits at valid pixels, +0.0 at invalid ones, the same mask."""
    assert np.array_equal(got.valid, valid)
    assert got.values[valid].tobytes() == want[valid].tobytes()
    assert got.values[~valid].tobytes() == np.zeros((~valid).sum()).tobytes()


def grid(values, valid=None):
    return DepthGrid(np.atleast_2d(np.asarray(values, dtype=np.float64)), valid)


def test_invert_reciprocal():
    out = invert_depth(grid([0.5]))
    assert out.values[0, 0] == 2.0


def test_invert_clamps_zero():
    out = invert_depth(grid([0.0]))
    assert out.values[0, 0] == 1e6


def test_invert_grid():
    out = invert_depth(grid([0.25, 0.5]))
    assert np.array_equal(out.values, [[4.0, 2.0]])


def test_normalize_hand_computed():
    # median 2, mean absolute deviation (1 + 0 + 1) / 3 = 2/3
    out, stats = affine_invariant_normalize(grid([1.0, 2.0, 3.0]))
    assert stats.t == 2.0
    assert stats.s == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert out.values[0] == pytest.approx([-1.5, 0.0, 1.5], rel=1e-12)


def test_normalize_fixed_point():
    # already zero median and unit mean absolute deviation
    out, stats = affine_invariant_normalize(grid([-1.5, 0.0, 1.5]))
    assert stats.t == 0.0 and stats.s == 1.0
    assert np.array_equal(out.values, [[-1.5, 0.0, 1.5]])


def test_normalize_constant_grid_degenerate():
    with pytest.raises(DegenerateGrid):
        affine_invariant_normalize(grid([5.0, 5.0, 5.0]))


def test_normalize_needs_two_valid_pixels():
    with pytest.raises(DegenerateGrid):
        affine_invariant_normalize(grid([1.0, 2.0], valid=np.array([[True, False]])))


@pytest.mark.parametrize("mode", [MEDIAN_MAD, MEAN_STD])
def test_normalize_refuses_stats_that_overflow(mode):
    # finite values whose deviations or sums overflow 64-bit floats
    values = np.random.default_rng(0).uniform(1e307, 1.7e308, (4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGrid, match="overflows"):
            affine_invariant_normalize(grid(values), mode)


def test_normalize_refuses_a_non_finite_normalized_value():
    # The check on the largest |v - t| / s stands for the normalized map's
    # finite check at every valid pixel. NumPy's own std keeps it out of
    # reach (|v - mean| <= sqrt(n) * std), so a tiny one is patched in.
    with mock.patch.object(np, "std", return_value=1e-310):
        with pytest.raises(InputError, match="^non-finite depth value at a valid pixel$"):
            normalization_stats(grid([0.0, 1.0, 2.0]), MEAN_STD)


def test_normalize_ignores_invalid_pixels():
    values = np.array([[1.0, 2.0, 3.0, 999.0]])
    valid = np.array([[True, True, True, False]])
    out, stats = affine_invariant_normalize(DepthGrid(values, valid))
    assert stats.t == 2.0
    assert out.values[0, 3] == 0.0
    assert np.array_equal(out.valid, valid)


@settings(max_examples=200, deadline=None)
@given(grids_with_junk(), st.sampled_from([MEDIAN_MAD, MEAN_STD]))
def test_whole_frame_forms_match_gather_scatter_references(case, mode):
    values, valid = case
    got = invert_depth(DepthGrid(values, valid))
    assert_matches_at_valid(got, reference_invert(values, valid), valid)
    if valid.sum() < 2 or np.ptp(values[valid]) == 0.0:
        return  # degenerate, covered by the DegenerateGrid tests
    got, stats = affine_invariant_normalize(DepthGrid(values, valid), mode)
    want, t, s = reference_normalize(values, valid, mode)
    assert (stats.t, stats.s) == (t, s)
    assert_matches_at_valid(got, want, valid)


def test_mean_std_mode():
    out, stats = affine_invariant_normalize(grid([1.0, 2.0, 3.0]), mode="mean-std")
    assert stats.t == 2.0
    assert stats.s == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)
    assert np.mean(out.valid_values()) == pytest.approx(0.0, abs=1e-15)


def test_lower_median_even_count():
    assert lower_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0


# spreads below ~1e-6 can underflow to a zero mean absolute deviation,
# which is the degenerate-constant case, not a normalization property
finite_grids = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=2, max_size=40
).filter(lambda v: max(v) - min(v) > 1e-6)


@settings(max_examples=100)
@given(finite_grids)
def test_normalized_stats_properties(values):
    out, _ = affine_invariant_normalize(grid(values))
    v = out.valid_values()
    assert abs(lower_median(v)) < 1e-9
    assert abs(np.mean(np.abs(v)) - 1.0) < 1e-9
    if v.size % 2 == 1:
        assert abs(np.median(v)) < 1e-9


@settings(max_examples=100)
@given(
    finite_grids,
    st.integers(-3, 8),
    st.integers(-640, 640),
)
def test_affine_equivariance_exact_for_representable_inputs(values, k, b64):
    # Dyadic values, power-of-two scale, dyadic shift: the transformed
    # grid is exactly representable, so normalization must match bit
    # for bit.
    base = np.round(np.asarray(values) * 64.0) / 64.0
    if np.ptp(base) == 0.0:
        return
    a = 2.0**k
    b = b64 / 64.0
    out1, _ = affine_invariant_normalize(grid(base))
    out2, _ = affine_invariant_normalize(grid(a * base + b))
    assert np.array_equal(out1.values, out2.values)


@settings(max_examples=100)
@given(
    finite_grids.filter(lambda v: max(v) - min(v) > 1.0),
    st.floats(0.1, 50.0),
    st.floats(-50.0, 50.0),
)
def test_affine_equivariance_general(values, a, b):
    out1, _ = affine_invariant_normalize(grid(values))
    out2, _ = affine_invariant_normalize(grid(a * np.asarray(values) + b))
    assert np.allclose(out1.values, out2.values, atol=1e-9)
