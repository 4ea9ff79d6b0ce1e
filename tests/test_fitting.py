import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale.errors import DegenerateDesign, InsufficientSamples, ZeroMedian
from depthscale.fitting import (
    FitParams,
    PairedObservations,
    apply_fit,
    fit_affine,
    fit_median_ratio,
    fit_planar,
    pair_observations,
)
from depthscale.grids import DepthGrid, SparseSamples


def obs_from(z2, z1, x=None, y=None):
    n = len(z1)
    zeros = np.zeros(n)
    return PairedObservations(
        rows=np.arange(n),
        cols=np.arange(n),
        z1=np.asarray(z1, dtype=np.float64),
        z2=np.asarray(z2, dtype=np.float64),
        x=zeros if x is None else np.asarray(x, dtype=np.float64),
        y=zeros if y is None else np.asarray(y, dtype=np.float64),
    )


# ---------------------------------------------------------------- pairing


def test_pair_all_valid():
    grid = DepthGrid(np.arange(1.0, 10.0).reshape(3, 3))
    samples = SparseSamples.from_points([(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
    obs = pair_observations(grid, samples)
    assert len(obs) == 3
    assert np.array_equal(obs.z2, [1.0, 5.0, 9.0])


def test_pair_drops_invalid_pixels():
    valid = np.ones((3, 3), dtype=bool)
    valid[1, 1] = False
    grid = DepthGrid(np.arange(1.0, 10.0).reshape(3, 3), valid)
    samples = SparseSamples.from_points([(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
    obs = pair_observations(grid, samples)
    assert len(obs) == 2
    assert np.array_equal(obs.z1, [1.0, 3.0])


def test_pair_coordinate_normalization_endpoints():
    grid = DepthGrid(np.ones((1, 3)))
    samples = SparseSamples.from_points([(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)])
    obs = pair_observations(grid, samples)
    assert np.array_equal(obs.x, [-1.0, 0.0, 1.0])
    assert np.array_equal(obs.y, [0.0, 0.0, 0.0])  # single row maps to center


def test_affine_exact_line():
    p = fit_affine(obs_from([1.0, 2.0, 3.0], [3.0, 5.0, 7.0]))
    assert p.alpha == 2.0
    assert p.beta == 1.0
    assert p.support == 3


def test_affine_identity():
    p = fit_affine(obs_from([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]))
    assert p.alpha == pytest.approx(1.0, rel=1e-14)
    assert p.beta == pytest.approx(0.0, abs=1e-14)


def test_affine_degenerate_constant_z2():
    with pytest.raises(DegenerateDesign):
        fit_affine(obs_from([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


def test_affine_insufficient():
    with pytest.raises(InsufficientSamples):
        fit_affine(obs_from([1.0], [1.0]))


# ----------------------------------------------------------------- planar


def test_planar_exact_four_point_solve():
    obs = obs_from(
        z2=[0.0, 0.0, 0.0, 1.0],
        z1=[3.0, 3.0, 3.0, 5.0],
        x=[0.0, 1.0, 0.0, 1.0],
        y=[0.0, 0.0, 1.0, 1.0],
    )
    p = fit_planar(obs)
    assert p.alpha == pytest.approx(2.0, rel=1e-9)
    assert p.beta == pytest.approx(0.0, abs=1e-9)
    assert p.gamma == pytest.approx(0.0, abs=1e-9)
    assert p.delta == pytest.approx(3.0, rel=1e-9)


def test_planar_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 8)
    y = rng.uniform(-1, 1, 8)
    z2 = rng.uniform(0.5, 3.0, 8)  # independent of x, y
    p = fit_planar(obs_from(z2, z2, x, y))
    assert p.alpha == pytest.approx(1.0, rel=1e-10)
    assert abs(p.beta) < 1e-10 and abs(p.gamma) < 1e-10 and abs(p.delta) < 1e-10


def test_planar_degenerate_when_z2_in_span_of_xy():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 10)
    y = rng.uniform(-1, 1, 10)
    z2 = x + y
    z1 = rng.uniform(1.0, 5.0, 10)
    with pytest.raises(DegenerateDesign):
        fit_planar(obs_from(z2, z1, x, y))


def test_planar_insufficient():
    with pytest.raises(InsufficientSamples):
        fit_planar(obs_from([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))


def test_median_ratio():
    p = fit_median_ratio(obs_from([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
    assert p.alpha == 2.0
    assert p.beta == 0.0


def test_median_ratio_identity():
    p = fit_median_ratio(obs_from([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    assert p.alpha == 1.0


def test_median_ratio_zero_median():
    with pytest.raises(ZeroMedian):
        fit_median_ratio(obs_from([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]))


def test_median_ratio_matches_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        z2 = rng.uniform(0.2, 5.0, n)
        z1 = rng.uniform(0.2, 5.0, n)
        p = fit_median_ratio(obs_from(z2, z1))
        med = lambda v: sorted(v)[(len(v) - 1) // 2]
        assert p.alpha == med(list(z1)) / med(list(z2))


# ------------------------------------------------------------------ apply


def test_apply_affine():
    grid = DepthGrid(np.array([[3.0]]))
    params = FitParams("affine", alpha=2.0, beta=1.0, gamma=0.0, delta=0.0, support=2, condition=1.0)
    out = apply_fit(grid, params, np.ones((1, 1), dtype=bool), (0.001, 10.0))
    assert out.values[0, 0] == 7.0


def test_apply_planar_matches_fit_example():
    # pixel at bottom-right corner has x = y = 1
    values = np.ones((3, 3))
    grid = DepthGrid(values)
    params = FitParams("planar", alpha=2.0, beta=0.0, gamma=0.0, delta=3.0, support=4, condition=1.0)
    subset = np.zeros((3, 3), dtype=bool)
    subset[2, 2] = True
    out = apply_fit(grid, params, subset, (0.001, 10.0))
    assert out.values[2, 2] == 5.0
    assert out.n_valid == 1


def test_apply_clamps_to_floor():
    grid = DepthGrid(np.array([[1.0]]))
    params = FitParams("affine", alpha=1.0, beta=-1.5, gamma=0.0, delta=0.0, support=2, condition=1.0)
    out = apply_fit(grid, params, np.ones((1, 1), dtype=bool), (0.001, 10.0))
    assert out.values[0, 0] == 0.001


# -------------------------------------------------------------- properties


@st.composite
def random_observations(draw, min_size=4, max_size=12):
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    z2 = rng.uniform(0.2, 4.0, n)
    z1 = rng.uniform(0.1, 8.0, n)
    return obs_from(z2, z1, x, y)


@settings(max_examples=80, deadline=None)
@given(random_observations())
def test_residual_orthogonality(obs):
    # normal-equation optimality: residuals orthogonal to design columns
    scale = np.linalg.norm(obs.z1)
    pa = fit_affine(obs)
    res = pa.alpha * obs.z2 + pa.beta - obs.z1
    design = np.column_stack([obs.z2, np.ones(len(obs))])
    assert np.abs(design.T @ res).max() < 1e-8 * scale
    try:
        pp = fit_planar(obs)
    except DegenerateDesign:
        return
    res = pp.alpha * obs.z2 + pp.beta * obs.x + pp.gamma * obs.y + pp.delta - obs.z1
    design = np.column_stack([obs.z2, obs.x, obs.y, np.ones(len(obs))])
    assert np.abs(design.T @ res).max() < 1e-8 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_exact_interpolation(seed):
    # z1 generated exactly from the model family: parameters recovered
    # to 1e-9 relative for well-conditioned designs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 15))
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    z2 = rng.uniform(0.3, 3.0, n)
    true = rng.uniform(0.5, 3.0, 4) * np.array([1, 0.5, 0.5, 1])
    z1 = true[0] * z2 + true[1] * x + true[2] * y + true[3] + 5.0
    obs = obs_from(z2, z1, x, y)
    p = fit_planar(obs)
    if p.condition > 1e6:
        return
    got = np.array([p.alpha, p.beta, p.gamma, p.delta])
    want = np.array([true[0], true[1], true[2], true[3] + 5.0])
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    pa = fit_affine(obs_from(z2, 2.0 * z2 + 1.0))
    assert pa.alpha == pytest.approx(2.0, rel=1e-9)
    assert pa.beta == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(random_observations(), st.integers(-2, 6))
def test_scale_equivariance_exact_for_power_of_two(obs, k):
    # scaling the measurements by a power of two scales every parameter
    # exactly, because power-of-two products and quotients are exact
    c = 2.0**k
    scaled = obs_from(obs.z2, c * obs.z1, obs.x, obs.y)
    pa, pa_c = fit_affine(obs), fit_affine(scaled)
    assert pa_c.alpha == c * pa.alpha and pa_c.beta == c * pa.beta
    try:
        pp, pp_c = fit_planar(obs), fit_planar(scaled)
    except DegenerateDesign:
        return
    assert pp_c.alpha == c * pp.alpha
    assert pp_c.beta == c * pp.beta
    assert pp_c.gamma == c * pp.gamma
    assert pp_c.delta == c * pp.delta
    pm, pm_c = fit_median_ratio(obs), fit_median_ratio(scaled)
    assert pm_c.alpha == c * pm.alpha


# ------------------------------------------------- brute-force oracle (small)


def brute_force_least_squares(design, target, box=8.0, grid_steps=7, sweeps=60000):
    """Independent oracle: dense grid search refined by coordinate descent.

    Never solves a linear system; each refinement step is the exact 1-D
    minimizer along one coordinate of the residual sum of squares.
    """
    d = design.shape[1]
    axes = [np.linspace(-box, box, grid_steps)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    errs = ((mesh @ design.T - target) ** 2).sum(axis=1)
    params = mesh[int(np.argmin(errs))].astype(np.float64).copy()
    residual = target - design @ params
    for _ in range(sweeps):
        largest = 0.0
        for j in range(d):
            g = design[:, j]
            step = float(g @ residual) / float(g @ g)
            params[j] += step
            residual = residual - step * g
            largest = max(largest, abs(step))
        if largest < 1e-13 * (1.0 + np.abs(params).max()):
            break
    return params


def test_brute_force_oracle_agrees_on_small_sets():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 25:
        n = int(rng.integers(4, 7))
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        z2 = rng.uniform(0.5, 3.0, n)
        design = np.column_stack([z2, x, y, np.ones(n)])
        if np.linalg.cond(design) > 15.0:
            continue
        true = rng.uniform(-2, 2, 4)
        z1 = design @ true + rng.normal(0, 0.2, n)
        z1 = z1 + (0.1 - z1.min() if z1.min() <= 0 else 0.0)
        p = fit_planar(obs_from(z2, z1, x, y))
        oracle = brute_force_least_squares(design, z1)
        got = np.array([p.alpha, p.beta, p.gamma, p.delta])
        assert np.abs(got - oracle).max() < 1e-4
        checked += 1
