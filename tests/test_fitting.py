import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthscale import fitting
from depthscale.errors import (
    DegeneracyError,
    DegenerateDesign,
    InputError,
    InsufficientSamples,
    NonFiniteFit,
    ZeroMedian,
)
from depthscale.fitting import (
    _RELATIVE_SPREAD_TOL,
    DEFAULT_COND_MAX,
    KIND_AFFINE,
    KIND_MEDIAN,
    KIND_PLANAR,
    MIN_SUPPORT,
    FitParams,
    PairedObservations,
    apply_fit,
    fit_affine,
    fit_batch,
    fit_median_ratio,
    fit_planar,
    normalized_coords,
    pair_observations,
)
from depthscale.grids import DepthGrid, LabelGrid, SparseSamples
from depthscale.normalize import lower_median


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


def reference_as_dict(p: FitParams) -> dict:
    """The field-by-field FitParams.as_dict it replaced."""
    return {
        "kind": p.kind,
        "alpha": p.alpha,
        "beta": p.beta,
        "gamma": p.gamma,
        "delta": p.delta,
        "support": p.support,
        "condition": p.condition,
    }


def test_as_dict_matches_field_by_field_reference():
    rng = np.random.default_rng(4)
    z2, z1 = rng.uniform(0.2, 5.0, 6), rng.uniform(0.2, 5.0, 6)
    x, y = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
    obs = obs_from(z2, z1, x, y)
    fits = [fit_affine(obs), fit_planar(obs), fit_median_ratio(obs)]
    fits.append(FitParams("planar", 1.5, -0.25, 2.0, 3.0, 7, 12.5))
    for p in fits:
        assert list(p.as_dict().items()) == list(reference_as_dict(p).items())


# ------------------------------------------------------------------ apply


def one_label(shape):
    return LabelGrid(np.zeros(shape, dtype=np.int32))


def test_apply_affine():
    grid = DepthGrid(np.array([[3.0]]))
    params = FitParams("affine", alpha=2.0, beta=1.0, gamma=0.0, delta=0.0, support=2, condition=1.0)
    out = apply_fit(grid, one_label((1, 1)), [params], (0.001, 10.0))
    assert out.values[0, 0] == 7.0


def test_apply_planar_matches_fit_example():
    # pixel at bottom-right corner has x = y = 1
    values = np.ones((3, 3))
    valid = np.ones((3, 3), dtype=bool)
    valid[0, 0] = False
    grid = DepthGrid(values, valid)
    params = FitParams("planar", alpha=2.0, beta=0.0, gamma=0.0, delta=3.0, support=4, condition=1.0)
    out = apply_fit(grid, one_label((3, 3)), [params], (0.001, 10.0))
    assert out.values[2, 2] == 5.0
    assert np.array_equal(out.valid, valid)


def test_apply_clamps_to_floor():
    grid = DepthGrid(np.array([[1.0]]))
    params = FitParams("affine", alpha=1.0, beta=-1.5, gamma=0.0, delta=0.0, support=2, condition=1.0)
    out = apply_fit(grid, one_label((1, 1)), [params], (0.001, 10.0))
    assert out.values[0, 0] == 0.001


IDENTITY = FitParams("median", alpha=1.0, beta=0.0, gamma=0.0, delta=0.0, support=1, condition=1.0)


def test_apply_rejects_mask_of_another_shape():
    with pytest.raises(InputError, match="shape"):
        apply_fit(DepthGrid(np.ones((2, 3))), one_label((3, 2)), [IDENTITY], (0.001, 10.0))


def test_apply_rejects_label_without_params():
    mask = LabelGrid(np.array([[0, 1], [2, 1]]))
    with pytest.raises(InputError, match="label 2"):
        apply_fit(DepthGrid(np.ones((2, 2))), mask, [IDENTITY, IDENTITY], (0.001, 10.0))


def reference_apply(d_rel, params, subset, clamp):
    """One region's fit over a pixel subset, each kind by its own formula."""
    sel = subset & d_rel.valid
    z2 = d_rel.values[sel]
    if params.kind == "affine":
        out = params.alpha * z2 + params.beta
    elif params.kind == "median":
        out = params.alpha * z2
    else:
        rows, cols = np.nonzero(sel)
        x, y = normalized_coords(rows, cols, d_rel.height, d_rel.width)
        out = params.alpha * z2 + params.beta * x + params.gamma * y + params.delta
    values = np.zeros(d_rel.shape)
    values[sel] = np.clip(out, clamp[0], clamp[1])
    return values, sel


@st.composite
def labelled_fits(draw):
    """A grid with invalid pixels holding inf/nan, a label grid and one fit per label."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_labels = draw(st.integers(1, 6))
    labels = rng.integers(0, n_labels, size=(h, w))
    valid = rng.random((h, w)) > draw(st.sampled_from([0.0, 0.2, 0.6]))
    values = rng.uniform(-3.0, 6.0, (h, w))
    values[~valid] = rng.choice([np.inf, -np.inf, np.nan, 0.0], size=int((~valid).sum()))
    term = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-20.0, 20.0))
    params = [
        FitParams(draw(st.sampled_from(["affine", "planar", "median"])), draw(term), draw(term),
                  draw(term), draw(term), support=4, condition=1.0)
        for _ in range(n_labels)
    ]
    clamp = draw(st.sampled_from([(0.001, 10.0), (0.2, 5.0), (1.0, 1.0), (1e-300, 1e300)]))
    return DepthGrid(values, valid), LabelGrid(labels), params, clamp


@settings(max_examples=300, deadline=None)
@given(labelled_fits(), st.sampled_from([1, 7, 30, fitting._APPLY_BLOCK]))
def test_apply_matches_region_by_region_reference(case, block):
    # small blocks give row blocks of 1 to 30 pixels // width rows, so most
    # heights are not a multiple of the block height
    d_rel, mask, params, clamp = case
    want = np.zeros(d_rel.shape)
    want_valid = np.zeros(d_rel.shape, dtype=bool)
    for label, p in enumerate(params):
        values, sel = reference_apply(d_rel, p, mask.labels == label, clamp)
        want[sel] = values[sel]
        want_valid |= sel
    with warnings.catch_warnings(), mock.patch.object(fitting, "_APPLY_BLOCK", block):
        warnings.simplefilter("error", RuntimeWarning)
        got = apply_fit(d_rel, mask, params, clamp)
    assert got.values.tobytes() == want.tobytes()
    assert np.array_equal(got.valid, want_valid)


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


# ------------------------------------------- stacked kernel against scalar fits


def _reference_condition(design: np.ndarray) -> float:
    s = np.linalg.svd(design, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0]) / float(s[-1])  # overflows to inf, as Python floats do


def reference_fit_affine(obs: PairedObservations) -> FitParams:
    """The one-list affine fit that `fit_batch` stacks, one NumPy call per step."""
    n = len(obs)
    if n < MIN_SUPPORT[KIND_AFFINE]:
        raise InsufficientSamples(f"affine fit needs >= 2 observations, got {n}")
    z1, z2 = obs.z1, obs.z2
    scale = float(np.max(np.abs(z2)))
    if float(np.ptp(z2)) <= _RELATIVE_SPREAD_TOL * scale:
        raise DegenerateDesign("relative depths are constant; scale and shift are not identifiable")
    z2_bar = float(np.mean(z2))
    z1_bar = float(np.mean(z1))
    dz = z2 - z2_bar
    var = float(dz @ dz)
    alpha = float(dz @ (z1 - z1_bar)) / var if var else math.nan  # x / 0 is not finite
    beta = z1_bar - alpha * z2_bar
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise NonFiniteFit("affine fit parameters are not finite in 64-bit arithmetic")
    return FitParams(
        kind=KIND_AFFINE,
        alpha=alpha,
        beta=beta,
        gamma=0.0,
        delta=0.0,
        support=n,
        condition=_reference_condition(np.column_stack([z2, np.ones_like(z2)])),
    )


def reference_fit_planar(obs: PairedObservations, cond_max: float = DEFAULT_COND_MAX) -> FitParams:
    """The one-list planar fit that `fit_batch` stacks."""
    n = len(obs)
    if n < MIN_SUPPORT[KIND_PLANAR]:
        raise InsufficientSamples(f"planar fit needs >= 4 observations, got {n}")
    design = np.column_stack([obs.z2, obs.x, obs.y, np.ones(n)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cond = float("inf") if s[-1] == 0.0 else float(s[0]) / float(s[-1])
    if not np.isfinite(cond) or cond > cond_max:
        raise DegenerateDesign(
            f"planar design condition {cond:.3e} exceeds {cond_max:.1e} (rank-deficient or near it)"
        )
    coeffs = vt.T @ ((u.T @ obs.z1) / s)
    if not np.isfinite(coeffs).all():
        raise NonFiniteFit("planar fit parameters are not finite in 64-bit arithmetic")
    return FitParams(
        kind=KIND_PLANAR,
        alpha=float(coeffs[0]),
        beta=float(coeffs[1]),
        gamma=float(coeffs[2]),
        delta=float(coeffs[3]),
        support=n,
        condition=cond,
    )


def reference_fit_median_ratio(obs: PairedObservations) -> FitParams:
    """The one-list median-ratio fit that `fit_batch` stacks."""
    n = len(obs)
    if n < MIN_SUPPORT[KIND_MEDIAN]:
        raise InsufficientSamples("median-ratio fit needs at least 1 observation")
    m2 = lower_median(obs.z2)
    if m2 == 0.0:
        raise ZeroMedian("median of relative depths is zero")
    alpha = lower_median(obs.z1) / m2
    if not math.isfinite(alpha):
        raise NonFiniteFit("median fit parameters are not finite in 64-bit arithmetic")
    return FitParams(
        kind=KIND_MEDIAN,
        alpha=alpha,
        beta=0.0,
        gamma=0.0,
        delta=0.0,
        support=n,
        condition=1.0,
    )


REFERENCE_FITS = {
    KIND_AFFINE: (reference_fit_affine, lambda obs, cond_max: fit_affine(obs)),
    KIND_PLANAR: (reference_fit_planar, fit_planar),
    KIND_MEDIAN: (reference_fit_median_ratio, lambda obs, cond_max: fit_median_ratio(obs)),
}
Z2_SHAPES = ("random", "ties", "constant", "planar", "zero-median", "tiny")


@st.composite
def observation_stacks(draw):
    """Observation lists of 1-300 rows over one shuffled observation set.

    Sizes repeat, so most lengths make a stack of several lists, and they
    cross NumPy's pairwise-summation blocks of 8 and 128. Besides random
    z2, a list may hold few distinct z2 values, a constant z2, a planar
    z2 = a*x + b*y + c, a z2 whose lower median is zero, or a tiny z2
    near 1e-170 or 1e-310, whose centred squares underflow to zero and
    whose median ratio may overflow.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lengths = draw(st.lists(st.integers(1, 300) | st.integers(1, 12), min_size=1, max_size=4))
    lists = draw(
        st.lists(st.tuples(st.sampled_from(lengths), st.sampled_from(Z2_SHAPES)), min_size=1, max_size=12)
    )
    columns = {name: [] for name in ("z1", "z2", "x", "y")}
    for n, shape in lists:
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        z2 = rng.uniform(0.2, 4.0, n)
        if shape == "ties":
            z2 = rng.choice([0.5, 1.25, 3.0], n)
        elif shape == "constant":
            z2[:] = rng.uniform(0.2, 4.0)
        elif shape == "planar":
            a, b, c = rng.uniform(-2, 2, 3)
            z2 = a * x + b * y + c
        elif shape == "zero-median":
            z2 = rng.uniform(-2.0, 2.0, n)
            z2[np.argsort(z2)[(n - 1) // 2]] = 0.0
        elif shape == "tiny":
            z2 *= rng.choice([1e-170, 1e-310])
        for name, values in zip(columns, (rng.uniform(0.1, 8.0, n), z2, x, y)):
            columns[name].append(values)
    total = sum(n for n, _ in lists)
    order = rng.permutation(total)  # list i takes the rows where its values landed
    where = np.empty(total, dtype=np.int64)
    where[order] = np.arange(total)
    stacked = {name: np.concatenate(parts)[order] for name, parts in columns.items()}
    obs = PairedObservations(rows=np.arange(total), cols=np.arange(total), **stacked)
    bounds = np.cumsum([0] + [n for n, _ in lists])
    groups = [where[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return obs, groups, draw(st.sampled_from([DEFAULT_COND_MAX, 10.0, 1e14]))


def fit_outcome(fit, *args):
    """The FitParams of one fit and its repr, or its error's type and message."""
    try:
        params = fit(*args)
    except DegeneracyError as err:
        return type(err).__name__, str(err)
    return params, repr(params.as_dict())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(observation_stacks(), st.sampled_from((KIND_AFFINE, KIND_PLANAR, KIND_MEDIAN)))
def test_fit_batch_matches_scalar_fits_bit_for_bit(case, kind):
    obs, groups, cond_max = case
    reference, single = REFERENCE_FITS[kind]
    got = fit_batch(kind, obs, groups, cond_max)
    assert len(got) == len(groups)
    for group, params in zip(groups, got):
        lists = obs.take(group)
        want = fit_outcome(reference, lists, *([cond_max] if kind == KIND_PLANAR else []))
        assert fit_outcome(single, lists, cond_max) == want
        if isinstance(want[0], FitParams):
            assert (params, repr(params.as_dict())) == want
        else:
            assert params is None


# ------------------------------------------------------- non-finite fits


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_affine_fit_whose_variance_underflows_is_rejected():
    # the z2 spread passes the constant test, but its centred squares
    # (about 1e-340) underflow to zero, so alpha would be inf
    obs = obs_from([1e-170, 2e-170, 3e-170], [1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteFit, match="affine fit parameters are not finite"):
        fit_affine(obs)
    assert fit_batch(KIND_AFFINE, obs, [np.arange(3)]) == [None]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_median_ratio_that_overflows_is_rejected():
    obs = obs_from([5e-324, 5e-324, 1.0], [10.0, 10.0, 10.0])
    with pytest.raises(NonFiniteFit, match="median fit parameters are not finite"):
        fit_median_ratio(obs)
    fits = fit_batch(KIND_MEDIAN, obs, [np.arange(3), np.array([2]), np.array([0])])
    assert fits == [None, fit_median_ratio(obs.take(np.array([2]))), None]
