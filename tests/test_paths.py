import numpy as np
import pytest

from bsei.errors import AdaptednessError
from bsei.paths import (
    PolynomialRegression,
    ProcessEnsemble,
    TimeGrid,
    conditional_expectation,
    from_function,
    ito_integral,
    lp_l2_norm,
    martingale_representation,
    regress,
    simulate_brownian,
)


def test_grid_nodes_exact_endpoints():
    grid = TimeGrid(2.5, 7)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.5
    assert np.all(np.diff(grid.nodes) > 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# ----------------------------------------------------------------- brownian

def test_single_draw_shape_and_reproducibility():
    grid = TimeGrid(1.0, 1)
    bm = simulate_brownian(grid, 1, seed=7)
    assert bm.increments.shape == (1, 1)
    again = simulate_brownian(grid, 1, seed=7)
    assert np.array_equal(bm.increments, again.increments)


def test_brownian_moments():
    grid = TimeGrid(1.0, 16)
    m = 100_000
    bm = simulate_brownian(grid, m, seed=1)
    w_t = bm.levels[-1]
    assert abs(w_t.mean()) <= 4.0 / np.sqrt(m)           # CLT bound
    assert abs(w_t.var() - 1.0) <= 0.05                  # chi-square concentration
    dt = grid.dt
    for k in range(grid.n_steps):
        assert abs(bm.increments[k].mean()) <= 4.0 * np.sqrt(dt / m)
        assert abs(bm.increments[k].var() / dt - 1.0) <= 0.2


def test_path_count_extension_keeps_prefix():
    grid = TimeGrid(1.0, 8)
    small = simulate_brownian(grid, 500, seed=3)
    large = simulate_brownian(grid, 800, seed=3)
    assert np.array_equal(large.increments[:, :500], small.increments)


def test_step_streams_independent_of_step_count():
    # step k draws do not change when the grid is extended in k
    short = simulate_brownian(TimeGrid(1.0, 4), 100, seed=9)
    long = simulate_brownian(TimeGrid(2.0, 8), 100, seed=9)
    # same dt, same per-step keys: the first 4 steps agree
    assert np.array_equal(short.increments, long.increments[:4])


def test_resampled_after_prefix():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 50, seed=5)
    rs = bm.resampled_after(6, fresh_seed=99)
    assert np.array_equal(rs.increments[:6], bm.increments[:6])
    assert not np.array_equal(rs.increments[6:], bm.increments[6:])


def test_process_adaptedness_resampling_invariant():
    grid = TimeGrid(1.0, 10)
    build = lambda b: from_function(grid, b, lambda k, w: np.column_stack([w, w**2]), 2)
    bm = simulate_brownian(grid, 40, seed=2)
    x = build(bm)
    x2 = build(bm.resampled_after(5, fresh_seed=321))
    assert np.array_equal(x.values[:6], x2.values[:6])  # nodes 0..5 untouched
    assert not np.array_equal(x.values[6:], x2.values[6:])


# ------------------------------------------------------------- ito integral

def test_ito_integral_constant_cell():
    grid = TimeGrid(1.0, 6)
    bm = simulate_brownian(grid, 1000, seed=4)
    e = np.array([2.0, -1.0])
    phi = from_function(grid, bm, lambda k, w: np.tile(e, (1000, 1)), 2)
    got = ito_integral(phi, bm, 1.0)
    assert np.allclose(got, np.outer(bm.levels[-1], e))
    half = ito_integral(phi, bm, 0.5)
    assert np.allclose(half, np.outer(bm.levels[3], e))


def test_ito_integral_zero():
    grid = TimeGrid(1.0, 4)
    bm = simulate_brownian(grid, 10, seed=0)
    phi = ProcessEnsemble(grid, np.zeros((5, 10, 3)))
    assert np.array_equal(ito_integral(phi, bm, 1.0), np.zeros((10, 3)))


def test_ito_integral_sign_isometry():
    grid = TimeGrid(1.0, 32)
    m = 100_000
    bm = simulate_brownian(grid, m, seed=8)
    e = np.array([1.0, 2.0])
    phi = from_function(grid, bm, lambda k, w: np.sign(w)[:, None] * e, 2)
    val = ito_integral(phi, bm, 1.0)
    second_moment = np.mean(np.sum(val**2, axis=1))
    # sign(W_0) = 0 so the first cell carries nothing; the discrete oracle is
    # (T - dt) |e|^2, approaching T |e|^2 as the grid refines
    oracle = (1.0 - grid.dt) * float(e @ e)
    se = np.std(np.sum(val**2, axis=1)) / np.sqrt(m)
    assert abs(second_moment - oracle) <= 3.0 * se


def test_ito_integral_rejects_unadapted():
    grid = TimeGrid(1.0, 4)
    bm = simulate_brownian(grid, 10, seed=0)
    phi = ProcessEnsemble(grid, np.ones((5, 10, 1)), adapted=False)
    with pytest.raises(AdaptednessError):
        ito_integral(phi, bm, 1.0)


# -------------------------------------------------------------------- norms

def test_lp_l2_zero_and_constant():
    grid = TimeGrid(2.0, 10)
    m = 50
    zero = ProcessEnsemble(grid, np.zeros((11, m, 2)))
    assert lp_l2_norm(zero, 2.0) == 0.0
    e = np.array([3.0, 4.0])
    const = ProcessEnsemble(grid, np.tile(e, (11, m, 1)))
    for p in (1.5, 2.0, 4.0):
        assert lp_l2_norm(const, p) == pytest.approx(np.sqrt(2.0) * 5.0, rel=1e-12)


def test_lp_l2_brownian_integrand():
    grid = TimeGrid(1.0, 64)
    m = 200_000
    bm = simulate_brownian(grid, m, seed=6)
    phi = from_function(grid, bm, lambda k, w: w[:, None], 1)
    got = lp_l2_norm(phi, 2.0)
    # discrete oracle: E sum_k dt W_{t_k}^2 = dt^2 sum_{k<N} k -> T^2/2
    oracle = np.sqrt(grid.dt**2 * sum(range(grid.n_steps)))
    assert got == pytest.approx(oracle, rel=0.01)
    assert oracle == pytest.approx(np.sqrt(0.5), rel=0.02)


def test_lp_l2_requires_p_above_one():
    grid = TimeGrid(1.0, 2)
    x = ProcessEnsemble(grid, np.zeros((3, 4, 1)))
    with pytest.raises(ValueError):
        lp_l2_norm(x, 1.0)


# --------------------------------------------------------------- regression

def test_regression_martingale_coefficients():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 20_000, seed=11)
    w_t, w_end = bm.levels[5], bm.levels[-1]
    fit = regress(w_end, w_t, 1)
    # E[W_T | F_t] = W_t: coefficients (0, 1) within 3 standard errors
    assert abs(fit.coefficients[0] - 0.0) <= 3.0 * fit.coef_se[0]
    assert abs(fit.coefficients[1] - 1.0) <= 3.0 * fit.coef_se[1]


def test_regression_gaussian_moment_identity():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 20_000, seed=12)
    t = grid.nodes[4]
    w_t, w_end = bm.levels[4], bm.levels[-1]
    reg = PolynomialRegression(w_t, 2)
    fit = reg.fit(w_end**2)
    # E[W_T^2 | F_t] = W_t^2 + (T - t); the target is heteroskedastic in the
    # feature, so calibrate against sandwich standard errors
    x = reg.design
    resid = w_end**2 - fit.values
    xtx_inv = np.linalg.inv(x.T @ x)
    robust_se = np.sqrt(np.diag(xtx_inv @ (x.T * resid**2) @ x @ xtx_inv))
    truth = np.array([1.0 - t, 0.0, 1.0])
    assert np.all(np.abs(fit.coefficients - truth) <= 3.0 * robust_se)


def test_regression_constant_target_exact():
    rng = np.random.default_rng(13)
    feats = rng.normal(size=400)
    got = conditional_expectation(np.full(400, -2.5), feats, 2)
    assert np.abs(got + 2.5).max() <= 1e-10


def test_regression_polynomial_targets_reproduced():
    rng = np.random.default_rng(14)
    feats = rng.normal(size=500)
    target = 1.0 - 2.0 * feats + 0.5 * feats**2
    got = conditional_expectation(target, feats, 2)
    assert np.abs(got - target).max() <= 1e-8


def test_regression_tower_property():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 40_000, seed=15)
    target = bm.levels[-1] ** 2
    j, k = 3, 7
    inner = conditional_expectation(target, bm.levels[k], 2)
    towered = conditional_expectation(inner, bm.levels[j], 2)
    direct = conditional_expectation(target, bm.levels[j], 2)
    gap = np.sqrt(np.mean((towered - direct) ** 2))
    se = np.std(target) * np.sqrt(3.0 / bm.n_paths)
    assert gap <= 3.0 * se


def test_regression_needs_enough_paths():
    with pytest.raises(ValueError):
        PolynomialRegression(np.arange(15.0), degree=2)  # 15 < 10 * 3


def test_regression_rank_deficient_ridge_flag():
    # duplicated feature column forces a singular design
    feats = np.column_stack([np.arange(100.0), np.arange(100.0)])
    reg = PolynomialRegression(feats, 1)
    assert reg.ridge_used
    fit = reg.fit(np.arange(100.0))
    assert fit.ridge_used
    assert np.abs(fit.values - np.arange(100.0)).max() <= 1e-4
    assert np.all(np.isnan(fit.coef_se))


def test_regression_diagnostics_match_direct_formulas():
    # residual RMS and standard errors are computed on first access; they
    # must equal the textbook formulas, per column and for a 1-D target
    rng = np.random.default_rng(21)
    feats = rng.normal(size=300)
    targets = np.column_stack([np.sin(feats), feats**3]) + rng.normal(size=(300, 2))
    reg = PolynomialRegression(feats, 2)
    fit = reg.fit(targets)
    x = reg.design
    resid = targets - fit.values
    sigma = np.sqrt(np.sum(resid**2, axis=0) / (300 - 3))
    se = np.sqrt(np.outer(np.diag(np.linalg.inv(x.T @ x)), sigma**2))
    assert np.allclose(fit.residual_rms, sigma, rtol=1e-12)
    assert np.allclose(fit.coef_se, se, rtol=1e-10)
    one = reg.fit(targets[:, 1])
    assert one.values.shape == (300,) and one.coef_se.shape == (3,)
    assert one.residual_rms == pytest.approx(sigma[1], rel=1e-12)


def test_regression_constant_feature_dropped_cleanly():
    # features with zero variance (e.g. W at time zero) degrade to the mean
    fit = regress(np.arange(40.0), np.zeros(40), 2)
    assert not fit.ridge_used
    assert np.allclose(fit.values, 19.5)


# ------------------------------------------------- martingale representation

def test_representation_of_brownian_motion():
    grid = TimeGrid(1.0, 20)
    m = 10_000
    bm = simulate_brownian(grid, m, seed=16)
    e = np.array([1.0])
    g = from_function(grid, bm, lambda k, w: w[:, None] * e, 1)
    rep = martingale_representation(g, bm, basis_degree=1)
    assert np.abs(rep.mean_part).max() <= 4.0 / np.sqrt(m)
    assert rep.residuals.max() <= 3.0 / np.sqrt(m)
    # tau ~ e throughout; check a middle entry within 3 sigma of its spread
    tau = rep.kernel.tau(15, 7)
    assert abs(tau.mean() - 1.0) <= 3.0 * tau.std() / np.sqrt(m) + 0.01


def test_representation_deterministic_process():
    grid = TimeGrid(1.0, 12)
    bm = simulate_brownian(grid, 500, seed=17)
    g = from_function(grid, bm, lambda k, w: np.full((500, 2), [1.0, float(k)]), 2)
    rep = martingale_representation(g, bm, basis_degree=2)
    assert rep.residuals.max() <= 1e-10
    for u in range(13):
        assert np.allclose(rep.mean_part[u], [1.0, float(u)])
        if u > 0:
            assert np.abs(rep.kernel.taus[u]).max() <= 1e-10


def test_representation_of_squared_brownian():
    grid = TimeGrid(1.0, 16)
    m = 20_000
    bm = simulate_brownian(grid, m, seed=18)
    g = from_function(grid, bm, lambda k, w: (w**2)[:, None], 1)
    rep = martingale_representation(g, bm, basis_degree=2)
    u, k = 12, 5
    tau = rep.kernel.tau(u, k)[:, 0]
    target = 2.0 * bm.levels[k]
    rms = np.sqrt(np.mean((tau - target) ** 2))
    assert rms <= 3.0 * np.sqrt(8.0 * grid.nodes[k] / m) + 0.02


def test_kernel_structurally_lower_triangular():
    grid = TimeGrid(1.0, 6)
    bm = simulate_brownian(grid, 200, seed=19)
    g = from_function(grid, bm, lambda k, w: w[:, None], 1)
    rep = martingale_representation(g, bm, basis_degree=1)
    for u in range(7):
        assert rep.kernel.taus[u].shape[0] == u
        with pytest.raises(ValueError):
            rep.kernel.tau(u, u)
