import decimal
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bsei.paths import (
    BrownianEnsemble,
    KernelRegression,
    PolynomialRegression,
    TimeGrid,
    _cholesky_qr,
    _lp_l2,
    _monomial_design,
    _path_sums,
    _philox_normals,
    _power_mean,
    from_function,
    ito_integral,
    lp_l2_norm,
    martingale_representation,
    simulate_brownian,
    solve_linear_bsee,
    step_designs,
)
from bsei.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent


def resampled_after(bm, k_from, fresh_seed):
    """Copy of ``bm`` with the increments of steps >= k_from redrawn under a
    new seed: anything measurable at node k_from must not move."""
    inc = np.array(bm.increments)
    for k in range(k_from, bm.grid.n_steps):
        inc[k] = np.sqrt(bm.grid.dt) * _philox_normals(fresh_seed, k, bm.n_paths)
    return BrownianEnsemble(bm.grid, bm.n_paths, fresh_seed, inc)


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_philox_key_range_is_refused(seed):
    # reduced modulo 2^64, -1 and 2^64 would draw the streams of 2^64 - 1 and 0
    with pytest.raises(ValueError, match="seed"):
        simulate_brownian(TimeGrid(1.0, 4), 5, seed)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(seed=seed)


def test_largest_seed_draws_its_own_stream():
    grid, top = TimeGrid(1.0, 4), 2**64 - 1
    assert SolverConfig(seed=top).seed == top
    inc = simulate_brownian(grid, 5, top).increments
    assert inc.tobytes() == simulate_brownian(grid, 5, top).increments.tobytes()
    assert not np.array_equal(inc, simulate_brownian(grid, 5, 0).increments)


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


def test_draw_is_kept_without_a_copy():
    # each step is drawn into its row and scaled there, and the ensemble
    # keeps that read-only draw as it is, with no W: the peak is the
    # increments alone, not a per-step temporary, a copy or the levels
    grid, m = TimeGrid(1.0, 450), 10_000
    tracemalloc.start()
    try:
        simulate_brownian(grid, m, 2024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * m * grid.n_steps


@pytest.mark.parametrize("n, m", [(1, 7), (5, 3), (450, 1000)])
def test_levels_are_the_cumulative_sum_of_the_draw(n, m):
    # written row by row, the levels keep numpy's cumsum bits
    bm = simulate_brownian(TimeGrid(1.0, n), m, 31)
    want = np.vstack([np.zeros((1, m)), np.cumsum(bm.increments, axis=0)])
    assert bm.levels.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), m=st.integers(1, 50), seed=st.integers(0, 2**64 - 1),
       data=st.data())
def test_levels_rebuilt_from_any_edge_are_the_levels_bits(n, m, seed, data):
    # W from the node k_lo on, rebuilt from W[k_lo], is the rows of the full
    # levels bit for bit, and so is W at the edges of windows of any width
    # chained from W_0 = 0, as a solve forms them
    bm = simulate_brownian(TimeGrid(1.0, n), m, seed)
    k_lo = data.draw(st.integers(0, n), label="k_lo")
    k_hi = data.draw(st.integers(k_lo, n), label="k_hi")
    rows = bm.levels_from(bm.levels[k_lo], k_lo, k_hi)
    assert rows.tobytes() == bm.levels[k_lo:k_hi + 1].tobytes()
    width = data.draw(st.integers(1, n), label="width")
    edge = np.zeros(m)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        edge = bm.levels_from(edge, lo, hi)[-1]
        assert edge.tobytes() == bm.levels[hi].tobytes()


def test_levels_are_formed_once_on_first_read():
    bm = simulate_brownian(TimeGrid(1.0, 6), 5, 3)
    assert "levels" not in vars(bm)  # the ensemble holds the draw alone
    assert bm.levels is bm.levels and not bm.levels.flags.writeable
    for k_lo, k_hi in ((-1, 2), (3, 2), (0, 7)):
        with pytest.raises(ValueError, match="leave the grid"):
            bm.levels_from(0.0, k_lo, k_hi)


def test_writeable_increments_are_copied():
    grid = TimeGrid(1.0, 4)
    inc = np.sqrt(grid.dt) * np.random.default_rng(4).normal(size=(4, 6))
    bm = BrownianEnsemble(grid, 6, 0, inc)
    kept = bm.increments.copy()
    inc[:] = 0.0
    assert np.array_equal(bm.increments, kept)
    assert not bm.increments.flags.writeable


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
    rs = resampled_after(bm, 6, fresh_seed=99)
    assert np.array_equal(rs.increments[:6], bm.increments[:6])
    assert not np.array_equal(rs.increments[6:], bm.increments[6:])


def test_process_adaptedness_resampling_invariant():
    grid = TimeGrid(1.0, 10)
    build = lambda b: from_function(b, lambda k, w: np.column_stack([w, w**2]), 2)
    bm = simulate_brownian(grid, 40, seed=2)
    x = build(bm)
    x2 = build(resampled_after(bm, 5, fresh_seed=321))
    assert np.array_equal(x[:6], x2[:6])  # nodes 0..5 untouched
    assert not np.array_equal(x[6:], x2[6:])


def test_from_function_requires_paths_by_dim():
    # a transposed (dim, M) result used to be reshaped into scrambled paths
    bm = simulate_brownian(TimeGrid(1.0, 4), 5, seed=2)
    with pytest.raises(ValueError, match=r"\(2, 5\).*\(5, 2\)"):
        from_function(bm, lambda k, w: np.vstack([w, 2.0 * w]), 2)
    x = from_function(bm, lambda k, w: np.column_stack([w, 2.0 * w]), 2)
    assert x.shape == (5, 5, 2)
    assert np.array_equal(x[2], np.column_stack([bm.levels[2], 2.0 * bm.levels[2]]))


# ------------------------------------------------------------- ito integral

def test_ito_integral_constant_cell():
    grid = TimeGrid(1.0, 6)
    bm = simulate_brownian(grid, 1000, seed=4)
    e = np.array([2.0, -1.0])
    phi = from_function(bm, lambda k, w: np.tile(e, (1000, 1)), 2)
    got = ito_integral(phi, bm, 1.0)
    assert np.allclose(got, np.outer(bm.levels[-1], e))
    half = ito_integral(phi, bm, 0.5)
    assert np.allclose(half, np.outer(bm.levels[3], e))


def test_ito_integral_zero():
    grid = TimeGrid(1.0, 4)
    bm = simulate_brownian(grid, 10, seed=0)
    phi = np.zeros((5, 10, 3))
    assert np.array_equal(ito_integral(phi, bm, 1.0), np.zeros((10, 3)))
    assert np.array_equal(ito_integral(phi, bm, 0.0), np.zeros((10, 3)))


def test_ito_integral_rejects_mismatched_shapes():
    bm = simulate_brownian(TimeGrid(1.0, 4), 10, seed=0)
    phi = np.ones((5, 10, 1))
    with pytest.raises(ValueError, match="paths"):
        ito_integral(phi[:, :9], bm, 1.0)
    with pytest.raises(ValueError, match="cover"):  # nodes 0..2 reach t = 0.5
        ito_integral(phi[:3], bm, 1.0)
    assert np.array_equal(ito_integral(phi[:3], bm, 0.5), bm.levels[2][:, None])


def test_ito_integral_sign_isometry():
    grid = TimeGrid(1.0, 32)
    m = 100_000
    bm = simulate_brownian(grid, m, seed=8)
    e = np.array([1.0, 2.0])
    phi = from_function(bm, lambda k, w: np.sign(w)[:, None] * e, 2)
    val = ito_integral(phi, bm, 1.0)
    second_moment = np.mean(np.sum(val**2, axis=1))
    # sign(W_0) = 0 so the first cell carries nothing; the discrete oracle is
    # (T - dt) |e|^2, approaching T |e|^2 as the grid refines
    oracle = (1.0 - grid.dt) * float(e @ e)
    se = np.std(np.sum(val**2, axis=1)) / np.sqrt(m)
    assert abs(second_moment - oracle) <= 3.0 * se


# -------------------------------------------------------------------- norms

def test_lp_l2_zero_and_constant():
    grid = TimeGrid(2.0, 10)
    m = 50
    zero = np.zeros((11, m, 2))
    assert lp_l2_norm(zero, grid.dt, 2.0) == 0.0
    e = np.array([3.0, 4.0])
    const = np.tile(e, (11, m, 1))
    for p in (1.5, 2.0, 4.0):
        assert lp_l2_norm(const, grid.dt, p) == pytest.approx(np.sqrt(2.0) * 5.0,
                                                              rel=1e-12)


def test_lp_l2_brownian_integrand():
    grid = TimeGrid(1.0, 64)
    m = 200_000
    bm = simulate_brownian(grid, m, seed=6)
    phi = from_function(bm, lambda k, w: w[:, None], 1)
    got = lp_l2_norm(phi, grid.dt, 2.0)
    # discrete oracle: E sum_k dt W_{t_k}^2 = dt^2 sum_{k<N} k -> T^2/2
    oracle = np.sqrt(grid.dt**2 * sum(range(grid.n_steps)))
    assert got == pytest.approx(oracle, rel=0.01)
    assert oracle == pytest.approx(np.sqrt(0.5), rel=0.02)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_l2_difference_matches_textbook_formula(p, d):
    # mean over paths of (dt sum_k ||x_k - y_k||^2)^(p/2), to the 1/p: over
    # every node given to _lp_l2, over all but the last one for lp_l2_norm
    rng = np.random.default_rng(int(10 * p) + d)
    x, y = rng.normal(size=(2, 9, 300, d))
    dt = 0.125

    def textbook(diff):
        q = dt * (diff ** 2).sum(axis=(0, 2))
        return np.mean(q ** (p / 2)) ** (1 / p)
    assert _lp_l2(x, y, dt, p) == pytest.approx(textbook(x - y), rel=1e-12)
    assert lp_l2_norm(x - y, dt, p) == pytest.approx(textbook((x - y)[:-1]), rel=1e-12)


def test_lp_l2_single_node_is_zero():
    # the last stored node carries no mass in lp_l2_norm; _lp_l2 gives every
    # node it is given the mass dt
    x = np.ones((1, 5, 2))
    assert lp_l2_norm(x, 0.5, 2.0) == 0.0
    assert _lp_l2(x, np.zeros_like(x), 0.5, 2.0) == 1.0
    assert _lp_l2(x[:0], x[:0], 0.5, 2.0) == 0.0


# entries of magnitude 2^-10 to 2^10, or zero, stay normal numbers under any
# shift by 2^s, |s| <= 1000, so the shifted stacks are exact; their squares
# and p/2-th powers leave the float range from |s| of about 500 / p on
_entry = st.one_of(st.just(0.0), st.floats(2.0**-10, 2.0**10),
                   st.floats(-(2.0**10), -(2.0**-10)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.floats(1.0, 8.0, exclude_min=True),
       s=st.integers(-1000, 1000), dt=st.sampled_from([1.0, 0.125, 1e-3]))
def test_lp_l2_scales_exactly_with_powers_of_two(data, p, s, dt):
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 3)))
    x, y = (data.draw(arrays(float, shape, elements=_entry)) for _ in range(2))
    want = math.ldexp(_lp_l2(x, y, dt, p), s)
    assume(want == 0.0 or want >= np.finfo(float).tiny)  # normal: full precision
    got = _lp_l2(np.ldexp(x, s), np.ldexp(y, s), dt, p)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [100, -100, 500, -500])
@pytest.mark.parametrize("dt", [1.0, 0.125])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
def test_lp_l2_scales_bitwise_with_powers_of_two(p, dt, s):
    # the power mean runs in units 4^u of the largest path sum, and a shift by
    # 2^s moves u by s, whether or not the shifted sums leave [2^-970, 2^970]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 50, 2))
    y = x + 1e-3 * rng.normal(size=x.shape)
    assert _lp_l2(np.ldexp(x, s), np.ldexp(y, s), dt, p) == math.ldexp(_lp_l2(x, y, dt, p), s)


def _exact_lp_l2(x, y, dt, p):
    """The norm of x - y in 60-digit decimal arithmetic, rounded once."""
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        q = [d(dt) * sum((d(a) - d(b)) ** 2 for a, b in zip(xm.ravel(), ym.ravel()))
             for xm, ym in zip(x.swapaxes(0, 1), y.swapaxes(0, 1))]
        mean = sum(v ** (d(p) / 2) for v in q) / len(q)
        return float(mean ** (1 / d(p))) if mean else 0.0


# entries of any exponent from -1000 to 1000, and y = x + delta, so that a
# difference may lie far below the entries it is taken of, or be zero
_wide = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1000, 1000))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.floats(1.0, 8.0, exclude_min=True),
       dt=st.sampled_from([1.0, 0.125, 1e-3]))
def test_lp_l2_matches_exact_arithmetic_across_the_float_range(data, p, dt):
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 3)))
    x = data.draw(arrays(float, shape, elements=_wide))
    y = x + data.draw(arrays(float, shape, elements=st.one_of(st.just(0.0), _wide)))
    want = _exact_lp_l2(x, y, dt, p)
    assume(want == 0.0 or np.finfo(float).tiny <= want <= np.finfo(float).max)
    assert _lp_l2(x, y, dt, p) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x, y, p, want", [
    # one path's difference far below the other path's entries, so the plain
    # result is finite but outside the window, or underflows at p = 8
    ([1e300, 1e5], [1e300, 0.0], 2.0, 1e5 / math.sqrt(2.0)),
    ([1e200, 1e-30], [1e200, 0.0], 2.0, 1e-30 / math.sqrt(2.0)),
    ([1e45, 1e5], [1e45, 0.0], 8.0, 1e5 * 2.0**-0.125),
    ([1e45, 1e-60], [1e45, 0.0], 8.0, 1e-60 * 2.0**-0.125),
    # x - y overflows, the norm does not
    ([1e308, 0.0], [-1e308, 0.0], 2.0, math.sqrt(2.0) * 1e308),
    # the 10th power of the square, 2^-1048, is subnormal, the norm is not
    ([3 * 2.0**-54], [0.0], 20.0, 3 * 2.0**-54),
])
def test_lp_l2_of_differences_at_the_ends_of_the_float_range(x, y, p, want):
    x, y = (np.array(v)[None, :, None] for v in (x, y))
    assert _lp_l2(x, y, 1.0, p) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_lp_l2_of_a_non_finite_entry_is_not_finite(bad, scale):
    # with finite entries of 1e300, whose squares overflow, too
    x, y = scale * np.random.default_rng(7).normal(size=(2, 3, 20, 2))
    for a, b in ((x, y), (y, x)):
        a = a.copy()
        a[1, 7, 0] = bad
        assert not math.isfinite(_lp_l2(a, b, 0.5, 2.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dt", [1.0, 0.125])
def test_power_mean_rows_are_bitwise_the_one_row_norm(p, dt):
    # rows in range, rescued at 2^+-600, all zero, NaN and inf side by side in
    # one call: each row takes its own unit and gives _lp_l2's bits
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(2, 7, 3, 40, 2))
    for r, s in ((1, 600), (2, -600)):
        x[r], y[r] = np.ldexp(x[r], s), np.ldexp(y[r], s)
    y[3] = x[3]
    x[4, 1, 5, 0], x[5, 2, 9, 1] = np.nan, np.inf
    y[6] = x[6] + np.ldexp(rng.normal(size=x[6].shape), -700)  # tiny differences
    with np.errstate(over="ignore", invalid="ignore"):  # as _lp_l2 runs them
        got = _power_mean(*_path_sums(x.swapaxes(0, 1), y.swapaxes(0, 1)), dt, p)
    want = [_lp_l2(x[r], y[r], dt, p) for r in range(len(x))]
    assert got.tobytes() == np.array(want).tobytes()
    assert got[3] == 0.0 and np.isnan(got[4]) and got[5] == np.inf


def test_lp_l2_requires_p_above_one():
    with pytest.raises(ValueError):
        lp_l2_norm(np.zeros((3, 4, 1)), 0.5, 1.0)


# --------------------------------------------------------------- regression

def test_regression_martingale_coefficients():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 20_000, seed=11)
    w_t, w_end = bm.levels[5], bm.levels[-1]
    fitted = PolynomialRegression(w_t, 1).fit(w_end[:, None])[:, 0]
    # E[W_T | F_t] = W_t: each of the two coefficients is off by about
    # sqrt((T - t)/M), so the fitted values within 3 of that over both
    t = grid.nodes[5]
    rms = np.sqrt(np.mean((fitted - w_t) ** 2))
    assert rms <= 3.0 * np.sqrt((grid.horizon - t) * 2.0 / bm.n_paths)


def test_regression_gaussian_moment_identity():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 20_000, seed=12)
    t = grid.nodes[4]
    w_t, w_end = bm.levels[4], bm.levels[-1]
    reg = PolynomialRegression(w_t, 2)
    fitted = reg.fit((w_end**2)[:, None])[:, 0]
    # E[W_T^2 | F_t] = W_t^2 + (T - t); the target is heteroskedastic in the
    # feature, so calibrate against sandwich standard errors in the basis 1, W, W^2
    x = np.vander(w_t, 3, increasing=True)
    coef = np.linalg.lstsq(x, fitted, rcond=None)[0]  # fitted = x @ coef
    resid = w_end**2 - fitted
    xtx_inv = np.linalg.inv(x.T @ x)
    robust_se = np.sqrt(np.diag(xtx_inv @ (x.T * resid**2) @ x @ xtx_inv))
    truth = np.array([1.0 - t, 0.0, 1.0])
    assert np.all(np.abs(coef - truth) <= 3.0 * robust_se)


def test_regression_constant_target_exact():
    rng = np.random.default_rng(13)
    feats = rng.normal(size=400)
    got = PolynomialRegression(feats, 2).fit(np.full((400, 1), -2.5))
    assert np.abs(got + 2.5).max() <= 1e-10


def test_regression_polynomial_targets_reproduced():
    rng = np.random.default_rng(14)
    feats = rng.normal(size=500)
    target = (1.0 - 2.0 * feats + 0.5 * feats**2)[:, None]
    got = PolynomialRegression(feats, 2).fit(target)
    assert np.abs(got - target).max() <= 1e-8


def test_regression_tower_property():
    grid = TimeGrid(1.0, 10)
    bm = simulate_brownian(grid, 40_000, seed=15)
    target = bm.levels[-1][:, None] ** 2
    j, k = 3, 7
    inner = PolynomialRegression(bm.levels[k], 2).fit(target)
    towered = PolynomialRegression(bm.levels[j], 2).fit(inner)
    direct = PolynomialRegression(bm.levels[j], 2).fit(target)
    gap = np.sqrt(np.mean((towered - direct) ** 2))
    se = np.std(target) * np.sqrt(3.0 / bm.n_paths)
    assert gap <= 3.0 * se


def test_regression_needs_enough_paths():
    with pytest.raises(ValueError):
        PolynomialRegression(np.arange(15.0), degree=2)  # 15 < 10 * 3


def test_regression_rank_deficient_ridge_flag():
    # a feature of two distinct values makes 1, f and f^2 dependent
    feats = np.tile([1.0, 3.0], 50)
    reg = PolynomialRegression(feats, 2)
    assert reg.ridge_used
    target = (feats**2 + 1.0)[:, None]
    assert np.abs(reg.fit(target) - target).max() <= 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_regression_refuses_a_non_finite_feature(bad):
    feats = np.random.default_rng(21).normal(size=100)
    feats[37] = bad
    with pytest.raises(ValueError, match="not finite"):
        PolynomialRegression(feats, 2)


def test_regression_constant_feature_dropped_cleanly():
    # features with zero variance (e.g. W at time zero) degrade to the mean
    reg = PolynomialRegression(np.zeros(40), 2)
    assert not reg.ridge_used
    assert np.allclose(reg.fit(np.arange(40.0)[:, None]), 19.5)


def test_fit_and_kernel_take_one_column_per_target():
    rng = np.random.default_rng(22)
    feats, dw = rng.normal(size=300), rng.normal(size=300)
    reg = PolynomialRegression(feats, 2)
    kern = KernelRegression(reg, dw)
    targets = np.column_stack([np.sin(feats), feats * dw])
    assert reg.fit(targets).shape == kern.kernel(targets).shape == (300, 2)
    for solve in (reg.fit, kern.kernel):
        for bad in (targets[:, 0], targets[:299], np.ones((300, 2, 1))):
            with pytest.raises(ValueError):
                solve(bad)


def _lstsq_fit_and_kernel(x, dw, targets):
    """Fitted values and increment-block values of the targets from
    np.linalg.lstsq on the stacked design [x, x dw]."""
    p = x.shape[1]
    fit = x @ np.linalg.lstsq(x, targets, rcond=None)[0]
    joint = np.linalg.lstsq(np.hstack([x, x * dw[:, None]]), targets, rcond=None)[0]
    return fit, x @ joint[p:]


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("degree", range(9))
@pytest.mark.parametrize("node", [1, 20])  # t = dt and t = T
def test_fit_and_kernel_match_lstsq_on_the_stacked_design(degree, node):
    grid = TimeGrid(1.0, 20)
    bm = simulate_brownian(grid, 4000, seed=23)
    w, w_end = bm.levels[node], bm.levels[-1]
    dw = np.sqrt(grid.dt) * _philox_normals(123, node, 4000)  # the next increment
    targets = np.column_stack([np.cos(3.0 * w_end), w_end**3 + dw])
    reg = PolynomialRegression(w, degree)
    kern = KernelRegression(reg, dw)
    fit, kernel = _lstsq_fit_and_kernel(_monomial_design(w, degree), dw, targets)
    assert _relative_gap(reg.fit(targets), fit) <= 1e-9
    assert _relative_gap(kern.kernel(targets), kernel) <= 1e-9


def test_two_column_feature_raises():
    # the basis is built from one feature, the Brownian value of a step
    bm = simulate_brownian(TimeGrid(1.0, 10), 3000, seed=24)
    feats = np.column_stack([bm.levels[3], bm.levels[7]])
    with pytest.raises(ValueError, match="one vector"):
        PolynomialRegression(feats, 3)


def test_constant_target_fit_to_the_rounding_floor():
    # the intercept column of the equilibrated design E is one repeated
    # value, so a constant target's E't is a long sum of equal terms; the fit
    # must not carry that sum's rounding drift, which the sweep would
    # compound step by step
    bm = simulate_brownian(TimeGrid(1.0, 450), 10_000, seed=25)
    for node in (1, 225, 450):
        reg = PolynomialRegression(bm.levels[node], 2)
        err = reg.fit(np.full((10_000, 1), 0.7)) - 0.7
        assert abs(err.mean()) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("e", [-830, -300, 0, 300, 996])  # max|t| 1.4e-250 .. 6.7e299
def test_fit_and_kernel_are_power_of_two_homogeneous(e):
    rng = np.random.default_rng(26)
    feats, dw = rng.normal(size=(2, 2000))
    targets = rng.normal(size=(2000, 2))
    targets /= np.abs(targets).max()
    reg = PolynomialRegression(feats, 3)
    kern = KernelRegression(reg, dw)
    for solve in (reg.fit, kern.kernel):
        scaled = solve(np.ldexp(targets, e))
        assert scaled.tobytes() == np.ldexp(solve(targets), e).tobytes()


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(0, 8), per_basis=st.integers(10, 40), seed=st.integers(0, 2**32 - 1),
       normal=st.booleans(), a=st.integers(-20, 20), b=st.integers(-300, 300),
       s=st.integers(-600, 600))
def test_fit_and_kernel_properties(degree, per_basis, seed, normal, a, b, s):
    # features, increments and targets in units 2^a, 2^b and 2^s, with no
    # entry leaving the normal range: the design is equilibrated by powers of
    # two, so fit and kernel are bitwise those of the unscaled data, times 2^s
    # and 2^(s - b).  The fit takes a refinement step, so its error stays
    # near eps cond(X); the kernel takes none and solves the joint normal
    # equations, so its error may reach eps cond([X, X dW])^2.  A constant has
    # no increment block: the kernel takes it to exact zeros at any width
    p = degree + 1
    m = per_basis * p
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=m) if normal else rng.uniform(-1.0, 1.0, size=m)
    dw = rng.normal(size=m)
    targets = rng.normal(size=(m, 2))
    reg = PolynomialRegression(feats, degree)
    kern = KernelRegression(reg, dw)
    assert not (reg.ridge_used or kern.ridge_used)
    reg_s = PolynomialRegression(np.ldexp(feats, a), degree)
    kern_s = KernelRegression(reg_s, np.ldexp(dw, b))
    scaled = np.ldexp(targets, s)
    assert reg_s.fit(scaled).tobytes() == np.ldexp(reg.fit(targets), s).tobytes()
    assert kern_s.kernel(scaled).tobytes() == np.ldexp(kern.kernel(targets), s - b).tobytes()

    x = _monomial_design(feats, degree)
    x /= np.linalg.norm(x, axis=0)  # lstsq truncates by column size
    joint = np.hstack([x, x * dw[:, None]])
    eps = np.finfo(float).eps
    fit_tol = 256 * eps * np.linalg.cond(x)
    kernel_tol = 256 * eps * np.linalg.cond(joint / np.linalg.norm(joint, axis=0)) ** 2
    c = rng.normal(size=(2 * p, 2))
    span = x @ c[:p]
    assert _relative_gap(reg.fit(span), span) <= fit_tol
    assert _relative_gap(kern.kernel(joint @ c), x @ c[p:]) <= kernel_tol
    fit, kernel = _lstsq_fit_and_kernel(x, dw, targets)
    assert _relative_gap(reg.fit(targets), fit) <= fit_tol
    assert _relative_gap(kern.kernel(targets), kernel) <= kernel_tol
    for width in (1, p + 1):
        assert not kern_s.kernel(np.full((m, width), np.ldexp(0.7, s))).any()


def test_duplicated_columns_set_ridge_in_both_designs():
    # a feature of two distinct values: 1, f and f^2 are dependent columns
    feats = np.tile([-2.0, 5.0], 100)
    dw = np.random.default_rng(27).normal(size=200)
    reg = PolynomialRegression(feats, 2)
    kern = KernelRegression(reg, dw)
    assert reg.ridge_used and kern.ridge_used
    target = (feats * dw)[:, None]
    assert np.isfinite(kern.kernel(target)).all()
    # a full-rank design of the schema's highest degree is left alone
    full = PolynomialRegression(np.random.default_rng(28).normal(size=2000), 8)
    assert not full.ridge_used and not KernelRegression(full, dw.repeat(10)).ridge_used


def _cholesky_qr_of_one(gram):
    """_cholesky_qr written for one matrix, as it was before it took stacks:
    the reference of the stacked call."""
    scale = np.ldexp(1.0, -np.frexp(np.sqrt(np.diag(gram)))[1])
    gram = gram * scale[:, None] * scale
    lam = 1e-10 * np.trace(gram) / len(gram)
    ridge_used = bool(np.linalg.eigvalsh(gram)[0] <= lam)
    g = gram + lam * np.eye(len(gram)) if ridge_used else gram
    return ridge_used, gram, scale, np.linalg.inv(np.linalg.cholesky(g).T)


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 18), members=st.lists(st.booleans(), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(q=3, members=[False, True, False], seed=1)
@example(q=18, members=[True, False], seed=2)
def test_stacked_cholesky_qr_is_bitwise_the_call_per_matrix(q, members, seed):
    # numpy's linalg runs LAPACK once per matrix of a stack, so a window's
    # Grams factored in one call give each the bits of its own call; a member
    # flagged True repeats a column, so its Gram is singular and takes ridge
    rng = np.random.default_rng(seed)
    grams = []
    for deficient in members:
        x = np.ldexp(rng.normal(size=(12 * q, q)), rng.integers(-30, 30, size=q))
        if deficient:
            x[:, -1] = x[:, 0]
        grams.append(x.T @ x)
    stack = np.array(grams)
    ridge_used, scales, r_invs = _cholesky_qr(stack)
    for i, gram in enumerate(grams):
        ridge, equilibrated, scale, r_inv = _cholesky_qr_of_one(gram)
        assert ridge == ridge_used[i] and (ridge or not members[i] or q == 1)
        for got, want in ((stack[i], equilibrated), (scales[i], scale), (r_invs[i], r_inv)):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), per_basis=st.integers(10, 40), degree=st.integers(0, 2),
       k_lo=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
@example(d=2, per_basis=3334, degree=2, k_lo=0, seed=3)
def test_sweep_is_bitwise_the_per_step_reference(d, per_basis, degree, k_lo, seed):
    # the sweep applies a dense S(dt) by np.dot on a contiguous copy of S(dt)',
    # which is bitwise x @ S(dt)' for M >= 2 paths, and reads designs factored a
    # window at a time, bitwise each step's own; W at t = 0 has one column
    m = per_basis * (degree + 1)
    rng = np.random.default_rng(seed)
    bm = simulate_brownian(TimeGrid(1.0, 6), m, seed % 1000)
    s_dt = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    g, terminal = rng.normal(size=(4, m, d)), rng.normal(size=(m, d))
    y, z = solve_linear_bsee(g, terminal, s_dt, bm.grid.dt,
                             step_designs(bm, k_lo, bm.levels[k_lo:k_lo + 4], degree))
    y_next = terminal
    for k in range(3, -1, -1):
        base = PolynomialRegression(bm.levels[k_lo + k], degree)
        kern = KernelRegression(base, bm.increments[k_lo + k])
        propagated = y_next @ s_dt.T
        assert z[k].tobytes() == kern.kernel(propagated).tobytes()
        y_next = base.fit(propagated) - bm.grid.dt * g[k]
        assert y[k].tobytes() == y_next.tobytes()


@pytest.mark.parametrize("config", ["configs/ball_demo.json", "configs/singleton_demo.json",
                                    "perfbench/workloads/polytope_small.json"])
def test_no_design_of_a_shipped_workload_needs_ridge(config, monkeypatch):
    # the solve's own Brownian ensemble, caught as it is drawn
    from bsei import solver
    from bsei.cli import load_config

    class Drawn(Exception):
        pass

    drawn = []

    def draw(*args):
        drawn.append(simulate_brownian(*args))
        raise Drawn

    problem, cfg, _ = load_config(str(ROOT / config))
    monkeypatch.setattr(solver, "simulate_brownian", draw)
    with pytest.raises(Drawn):
        solver.solve(problem, cfg)
    bm = drawn[0]
    for k in range(bm.grid.n_steps):
        ((base, kern),) = step_designs(bm, k, bm.levels[k:k + 1], cfg.basis_degree)
        assert not (base.ridge_used or kern.ridge_used), f"step {k}"


def test_step_designs_do_not_see_the_scale_of_the_brownian_values():
    # W in units of 2^500 (a horizon of about 1e301) has monomials whose
    # Gram would overflow; the basis is built from W in units of a power of
    # two near its largest |value|, so the fits are bitwise those of the
    # unscaled ensemble
    bm = simulate_brownian(TimeGrid(1.0, 8), 500, seed=30)
    huge = BrownianEnsemble(bm.grid, 500, 30, np.ldexp(bm.increments, 500))
    target = np.column_stack([np.cos(bm.levels[-1]), bm.levels[-1] ** 2])
    direct = PolynomialRegression(huge.levels[4], 2).fit(target)
    assert direct.tobytes() == PolynomialRegression(bm.levels[4], 2).fit(target).tobytes()
    for (base, kern), (hbase, hkern) in zip(step_designs(bm, 1, bm.levels[1:8], 2),
                                            step_designs(huge, 1, huge.levels[1:8], 2)):
        assert base.fit(target).tobytes() == hbase.fit(target).tobytes()
        assert kern.kernel(target).tobytes() == np.ldexp(hkern.kernel(target), 500).tobytes()


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(0, 8), seed=st.integers(0, 2**32 - 1), normal=st.booleans(),
       s=st.integers(-1000, 1000))
def test_fit_does_not_see_the_power_of_two_scale_of_the_feature(degree, seed, normal, s):
    # the basis is built from the feature in units of the power of two above
    # its largest |value|, so a feature scaled exactly by 2^s gives the same
    # design; a constant feature gives the intercept alone at any scale
    m = 20 * (degree + 1)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=m) if normal else rng.uniform(-1.0, 1.0, size=m)
    scaled = np.ldexp(feats, s)
    assume(np.array_equal(np.ldexp(scaled, -s), feats))
    targets = rng.normal(size=(m, 2))
    want = PolynomialRegression(feats, degree).fit(targets)
    assert PolynomialRegression(scaled, degree).fit(targets).tobytes() == want.tobytes()
    constant = PolynomialRegression(np.full(m, np.ldexp(feats[0], s)), degree)
    assert constant._design.shape == (m, 1)
    assert np.allclose(constant.fit(targets), targets.mean(axis=0))


def test_kernel_does_not_see_the_scale_of_the_increments():
    # dW in units of 2^-600 has a Gram block below the normal range; the
    # kernel regresses dW in units of a power of two near its largest
    # |value|, so its values are bitwise 2^600 those of the unscaled dW
    bm = simulate_brownian(TimeGrid(1.0, 8), 500, seed=31)
    base = PolynomialRegression(bm.levels[4], 2)
    dw = bm.increments[4]
    target = np.column_stack([np.cos(bm.levels[-1]), bm.levels[-1] ** 2])
    tiny = KernelRegression(base, np.ldexp(dw, -600)).kernel(target)
    assert tiny.tobytes() == np.ldexp(KernelRegression(base, dw).kernel(target), 600).tobytes()


def test_kernel_does_not_see_later_writes_to_its_increments():
    # the kernel reads dW at every call: a read-only dW (an ensemble row) is
    # kept by reference, a writable one is copied when the kernel is built
    bm = simulate_brownian(TimeGrid(1.0, 8), 500, seed=31)
    base = PolynomialRegression(bm.levels[4], 2)
    target = np.column_stack([np.cos(bm.levels[-1]), bm.levels[-1] ** 2])
    expected = KernelRegression(base, bm.increments[4]).kernel(target)
    dw = bm.increments[4].copy()
    kern = KernelRegression(base, dw)
    dw *= 3.0
    assert kern.kernel(target).tobytes() == expected.tobytes()


def test_step_designs_keep_one_path_array_per_step():
    # each step keeps its equilibrated design, one (M, p) array that the
    # kernel shares, and p x p factors: 40 steps at M = 1e4, p = 3 peak at
    # 9.8 MB, 41 such arrays, where the stored Q factors took 28.9 MB
    m, n = 10_000, 40
    bm = simulate_brownian(TimeGrid(1.0, n), m, seed=29)
    levels = bm.levels[:n]  # formed before the trace: the designs' input
    tracemalloc.start()
    try:
        designs = step_designs(bm, 0, levels, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(designs) == n
    assert peak <= (n + 3) * m * 3 * 8


# ------------------------------------------------- martingale representation

def test_representation_of_brownian_motion():
    grid = TimeGrid(1.0, 20)
    m = 10_000
    bm = simulate_brownian(grid, m, seed=16)
    e = np.array([1.0])
    g = from_function(bm, lambda k, w: w[:, None] * e, 1)
    rep = martingale_representation(g, bm, basis_degree=1)
    assert np.abs(rep.mean_part).max() <= 4.0 / np.sqrt(m)
    assert rep.residuals.max() <= 3.0 / np.sqrt(m)
    # tau ~ e throughout; check a middle entry within 3 sigma of its spread
    tau = rep.taus[15][7]
    assert abs(tau.mean() - 1.0) <= 3.0 * tau.std() / np.sqrt(m) + 0.01


def test_representation_deterministic_process():
    grid = TimeGrid(1.0, 12)
    bm = simulate_brownian(grid, 500, seed=17)
    g = from_function(bm, lambda k, w: np.full((500, 2), [1.0, float(k)]), 2)
    rep = martingale_representation(g, bm, basis_degree=2)
    assert rep.residuals.max() <= 1e-10
    for u in range(13):
        assert np.allclose(rep.mean_part[u], [1.0, float(u)])
        if u > 0:
            assert np.abs(rep.taus[u]).max() <= 1e-10


def test_representation_of_squared_brownian():
    grid = TimeGrid(1.0, 16)
    m = 20_000
    bm = simulate_brownian(grid, m, seed=18)
    g = from_function(bm, lambda k, w: (w**2)[:, None], 1)
    rep = martingale_representation(g, bm, basis_degree=2)
    u, k = 12, 5
    tau = rep.taus[u][k][:, 0]
    target = 2.0 * bm.levels[k]
    rms = np.sqrt(np.mean((tau - target) ** 2))
    assert rms <= 3.0 * np.sqrt(8.0 * grid.nodes[k] / m) + 0.02


def test_representation_rejects_a_process_off_the_ensemble():
    bm = simulate_brownian(TimeGrid(1.0, 4), 100, seed=19)
    for shape in ((5, 99, 1), (6, 100, 1)):  # a path short, a node beyond T
        with pytest.raises(ValueError, match="does not fit"):
            martingale_representation(np.zeros(shape), bm, basis_degree=1)


def test_kernel_structurally_lower_triangular():
    grid = TimeGrid(1.0, 6)
    bm = simulate_brownian(grid, 200, seed=19)
    g = from_function(bm, lambda k, w: w[:, None], 1)
    rep = martingale_representation(g, bm, basis_degree=1)
    for u in range(7):
        assert rep.taus[u].shape == (u, 200, 1)
        with pytest.raises(IndexError):
            rep.taus[u][u]
