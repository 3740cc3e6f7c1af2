import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsei.errors import NonConvergenceError
from bsei.geometry import SetValuedSpec
from bsei.paths import ProcessEnsemble, TimeGrid, simulate_brownian
from bsei.semigroup import SemigroupCache, matrix_exponential
from bsei.solver import (
    BSEIProblem,
    SolverConfig,
    TerminalSpec,
    Solution,
    compute_schedule,
    picard_solve_interval,
    schedule_from_constants,
    select_generator,
    solve,
    solve_linear_bsee,
    verify_solution,
    z_crosscheck,
)


def singleton_spec(dim, a_y=0.0, a_z=0.0, k=None):
    return SetValuedSpec(dim=dim, shape="singleton", a_y=a_y * np.eye(dim),
                         a_z=a_z * np.eye(dim),
                         lipschitz_k=abs(a_y) + abs(a_z) if k is None else k)


# ----------------------------------------------------------------- schedule

def test_schedule_degenerate_zero_lipschitz():
    s = schedule_from_constants(0.0, 1.0, 2.0)
    assert s.beta == 0.0
    assert s.delta == 0.5  # T/4
    assert s.n_windows == 4


def test_schedule_direct_evaluation():
    s = schedule_from_constants(1.0, 1.0, 1.0, c_pe=1.0)
    # beta = 1 * 1 * 1 * (1 + 1 * (1 + 1)) = 3, delta = min(1/9, 1)/4 = 1/36
    assert s.beta == pytest.approx(3.0)
    assert s.delta == pytest.approx(1.0 / 36.0, rel=1e-12)
    assert s.eps(0) == 1.0
    assert s.eps(1) == pytest.approx(s.beta * math.sqrt(s.delta) / 2.0)
    assert s.eps(1) <= 0.25


def test_schedule_margin_holds_for_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s = schedule_from_constants(
            lipschitz=float(rng.uniform(0.0, 5.0)),
            gamma_s=float(1.0 + rng.uniform(0.0, 4.0)),
            horizon=float(rng.uniform(0.05, 10.0)),
            c_pe=float(rng.uniform(0.1, 3.0)))
        assert s.beta * math.sqrt(s.delta) <= 0.5
        assert s.delta <= s.horizon / 4.0 * (1.0 + 1e-12)
        if s.beta > 0.0:
            eps = [s.eps(n) for n in range(6)]
            assert all(a > b for a, b in zip(eps, eps[1:]))  # strictly decreasing


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(1.0, 6.0), st.floats(0.01, 20.0),
       st.floats(0.05, 5.0))
def test_schedule_margin_property(lipschitz, gamma_s, horizon, c_pe):
    s = schedule_from_constants(lipschitz, gamma_s, horizon, c_pe)
    assert s.beta * math.sqrt(s.delta) <= 0.5
    assert s.n_windows * s.window_length == pytest.approx(horizon)
    assert s.window_length <= s.delta * (1.0 + 1e-9)


def test_schedule_rejects_constants_without_a_finite_window():
    from bsei.errors import ScheduleError
    with pytest.raises(ScheduleError):
        schedule_from_constants(1.0, math.inf, 1.0)  # beta = inf
    with pytest.raises(ScheduleError):
        schedule_from_constants(1e200, 1.0, 1.0)  # beta^2 overflows: delta = 0


def test_compute_schedule_uses_semigroup_bound():
    a = 0.5 * np.eye(2)
    cache = SemigroupCache.build(a, 1.0 / 64, 64)
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=2, generator=a,
                       terminal=TerminalSpec("constant", [1.0, 0.0]),
                       gspec=singleton_spec(2, a_y=1.0))
    s = compute_schedule(prob, cache)
    assert s.gamma_s == pytest.approx(np.exp(0.5), rel=1e-9)


# --------------------------------------------------------------- selection

def _ensembles(grid, m, d, g=None, y=None, z=None):
    shape = (grid.n_steps + 1, m, d)
    mk = lambda v: ProcessEnsemble(grid, np.zeros(shape) if v is None else v)
    return mk(g), mk(y), mk(z)


def _select(g, y, z, spec):
    """select_generator on the arrays of three ensembles, as an ensemble."""
    return ProcessEnsemble(g.grid, select_generator(g.values, y.values, z.values,
                                                    g.grid.nodes, spec))


def _sweep(g, terminal, s_dt, bm, degree):
    """solve_linear_bsee on an ensemble's array, (Y, Z) as ensembles."""
    return tuple(ProcessEnsemble(g.grid, v) for v in solve_linear_bsee(
        g.values, terminal, 0, s_dt, bm, degree))


def test_select_singleton_ignores_previous():
    grid = TimeGrid(1.0, 4)
    m, d = 8, 2
    rng = np.random.default_rng(1)
    g, y, z = _ensembles(grid, m, d, g=rng.normal(size=(5, m, d)),
                         y=rng.normal(size=(5, m, d)))
    spec = singleton_spec(d, a_y=0.7)
    out = _select(g, y, z, spec)
    assert np.allclose(out.values, 0.7 * y.values)


def test_select_fixed_point_inside_set():
    grid = TimeGrid(1.0, 3)
    m, d = 5, 2
    g_vals = 0.05 * np.random.default_rng(2).normal(size=(4, m, d))
    spec = SetValuedSpec(dim=d, shape="ball", a_y=np.zeros((d, d)),
                         a_z=np.zeros((d, d)), lipschitz_k=0.0, radius=1.0)
    g, y, z = _ensembles(grid, m, d, g=g_vals)
    out = _select(g, y, z, spec)
    assert np.array_equal(out.values, g_vals)  # already inside: untouched


def test_select_ball_closed_form():
    grid = TimeGrid(1.0, 2)
    m, d = 3, 2
    r = 0.4
    u = np.array([0.6, 0.8])
    g_vals = np.tile(2.0 * r * u, (3, m, 1))
    spec = SetValuedSpec(dim=d, shape="ball", a_y=np.zeros((d, d)),
                         a_z=np.zeros((d, d)), lipschitz_k=0.0, radius=r)
    g, y, z = _ensembles(grid, m, d, g=g_vals)
    out = _select(g, y, z, spec)
    assert np.allclose(out.values, np.tile(r * u, (3, m, 1)), atol=1e-14)


def test_select_polytope_shape():
    grid = TimeGrid(1.0, 1)
    m, d = 4, 2
    off = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    spec = SetValuedSpec(dim=d, shape="polytope", a_y=np.eye(d),
                         a_z=np.zeros((d, d)), lipschitz_k=1.0, offsets=off)
    rng = np.random.default_rng(3)
    y_vals = rng.normal(size=(2, m, d))
    g, y, z = _ensembles(grid, m, d, y=y_vals)
    out = _select(g, y, z, spec)
    from bsei.geometry import Polytope, distance_to
    for k in range(2):
        for j in range(m):
            assert distance_to(out.values[k, j],
                               Polytope(y_vals[k, j] + off)) <= 1e-6


# ------------------------------------------------------------- linear solve

def test_linear_solve_constant_terminal():
    grid = TimeGrid(1.0, 12)
    m = 2_000
    bm = simulate_brownian(grid, m, seed=4)
    s_dt = matrix_exponential(grid.dt * np.zeros((1, 1)))
    g = ProcessEnsemble(grid, np.zeros((13, m, 1)))
    y, z = _sweep(g, np.full((m, 1), 3.0), s_dt, bm, 2)
    assert np.abs(y.values - 3.0).max() <= 1e-10
    assert np.abs(z.values).max() <= 1e-10


def test_linear_solve_martingale_terminal():
    grid = TimeGrid(1.0, 25)
    m = 20_000
    bm = simulate_brownian(grid, m, seed=5)
    s_dt = matrix_exponential(grid.dt * np.zeros((1, 1)))
    g = ProcessEnsemble(grid, np.zeros((26, m, 1)))
    y, z = _sweep(g, bm.levels[-1][:, None], s_dt, bm, 2)
    for k in range(26):
        dev = np.sqrt(np.mean((y.values[k][:, 0] - bm.levels[k]) ** 2))
        se = np.sqrt(3.0 * (1.0 - grid.nodes[k]) / m)  # accumulated fit noise
        assert dev <= 3.0 * se + 1e-12
    for k in range(25):
        dev = np.sqrt(np.mean((z.values[k][:, 0] - 1.0) ** 2))
        assert dev <= 0.05


def test_linear_solve_fed_iteratively_matches_backward_ode():
    # g = a Y fed through repeated linear solves converges to the
    # closed-form deterministic solution y(t) = exp(-a (T - t)) c
    grid = TimeGrid(1.0, 50)
    m = 500
    a = 0.5
    bm = simulate_brownian(grid, m, seed=6)
    s_dt = matrix_exponential(grid.dt * np.zeros((1, 1)))
    term = np.full((m, 1), 1.0)
    y = ProcessEnsemble(grid, np.zeros((51, m, 1)))
    for _ in range(12):
        g = ProcessEnsemble(grid, a * y.values)
        y, _ = _sweep(g, term, s_dt, bm, 2)
    exact = np.exp(-a * (1.0 - grid.nodes))
    err = max(np.abs(y.values[k] - exact[k]).max() / exact[k] for k in range(51))
    assert err <= 0.02  # O(dt) one-step bias at dt = 0.02


def test_linear_solve_terminal_exact_bitwise():
    grid = TimeGrid(1.0, 5)
    m = 300
    bm = simulate_brownian(grid, m, seed=7)
    s_dt = matrix_exponential(grid.dt * np.eye(2))
    term = np.random.default_rng(8).normal(size=(m, 2))
    g = ProcessEnsemble(grid, np.zeros((6, m, 2)))
    y, _ = _sweep(g, term, s_dt, bm, 1)
    assert np.array_equal(y.values[-1], term)


# ------------------------------------------------------------ picard window

def _ball_problem(d=2, radius=0.2, pull=-0.3):
    return BSEIProblem(
        horizon=1.0, exponent=2.0, dim=d, generator=np.diag([-1.0, -0.5]),
        terminal=TerminalSpec("linear", np.ones(d)),
        gspec=SetValuedSpec(dim=d, shape="ball", a_y=pull * np.eye(d),
                            a_z=np.zeros((d, d)), lipschitz_k=abs(pull),
                            radius=radius))


def test_picard_singleton_constant_two_iterations():
    d = 1
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=d,
                       generator=np.zeros((d, d)),
                       terminal=TerminalSpec("constant", [2.0]),
                       gspec=SetValuedSpec(dim=d, shape="singleton",
                                           a_y=np.zeros((d, d)),
                                           a_z=np.zeros((d, d)),
                                           lipschitz_k=0.0,
                                           c0=np.array([0.0])))
    cache = SemigroupCache.build(np.zeros((d, d)), 1.0 / 16, 16)
    bm = simulate_brownian(TimeGrid(1.0, 16), 500, seed=9)
    sched = compute_schedule(prob, cache)
    y, z, g, rep, _ = picard_solve_interval(prob, 3, (12, 16), np.full((500, 1), 2.0),
                                            sched, cache.power(1), bm, 1)
    assert rep.converged
    assert len(rep.iterations) == 2
    assert rep.iterations[1].dy + rep.iterations[1].dz <= 1e-12


def test_picard_nonconvergence_carries_report():
    prob = _ball_problem()
    cache = SemigroupCache.build(prob.generator, 1.0 / 16, 16)
    bm = simulate_brownian(TimeGrid(1.0, 16), 600, seed=10)
    sched = compute_schedule(prob, cache, tol=1e-16, n_max=3)
    with pytest.raises(NonConvergenceError) as exc:
        picard_solve_interval(prob, 3, (12, 16), np.ones((600, 2)), sched,
                              cache.power(1), bm, 1)
    assert exc.value.report is not None
    assert len(exc.value.report.iterations) == 3


def test_window_length_guard():
    prob = _ball_problem()
    cache = SemigroupCache.build(prob.generator, 1.0 / 8, 8)
    bm = simulate_brownian(TimeGrid(1.0, 8), 600, seed=11)
    sched = compute_schedule(prob, cache)
    assert sched.delta < 0.75
    with pytest.raises(ValueError):
        picard_solve_interval(prob, 0, (0, 8), np.ones((600, 2)), sched,
                              cache.power(1), bm, 1)


# ------------------------------------------------------------------ solve

def test_solve_single_window_matches_interval_call():
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("constant", [1.5]),
                       gspec=singleton_spec(1, a_y=0.25))
    cfg = SolverConfig(steps_per_window=8, n_paths=400, seed=12)
    sol, rep = solve(prob, cfg)
    n_win = rep.schedule.n_windows
    grid = sol.y.grid
    bm = simulate_brownian(grid, 400, 12)
    s_dt = matrix_exponential(grid.dt * prob.generator)
    # replay the last window by hand: bitwise identical
    k_lo = (n_win - 1) * 8
    y, z, g, _, _ = picard_solve_interval(
        prob, n_win - 1, (k_lo, grid.n_steps), prob.terminal.sample(bm), rep.schedule,
        s_dt, bm, cfg.basis_degree)
    assert np.array_equal(sol.y.values[k_lo:-1], y[:-1])
    assert np.array_equal(sol.y.values[-1], y[-1])
    assert np.array_equal(sol.g.values[k_lo:-1], g[:-1])


def test_solve_linear_bsde_closed_form_oracle():
    a = 0.5
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("constant", [1.0]),
                       gspec=singleton_spec(1, a_y=a))
    sol, rep = solve(prob, SolverConfig(steps_per_window=50, n_paths=10_000,
                                        seed=13))
    nodes = sol.y.grid.nodes
    exact = np.exp(-a * (1.0 - nodes))
    rel = max(np.abs(sol.y.values[k] - exact[k]).max() / exact[k]
              for k in range(len(nodes)))
    assert rel <= 0.05
    assert rep.converged
    assert rep.inclusion_residual <= 1e-8


def test_solve_ball_radius_zero_equals_singleton():
    mk = lambda shape, r: BSEIProblem(
        horizon=1.0, exponent=2.0, dim=1, generator=np.zeros((1, 1)),
        terminal=TerminalSpec("linear", [1.0]),
        gspec=SetValuedSpec(dim=1, shape=shape, a_y=-0.4 * np.eye(1),
                            a_z=np.zeros((1, 1)), lipschitz_k=0.4, radius=r))
    cfg = SolverConfig(steps_per_window=8, n_paths=500, seed=14)
    s1, _ = solve(mk("singleton", 0.0), cfg)
    s2, _ = solve(mk("ball", 0.0), cfg)
    for a, b in [(s1.y, s2.y), (s1.z, s2.z), (s1.g, s2.g)]:
        assert np.abs(a.values - b.values).max() <= 1e-12


def test_solve_terminal_condition_exact_per_path():
    prob = _ball_problem()
    sol, _ = solve(prob, SolverConfig(steps_per_window=8, n_paths=500, seed=15))
    grid = sol.y.grid
    bm = simulate_brownian(grid, 500, 15)
    xi = prob.terminal.sample(bm)
    assert np.array_equal(sol.y.values[-1], xi)


def test_solve_singleton_reduction_matches_plain_pipeline():
    # singleton-valued maps reduce to the plain linear pipeline bitwise
    a = 0.35
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1, a_y=a))
    cfg = SolverConfig(steps_per_window=6, n_paths=400, seed=16)
    sol, rep = solve(prob, cfg)

    grid = sol.y.grid
    bm = simulate_brownian(grid, 400, 16)
    s_dt = matrix_exponential(grid.dt * prob.generator)
    sched = rep.schedule
    n_w = cfg.steps_per_window
    y_all = np.zeros((grid.n_steps + 1, 400, 1))
    z_all = np.zeros_like(y_all)
    g_all = np.zeros_like(y_all)
    terminal = bm.levels[-1][:, None].copy()
    for w in range(sched.n_windows - 1, -1, -1):
        k_lo, k_hi = w * n_w, (w + 1) * n_w
        n = k_hi - k_lo
        y = np.zeros((n + 1, 400, 1))
        z = np.zeros_like(y)
        g = np.zeros_like(y)
        for it in range(1, sched.n_max + 1):
            g_new = a * y  # direct evaluation of the singleton center map
            y_new, z_new = solve_linear_bsee(g_new, terminal, k_lo, s_dt, bm,
                                             cfg.basis_degree)
            dy = np.sqrt(np.mean(grid.dt * np.sum((y_new - y)[:-1] ** 2,
                                                  axis=(0, 2))))
            dz = np.sqrt(np.mean(grid.dt * np.sum((z_new - z)[:-1] ** 2,
                                                  axis=(0, 2))))
            y, z, g = y_new, z_new, g_new
            if it >= 2 and dy + dz <= sched.tol:
                break
        g = a * y  # trailing selection
        stop = k_hi + 1 if w == sched.n_windows - 1 else k_hi
        y_all[k_lo:stop] = y[:stop - k_lo]
        z_all[k_lo:stop] = z[:stop - k_lo]
        g_all[k_lo:stop] = g[:stop - k_lo]
        terminal = y[0]
    assert np.abs(sol.y.values - y_all).max() <= 1e-12
    assert np.abs(sol.z.values - z_all).max() <= 1e-12
    assert np.abs(sol.g.values - g_all).max() <= 1e-12


# ------------------------------------------------------------------ verify

def test_verify_residuals_and_corruption_detector():
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=10, n_paths=4_000, seed=17)
    sol, rep = solve(prob, cfg)
    grid = sol.y.grid
    res = verify_solution(sol, prob)
    res.z_checks = z_crosscheck(sol, cfg.basis_degree, 10)
    assert res.inclusion_max <= 1e-8
    assert res.equation[-1] == 0.0  # exact at the terminal node
    assert res.equation_max <= 0.1
    assert len(res.z_checks) == 10

    doubled = Solution(y=sol.y,
                       z=ProcessEnsemble(grid, 2.0 * sol.z.values), g=sol.g,
                       bm=sol.bm, s_dt=sol.s_dt)
    res2 = verify_solution(doubled, prob)
    # residual grows by about the scale of the stochastic convolution term
    assert res2.equation_max >= res.equation_max + 0.3


def test_solve_scheme_consistency_under_refinement():
    prob = _ball_problem()
    _, coarse = solve(prob, SolverConfig(steps_per_window=10, n_paths=2_000,
                                         seed=18))
    _, fine = solve(prob, SolverConfig(steps_per_window=20, n_paths=4_000,
                                       seed=18))
    se = 3.0 / np.sqrt(2_000)
    assert fine.equation_residual_max <= coarse.equation_residual_max + se


def test_selection_moves_by_the_pointwise_distance():
    # the distance moved at each point equals the distance from the previous
    # selection to the new constraint set
    from bsei.geometry import distance_to
    grid = TimeGrid(1.0, 4)
    m, d = 30, 2
    rng = np.random.default_rng(20)
    g_vals = rng.normal(size=(5, m, d))
    y_vals = rng.normal(size=(5, m, d))
    for shape, extra in (("ball", {"radius": 0.3}),
                         ("polytope", {"offsets": np.array(
                             [[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])})):
        spec = SetValuedSpec(dim=d, shape=shape, a_y=0.5 * np.eye(d),
                             a_z=np.zeros((d, d)), lipschitz_k=0.5, **extra)
        g, y, z = (ProcessEnsemble(grid, v) for v in
                   (g_vals, y_vals, np.zeros((5, m, d))))
        out = _select(g, y, z, spec)
        for k in range(5):
            for j in range(m):
                moved = np.linalg.norm(out.values[k, j] - g_vals[k, j])
                dist = distance_to(g_vals[k, j],
                                   spec.set_at(grid.nodes[k], y_vals[k, j],
                                               np.zeros(d)))
                assert abs(moved - dist) <= 1e-6


def test_picard_differences_non_increasing_from_second_iteration(ball_run=None):
    prob = _ball_problem()
    _, rep = solve(prob, SolverConfig(steps_per_window=10, n_paths=2_000,
                                      seed=21, min_iter=8))
    for w in rep.windows:
        sums = [r.dy + r.dz for r in w.iterations]
        assert all(a >= b for a, b in zip(sums[1:], sums[2:]))


def test_picard_decay_at_boundary_schedule():
    # the singleton scaling problem sits exactly at the margin
    # beta sqrt(delta) = 1/2; decay must still be geometric with the observed
    # ratio bounded away from one
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1, a_y=0.5))
    _, rep = solve(prob, SolverConfig(steps_per_window=10, n_paths=2_000,
                                      seed=30, min_iter=6))
    assert rep.schedule.beta * math.sqrt(rep.schedule.delta) == pytest.approx(
        0.5, abs=1e-12)
    for w in rep.windows:
        ratios = [r.ratio for r in w.iterations if r.ratio is not None]
        assert ratios and max(ratios) <= 0.9


def test_solve_linear_terminal_matches_closed_form():
    # g = Y / 2 on the singleton, xi = W_T: Y_t = exp(-(1 - t) / 2) W_t
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1, a_y=0.5))
    cfg = SolverConfig(steps_per_window=20, n_paths=4_000, seed=3)
    sol, rep = solve(prob, cfg)
    assert rep.converged
    grid = sol.y.grid
    w = sol.bm.levels
    for k in range(0, grid.n_steps + 1, 30):
        exact = np.exp(-0.5 * (1.0 - grid.nodes[k])) * w[k]
        rms = np.sqrt(np.mean((sol.y.values[k][:, 0] - exact) ** 2))
        assert rms <= 0.05


def test_solve_counts_ridge_fallbacks_of_window_designs(monkeypatch):
    # a duplicated basis column makes every window design rank-deficient:
    # each step's basis projection and kernel design fall back to ridge once
    import bsei.paths
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=4, n_paths=500, seed=25)
    _, plain = solve(prob, cfg)
    assert plain.ridge_events == 0
    design = bsei.paths._monomial_design

    def duplicated_last_column(features, degree):
        x = design(features, degree)
        return np.column_stack([x, x[:, -1]])
    monkeypatch.setattr(bsei.paths, "_monomial_design", duplicated_last_column)
    _, rep = solve(prob, cfg)
    assert rep.converged
    assert rep.ridge_events == 2 * rep.n_steps_total


def _stacked_inclusion_residual(sol, problem):
    """The inclusion residual over the whole (N + 1, M, d) stack at once:
    the reference for the node-by-node form."""
    gv = sol.g.values
    gap = gv - select_generator(gv, sol.y.values, sol.z.values, sol.g.grid.nodes,
                                problem.gspec)
    return float(np.max(np.linalg.norm(gap, axis=-1)))


@pytest.mark.parametrize("shape, extra", [
    ("ball", {"radius": 0.2}),
    ("polytope", {"offsets": np.array([[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25],
                                       [-0.15, 0.15]])}),
])
def test_inclusion_residual_node_by_node_matches_stacked_formula(shape, extra):
    d = 2
    prob = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=d, generator=np.diag([-1.0, -0.5]),
        terminal=TerminalSpec("linear", [0.3, 0.3]),
        gspec=SetValuedSpec(dim=d, shape=shape, a_y=-0.3 * np.eye(d),
                            a_z=np.zeros((d, d)), lipschitz_k=0.3,
                            c0=lambda t: np.array([0.1 * t, -0.05]), **extra))
    sol, rep = solve(prob, SolverConfig(steps_per_window=4, n_paths=400, seed=26))
    assert rep.inclusion_residual == _stacked_inclusion_residual(sol, prob)
    # g moved off its sets at the first or the last node only: a gap far
    # above rounding that each end of the backward pass must see
    grid = sol.g.grid
    noise = np.random.default_rng(27).normal(size=sol.g.values.shape[1:])
    for node in (0, grid.n_steps):
        g = sol.g.values.copy()
        g[node] += 5.0 * noise
        moved = Solution(y=sol.y, z=sol.z, g=ProcessEnsemble(grid, g),
                         bm=sol.bm, s_dt=sol.s_dt)
        got = verify_solution(moved, prob).inclusion_max
        assert got > 1.0
        assert got == _stacked_inclusion_residual(moved, prob)


def test_verify_reports_continuity_modulus():
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=10, n_paths=2_000, seed=22)
    sol, _ = solve(prob, cfg)
    grid = sol.y.grid
    res = verify_solution(sol, prob)
    # one-step increments of Y scale like sqrt(dt) for a diffusion-driven Y
    assert 0.0 < res.y_modulus <= 10.0 * np.sqrt(grid.dt)


def test_verify_z_crosscheck_trivial_case():
    # no generator, martingale terminal: the rebuilt Z must match the solver's
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1))
    cfg = SolverConfig(steps_per_window=10, n_paths=10_000, seed=19)
    sol, _ = solve(prob, cfg)
    grid = sol.y.grid
    res = verify_solution(sol, prob)
    res.z_checks = z_crosscheck(sol, cfg.basis_degree, grid.n_steps)
    # per-node estimator noise ~ sqrt(6 p_basis / M); three of those
    bound = 3.0 * np.sqrt(6.0 * 3.0 / cfg.n_paths)
    for zc in res.z_checks:
        assert zc.discrepancy <= bound
        assert abs(zc.z_norm - 1.0) <= 0.05


def test_verify_z_crosscheck_with_generator():
    # g = 0.5 Y is nonzero, so the rebuilt Z must carry the generator with the
    # scheme's sign, Y[k] = E[S Y[k+1] | F_k] - dt g[k], to match the solver's
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1, a_y=0.5))
    cfg = SolverConfig(steps_per_window=10, n_paths=10_000, seed=19)
    sol, _ = solve(prob, cfg)
    grid = sol.y.grid
    res = verify_solution(sol, prob)
    res.z_checks = z_crosscheck(sol, cfg.basis_degree, grid.n_steps)
    bound = 3.0 * np.sqrt(6.0 * 3.0 / cfg.n_paths)
    assert len(res.z_checks) == grid.n_steps
    for zc in res.z_checks:
        assert zc.discrepancy <= bound


def _rebuild_z_per_source(sol, generator, basis_degree, nodes):
    """The explicit Z rebuild written as one tower chain per source node,
    quadratic in the step count, with every S(t_s - t_u) an exponential of
    its own: the reference for the one-sweep form."""
    from bsei.paths import KernelRegression, PolynomialRegression
    bm = sol.bm
    n, dt = sol.y.grid.n_steps, sol.y.grid.dt
    cache = SemigroupCache.build(generator, dt, n)
    regs = [PolynomialRegression(bm.levels[k], basis_degree) for k in range(n)]
    out = {u: np.zeros((bm.n_paths, sol.z.dim)) for u in nodes}
    sources = [(sol.y.values[n], n, 1.0)] + [
        (sol.g.values[s], s, -dt) for s in range(1, n)]
    for source, s_src, weight in sources:
        cond = source
        for k in range(s_src - 1, -1, -1):
            if k in out:
                kern = KernelRegression(regs[k], bm.increments[k], dt).kernel(cond)
                out[k] += weight * (kern @ cache.power(s_src - k).T)
            cond = regs[k].fit(cond).values
    return out


def test_rebuild_z_one_sweep_matches_per_source_chains():
    from bsei.solver import _rebuild_z
    prob = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2,
        generator=np.array([[-1.0, 0.4], [-0.3, -0.5]]),
        terminal=TerminalSpec("quadratic", [1.0, 0.5]),
        gspec=SetValuedSpec(dim=2, shape="ball", a_y=np.array([[-0.3, 0.1], [0.0, 0.2]]),
                            a_z=np.zeros((2, 2)), lipschitz_k=0.4, radius=0.1))
    sol, _ = solve(prob, SolverConfig(steps_per_window=4, n_paths=600, seed=23))
    n = sol.y.grid.n_steps
    assert np.abs(sol.g.values).max() > 0.1
    nodes = [0, 1, n // 2, n - 2, n - 1]
    got = _rebuild_z(sol, 2, nodes)
    want = _rebuild_z_per_source(sol, prob.generator, 2, nodes)
    assert sorted(got) == nodes
    for u in nodes:
        scale = np.abs(want[u]).max()
        assert scale > 0.0
        assert np.abs(got[u] - want[u]).max() <= 1e-12 * scale


def test_z_crosscheck_fits_at_most_once_per_step(monkeypatch):
    from bsei.paths import PolynomialRegression
    from bsei.solver import z_crosscheck
    sol, _ = solve(_ball_problem(), SolverConfig(steps_per_window=10,
                                                 n_paths=1_000, seed=24))
    n = sol.y.grid.n_steps
    calls = []
    fit = PolynomialRegression.fit

    def counted(self, targets):
        calls.append(1)
        return fit(self, targets)
    monkeypatch.setattr(PolynomialRegression, "fit", counted)
    checks = z_crosscheck(sol, 2, n)
    assert len(checks) == n
    assert 0 < len(calls) <= n
