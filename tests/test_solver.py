import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsei.errors import NonConvergenceError
from bsei.geometry import Ball, Polytope, SetValuedSpec, Singleton
from bsei.paths import TimeGrid, _lp_l2, simulate_brownian, step_designs
from bsei.semigroup import SemigroupCache, gamma_bound, matrix_exponential
from bsei.solver import (
    BSEIProblem,
    SolverConfig,
    TerminalSpec,
    Solution,
    picard_solve_interval,
    schedule_from_constants,
    select_generator,
    solve,
    solve_linear_bsee,
    verify_solution,
)


def singleton_spec(dim, a_y=0.0, a_z=0.0):
    return SetValuedSpec(base=Singleton(np.zeros(dim)), a_y=a_y * np.eye(dim),
                         a_z=a_z * np.eye(dim))


# ----------------------------------------------------------------- schedule

def test_schedule_degenerate_zero_lipschitz():
    s = schedule_from_constants(0.0, 1.0, 2.0, 1.0)
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
        schedule_from_constants(1.0, math.inf, 1.0, 1.0)  # beta = inf
    with pytest.raises(ScheduleError):
        schedule_from_constants(1e200, 1.0, 1.0, 1.0)  # beta^2 overflows: delta = 0


def test_schedule_uses_semigroup_bound():
    a = 0.5 * np.eye(2)
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=2, generator=a,
                       terminal=TerminalSpec("constant", [1.0, 0.0]),
                       gspec=singleton_spec(2, a_y=1.0))
    s = schedule_from_constants(prob.gspec.lipschitz_k, gamma_bound(a, prob.horizon),
                                prob.horizon, 1.0)
    assert s.gamma_s == pytest.approx(np.exp(0.5), rel=1e-15)


# --------------------------------------------------------------- selection

def _select(grid, m, d, spec, g=None, y=None, z=None):
    """select_generator on the whole grid, an absent g, y or z taken as zero."""
    zero = np.zeros((grid.n_steps + 1, m, d))
    return select_generator(*(zero if v is None else v for v in (g, y, z)),
                            grid.nodes, spec)


def _sweep(g, terminal, s_dt, bm, degree):
    """solve_linear_bsee on the N left-endpoint nodes of the grid of ``bm``,
    from Y at T: (Y, Z)."""
    return solve_linear_bsee(g, terminal, s_dt, bm.grid.dt,
                             step_designs(bm, 0, bm.levels[:-1], degree))


def test_select_singleton_ignores_previous():
    grid = TimeGrid(1.0, 4)
    m, d = 8, 2
    rng = np.random.default_rng(1)
    y = rng.normal(size=(5, m, d))
    spec = singleton_spec(d, a_y=0.7)
    out = _select(grid, m, d, spec, g=rng.normal(size=(5, m, d)), y=y)
    assert np.allclose(out, 0.7 * y)


def test_select_fixed_point_inside_set():
    grid = TimeGrid(1.0, 3)
    m, d = 5, 2
    g_vals = 0.05 * np.random.default_rng(2).normal(size=(4, m, d))
    spec = SetValuedSpec(base=Ball(np.zeros(d), 1.0), a_y=np.zeros((d, d)),
                         a_z=np.zeros((d, d)))
    out = _select(grid, m, d, spec, g=g_vals)
    assert np.array_equal(out, g_vals)  # already inside: untouched


def test_select_ball_closed_form():
    grid = TimeGrid(1.0, 2)
    m, d = 3, 2
    r = 0.4
    u = np.array([0.6, 0.8])
    g_vals = np.tile(2.0 * r * u, (3, m, 1))
    spec = SetValuedSpec(base=Ball(np.zeros(d), r), a_y=np.zeros((d, d)),
                         a_z=np.zeros((d, d)))
    out = _select(grid, m, d, spec, g=g_vals)
    assert np.allclose(out, np.tile(r * u, (3, m, 1)), atol=1e-14)


def test_select_polytope_shape():
    grid = TimeGrid(1.0, 1)
    m, d = 4, 2
    off = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    spec = SetValuedSpec(base=Polytope(off), a_y=np.eye(d),
                         a_z=np.zeros((d, d)))
    rng = np.random.default_rng(3)
    y_vals = rng.normal(size=(2, m, d))
    out = _select(grid, m, d, spec, y=y_vals)
    from bsei.geometry import distance_to
    for k in range(2):
        for j in range(m):
            assert distance_to(out[k, j],
                               Polytope(y_vals[k, j] + off)) <= 1e-6


_MAPS = ("zero", "identity", "zero identity", "negative identity", "diagonal", "dense")


def _centre_map(kind, d, rng):
    if kind == "zero":
        return np.zeros((d, d))
    if kind.endswith("identity"):
        s = {"identity": 0.7, "zero identity": 0.0, "negative identity": -0.3}[kind]
        return s * np.eye(d)
    if kind == "diagonal":  # a multiple of the identity only at d = 1
        return np.diag(np.linspace(-0.5, 0.4, d))
    return rng.normal(size=(d, d))


def _bases(d, rng):
    return {"singleton": Singleton(rng.normal(size=d)),
            "ball": Ball(rng.normal(size=d), 0.3),
            "polytope": Polytope(rng.normal(size=(d + 2, d)))}


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["singleton", "ball", "polytope"]), d=st.integers(1, 3),
       a_y=st.sampled_from(_MAPS), a_z=st.sampled_from(_MAPS),
       c0=st.sampled_from([None, "constant", "callable"]), m=st.integers(1, 40),
       nodes=st.integers(1, 6), per_chunk=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
# singletons and c0 shifts add their (d,) vectors one coordinate at a time
@example(shape="singleton", d=2, a_y="zero", a_z="zero", c0=None, m=7, nodes=3,
         per_chunk=2, seed=1)
@example(shape="singleton", d=3, a_y="dense", a_z="identity", c0="constant", m=5,
         nodes=4, per_chunk=3, seed=2)
@example(shape="singleton", d=2, a_y="identity", a_z="zero", c0="callable", m=6,
         nodes=5, per_chunk=2, seed=3)
@example(shape="ball", d=3, a_y="diagonal", a_z="zero", c0="callable", m=4, nodes=1,
         per_chunk=1, seed=4)
@example(shape="polytope", d=2, a_y="zero", a_z="dense", c0="constant", m=3, nodes=6,
         per_chunk=3, seed=5)
def test_chunked_selection_is_bitwise_the_stacked_formula(shape, d, a_y, a_z, c0, m,
                                                         nodes, per_chunk, seed):
    # an entry budget of per_chunk whole nodes: chunks of one node or of
    # several, the last one partial when per_chunk does not divide nodes
    from bsei import geometry
    from bsei.geometry import project
    rng = np.random.default_rng(seed)
    offset = rng.normal(size=d)
    spec = SetValuedSpec(
        base=_bases(d, rng)[shape], a_y=_centre_map(a_y, d, rng),
        a_z=_centre_map(a_z, d, rng),
        c0={None: None, "constant": offset,
            "callable": lambda t: np.sin(t + offset)}[c0])
    times = np.linspace(0.0, 1.0, nodes)
    g, y, z = rng.normal(size=(3, nodes, m, d))
    # the formula before chunking: one centre stack, in this order of sums
    c = y @ spec.a_y.T
    if c0 == "callable":
        c = c + np.array([spec.c0(t) for t in times])[:, None, :]
    elif c0 == "constant":
        c = c + spec.c0
    c = c + z @ spec.a_z.T
    want = c + project(g - c, spec.base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ENTRIES", per_chunk * m * d)
        got = select_generator(g, y, z, times, spec)
        per_node = [select_generator(g[k:k + 1], y[k:k + 1], z[k:k + 1],
                                     times[k:k + 1], spec) for k in range(nodes)]
    assert got.tobytes() == want.tobytes()
    assert np.concatenate(per_node).tobytes() == got.tobytes()


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["singleton", "ball", "polytope"]), d=st.integers(1, 3),
       m=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_zero_stack_selection_is_the_minimal_norm_point(shape, d, m, seed):
    # m = P_{c + B}(0) iff m lies in c + B and <m, x - m> >= 0 for every x in
    # c + B, whose least <m, x> is <m, c> - sigma_B(-m), the batched support.
    # Every term is a sum of d products of numbers at most `reach` in size,
    # and projection and sums round each to a few ulps of reach^2, so
    # 1e-12 reach^2 (1e-12 reach for the distance) leaves room for rounding
    # alone, while the nearest point of c + B to another g misses by O(1)
    from bsei.geometry import _dot_last, distance_to
    rng = np.random.default_rng(seed)
    spec = SetValuedSpec(base=_bases(d, rng)[shape], a_y=rng.normal(size=(d, d)),
                         a_z=rng.normal(size=(d, d)), c0=rng.normal(size=d))
    times = np.linspace(0.0, 1.0, 3)
    y, z = rng.normal(size=(2, 3, m, d))
    sel = select_generator(np.broadcast_to(0.0, y.shape), y, z, times, spec)
    c = spec.center_batch(times, y, z)
    centres, radii = spec.base._balls
    reach = 1.0 + np.abs(c).max() + np.abs(centres).max() + radii.max()
    assert distance_to(sel - c, spec.base).max() <= 1e-12 * reach
    least = _dot_last(sel, c) - spec.base._support(-sel)
    assert np.all(least >= _dot_last(sel, sel) - 1e-12 * reach**2)


# ------------------------------------------------------------- linear solve

def test_linear_solve_constant_terminal():
    grid = TimeGrid(1.0, 12)
    m = 2_000
    bm = simulate_brownian(grid, m, seed=4)
    s_dt = matrix_exponential(grid.dt * np.zeros((1, 1)))
    y, z = _sweep(np.zeros((12, m, 1)), np.full((m, 1), 3.0), s_dt, bm, 2)
    assert y.shape == z.shape == (12, m, 1)
    assert np.abs(y - 3.0).max() <= 1e-10
    assert np.abs(z).max() <= 1e-10


def test_linear_solve_martingale_terminal():
    grid = TimeGrid(1.0, 25)
    m = 20_000
    bm = simulate_brownian(grid, m, seed=5)
    s_dt = matrix_exponential(grid.dt * np.zeros((1, 1)))
    y, z = _sweep(np.zeros((25, m, 1)), bm.levels[-1][:, None], s_dt, bm, 2)
    for k in range(25):
        dev = np.sqrt(np.mean((y[k][:, 0] - bm.levels[k]) ** 2))
        se = np.sqrt(3.0 * (1.0 - grid.nodes[k]) / m)  # accumulated fit noise
        assert dev <= 3.0 * se + 1e-12
    for k in range(25):
        dev = np.sqrt(np.mean((z[k][:, 0] - 1.0) ** 2))
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
    y = np.zeros((50, m, 1))
    for _ in range(12):
        y, _ = _sweep(a * y, term, s_dt, bm, 2)
    exact = np.exp(-a * (1.0 - grid.nodes))
    err = max(np.abs(y[k] - exact[k]).max() / exact[k] for k in range(50))
    assert err <= 0.02  # O(dt) one-step bias at dt = 0.02


def test_linear_solve_terminal_exact_bitwise():
    # the sweep reads the terminal without storing it: solve sets Y at node
    # N to the sampled terminal data itself
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=2, generator=np.eye(2),
                       terminal=TerminalSpec("quadratic", [0.7, -1.3]),
                       gspec=singleton_spec(2, a_y=0.2))
    sol, _ = solve(prob, SolverConfig(steps_per_window=5, n_paths=300, seed=7,
                                      basis_degree=1))
    assert sol.y[-1].tobytes() == prob.terminal.sample(sol.bm.levels[-1]).tobytes()


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(["singleton", "ball", "polytope"]), d=st.integers(1, 3),
       m=st.integers(40, 80), n=st.integers(1, 5), k_lo=st.integers(0, 3),
       degree=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
# W at time zero: the first step's design is one column of its slab
@example(shape="ball", d=2, m=40, n=3, k_lo=0, degree=2, seed=1)
def test_writes_into_a_workspace_are_bitwise_the_fresh_outputs(shape, d, m, n, k_lo,
                                                                degree, seed):
    # a Picard iteration's writes into buffers that hold another window's
    # data: the selection into one stack, the sweep's Y over that same g and
    # its Z into a second, and the designs into a block, each the bits of
    # the call that allocates its own output
    rng = np.random.default_rng(seed)
    spec = SetValuedSpec(base=_bases(d, rng)[shape], a_y=_centre_map("dense", d, rng),
                         a_z=_centre_map("diagonal", d, rng), c0=rng.normal(size=d))
    bm = simulate_brownian(TimeGrid(1.0, k_lo + n), m, seed)
    s_dt = matrix_exponential(bm.grid.dt * (-np.eye(d) + 0.3 * rng.normal(size=(d, d))))
    times = bm.grid.nodes[k_lo:k_lo + n]
    y, z, buf_g, buf_z = rng.normal(size=(4, n, m, d))  # the buffers hold stale data
    terminal = rng.normal(size=(m, d))
    zero = np.broadcast_to(0.0, y.shape)
    levels = bm.levels[k_lo:k_lo + n]
    block = rng.normal(size=(n, degree + 1, m))

    g = select_generator(zero, y, z, times, spec, out=buf_g)
    want_g = select_generator(zero, y, z, times, spec)
    assert g is buf_g and g.tobytes() == want_g.tobytes()
    designs = step_designs(bm, k_lo, levels, degree, out=block)
    fresh = step_designs(bm, k_lo, levels, degree)
    for (base, kern), (want_base, want_kern) in zip(designs, fresh):
        assert np.shares_memory(base._design, block)
        assert base._design.tobytes() == want_base._design.tobytes()
        assert base._r_inv.tobytes() == want_base._r_inv.tobytes()
        assert (kern._s.tobytes(), kern._c.tobytes()) == (want_kern._s.tobytes(),
                                                          want_kern._c.tobytes())
    got = solve_linear_bsee(g, terminal, s_dt, bm.grid.dt, designs, out=(g, buf_z))
    want = solve_linear_bsee(want_g, terminal, s_dt, bm.grid.dt, fresh)
    assert got[0] is g and got[1] is buf_z
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_workspace_outputs_refuse_an_aliased_z():
    # Y may be written over g, since step k reads g[k] before it writes
    # Y[k], but Z is written first, so it may share neither
    prob = _ball_problem()
    bm = simulate_brownian(TimeGrid(1.0, 4), 50, 3)
    designs = step_designs(bm, 0, bm.levels[:4], 1)
    g, other = np.zeros((2, 4, 50, 2))
    s_dt = matrix_exponential(bm.grid.dt * prob.generator)
    for out in ((g, g), (other, g), (g, other[:3])):
        with pytest.raises(ValueError, match="shaped like the source"):
            solve_linear_bsee(g, np.ones((50, 2)), s_dt, bm.grid.dt, designs, out=out)
    with pytest.raises(ValueError, match="out of shape"):
        select_generator(g, g, g, bm.grid.nodes[:4], prob.gspec, out=other[:3])


@pytest.mark.parametrize("coeff", [[1e-300, -0.0], [-0.0, 1e300], [1e300, 1e-300]])
def test_terminal_sample_is_coeff_times_a_power_of_w_t(coeff):
    # kind picks the power of W_T: the bits of the tiled constant, of
    # outer(W_T, c) and of outer(W_T^2, c)
    bm = simulate_brownian(TimeGrid(1.0, 3), 50, 4)
    w, c = bm.levels[-1], np.array(coeff)
    want = {"constant": np.tile(c, (50, 1)), "linear": np.outer(w, c),
            "quadratic": np.outer(w**2, c)}
    for kind, xi in want.items():
        assert TerminalSpec(kind, coeff).sample(w).tobytes() == xi.tobytes()
    for kind in ("cubic", "", ["linear"], None):
        with pytest.raises(ValueError, match="unknown terminal kind"):
            TerminalSpec(kind, coeff)


# ------------------------------------------------------------ picard window

def _ball_problem(d=2, radius=0.2, pull=-0.3):
    return BSEIProblem(
        horizon=1.0, exponent=2.0, dim=d, generator=np.diag([-1.0, -0.5]),
        terminal=TerminalSpec("linear", np.ones(d)),
        gspec=SetValuedSpec(base=Ball(np.zeros(d), radius), a_y=pull * np.eye(d),
                            a_z=np.zeros((d, d))))


def test_picard_singleton_constant_two_iterations():
    d = 1
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=d,
                       generator=np.zeros((d, d)),
                       terminal=TerminalSpec("constant", [2.0]),
                       gspec=SetValuedSpec(base=Singleton(np.zeros(d)),
                                           a_y=np.zeros((d, d)),
                                           a_z=np.zeros((d, d)),
                                           c0=np.array([0.0])))
    bm = simulate_brownian(TimeGrid(1.0, 16), 500, seed=9)
    sched = schedule_from_constants(prob.gspec.lipschitz_k,
                                    gamma_bound(prob.generator, prob.horizon),
                                    prob.horizon, 1.0)
    s_dt = matrix_exponential(bm.grid.dt * prob.generator)
    y, z, g, rep = picard_solve_interval(prob, 3, np.full((500, 1), 2.0),
                                         sched, s_dt, bm,
                                         SolverConfig(steps_per_window=4,
                                                      basis_degree=1), bm.levels[12])
    assert rep.converged
    assert len(rep.iterations) == 2
    assert rep.iterations[1].dy + rep.iterations[1].dz <= 1e-12


def test_picard_nonconvergence_carries_report():
    prob = _ball_problem()
    bm = simulate_brownian(TimeGrid(1.0, 16), 600, seed=10)
    sched = schedule_from_constants(prob.gspec.lipschitz_k,
                                    gamma_bound(prob.generator, prob.horizon),
                                    prob.horizon, 1.0)
    with pytest.raises(NonConvergenceError) as exc:
        picard_solve_interval(prob, 3, np.ones((600, 2)), sched,
                              matrix_exponential(bm.grid.dt * prob.generator), bm,
                              SolverConfig(steps_per_window=4, basis_degree=1,
                                           tol=1e-16, n_max=3), bm.levels[12])
    assert exc.value.report is not None
    assert len(exc.value.report.iterations) == 3


def test_window_length_guard():
    prob = _ball_problem()
    bm = simulate_brownian(TimeGrid(1.0, 8), 600, seed=11)
    sched = schedule_from_constants(prob.gspec.lipschitz_k,
                                    gamma_bound(prob.generator, prob.horizon),
                                    prob.horizon, 1.0)
    s_dt = matrix_exponential(bm.grid.dt * prob.generator)
    assert sched.delta < 0.75
    # one window over the whole grid is too long; the windows of index 8
    # and -1 have a permitted length but leave the grid's 8 steps
    for index, steps in ((0, 8), (8, 1), (-1, 1)):
        with pytest.raises(ValueError):
            picard_solve_interval(prob, index, np.ones((600, 2)), sched,
                                  s_dt, bm,
                                  SolverConfig(steps_per_window=steps,
                                               basis_degree=1), np.zeros(600))


# ------------------------------------------------------------------ solve

def test_solve_single_window_matches_interval_call():
    # replay every window by hand, each from the replayed Y of the window
    # after it: the stitched solution is bitwise identical, for two counts
    for a_y, n_win in ((0.25, 4), (0.5, 9)):
        prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                           generator=np.zeros((1, 1)),
                           terminal=TerminalSpec("constant", [1.5]),
                           gspec=singleton_spec(1, a_y=a_y))
        cfg = SolverConfig(steps_per_window=8, n_paths=400, seed=12)
        sol, rep = solve(prob, cfg)
        assert rep.schedule.n_windows == n_win
        grid = sol.grid
        bm = simulate_brownian(grid, 400, 12)
        s_dt = matrix_exponential(grid.dt * prob.generator)
        terminal = prob.terminal.sample(bm.levels[-1])
        for w in range(n_win - 1, -1, -1):
            y, z, g, wrep = picard_solve_interval(prob, w, terminal, rep.schedule,
                                                  s_dt, bm, cfg, bm.levels[8 * w])
            k_lo, k_hi = wrep.k_lo, wrep.k_hi
            assert (k_lo, k_hi) == (8 * w, 8 * w + 8)
            for got, want in ((sol.y, y), (sol.z, z), (sol.g, g)):
                assert np.array_equal(got[k_lo:k_hi], want)
            terminal = y[0]


def test_solve_linear_bsde_closed_form_oracle():
    a = 0.5
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("constant", [1.0]),
                       gspec=singleton_spec(1, a_y=a))
    sol, rep = solve(prob, SolverConfig(steps_per_window=50, n_paths=10_000,
                                        seed=13))
    nodes = sol.grid.nodes
    exact = np.exp(-a * (1.0 - nodes))
    rel = max(np.abs(sol.y[k] - exact[k]).max() / exact[k]
              for k in range(len(nodes)))
    assert rel <= 0.05
    assert rep.converged
    assert rep.inclusion_residual <= 1e-8


def test_solve_ball_radius_zero_equals_singleton():
    mk = lambda base: BSEIProblem(
        horizon=1.0, exponent=2.0, dim=1, generator=np.zeros((1, 1)),
        terminal=TerminalSpec("linear", [1.0]),
        gspec=SetValuedSpec(base=base, a_y=-0.4 * np.eye(1),
                            a_z=np.zeros((1, 1))))
    cfg = SolverConfig(steps_per_window=8, n_paths=500, seed=14)
    s1, _ = solve(mk(Singleton(np.zeros(1))), cfg)
    s2, _ = solve(mk(Ball(np.zeros(1), 0.0)), cfg)
    for a, b in [(s1.y, s2.y), (s1.z, s2.z), (s1.g, s2.g)]:
        assert np.abs(a - b).max() <= 1e-12


def test_solve_terminal_condition_exact_per_path():
    prob = _ball_problem()
    sol, _ = solve(prob, SolverConfig(steps_per_window=8, n_paths=500, seed=15))
    grid = sol.grid
    bm = simulate_brownian(grid, 500, 15)
    xi = prob.terminal.sample(bm.levels[-1])
    assert np.array_equal(sol.y[-1], xi)


def test_solve_singleton_reduction_matches_plain_pipeline():
    # singleton-valued maps reduce to the plain linear pipeline bitwise
    a = 0.35
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1, a_y=a))
    cfg = SolverConfig(steps_per_window=6, n_paths=400, seed=16)
    sol, rep = solve(prob, cfg)

    grid = sol.grid
    bm = simulate_brownian(grid, 400, 16)
    s_dt = matrix_exponential(grid.dt * prob.generator)
    sched = rep.schedule
    n_w = cfg.steps_per_window
    y_all = np.zeros((grid.n_steps + 1, 400, 1))
    z_all = np.zeros_like(y_all)
    g_all = np.zeros_like(y_all)
    y_all[-1] = bm.levels[-1][:, None]  # node N: (xi, 0) and its selection
    g_all[-1] = a * y_all[-1]
    for w in range(sched.n_windows - 1, -1, -1):
        k_lo, k_hi = w * n_w, (w + 1) * n_w
        n = k_hi - k_lo
        designs = step_designs(bm, k_lo, bm.levels[k_lo:k_hi], cfg.basis_degree)
        y = np.tile(y_all[k_hi].mean(axis=0), (n, 400, 1))  # the terminal mean
        z = np.zeros_like(y)
        g = np.zeros_like(y)
        for it in range(1, cfg.n_max + 1):
            g_new = a * y  # direct evaluation of the singleton center map
            y_new, z_new = solve_linear_bsee(g_new, y_all[k_hi], s_dt, grid.dt,
                                             designs)
            dy = np.sqrt(np.mean(grid.dt * np.sum((y_new - y) ** 2, axis=(0, 2))))
            dz = np.sqrt(np.mean(grid.dt * np.sum((z_new - z) ** 2, axis=(0, 2))))
            y, z, g = y_new, z_new, g_new
            if it >= 2 and dy + dz <= cfg.tol:
                break
        g = a * y  # trailing selection
        y_all[k_lo:k_hi], z_all[k_lo:k_hi], g_all[k_lo:k_hi] = y, z, g
    assert np.abs(sol.y - y_all).max() <= 1e-12
    assert np.abs(sol.z - z_all).max() <= 1e-12
    assert np.abs(sol.g - g_all).max() <= 1e-12


def test_constant_terminal_saves_the_sweep_a_zero_start_spends():
    # xi = 1 with a singleton G: a zero start's first sweep, with g = 0, gives
    # back each window's terminal mean at every node, where the solve's loop
    # starts, so that loop needs one iteration fewer to reach the same
    # (Y, Z, g); a zero-start loop written here is the reference
    a = 0.5
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("constant", [1.0]),
                       gspec=singleton_spec(1, a_y=a))
    cfg = SolverConfig(steps_per_window=6, n_paths=400, seed=16)
    sol, rep = solve(prob, cfg)
    assert [len(w.iterations) for w in rep.windows] == [2] * rep.schedule.n_windows

    grid, n, m = sol.grid, cfg.steps_per_window, cfg.n_paths
    y_all, z_all, g_all = (np.empty_like(sol.y) for _ in range(3))
    y_all[-1], z_all[-1], g_all[-1] = sol.y[-1], sol.z[-1], sol.g[-1]
    zero = np.zeros((n, m, 1))
    iterations = []
    for w in range(rep.schedule.n_windows - 1, -1, -1):
        k_lo, k_hi = w * n, (w + 1) * n
        times = grid.nodes[k_lo:k_hi]
        designs = step_designs(sol.bm, k_lo, sol.bm.levels[k_lo:k_hi], cfg.basis_degree)
        y = z = zero
        for it in range(1, cfg.n_max + 1):
            g = select_generator(zero, y, z, times, prob.gspec)
            y_new, z_new = solve_linear_bsee(g, y_all[k_hi], sol.s_dt, grid.dt, designs)
            dy, dz = _lp_l2(y_new, y, grid.dt, 2.0), _lp_l2(z_new, z, grid.dt, 2.0)
            y, z = y_new, z_new
            if it >= cfg.min_iter and dy + dz <= cfg.tol:
                break
        iterations.insert(0, it)
        y_all[k_lo:k_hi], z_all[k_lo:k_hi] = y, z
        g_all[k_lo:k_hi] = select_generator(zero, y, z, times, prob.gspec)
    assert iterations == [3] * rep.schedule.n_windows
    for got, want in ((sol.y, y_all), (sol.z, z_all), (sol.g, g_all)):
        assert got.tobytes() == want.tobytes()


def test_no_window_touches_its_right_end(monkeypatch):
    # every sweep of a window runs on its steps_per_window left-endpoint
    # nodes; node N is set once, before the windows: (xi, 0) and the one
    # selection there from g = 0
    import bsei.solver
    sweep, seen = bsei.solver.solve_linear_bsee, []

    def spy(g, terminal, s_dt, dt, designs, **kwargs):
        seen.append((len(g), len(designs)))
        return sweep(g, terminal, s_dt, dt, designs, **kwargs)
    monkeypatch.setattr(bsei.solver, "solve_linear_bsee", spy)
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=4, n_paths=500, seed=29)
    sol, rep = solve(prob, cfg)
    assert rep.schedule.n_windows >= 3
    assert len(seen) == sum(len(w.iterations) for w in rep.windows)
    assert set(seen) == {(4, 4)}
    n, m = sol.grid.n_steps, cfg.n_paths
    xi = prob.terminal.sample(sol.bm.levels[-1])
    assert np.array_equal(sol.z[n], np.zeros((m, 2)))
    zero = np.zeros((1, m, 2))
    want = select_generator(zero, xi[None], zero, sol.grid.nodes[n:], prob.gspec)
    assert np.abs(want).max() > 0.0
    assert sol.g[n].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("shape", ["singleton", "ball", "polytope"])
def test_solve_reports_the_minimal_norm_selection(shape):
    # the inclusion has many solutions; the one reported has g = m(G(t, Y, Z)),
    # the point of each constraint set nearest to zero, at every node, so it
    # does not depend on where the Picard loop starts
    prob = _scaled_problem(shape, 0)  # c0 and a_z both nonzero
    sol, rep = solve(prob, SolverConfig(steps_per_window=4, n_paths=300, seed=31))
    assert rep.converged and len(rep.windows) > 1
    want = select_generator(np.zeros_like(sol.g), sol.y, sol.z, sol.grid.nodes,
                            prob.gspec)
    assert sol.g.tobytes() == want.tobytes()


def test_memory_budget_counts_window_iterates_and_designs(monkeypatch):
    # per path at N = 16, d = 2, 4 windows of n = 4: 8 (6 * 17 + 16) = 944
    # bytes of Y, Z, g and dW over the whole grid, 8 (5 + 5) = 80 of W at the
    # 5 window edges and in the workspace's n + 1 rows, and 8 (4 * 2 * 4 + 4
    # * 2 + 4 * 3) = 416 for the workspace's four (n, M, d) stacks, the four
    # (M, d) arrays beside them and the window's designs: 1,440 bytes.
    # Streamed, the full-grid array is dW alone, 8 * 16 + 80 + 416 = 624
    # bytes.  Beside them a solve plans 8 * 8 * 2^16 = 4,194,304 bytes of
    # chunk-bounded temporaries, so 500 paths need 4,914,304 bytes kept and
    # 4,506,304 streamed: one byte less is refused, naming the path count
    import bsei.solver
    from bsei.errors import ScheduleError
    cfg = SolverConfig(steps_per_window=4, n_paths=500, seed=29)
    for need, keep_paths in ((4_914_304, True), (4_506_304, False)):
        monkeypatch.setattr(bsei.solver, "_physical_memory", lambda b=need - 1: b)
        with pytest.raises(ScheduleError) as exc:
            solve(_ball_problem(), cfg, keep_paths=keep_paths)
        assert exc.value.field == "numerics.paths"
    monkeypatch.setattr(bsei.solver, "_physical_memory", lambda: 4_914_304)
    assert solve(_ball_problem(), cfg)[1].converged
    monkeypatch.setattr(bsei.solver, "_physical_memory", lambda: 4_506_304)
    sol, rep = solve(_ball_problem(), cfg, keep_paths=False)
    assert sol is None and rep.converged
    with pytest.raises(ScheduleError):
        solve(_ball_problem(), cfg)


@pytest.mark.parametrize("config, keep_paths", [
    pytest.param(config, keep, id=config + ("" if keep else "-streamed"))
    for keep in (True, False) for config in ("ball_demo", "singleton_demo")])
def test_traced_peak_stays_within_the_memory_budget(config, keep_paths):
    # the budget counts every array a solve holds at once, per path and the
    # fixed chunk-bounded temporaries, so the traced peak stays within it;
    # polytope_small is left out, its projection temporaries are bounded
    # by geometry._CHUNK_ENTRIES and so are fixed
    from bsei.cli import load_config
    from bsei.solver import _bytes_per_path, _fixed_bytes
    root = Path(__file__).resolve().parent.parent
    problem, cfg, _ = load_config(str(root / "configs" / f"{config}.json"))
    cfg = dataclasses.replace(cfg, n_paths=4_000, steps_per_window=10)
    tracemalloc.start()
    try:
        _, rep = solve(problem, cfg, keep_paths=keep_paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_path = _bytes_per_path(rep.n_steps_total, problem.dim, cfg, keep_paths)
    assert peak <= 1.05 * (per_path * cfg.n_paths + _fixed_bytes())


@pytest.mark.parametrize("keep_paths", [False, True], ids=["streamed", "kept"])
@pytest.mark.parametrize("shape", ["singleton", "ball", "polytope"])
def test_solve_never_forms_the_levels(shape, keep_paths, monkeypatch):
    # a solve holds W at the window edges and rebuilds each window's rows from
    # its lower edge, so W at all N + 1 nodes is never formed
    from bsei.paths import BrownianEnsemble

    def levels(bm):
        raise AssertionError("the solve read BrownianEnsemble.levels")

    monkeypatch.setattr(BrownianEnsemble, "levels", property(levels))
    _, rep = solve(_scaled_problem(shape, 0),
                   SolverConfig(steps_per_window=4, n_paths=300, seed=31),
                   keep_paths=keep_paths)
    assert rep.converged and len(rep.windows) > 1


def test_streamed_singleton_demo_holds_w_at_window_edges():
    # singleton_demo's 9 windows of 50 steps at M = 2000, d = 1: per path
    # 8 (450 + 10 + 51 + 4 * 50 + 4 + 50 * 3) = 6920 bytes of dW, W at the 10
    # window edges and in the workspace's 51 rows, its four iterate stacks,
    # the four (M, d) arrays beside them, and its designs, and 4,194,304
    # bytes of chunk-bounded temporaries beside them.  The traced peak is
    # 0.94 of that; W at all 451 nodes would add 8 * 451 * M bytes, 0.40 of it
    from bsei.cli import load_config
    from bsei.solver import _bytes_per_path, _fixed_bytes
    root = Path(__file__).resolve().parent.parent
    problem, cfg, _ = load_config(str(root / "configs" / "singleton_demo.json"))
    cfg = dataclasses.replace(cfg, n_paths=2_000)
    tracemalloc.start()
    try:
        _, rep = solve(problem, cfg, keep_paths=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.schedule.n_windows, rep.n_steps_total) == (9, 450)
    assert _bytes_per_path(450, problem.dim, cfg, False) == 6_920
    assert _fixed_bytes() == 4_194_304
    assert peak <= 1.05 * (6_920 * cfg.n_paths + 4_194_304)


def test_streamed_ball_demo_peak_is_the_workspace_budget():
    # full-size ball_demo, 4 windows of 40 steps at M = 10,000, d = 2,
    # streamed: per path 8 (160 + 5 + 41 + 4 * 2 * 40 + 4 * 2 + 40 * 3) =
    # 5,232 bytes, and 4,194,304 bytes of chunk-bounded temporaries, 56.5 MB
    # in all; the traced peak is 54.4 MB.  Eight window-sized iterate
    # arrays in place of the workspace's four peaked at 74.8 MB, above 1.05x
    from bsei.cli import load_config
    from bsei.solver import _bytes_per_path, _fixed_bytes
    root = Path(__file__).resolve().parent.parent
    problem, cfg, _ = load_config(str(root / "configs" / "ball_demo.json"))
    tracemalloc.start()
    try:
        _, rep = solve(problem, cfg, keep_paths=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.schedule.n_windows, rep.n_steps_total, cfg.n_paths) == (4, 160, 10_000)
    assert _bytes_per_path(160, problem.dim, cfg, False) == 5_232
    assert peak <= 1.05 * (5_232 * cfg.n_paths + _fixed_bytes())


def test_window_edges_are_the_levels_bits(monkeypatch):
    # the edge pass chains W from W_0 = 0 a window at a time, and each
    # window is handed W at its lowest node bit for bit
    import bsei.solver
    interval, handed = bsei.solver.picard_solve_interval, {}

    def spy(problem, index, *args):
        handed[index] = args[5].copy()  # w_lo
        return interval(problem, index, *args)
    monkeypatch.setattr(bsei.solver, "picard_solve_interval", spy)
    cfg = SolverConfig(steps_per_window=4, n_paths=300, seed=31)
    sol, rep = solve(_ball_problem(), cfg)
    assert sorted(handed) == list(range(rep.schedule.n_windows)) and len(handed) > 2
    for w, edge in handed.items():
        assert edge.tobytes() == sol.bm.levels[w * 4].tobytes()


# ------------------------------------------------------------------ verify

def test_verify_residuals_and_corruption_detector():
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=10, n_paths=4_000, seed=17)
    sol, rep = solve(prob, cfg)
    res = verify_solution(sol, prob)
    assert res.inclusion_max <= 1e-8
    assert res.equation[-1] == 0.0  # exact at the terminal node
    assert res.equation_max <= 0.1

    doubled = Solution(y=sol.y, z=2.0 * sol.z, g=sol.g, bm=sol.bm, s_dt=sol.s_dt)
    res2 = verify_solution(doubled, prob)
    # residual grows by about the scale of the stochastic convolution term
    assert res2.equation_max >= res.equation_max + 0.3


def test_nan_y_step_reaches_the_continuity_modulus():
    # one NaN entry of Y at node 2 makes the steps into and out of it NaN:
    # the modulus, a maximum over every step, is NaN as the other residuals
    # are, and the CLI report writes it as null
    from bsei.cli import _summary
    prob = _ball_problem()
    sol, rep = solve(prob, SolverConfig(steps_per_window=4, n_paths=200, seed=28))
    assert math.isfinite(rep.residuals.y_modulus)
    sol.y[2, 0, 0] = np.nan
    rep.residuals = verify_solution(sol, prob)
    assert math.isnan(rep.residuals.equation_max)
    assert math.isnan(rep.residuals.inclusion_max)
    assert math.isnan(rep.residuals.y_modulus)
    report = json.dumps(_summary(rep), allow_nan=False)  # as the CLI writes it
    assert json.loads(report)["y_continuity_modulus"] is None
    # mean Y_0 is null only in the coordinate that an inf reaches
    assert all(map(math.isfinite, json.loads(report)["y0_mean"]))
    sol.y[0, 0, 1] = np.inf
    rep.residuals = verify_solution(sol, prob)
    y0 = json.loads(json.dumps(_summary(rep), allow_nan=False))["y0_mean"]
    assert math.isfinite(y0[0]) and y0[1] is None


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
    for base in (Ball(np.zeros(d), 0.3),
                 Polytope([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])):
        spec = SetValuedSpec(base=base, a_y=0.5 * np.eye(d),
                             a_z=np.zeros((d, d)))
        out = _select(grid, m, d, spec, g=g_vals, y=y_vals)
        for k in range(5):
            for j in range(m):
                moved = np.linalg.norm(out[k, j] - g_vals[k, j])
                centre = spec.center_batch(grid.nodes[k], y_vals[k, j], np.zeros(d))
                dist = distance_to(g_vals[k, j], spec.base.translate(centre))
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
    grid = sol.grid
    w = sol.bm.levels
    for k in range(0, grid.n_steps + 1, 30):
        exact = np.exp(-0.5 * (1.0 - grid.nodes[k])) * w[k]
        rms = np.sqrt(np.mean((sol.y[k][:, 0] - exact) ** 2))
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

    def duplicated_last_column(features, degree, **kwargs):  # too wide for a design block
        x = design(features, degree)
        return np.column_stack([x, x[:, -1]])
    monkeypatch.setattr(bsei.paths, "_monomial_design", duplicated_last_column)
    _, rep = solve(prob, cfg)
    assert rep.converged
    assert rep.ridge_events == 2 * rep.n_steps_total


def test_partial_report_counts_the_failing_windows_ridge_fallbacks(monkeypatch):
    # the count sits on each window report, so the window that fails (here
    # the last one, which is solved first) brings its fallbacks along
    import bsei.paths
    design = bsei.paths._monomial_design

    def duplicated_last_column(features, degree, **kwargs):  # too wide for a design block
        x = design(features, degree)
        return np.column_stack([x, x[:, -1]])
    monkeypatch.setattr(bsei.paths, "_monomial_design", duplicated_last_column)
    cfg = SolverConfig(steps_per_window=4, n_paths=500, seed=25, tol=1e-16, n_max=2)
    with pytest.raises(NonConvergenceError) as exc:
        solve(_ball_problem(), cfg)
    rep = exc.value.report
    assert len(rep.windows) == 1 and not rep.converged
    assert rep.ridge_events == 2 * cfg.steps_per_window


def _stacked_inclusion_residual(sol, problem):
    """The inclusion residual over the whole (N + 1, M, d) stack at once:
    the reference for the node-by-node form."""
    gv = sol.g
    gap = gv - select_generator(gv, sol.y, sol.z, sol.grid.nodes,
                                problem.gspec)
    return float(np.max(np.linalg.norm(gap, axis=-1)))


@pytest.mark.parametrize("shape, extra", [
    ("ball", {"base": Ball(np.zeros(2), 0.2)}),
    ("polytope", {"base": Polytope([[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25],
                                    [-0.15, 0.15]])}),
])
def test_inclusion_residual_node_by_node_matches_stacked_formula(shape, extra):
    d = 2
    prob = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=d, generator=np.diag([-1.0, -0.5]),
        terminal=TerminalSpec("linear", [0.3, 0.3]),
        gspec=SetValuedSpec(a_y=-0.3 * np.eye(d), a_z=np.zeros((d, d)),
                            c0=lambda t: np.array([0.1 * t, -0.05]), **extra))
    sol, rep = solve(prob, SolverConfig(steps_per_window=4, n_paths=400, seed=26))
    assert rep.inclusion_residual == _stacked_inclusion_residual(sol, prob)
    # g moved off its sets at the first or the last node only: a gap far
    # above rounding that each end of the backward pass must see
    grid = sol.grid
    noise = np.random.default_rng(27).normal(size=sol.g.shape[1:])
    for node in (0, grid.n_steps):
        g = sol.g.copy()
        g[node] += 5.0 * noise
        moved = Solution(y=sol.y, z=sol.z, g=g, bm=sol.bm, s_dt=sol.s_dt)
        got = verify_solution(moved, prob).inclusion_max
        assert got > 1.0
        assert got == _stacked_inclusion_residual(moved, prob)


def test_inclusion_gap_far_off_its_sets_stays_finite():
    # squared coordinates overflow from about 1.3e154: the gap is measured
    # in its largest coordinate there, not reported as inf
    prob = _ball_problem()
    sol, rep = solve(prob, SolverConfig(steps_per_window=4, n_paths=200, seed=28))
    far = Solution(y=sol.y, z=sol.z, g=sol.g + 1e200, bm=sol.bm, s_dt=sol.s_dt)
    got = verify_solution(far, prob)
    assert got.inclusion_max == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-12)
    assert math.isfinite(got.equation_max)


@pytest.mark.parametrize("exponent", [2.0, 3.0])
def test_residuals_of_a_huge_solution_scale_with_it(exponent):
    # Y, Z and g times 2^600 square beyond the float range: each node is
    # redone in units of a power of two, so the norms scale exactly
    prob = dataclasses.replace(_ball_problem(), exponent=exponent)
    sol, _ = solve(prob, SolverConfig(steps_per_window=4, n_paths=200, seed=28))
    huge = Solution(y=np.ldexp(sol.y, 600), z=np.ldexp(sol.z, 600),
                    g=np.ldexp(sol.g, 600), bm=sol.bm, s_dt=sol.s_dt)
    want, got = verify_solution(sol, prob), verify_solution(huge, prob)
    assert want.equation_max > 0.0 and want.y_modulus > 0.0
    assert np.allclose(got.equation, np.ldexp(want.equation, 600), rtol=1e-12, atol=0.0)
    assert got.y_modulus == pytest.approx(math.ldexp(want.y_modulus, 600), rel=1e-12)


def _verify_node_by_node(sol, problem):
    """verify_solution as a loop over single nodes: the reference of the
    blocked pass, which must give its bits."""
    from bsei import geometry
    n, dt, nodes = sol.grid.n_steps, sol.grid.dt, sol.grid.nodes
    p, gspec = problem.exponent, problem.gspec
    s_t = np.ascontiguousarray(sol.s_dt.T)  # S(dt) applied as _Verification does
    y, z, g, dw = sol.y, sol.z, sol.g, sol.bm.increments

    def inclusion_gap(k):
        node = slice(k, k + 1)
        gap = g[k] - select_generator(g[node], y[node], z[node], nodes[node], gspec)[0]
        return np.max(geometry._norm(gap))

    inclusion = np.empty(n + 1)
    inclusion[n] = inclusion_gap(n)
    u = y[n]
    equation = np.empty(n + 1)
    equation[n] = 0.0
    modulus = np.empty(n)
    for k in range(n - 1, -1, -1):
        inclusion[k] = inclusion_gap(k)
        u = np.dot(u, s_t) - (dt * g[k] + z[k] * dw[k][:, None])
        equation[k] = _lp_l2(y[k:k + 1], u[None], 1.0, p)
        modulus[k] = _lp_l2(y[k + 1:k + 2], y[k:k + 1], 1.0, p)
    return float(np.max(inclusion)), equation, float(np.max(modulus))


def _random_solution(shape, d, p, m, n_steps, seed):
    """Random (Y, Z, g) on an n_steps grid with a random constraint map."""
    rng = np.random.default_rng(seed)
    spec = SetValuedSpec(base=_bases(d, rng)[shape], a_y=_centre_map("dense", d, rng),
                         a_z=_centre_map("diagonal", d, rng))
    a = -np.eye(d) + 0.3 * rng.normal(size=(d, d))
    prob = BSEIProblem(horizon=1.0, exponent=p, dim=d, generator=a,
                       terminal=TerminalSpec("linear", np.ones(d)), gspec=spec)
    bm = simulate_brownian(TimeGrid(1.0, n_steps), m, seed)
    y, z, g = rng.normal(size=(3, n_steps + 1, m, d))
    return Solution(y=y, z=z, g=g, bm=bm, s_dt=matrix_exponential(bm.grid.dt * a)), prob


_SPECIALS = ("nan", "inf", "-inf", "up", "down")


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["singleton", "ball", "polytope"]), d=st.integers(1, 3),
       p=st.sampled_from([1.5, 2.0, 3.0]), m=st.integers(1, 30), n_steps=st.integers(1, 8),
       per_block=st.integers(1, 3), scale=st.sampled_from([0, 0, -600, 600]),
       specials=st.lists(st.tuples(st.sampled_from("yzg"), st.integers(0, 8),
                                   st.sampled_from(_SPECIALS)), max_size=3),
       seed=st.integers(0, 2**32 - 1))
# a non-finite entry, a node at 2^+-600 among nodes in range, a whole
# solution whose squares over- or underflow
@example(shape="ball", d=2, p=2.0, m=5, n_steps=4, per_block=2, scale=0,
         specials=[("y", 1, "nan"), ("z", 3, "inf"), ("g", 0, "-inf")], seed=1)
@example(shape="polytope", d=3, p=3.0, m=4, n_steps=5, per_block=3, scale=0,
         specials=[("y", 2, "up"), ("y", 4, "down")], seed=2)
@example(shape="singleton", d=1, p=1.5, m=6, n_steps=6, per_block=1, scale=-600,
         specials=[], seed=3)
@example(shape="ball", d=3, p=2.0, m=3, n_steps=7, per_block=3, scale=600,
         specials=[("g", 7, "up")], seed=4)
# one path: x @ S(dt)' and np.dot(x, S(dt)') differ in the last bit there
@example(shape="polytope", d=3, p=2.0, m=1, n_steps=6, per_block=2, scale=0,
         specials=[], seed=5)
def test_blocked_verification_is_bitwise_the_node_by_node_pass(
        shape, d, p, m, n_steps, per_block, scale, specials, seed):
    # blocks of per_block whole nodes, the last one partial when per_block
    # does not divide N + 1
    from bsei import geometry
    sol, prob = _random_solution(shape, d, p, m, n_steps, seed)
    y, z, g = (np.ldexp(a, scale) for a in (sol.y, sol.z, sol.g))
    rng = np.random.default_rng(seed)
    for name, node, kind in specials:
        a = {"y": y, "z": z, "g": g}[name][node % (n_steps + 1)]
        if kind in ("up", "down"):
            with np.errstate(over="ignore"):  # an "up" node of a 2^600 solution is inf
                np.ldexp(a, 600 if kind == "up" else -600, out=a)
        else:
            a[rng.integers(m), rng.integers(d)] = float(kind)
    sol = Solution(y=y, z=z, g=g, bm=sol.bm, s_dt=sol.s_dt)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(geometry, "_CHUNK_ENTRIES", per_block * m * d)
        got = verify_solution(sol, prob)
        inclusion, equation, y_modulus = _verify_node_by_node(sol, prob)
    assert np.float64(got.inclusion_max).tobytes() == np.float64(inclusion).tobytes()
    assert got.equation.tobytes() == equation.tobytes()
    assert np.float64(got.y_modulus).tobytes() == np.float64(y_modulus).tobytes()


def _grid_means(a):
    """Per-node path means of an (N + 1, M, d) grid, a coordinate at a time."""
    return np.stack([a[..., i].mean(axis=1) for i in range(a.shape[2])], axis=1)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["singleton", "ball", "polytope"]), d=st.integers(1, 3),
       p=st.sampled_from([1.5, 2.0, 3.0]), m=st.integers(1, 300), windows=st.integers(1, 4),
       steps=st.integers(1, 4), per_block=st.integers(1, 3),
       specials=st.lists(st.tuples(st.sampled_from("yzg"), st.integers(0, 16),
                                   st.sampled_from(["nan", "inf", "-inf"])), max_size=3),
       seed=st.integers(0, 2**32 - 1), cuts=st.none() | st.sets(st.integers(1, 16)))
@example(shape="ball", d=2, p=2.0, m=5, windows=3, steps=2, per_block=3,
         specials=[("y", 2, "nan"), ("z", 4, "inf"), ("g", 6, "-inf")], seed=1, cuts=None)
@example(shape="polytope", d=3, p=3.0, m=200, windows=4, steps=4, per_block=3,
         specials=[("y", 12, "inf")], seed=2, cuts=None)
# ranges of 3, 1, 2 and 4 nodes under blocks of 3: block and range edges
# meet at every offset, and node N shares its range with nodes below it
@example(shape="singleton", d=1, p=2.0, m=7, windows=3, steps=3, per_block=3,
         specials=[], seed=3, cuts={2, 3, 6, 7})
def test_streamed_verification_is_bitwise_verify_solution(
        shape, d, p, m, windows, steps, per_block, specials, seed, cuts):
    # node N, then windows of `steps` nodes from the top, each a separate
    # array as a solve hands them on, in blocks of per_block nodes that stop
    # at the window's lowest node; with `cuts`, the grid is cut at those
    # nodes instead, wherever they fall
    from bsei import geometry
    from bsei.solver import _Verification
    n = windows * steps
    sol, prob = _random_solution(shape, d, p, m, n, seed)
    rng = np.random.default_rng(seed)
    for name, node, kind in specials:
        getattr(sol, name)[node % (n + 1), rng.integers(m), rng.integers(d)] = float(kind)
    ranges = [(n, n + 1)] + [(w * steps, (w + 1) * steps) for w in reversed(range(windows))]
    if cuts is not None:
        edges = sorted({0, n + 1} | {c for c in cuts if c <= n})
        ranges = list(zip(edges[:-1], edges[1:]))[::-1]
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(geometry, "_CHUNK_ENTRIES", per_block * m * d)
        want = verify_solution(sol, prob)
        check = _Verification(prob, sol.bm, sol.s_dt)
        for lo, hi in ranges:
            check.feed(*(a[lo:hi].copy() for a in (sol.y, sol.z, sol.g)))
        got = check.report()
        means = _grid_means(sol.y), _grid_means(sol.z)
    for res in (got, want):
        assert res.y_mean.tobytes() == means[0].tobytes()
        assert res.z_mean.tobytes() == means[1].tobytes()
    assert np.float64(got.inclusion_max).tobytes() == np.float64(want.inclusion_max).tobytes()
    assert got.equation.tobytes() == want.equation.tobytes()
    assert np.float64(got.y_modulus).tobytes() == np.float64(want.y_modulus).tobytes()


@pytest.mark.parametrize("shape", ["singleton", "ball", "polytope"])
def test_verification_keeps_no_view_of_a_fed_range(shape):
    # a solve feeds each window from its workspace and then overwrites it:
    # every fed range is filled with garbage before the next feed, and the
    # report is bitwise that of the untouched arrays
    from bsei.solver import _Verification
    n, steps = 12, 4
    sol, prob = _random_solution(shape, 2, 2.0, 50, n, 7)
    want = verify_solution(sol, prob)
    check = _Verification(prob, sol.bm, sol.s_dt)
    rng = np.random.default_rng(7)
    for lo, hi in [(n, n + 1)] + [(w * steps, (w + 1) * steps) for w in reversed(range(3))]:
        fed = [a[lo:hi].copy() for a in (sol.y, sol.z, sol.g)]
        check.feed(*fed)
        for a in fed:
            a[...] = rng.normal(size=a.shape)
            a.flat[::7] = np.nan
    got = check.report()
    for name in ("equation", "y_mean", "z_mean"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.inclusion_max, got.y_modulus) == (want.inclusion_max, want.y_modulus)


def test_streamed_solve_reports_the_kept_solve_bitwise(monkeypatch):
    # the same run with and without its grids: the report verified window by
    # window is that of verify_solution on the kept paths, means included
    from bsei import geometry
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", 3 * 500 * 2)  # blocks of 3 nodes
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=4, n_paths=500, seed=29)
    sol, kept = solve(prob, cfg)
    none, streamed = solve(prob, cfg, keep_paths=False)
    assert none is None and kept.schedule.n_windows >= 3
    want = verify_solution(sol, prob)
    for res in (kept.residuals, streamed.residuals):
        for name in ("equation", "y_mean", "z_mean"):
            assert getattr(res, name).tobytes() == getattr(want, name).tobytes(), name
        assert (res.inclusion_max, res.y_modulus) == (want.inclusion_max, want.y_modulus)
    assert want.y_mean.tobytes() == _grid_means(sol.y).tobytes()
    assert [w.iterations for w in streamed.windows] == [w.iterations for w in kept.windows]


@pytest.mark.parametrize("per_block", [1, 2, 3, 9, 20])
def test_verification_selects_once_per_block(per_block, monkeypatch):
    # N + 1 = 9 nodes in blocks of per_block: one selection per block, and
    # no single-node sample norm
    import collections

    import bsei.solver
    from bsei import geometry

    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    sol, prob = _random_solution("polytope", 2, 2.0, 6, 8, 5)
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", per_block * 6 * 2)
    for name in ("select_generator", "_lp_l2"):
        monkeypatch.setattr(bsei.solver, name, counted(name, getattr(bsei.solver, name)))
    verify_solution(sol, prob)
    assert counts["select_generator"] == math.ceil(9 / per_block)
    assert counts["_lp_l2"] == 0


def _scaled_problem(shape, s):
    """ball_demo's problem with a_z = diag(0.5, -0.4) and a constant c0,
    with xi, the base set and c0 at 2^s times their values."""
    unit = math.ldexp(1.0, s)
    base = {"singleton": Singleton([0.25 * unit, -0.5 * unit]),
            "ball": Ball([0.0, 0.0], 0.2 * unit),
            "polytope": Polytope(unit * np.array([[-0.2, -0.2], [0.2, -0.1],
                                                  [0.0, 0.25], [-0.15, 0.15]]))}[shape]
    return BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2, generator=np.diag([-1.0, -0.5]),
        terminal=TerminalSpec("linear", [unit, unit]),
        gspec=SetValuedSpec(base=base, a_y=-0.3 * np.eye(2), a_z=np.diag([0.5, -0.4]),
                            c0=unit * np.array([0.1, -0.05])))


@pytest.mark.parametrize("shape", ["singleton", "ball", "polytope"])
def test_solve_scales_bitwise_under_powers_of_two(shape):
    # every step is positively homogeneous: 2^s times the data gives 2^s
    # times Y, Z, g and each residual, bit for bit; tol is absolute, so the
    # iteration count is fixed
    cfg = SolverConfig(steps_per_window=8, n_paths=500, seed=3, tol=1e308,
                       min_iter=6, n_max=6)
    sol, rep = solve(_scaled_problem(shape, 0), cfg)
    want = rep.residuals
    for s in (-900, -460, -100, 100, 460, 900):
        got_sol, got_rep = solve(_scaled_problem(shape, s), cfg)
        got = got_rep.residuals
        for name in ("y", "z", "g"):
            assert (getattr(got_sol, name).tobytes()
                    == np.ldexp(getattr(sol, name), s).tobytes()), (s, name)
        assert got.equation.tobytes() == np.ldexp(want.equation, s).tobytes(), s
        assert got.y_modulus == math.ldexp(want.y_modulus, s), s
        assert got.inclusion_max == math.ldexp(want.inclusion_max, s), s


def test_verify_reports_continuity_modulus():
    prob = _ball_problem()
    cfg = SolverConfig(steps_per_window=10, n_paths=2_000, seed=22)
    sol, _ = solve(prob, cfg)
    grid = sol.grid
    res = verify_solution(sol, prob)
    # one-step increments of Y scale like sqrt(dt) for a diffusion-driven Y
    assert 0.0 < res.y_modulus <= 10.0 * np.sqrt(grid.dt)


def _rms(v):
    """RMS over paths of the Euclidean length of an (M, d) array."""
    return float(np.sqrt(np.mean(np.sum(v**2, axis=1))))


def test_verify_z_crosscheck_trivial_case():
    from bsei.solver import _rebuild_z
    # no generator, martingale terminal: the rebuilt Z must match the solver's
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1))
    cfg = SolverConfig(steps_per_window=10, n_paths=10_000, seed=19)
    sol, _ = solve(prob, cfg)
    grid = sol.grid
    rebuilt = _rebuild_z(sol, cfg.basis_degree, range(grid.n_steps))
    # per-node estimator noise ~ sqrt(6 p_basis / M); three of those
    bound = 3.0 * np.sqrt(6.0 * 3.0 / cfg.n_paths)
    for u, z_u in rebuilt.items():
        assert _rms(z_u - sol.z[u]) <= bound
        assert abs(_rms(sol.z[u]) - 1.0) <= 0.05


def test_verify_z_crosscheck_with_generator():
    from bsei.solver import _rebuild_z
    # g = 0.5 Y is nonzero, so the rebuilt Z must carry the generator with the
    # scheme's sign, Y[k] = E[S Y[k+1] | F_k] - dt g[k], to match the solver's
    prob = BSEIProblem(horizon=1.0, exponent=2.0, dim=1,
                       generator=np.zeros((1, 1)),
                       terminal=TerminalSpec("linear", [1.0]),
                       gspec=singleton_spec(1, a_y=0.5))
    cfg = SolverConfig(steps_per_window=10, n_paths=10_000, seed=19)
    sol, _ = solve(prob, cfg)
    grid = sol.grid
    rebuilt = _rebuild_z(sol, cfg.basis_degree, range(grid.n_steps))
    bound = 3.0 * np.sqrt(6.0 * 3.0 / cfg.n_paths)
    assert len(rebuilt) == grid.n_steps
    for u, z_u in rebuilt.items():
        assert _rms(z_u - sol.z[u]) <= bound


def _rebuild_z_per_source(sol, generator, basis_degree, nodes):
    """The explicit Z rebuild written as one tower chain per source node,
    quadratic in the step count, with every S(t_s - t_u) an exponential of
    its own: the reference for the one-sweep form."""
    from bsei.paths import KernelRegression, PolynomialRegression
    bm = sol.bm
    n, dt = sol.grid.n_steps, sol.grid.dt
    cache = SemigroupCache.build(generator, dt, n)
    regs = [PolynomialRegression(bm.levels[k], basis_degree) for k in range(n)]
    out = {u: np.zeros((bm.n_paths, sol.z.shape[2])) for u in nodes}
    sources = [(sol.y[n], n, 1.0)] + [
        (sol.g[s], s, -dt) for s in range(1, n)]
    for source, s_src, weight in sources:
        cond = source
        for k in range(s_src - 1, -1, -1):
            if k in out:
                kern = KernelRegression(regs[k], bm.increments[k]).kernel(cond)
                out[k] += weight * (kern @ cache.powers[s_src - k].T)
            cond = regs[k].fit(cond)
    return out


def test_rebuild_z_one_sweep_matches_per_source_chains():
    from bsei.solver import _rebuild_z
    prob = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2,
        generator=np.array([[-1.0, 0.4], [-0.3, -0.5]]),
        terminal=TerminalSpec("quadratic", [1.0, 0.5]),
        gspec=SetValuedSpec(base=Ball(np.zeros(2), 0.1),
                            a_y=np.array([[-0.3, 0.1], [0.0, 0.2]]),
                            a_z=np.zeros((2, 2))))
    sol, _ = solve(prob, SolverConfig(steps_per_window=4, n_paths=600, seed=23))
    n = sol.grid.n_steps
    assert np.abs(sol.g).max() > 0.1
    nodes = [0, 1, n // 2, n - 2, n - 1]
    got = _rebuild_z(sol, 2, nodes)
    want = _rebuild_z_per_source(sol, prob.generator, 2, nodes)
    assert sorted(got) == nodes
    for u in nodes:
        scale = np.abs(want[u]).max()
        assert scale > 0.0
        assert np.abs(got[u] - want[u]).max() <= 1e-12 * scale
    assert _rebuild_z(sol, 2, []) == {}


def test_z_crosscheck_fits_at_most_once_per_step(monkeypatch):
    from bsei.paths import PolynomialRegression
    from bsei.solver import _rebuild_z
    sol, _ = solve(_ball_problem(), SolverConfig(steps_per_window=10,
                                                 n_paths=1_000, seed=24))
    n = sol.grid.n_steps
    calls = []
    fit = PolynomialRegression.fit

    def counted(self, targets):
        calls.append(1)
        return fit(self, targets)
    monkeypatch.setattr(PolynomialRegression, "fit", counted)
    rebuilt = _rebuild_z(sol, 2, range(n))
    assert len(rebuilt) == n
    assert 0 < len(calls) <= n
