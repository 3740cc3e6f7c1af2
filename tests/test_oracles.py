"""Closed-form and deterministic oracles for whole solves.

(a) With constant terminal data, a_z = 0 and a constant c0, every
conditional expectation of the scheme acts on path-independent values, so
the solve must repeat, on every path, the same scheme run on one vector
with identity conditional expectations.

(b) With a singleton G whose a_y and a_z commute with A, E = exp((A - a_y) tau)
and tau = T - t: for xi = c W_T the solution is Y_t = E c (W_t - a_z tau) and
Z_t = E c; for xi = c W_T^2 it is Y_t = E c (W_t^2 + tau - 2 a_z W_t tau +
a_z^2 tau^2) and Z_t = E c (2 W_t - 2 a_z tau).
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from bsei.cli import load_config
from bsei.geometry import Ball, Polytope, SetValuedSpec, Singleton, project, support
from bsei.solver import BSEIProblem, SolverConfig, TerminalSpec, solve

_ROOT = Path(__file__).resolve().parent.parent

A = np.array([[-1.0, 0.4], [-0.3, -0.5]])
A_Y = np.array([[-0.3, 0.1], [0.0, 0.2]])
C0 = np.array([0.1, -0.05])


def _deterministic_reference(problem, report, s_dt, dt):
    """Y and g per node of the scheme with identity conditional
    expectations: per window, from y = the window's terminal value at every
    node (the path mean of terminal data that is the same on every path), as
    many iterations as the report records of g <- the minimal-norm point of
    G(t, y, 0), the nearest one to zero, then y[k] = S(dt) y[k+1] - dt g[k]
    from the window's terminal value; then the final selection.  Windows run backwards, each handing y at its left node
    to the next as terminal, and a window's right node belongs to the window
    after it."""
    base = problem.gspec.base

    def select(y):
        centers = C0 + y @ A_Y.T
        return project(np.zeros_like(y) - centers, base) + centers

    y_all = np.zeros((report.n_steps_total + 1, problem.dim))
    g_all = np.zeros_like(y_all)
    terminal = problem.terminal.coeff
    for w in reversed(report.windows):
        n = w.k_hi - w.k_lo
        y = np.tile(terminal, (n + 1, 1))
        for _ in w.iterations:
            g = select(y)
            y = np.empty_like(g)
            y[n] = terminal
            for k in range(n - 1, -1, -1):
                y[k] = s_dt @ y[k + 1] - dt * g[k]
        g = select(y)
        stop = n + 1 if w is report.windows[-1] else n
        y_all[w.k_lo:w.k_lo + stop] = y[:stop]
        g_all[w.k_lo:w.k_lo + stop] = g[:stop]
        terminal = y[0]
    return y_all, g_all


@pytest.mark.parametrize("shape, extra, steps_per_window", [
    ("singleton", {"base": Singleton(np.zeros(2))}, 4),
    ("ball", {"base": Ball(np.zeros(2), 0.2)}, 6),
    ("polytope", {"base": Polytope([[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25],
                                    [-0.15, 0.15]])}, 8),
])
def test_deterministic_problem_matches_pathwise_reference(shape, extra,
                                                          steps_per_window):
    problem = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2, generator=A,
        terminal=TerminalSpec("constant", [1.0, -0.5]),
        gspec=SetValuedSpec(a_y=A_Y, a_z=np.zeros((2, 2)), c0=C0, **extra))
    sol, report = solve(problem, SolverConfig(steps_per_window=steps_per_window,
                                              n_paths=200, seed=5))
    assert report.converged and len(report.windows) > 1
    y_ref, g_ref = _deterministic_reference(problem, report, sol.s_dt,
                                            sol.grid.dt)
    centers = C0 + y_ref @ A_Y.T
    if shape != "singleton":  # the selection leaves the centres somewhere
        assert np.abs(g_ref - centers).max() > 0.05
    for got, ref in ((sol.y, y_ref), (sol.g, g_ref)):
        tol = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(got - ref[:, None, :]) <= tol[:, None, :])
    assert np.abs(sol.z).max() <= 1e-12 * max(1.0, np.abs(y_ref).max())


# (a_z, the computed max(||a_y||, ||a_z||), steps of the schedule at 20 a window)
_A_Z_CASES = pytest.mark.parametrize("a_z, lipschitz_k, n_steps", [
    (np.zeros((2, 2)), 0.3, 80),
    (np.diag([0.5, -0.4]), 0.5, 180),
], ids=["a_z=0", "a_z=diag"])


@_A_Z_CASES
def test_commuting_singleton_problem_matches_closed_form(a_z, lipschitz_k, n_steps):
    # g = a_y Y + a_z Z with A = diag(-1, -0.5), a_y = diag(0.3, -0.2).
    # a_z = 0: over seeds 0-4 at M = 1e4 and 0-2 at M = 2e4 the RMS errors at
    # t = 0.5 were at most 0.032 (Y) and 0.029 (Z); a_z = diag(0.5, -0.4):
    # over seeds 0-9 at M = 1e4 they were 0.009-0.033 (Y) and 0.008-0.026 (Z),
    # so 0.05 bounds them; Y_0 is exact up to the Monte Carlo mean of W_T,
    # sd |exp(A - a_y) c| / sqrt(M), at most 2.7 sd off over those seeds.
    a, a_y, c = np.diag([-1.0, -0.5]), np.diag([0.3, -0.2]), np.array([1.0, 2.0])
    problem = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2, generator=a,
        terminal=TerminalSpec("linear", c),
        gspec=SetValuedSpec(base=Singleton(np.zeros(2)), a_y=a_y, a_z=a_z))
    assert problem.gspec.lipschitz_k == lipschitz_k
    m = 10_000
    sol, report = solve(problem, SolverConfig(steps_per_window=20, n_paths=m,
                                              seed=0))
    assert report.converged
    grid = sol.grid
    k = grid.n_steps // 2
    assert grid.n_steps == n_steps and grid.nodes[k] == 0.5
    factor = expm((a - a_y) * 0.5)
    factor_c = factor @ c

    def rms(v):
        return float(np.sqrt(np.mean(np.sum(v**2, axis=1))))
    y = np.outer(sol.bm.levels[k], factor_c) - 0.5 * factor @ a_z @ c
    assert rms(sol.y[k] - y) <= 0.05
    assert rms(sol.z[k] - factor_c) <= 0.05
    y0 = -expm(a - a_y) @ a_z @ c
    y0_scale = np.abs(expm(a - a_y) @ c)
    assert np.all(np.abs(sol.y[0].mean(axis=0) - y0) <= 4.0 * y0_scale / np.sqrt(m))


@_A_Z_CASES
def test_commuting_singleton_quadratic_terminal_matches_closed_form(a_z, lipschitz_k,
                                                                   n_steps):
    # xi = c W_T^2, the Z check on a non-linear terminal.  a_z = 0: over
    # seeds 0-9 at M = 1e4, N = 80 the RMS errors at t = 0.5 were
    # 0.012-0.097 (Y) and 0.018-0.163 (Z), largest where mean Y_0 was
    # furthest off (2.4 sd, seed 5); a_z = diag(0.5, -0.4): over seeds 0-9 at
    # M = 1e4, N = 180 they were 0.016-0.074 (Y) and 0.038-0.133 (Z), and
    # mean Y_0 was at most 2.8 sd off; so 0.15 and 0.25 bound them.  Mean Y_0
    # carries the Monte Carlo error of E[W_T^2 - 2 a_z W_T], sd
    # sqrt(2 + 4 a_z^2) |exp(A - a_y) c| / sqrt(M).
    a, a_y, c = np.diag([-1.0, -0.5]), np.diag([0.3, -0.2]), np.array([1.0, 2.0])
    problem = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2, generator=a,
        terminal=TerminalSpec("quadratic", c),
        gspec=SetValuedSpec(base=Singleton(np.zeros(2)), a_y=a_y, a_z=a_z))
    assert problem.gspec.lipschitz_k == lipschitz_k
    m = 10_000
    sol, report = solve(problem, SolverConfig(steps_per_window=20, n_paths=m,
                                              seed=0))
    assert report.converged
    grid = sol.grid
    k = grid.n_steps // 2
    assert grid.n_steps == n_steps and grid.nodes[k] == 0.5
    factor = expm((a - a_y) * 0.5)
    factor_c, factor_az_c = factor @ c, factor @ a_z @ c
    w = sol.bm.levels[k]

    def rms(v):
        return float(np.sqrt(np.mean(np.sum(v**2, axis=1))))
    y = (np.outer(w**2 + 0.5, factor_c) - np.outer(w, factor_az_c)
         + 0.25 * factor @ a_z @ a_z @ c)
    assert rms(sol.y[k] - y) <= 0.15
    assert rms(sol.z[k] - np.outer(2.0 * w, factor_c) + factor_az_c) <= 0.25
    y0 = expm(a - a_y) @ (np.eye(2) + a_z @ a_z) @ c
    sd = np.sqrt(2.0 + 4.0 * np.diag(a_z) ** 2) * np.abs(expm(a - a_y) @ c) / np.sqrt(m)
    assert np.all(np.abs(sol.y[0].mean(axis=0) - y0) <= 4.0 * sd)


# Mean Y_0 and its exact set.  With a_z = 0 every g[k] is c0 + a_y Y[k] + b
# with b in the base set B, and each regression fits an intercept, so its
# fitted values keep the path mean of their targets.  The path means m_k of
# Y then follow m_k = S(dt) m_{k+1} - dt mean g[k], that is m_k =
# K^-1 S(dt) m_{k+1} - dt K^-1 (c0 + beta_k) with K = I + dt a_y and beta_k,
# the mean of the b, in B by convexity.  Over every such beta, mean Y_0
# fills the discrete Aumann integral (Aumann, J. Math. Anal. Appl. 12, 1965)
# with support function h(v) = <v, P_N m_N - sum_k dt P_k K^-1 c0>
# + sum_k dt sigma_B(-(P_k K^-1)' v), P_k = (K^-1 S(dt))^k.  A regression-
# later basis, whose fitted Y_k is not the mean of its target, would keep
# the first identity in expectation only.
_MEAN_SET_RUNS = pytest.mark.parametrize(
    "path", ["configs/ball_demo.json", "perfbench/workloads/polytope_small.json"],
    ids=["ball_demo", "polytope_small"])


@_MEAN_SET_RUNS
def test_path_means_follow_the_mean_recursion(path):
    # at tol 1e-12 (31 and 27 Picard sweeps) the largest gap over the nodes
    # was 3.6e-17 on ball_demo and 1.9e-15 on polytope_small; at the shipped
    # tol 1e-3 it reads 2.4e-8 and 5.3e-7, the mismatch between the g of the
    # last sweep and the final selection
    problem, config, _ = load_config(str(_ROOT / path))
    assert not problem.gspec.a_z.any()
    sol, report = solve(problem, dataclasses.replace(config, tol=1e-12, n_max=60))
    m = report.residuals.y_mean
    gap = m[:-1] - m[1:] @ sol.s_dt.T + sol.grid.dt * sol.g[:-1].mean(axis=1)
    assert np.abs(gap).max() <= 1e-12


def _mean_set_support(problem, s_dt, dt, n_steps, mean_xi, directions):
    """h(v) of the exact set of mean Y_0 for each row v of ``directions``."""
    gspec, d = problem.gspec, problem.dim
    c0 = np.zeros(d) if gspec.c0 is None else gspec.c0
    k_inv = np.linalg.inv(np.eye(d) + dt * gspec.a_y)
    step = k_inv @ s_dt
    p_k = np.eye(d)  # P_k, k = 0, ..., N
    center, spread = np.zeros(d), np.zeros(len(directions))
    for _ in range(n_steps):
        center -= dt * p_k @ k_inv @ c0
        spread += dt * np.array([support(gspec.base, -(p_k @ k_inv).T @ v)
                                 for v in directions])
        p_k = p_k @ step
    return directions @ (p_k @ mean_xi + center) + spread


@_MEAN_SET_RUNS
def test_mean_y0_lies_in_its_exact_set(path):
    # at the shipped numerics the smallest slack over 64 unit directions was
    # 0.144 on ball_demo and 0.111 on polytope_small; the set's half-widths
    # (h(e_i) + h(-e_i)) / 2 are 0.1444 / 0.1817 on ball_demo and
    # 0.1500 / 0.2094 on polytope_small, along e_1 / e_2
    problem, config, _ = load_config(str(_ROOT / path))
    assert not problem.gspec.a_z.any()
    sol, report = solve(problem, config)
    angles = 2.0 * np.pi * np.arange(64) / 64
    v = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    h = _mean_set_support(problem, sol.s_dt, sol.grid.dt, sol.grid.n_steps,
                          report.residuals.y_mean[-1], v)
    assert np.all(v @ report.residuals.y_mean[0] <= h)
