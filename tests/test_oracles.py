"""Closed-form and deterministic oracles for whole solves.

(a) With constant terminal data, a_z = 0 and a constant c0, every
conditional expectation of the scheme acts on path-independent values, so
the solve must repeat, on every path, the same scheme run on one vector
with identity conditional expectations.

(b) With a singleton G whose a_y commutes with A and xi = c W_T, the
solution is Y_t = exp((A - a_y)(T - t)) c W_t and Z_t = exp((A - a_y)(T - t)) c.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from bsei.geometry import SetValuedSpec, project
from bsei.solver import BSEIProblem, SolverConfig, TerminalSpec, solve

A = np.array([[-1.0, 0.4], [-0.3, -0.5]])
A_Y = np.array([[-0.3, 0.1], [0.0, 0.2]])
C0 = np.array([0.1, -0.05])


def _deterministic_reference(problem, report, s_dt, dt):
    """Y and g per node of the scheme with identity conditional
    expectations: per window, as many iterations as the report records of
    g <- nearest point of G(t, y, 0) to g, then y[k] = S(dt) y[k+1] - dt g[k]
    from the window's terminal value; then the final selection.  Windows run
    backwards, each handing y at its left node to the next as terminal, and
    a window's right node belongs to the window after it."""
    base = problem.gspec.base

    def select(g, y):
        centers = C0 + y @ A_Y.T
        return project(g - centers, base) + centers

    y_all = np.zeros((report.n_steps_total + 1, problem.dim))
    g_all = np.zeros_like(y_all)
    terminal = problem.terminal.coeff
    for w in reversed(report.windows):
        n = w.k_hi - w.k_lo
        y, g = np.zeros((n + 1, problem.dim)), np.zeros((n + 1, problem.dim))
        for _ in w.iterations:
            g = select(g, y)
            y = np.empty_like(g)
            y[n] = terminal
            for k in range(n - 1, -1, -1):
                y[k] = s_dt @ y[k + 1] - dt * g[k]
        g = select(g, y)
        stop = n + 1 if w is report.windows[-1] else n
        y_all[w.k_lo:w.k_lo + stop] = y[:stop]
        g_all[w.k_lo:w.k_lo + stop] = g[:stop]
        terminal = y[0]
    return y_all, g_all


@pytest.mark.parametrize("shape, extra, steps_per_window", [
    ("singleton", {}, 4),
    ("ball", {"radius": 0.2}, 6),
    ("polytope", {"offsets": np.array([[-0.2, -0.2], [0.2, -0.1], [0.0, 0.25],
                                       [-0.15, 0.15]])}, 8),
])
def test_deterministic_problem_matches_pathwise_reference(shape, extra,
                                                          steps_per_window):
    problem = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2, generator=A,
        terminal=TerminalSpec("constant", [1.0, -0.5]),
        gspec=SetValuedSpec(dim=2, shape=shape, a_y=A_Y, a_z=np.zeros((2, 2)),
                            lipschitz_k=0.4, c0=C0, **extra))
    sol, report = solve(problem, SolverConfig(steps_per_window=steps_per_window,
                                              n_paths=200, seed=5))
    assert report.converged and len(report.windows) > 1
    y_ref, g_ref = _deterministic_reference(problem, report, sol.s_dt,
                                            sol.y.grid.dt)
    centers = C0 + y_ref @ A_Y.T
    if shape != "singleton":  # the selection leaves the centres somewhere
        assert np.abs(g_ref - centers).max() > 0.05
    for got, ref in ((sol.y.values, y_ref), (sol.g.values, g_ref)):
        tol = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(got - ref[:, None, :]) <= tol[:, None, :])
    assert np.abs(sol.z.values).max() <= 1e-12 * max(1.0, np.abs(y_ref).max())


def test_commuting_singleton_problem_matches_closed_form():
    # g = a_y Y with A = diag(-1, -0.5), a_y = diag(0.3, -0.2): four windows
    # of 20 steps.  Over seeds 0-4 at M = 1e4 and 0-2 at M = 2e4 the RMS
    # errors at t = 0.5 were at most 0.032 (Y) and 0.029 (Z), so 0.05 bounds
    # them; Y_0 is exact up to the Monte Carlo mean of W_T, sd 1/sqrt(M).
    a, a_y, c = np.diag([-1.0, -0.5]), np.diag([0.3, -0.2]), np.array([1.0, 2.0])
    problem = BSEIProblem(
        horizon=1.0, exponent=2.0, dim=2, generator=a,
        terminal=TerminalSpec("linear", c),
        gspec=SetValuedSpec(dim=2, shape="singleton", a_y=a_y,
                            a_z=np.zeros((2, 2)), lipschitz_k=0.3))
    m = 10_000
    sol, report = solve(problem, SolverConfig(steps_per_window=20, n_paths=m,
                                              seed=0))
    assert report.converged
    grid = sol.y.grid
    k = grid.n_steps // 2
    assert grid.nodes[k] == 0.5
    factor_c = expm((a - a_y) * 0.5) @ c

    def rms(v):
        return float(np.sqrt(np.mean(np.sum(v**2, axis=1))))
    assert rms(sol.y.values[k] - np.outer(sol.bm.levels[k], factor_c)) <= 0.05
    assert rms(sol.z.values[k] - factor_c) <= 0.05
    y0_scale = np.abs(expm(a - a_y) @ c)
    assert np.all(np.abs(sol.y.values[0].mean(axis=0)) <= 4.0 * y0_scale / np.sqrt(m))
