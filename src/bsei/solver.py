"""Backward solver for set-valued stochastic evolution equations.

The driver partitions the horizon into windows short enough for the
contraction schedule, then alternates two moves inside each window until
the iterates stall: project the previous generator selection pointwise
onto the current constraint sets, and solve the resulting linear backward
equation by regression-based conditional expectations on a fixed path
ensemble.  Windows are solved from the terminal time backwards, each one
handing its left-endpoint values to the next as terminal data.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NonConvergenceError, ScheduleError
from .geometry import SetValuedSpec, project
from .paths import (
    BrownianEnsemble,
    KernelRegression,
    PolynomialRegression,
    ProcessEnsemble,
    TimeGrid,
    _lp_l2,
    _sample_norm,
    simulate_brownian,
)
from .semigroup import SemigroupCache, gamma_bound, matrix_exponential

_SCHEDULE_PROBE_STEPS = 256


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal data: a constant vector, or that vector times W_T or W_T^2."""

    kind: str  # "constant" | "linear" | "quadratic"
    coeff: np.ndarray

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "quadratic"):
            raise ValueError(f"unknown terminal kind {self.kind!r}")
        object.__setattr__(self, "coeff", geometry.as_point(self.coeff))

    @property
    def dim(self) -> int:
        return self.coeff.size

    def sample(self, bm: BrownianEnsemble) -> np.ndarray:
        w_t = bm.levels[-1]
        if self.kind == "constant":
            return np.tile(self.coeff, (bm.n_paths, 1))
        if self.kind == "linear":
            return np.outer(w_t, self.coeff)
        return np.outer(w_t**2, self.coeff)


@dataclass(frozen=True)
class BSEIProblem:
    """Full problem description for the inclusion solver."""

    horizon: float
    exponent: float
    dim: int
    generator: np.ndarray
    terminal: TerminalSpec
    gspec: SetValuedSpec

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if not (self.exponent > 1.0 and np.isfinite(self.exponent)):
            raise ValueError("integrability exponent must exceed 1")
        a = np.asarray(self.generator, dtype=float)
        if a.shape != (self.dim, self.dim) or not np.all(np.isfinite(a)):
            raise ValueError(f"generator must be a finite {self.dim}x{self.dim} matrix")
        object.__setattr__(self, "generator", a)
        if self.terminal.dim != self.dim or self.gspec.dim != self.dim:
            raise ValueError("terminal/set-valued dimensions disagree with the problem")

    @property
    def lipschitz_k(self) -> float:
        return self.gspec.lipschitz_k


@dataclass(frozen=True)
class PicardSchedule:
    """Contraction constants governing window length and iteration budget.

    beta = c L gamma (1 + sqrt(T) (1 + gamma)) and the window length
    delta = min(1/beta^2, T)/4 force beta sqrt(delta) <= 1/2, which is the
    margin behind the geometric decay of the iteration differences; the
    slack sequence eps(n) = (beta sqrt(delta)/2)^n is kept for reporting.
    """

    gamma_s: float
    c_pe: float
    lipschitz: float
    horizon: float
    beta: float
    delta: float
    n_windows: int
    window_length: float
    n_max: int
    tol: float
    min_iter: int

    def eps(self, n: int) -> float:
        return (self.beta * math.sqrt(self.delta) / 2.0) ** n


def schedule_from_constants(lipschitz: float, gamma_s: float, horizon: float,
                            c_pe: float = 1.0, n_max: int = 25,
                            tol: float = 1e-3, min_iter: int = 2) -> PicardSchedule:
    if c_pe <= 0.0:
        raise ValueError("c_pe must be positive")
    if lipschitz < 0.0 or gamma_s < 1.0 or horizon <= 0.0:
        raise ValueError("need lipschitz >= 0, gamma_s >= 1, horizon > 0")
    beta = c_pe * lipschitz * gamma_s * (1.0 + math.sqrt(horizon) * (1.0 + gamma_s))
    if beta * beta == 0.0:  # includes subnormal beta whose square underflows
        delta = horizon / 4.0
    else:
        delta = 0.25 * min(1.0 / (beta * beta), horizon)
        while beta * math.sqrt(delta) > 0.5:  # absorb rounding at the margin
            delta = math.nextafter(delta, 0.0)
    if not delta > 0.0 or math.isinf(horizon / delta):  # beta non-finite or huge
        raise ScheduleError(f"beta = {beta} (gamma(S) = {gamma_s}) leaves no "
                            "finite window count")
    n_windows = max(1, math.ceil(horizon / delta - 1e-12))
    return PicardSchedule(
        gamma_s=gamma_s, c_pe=c_pe, lipschitz=lipschitz, horizon=horizon,
        beta=beta, delta=delta, n_windows=n_windows,
        window_length=horizon / n_windows,
        n_max=n_max, tol=tol, min_iter=min_iter,
    )


def compute_schedule(problem: BSEIProblem, cache: SemigroupCache,
                     c_pe: float = 1.0, n_max: int = 25, tol: float = 1e-3,
                     min_iter: int = 2) -> PicardSchedule:
    """Schedule for a problem, with gamma(S) read off the cached semigroup."""
    return schedule_from_constants(problem.lipschitz_k, gamma_bound(cache),
                                   problem.horizon, c_pe, n_max, tol, min_iter)


@dataclass
class IterationRecord:
    iteration: int
    dy: float
    dz: float
    dg: float
    ratio: float | None
    eps: float


@dataclass
class WindowReport:
    index: int
    k_lo: int
    k_hi: int
    iterations: list
    converged: bool

    def geometric_ratio(self, first: int = 2, last: int = 8) -> float:
        """Least-squares geometric decay rate of dY + dZ over an iteration range."""
        pts = [(r.iteration, r.dy + r.dz) for r in self.iterations
               if first <= r.iteration <= last and (r.dy + r.dz) > 0.0]
        if len(pts) < 2:
            return 0.0
        ns = np.array([p[0] for p in pts], dtype=float)
        logs = np.log([p[1] for p in pts])
        slope = np.polyfit(ns, logs, 1)[0]
        return float(np.exp(slope))


@dataclass
class SolveReport:
    schedule: PicardSchedule
    windows: list
    seed: int
    n_paths: int
    n_steps_total: int
    basis_degree: int
    runtime_seconds: float = 0.0
    residuals: ResidualReport | None = None  # None until every window converged
    ridge_events: int = 0

    @property
    def inclusion_residual(self) -> float | None:
        return None if self.residuals is None else self.residuals.inclusion_max

    @property
    def equation_residual_max(self) -> float | None:
        return None if self.residuals is None else self.residuals.equation_max

    @property
    def converged(self) -> bool:
        return all(w.converged for w in self.windows)


@dataclass(frozen=True)
class Solution:
    """Adapted triple (Y, Z, g) on the full grid; Y at the last node is the
    terminal data exactly, and g is the last projection onto the constraint
    sets evaluated at the final (Y, Z).  It also carries the Brownian
    ensemble the triple is adapted to and the one-step semigroup S(dt),
    whose powers are every S(t_j - t_k) on the grid, so the checks read
    them instead of rebuilding them."""

    y: ProcessEnsemble
    z: ProcessEnsemble
    g: ProcessEnsemble
    bm: BrownianEnsemble
    s_dt: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    steps_per_window: int = 40
    n_paths: int = 10_000
    seed: int = 0
    basis_degree: int = 2
    c_pe: float = 1.0
    tol: float = 1e-3
    n_max: int = 25
    min_iter: int = 2


def select_generator(g_prev: np.ndarray, y_prev: np.ndarray, z_prev: np.ndarray,
                     times: np.ndarray, gspec: SetValuedSpec) -> np.ndarray:
    """Pointwise nearest-point selection g_new[k][m] in G(t_k, Y[k][m], Z[k][m]).

    The three stacks are (n + 1, M, d) arrays on the nodes ``times``, or
    (M, d) arrays at the one time ``times``.  Projection of adapted data
    through a deterministic map, so the output is adapted; the moved
    distance at each point equals the distance from the previous selection
    to the new constraint set.
    """
    centers = gspec.center_batch(times, y_prev, z_prev)
    # every constraint set is the translate centers + base of one base set;
    # the result goes into the older allocation, which lowers peak RSS
    out = g_prev - centers
    out[...] = project(out, gspec.base)
    out += centers
    return out


def _window_regressions(bm: BrownianEnsemble, k_lo: int, n_steps: int,
                        basis_degree: int) -> list:
    """Per-step factored designs on the Brownian value: the basis projection
    and its kernel variant."""
    out = []
    for k in range(n_steps):
        base = PolynomialRegression(bm.levels[k_lo + k], basis_degree)
        out.append((base, KernelRegression(base, bm.increments[k_lo + k],
                                           bm.grid.dt)))
    return out


def solve_linear_bsee(g: np.ndarray, terminal_values: np.ndarray, k_lo: int,
                      s_dt: np.ndarray, bm: BrownianEnsemble,
                      basis_degree: int, regressions: list | None = None):
    """One backward sweep of the linear equation with frozen source g, an
    (n + 1, M, d) array on the grid nodes k_lo, ..., k_lo + n of ``bm``,
    and the one-step semigroup ``s_dt`` = S(dt) of that grid.

    Discretization: Y[k] = E[S(dt) Y[k+1] | F_k] - dt g[k] and
    Z[k] = (1/dt) E[S(dt) Y[k+1] dW_k | F_k], both evaluated by regression;
    the Z-expectation is read from the increment block of the joint basis
    regression, which estimates the identical quantity at a fraction of the
    Monte Carlo variance.  Y at the last node equals the terminal values
    exactly.

    Returns (Y, Z) arrays shaped like g; Z at the last node is set to zero
    by convention and carries no quadrature mass.
    """
    n = g.shape[0] - 1
    dt = bm.grid.dt
    terminal = np.asarray(terminal_values, dtype=float)
    if terminal.shape != g.shape[1:]:
        raise ValueError("terminal values must be one vector per path")
    if regressions is None:
        regressions = _window_regressions(bm, k_lo, n, basis_degree)
    y = np.empty_like(g)
    z = np.zeros_like(g)
    y[n] = terminal
    for k in range(n - 1, -1, -1):
        base, kern = regressions[k]
        propagated = y[k + 1] @ s_dt.T
        z[k] = kern.kernel(propagated)
        y[k] = base.fit(propagated).values - dt * g[k]
    return y, z


def picard_solve_interval(problem: BSEIProblem, index: int, window: tuple,
                          terminal_values: np.ndarray, schedule: PicardSchedule,
                          s_dt: np.ndarray, bm: BrownianEnsemble,
                          basis_degree: int):
    """Fixed-point iteration from the zero triple on window ``index``, the
    grid nodes ``window`` = (k_lo, k_hi).

    Alternates generator selection and the linear solve until the summed
    difference norm dY + dZ falls below the schedule tolerance (but never
    before ``min_iter`` iterations, so contraction diagnostics have data).
    Ends with one extra selection against the final pair so the inclusion
    holds at the reported iterates.  Raises NonConvergenceError with the
    partial report attached when an iterate is not finite, or when the
    iteration cap is hit above tolerance.
    """
    k_lo, k_hi = window
    n = k_hi - k_lo
    dt = bm.grid.dt
    if n * dt > schedule.delta * (1.0 + 1e-9):
        raise ValueError("window longer than the schedule permits")
    p = problem.exponent
    times = bm.grid.nodes[k_lo:k_hi + 1]
    regs = _window_regressions(bm, k_lo, n, basis_degree)
    y = np.zeros((n + 1, bm.n_paths, problem.dim))
    z, g = np.zeros_like(y), np.zeros_like(y)
    report = WindowReport(index=index, k_lo=k_lo, k_hi=k_hi, iterations=[],
                          converged=False)
    # ridge fallback depends on the design alone, so count it per window
    ridge_total = sum(int(b.ridge_used) + int(k.ridge_used) for b, k in regs)
    prev_sum = None
    for it in range(1, schedule.n_max + 1):
        g_new = select_generator(g, y, z, times, problem.gspec)
        y_new, z_new = solve_linear_bsee(g_new, terminal_values, k_lo, s_dt, bm,
                                         basis_degree, regressions=regs)
        dy, dz, dg = (_lp_l2(y_new, y, dt, p), _lp_l2(z_new, z, dt, p),
                      _lp_l2(g_new, g, dt, p))
        ratio = (dy + dz) / prev_sum if (it >= 2 and prev_sum) else None
        report.iterations.append(IterationRecord(it, dy, dz, dg, ratio,
                                                 schedule.eps(it)))
        if not all(np.isfinite(v).all() for v in (y_new, z_new, g_new)):
            raise NonConvergenceError(f"window [{k_lo}, {k_hi}] iteration {it}: "
                                      "non-finite iterate", report=report)
        y, z, g = y_new, z_new, g_new
        prev_sum = dy + dz
        if it >= schedule.min_iter and dy + dz <= schedule.tol:
            report.converged = True
            break
    if not report.converged:
        raise NonConvergenceError(
            f"window [{k_lo}, {k_hi}] still above tol after {schedule.n_max} "
            f"iterations (last dY+dZ = {prev_sum:.3e})", report=report)
    final_g = select_generator(g, y, z, times, problem.gspec)
    return y, z, final_g, report, ridge_total


def _full_grid_bytes(n_steps: int, n_paths: int, dim: int) -> int:
    """Bytes of the arrays a solve keeps on the whole grid: Y, Z and g at
    every node, the Brownian increments per step and levels per node."""
    return 8 * n_paths * ((3 * dim + 1) * (n_steps + 1) + n_steps)


def _about(n: int) -> str:
    """An integer of any size in a few characters (exact below 10^7)."""
    digits = str(n)
    return digits if len(digits) <= 7 else f"{digits[0]}.{digits[1:3]}e{len(digits) - 1}"


def _check_memory(n_steps: int, n_paths: int, dim: int) -> None:
    """Raise ScheduleError before allocating when the full-grid arrays alone
    would exceed the machine's physical memory."""
    try:
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf: no budget
        return
    need = _full_grid_bytes(n_steps, n_paths, dim)
    if need > budget:
        # blame the path count only when the steps alone would fit
        field = ("numerics.paths" if _full_grid_bytes(n_steps, 1, dim) <= budget
                 else "problem.generator")
        raise ScheduleError(
            f"the schedule plans {_about(n_steps)} steps x {n_paths} paths, "
            f"about {_about(need)} bytes of full-grid arrays, more than the "
            f"{budget} bytes of physical memory", field=field)


# a non-finite iterate ends the run at its window's finiteness check and an
# overflowing residual is reported as inf: numpy's warnings would repeat them
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: BSEIProblem, config: SolverConfig = SolverConfig()):
    """Solve the inclusion over the whole horizon by backward concatenation.

    The horizon splits into equal windows no longer than the schedule's
    delta; the last window takes the sampled terminal data, every earlier
    window the computed Y at its right endpoint.  Returns the concatenated
    Solution, which carries the Brownian ensemble and S(dt) of the run,
    and a SolveReport carrying per-window iteration diagnostics
    and the one residual pass of the run (without the Z cross-check).
    """
    t0 = time.perf_counter()
    a = problem.generator
    horizon = problem.horizon
    step = horizon / _SCHEDULE_PROBE_STEPS
    try:
        probe = SemigroupCache.build(a, step, _SCHEDULE_PROBE_STEPS)
    except ValueError as exc:  # a zero step, or the law fails in floating point
        raise ScheduleError(f"no semigroup probe on [0, {horizon}]: {exc}",
                            field="problem.generator" if step > 0.0
                            else "problem.horizon") from exc
    schedule = compute_schedule(problem, probe, c_pe=config.c_pe,
                                n_max=config.n_max, tol=config.tol,
                                min_iter=config.min_iter)
    n_win = schedule.n_windows
    n_total = n_win * config.steps_per_window
    _check_memory(n_total, config.n_paths, problem.dim)
    grid = TimeGrid(horizon, n_total)
    bm = simulate_brownian(grid, config.n_paths, config.seed)
    # on a uniform grid every S(t_j - t_k) is a power of this one matrix
    s_dt = matrix_exponential(grid.dt * a)

    m, d = config.n_paths, problem.dim
    y = np.zeros((n_total + 1, m, d))
    z = np.zeros_like(y)
    g = np.zeros_like(y)
    windows = []
    report = SolveReport(schedule=schedule, windows=windows, seed=config.seed,
                         n_paths=m, n_steps_total=n_total,
                         basis_degree=config.basis_degree)
    terminal = problem.terminal.sample(bm)
    for w in range(n_win - 1, -1, -1):
        k_lo, k_hi = w * config.steps_per_window, (w + 1) * config.steps_per_window
        try:
            y_loc, z_loc, g_loc, wrep, ridge = picard_solve_interval(
                problem, w, (k_lo, k_hi), terminal, schedule, s_dt, bm,
                config.basis_degree)
        except NonConvergenceError as exc:
            windows.insert(0, exc.report)
            report.runtime_seconds = time.perf_counter() - t0
            raise NonConvergenceError(str(exc), report=report) from exc
        windows.insert(0, wrep)
        report.ridge_events += ridge
        stop = k_hi + 1 if w == n_win - 1 else k_hi
        y[k_lo:stop] = y_loc[:stop - k_lo]
        z[k_lo:stop] = z_loc[:stop - k_lo]
        g[k_lo:stop] = g_loc[:stop - k_lo]
        terminal = y_loc[0]

    sol = Solution(
        y=ProcessEnsemble(grid, y), z=ProcessEnsemble(grid, z),
        g=ProcessEnsemble(grid, g), bm=bm, s_dt=s_dt)
    report.residuals = verify_solution(sol, problem)
    report.runtime_seconds = time.perf_counter() - t0
    return sol, report


@dataclass
class ZCheckEntry:
    node: int
    discrepancy: float
    z_norm: float


@dataclass
class ResidualReport:
    inclusion_max: float
    equation: np.ndarray  # (N + 1,) per-node sample norms
    y_modulus: float = 0.0  # max one-step increment of Y in sample L^p
    z_checks: list | None = None

    @property
    def equation_max(self) -> float:
        return float(np.max(self.equation))


def verify_solution(sol: Solution, problem: BSEIProblem) -> ResidualReport:
    """Pure diagnostics on a completed solution, on the Brownian ensemble
    and the S(dt) that it carries.

    Reports (a) the worst pointwise distance of g to its constraint set and
    (b) the per-node sample norm of the discrete backward-equation residual
    Y[k] + sum_j dt S(t_j - t_k) g[j] + sum_j S(t_j - t_k) Z[j] dW_j
    - S(T - t_k) xi, both node by node in one backward pass.  The discrete
    modulus of continuity of Y comes along for free; on a grid that is the
    strongest statement available about time continuity.  The Z
    cross-check is ``z_crosscheck``.
    """
    grid = sol.y.grid
    n = grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    p = problem.exponent
    s_dt, gspec = sol.s_dt, problem.gspec
    y, z, g, dw = sol.y.values, sol.z.values, sol.g.values, sol.bm.increments

    def inclusion_gap(k):
        gap = g[k] - select_generator(g[k], y[k], z[k], nodes[k], gspec)
        return np.max(np.linalg.norm(gap, axis=-1))

    # kept per node so that a NaN gap reaches the maximum
    inclusion = np.empty(n + 1)
    inclusion[n] = inclusion_gap(n)
    xi = y[n]
    acc = np.zeros_like(xi)
    xi_prop = xi.copy()
    equation = np.empty(n + 1)
    equation[n] = 0.0
    y_modulus = 0.0
    for k in range(n - 1, -1, -1):
        inclusion[k] = inclusion_gap(k)
        acc = (dt * g[k] + z[k] * dw[k][:, None]) + acc @ s_dt.T
        xi_prop = xi_prop @ s_dt.T
        res = y[k] + acc - xi_prop
        equation[k] = _sample_norm(np.sum(res**2, axis=1), p)
        step = y[k + 1] - y[k]
        y_modulus = max(y_modulus, _sample_norm(np.sum(step**2, axis=1), p))

    return ResidualReport(inclusion_max=float(np.max(inclusion)),
                          equation=equation, y_modulus=y_modulus)


def z_crosscheck(sol: Solution, basis_degree: int, n_nodes: int) -> list:
    """Solver Z against the explicit rebuild on up to ``n_nodes`` evenly
    spaced nodes, as RMS discrepancy and RMS size of Z per node."""
    n = sol.y.grid.n_steps
    if n_nodes <= 0:
        return []
    nodes = sorted(set(np.linspace(0, n - 1, min(n_nodes, n)).astype(int)))
    rebuilt = _rebuild_z(sol, basis_degree, nodes)

    def rms(v):
        return float(np.sqrt(np.mean(np.sum(v**2, axis=1))))
    return [ZCheckEntry(node=int(u), discrepancy=rms(rebuilt[u] - sol.z.values[u]),
                        z_norm=rms(sol.z.values[u])) for u in nodes]


def _rebuild_z(sol: Solution, basis_degree: int, nodes) -> dict:
    """Explicit Z at the requested nodes from the representation kernels.

    Z_u = S(T - t_u) Psi_u - sum_{s > u} dt S(t_s - t_u) tau[s][u], where Psi
    represents the terminal data xi = Y[n] and tau the generator selection;
    the minus sign is the one of the scheme Y[k] = E[S Y[k+1] | F_k] - dt g[k].
    Kernels and conditional expectations are linear in their targets and
    commute with right-multiplication by S, so the per-source tower chains
    sum to one backward sweep: R[n] = xi, R[k] = E[R[k+1] S(dt)' | F_k]
    - dt g[k], and Z_u = kern_u(R[u+1] S(dt)').  That is one regression fit
    per node above the lowest requested one, and one kernel design per
    requested node.
    """
    grid, bm, s_dt = sol.y.grid, sol.bm, sol.s_dt
    n, dt = grid.n_steps, grid.dt
    wanted = set(int(u) for u in nodes)
    lowest = min(wanted, default=n)
    rebuilt = {}
    r = sol.y.values[n]
    for k in range(n - 1, lowest - 1, -1):
        propagated = r @ s_dt.T
        reg = PolynomialRegression(bm.levels[k], basis_degree)
        if k in wanted:
            rebuilt[k] = KernelRegression(reg, bm.increments[k], dt).kernel(propagated)
        if k > lowest:
            r = reg.fit(propagated).values - dt * sol.g.values[k]
    return rebuilt
