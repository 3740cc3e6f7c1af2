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
from .errors import NonConvergenceError, RegressionError, ScheduleError
from .geometry import SetValuedSpec, project
from .paths import (
    BrownianEnsemble,
    KernelRegression,
    PolynomialRegression,
    ProcessEnsemble,
    TimeGrid,
    _lp_l2,
    simulate_brownian,
)
from .semigroup import SemigroupCache, gamma_bound

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

    @property
    def final_diff(self) -> float:
        last = self.iterations[-1]
        return last.dy + last.dz

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
    def equation_residuals(self) -> np.ndarray | None:
        return None if self.residuals is None else self.residuals.equation

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
    sets evaluated at the final (Y, Z).  ``solve`` also attaches the
    Brownian ensemble the triple is adapted to and the grid semigroup
    cache, so later checks reuse them instead of rebuilding them."""

    y: ProcessEnsemble
    z: ProcessEnsemble
    g: ProcessEnsemble
    bm: BrownianEnsemble | None = None
    cache: SemigroupCache | None = None


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
    # regress on the current iterate's Y alongside the Brownian value; off by
    # default because the Brownian value alone is the smallest basis that
    # makes the standard oracles exact (Y features of those problems are
    # collinear with it and only trip the ridge fallback)
    y_features: bool = False


def _project_onto_sets(g: np.ndarray, centers: np.ndarray,
                       gspec: SetValuedSpec) -> np.ndarray:
    # every constraint set is the translate centers + base of one base set;
    # the result goes into the older allocation, which lowers peak RSS
    out = g - centers
    out[...] = project(out, gspec.base)
    out += centers
    return out


def select_generator(g_prev: ProcessEnsemble, y_prev: ProcessEnsemble,
                     z_prev: ProcessEnsemble, gspec: SetValuedSpec) -> ProcessEnsemble:
    """Pointwise nearest-point selection g_new[k][m] in G(t_k, Y[k][m], Z[k][m]).

    Projection of adapted data through a deterministic map, so the output is
    adapted; the moved distance at each point equals the distance from the
    previous selection to the new constraint set.
    """
    for other in (y_prev, z_prev):
        if (other.grid != g_prev.grid or other.values.shape != g_prev.values.shape
                or other.start_index != g_prev.start_index):
            raise ValueError("generator/state ensembles must share grid and shape")
    centers = gspec.center_batch(g_prev.times, y_prev.values, z_prev.values)
    out = _project_onto_sets(g_prev.values, centers, gspec)
    return ProcessEnsemble(g_prev.grid, out, g_prev.start_index, adapted=True)


def _window_regressions(bm: BrownianEnsemble, k_lo: int, n_steps: int,
                        basis_degree: int, extra: np.ndarray | None = None) -> list:
    """Per-step factored designs: the basis projection and its kernel variant.

    ``extra`` optionally appends per-step state columns (the current iterate's
    Y) to the Brownian conditioning feature.
    """
    out = []
    for k in range(n_steps):
        feats = bm.levels[k_lo + k]
        if extra is not None:
            feats = np.column_stack([feats, extra[k]])
        base = PolynomialRegression(feats, basis_degree)
        out.append((base, KernelRegression(base, bm.increments[k_lo + k],
                                           bm.grid.dt)))
    return out


def solve_linear_bsee(g: ProcessEnsemble, terminal_values: np.ndarray,
                      cache: SemigroupCache, bm: BrownianEnsemble,
                      basis_degree: int, regressions: list | None = None):
    """One backward sweep of the linear equation with frozen source g.

    Discretization: Y[k] = E[S(dt) Y[k+1] | F_k] - dt g[k] and
    Z[k] = (1/dt) E[S(dt) Y[k+1] dW_k | F_k], both evaluated by regression;
    the Z-expectation is read from the increment block of the joint basis
    regression, which estimates the identical quantity at a fraction of the
    Monte Carlo variance.  Y at the last node equals the terminal values
    exactly.

    Returns (Y, Z) ensembles; Z at the last node is set to zero by
    convention and carries no quadrature mass.
    """
    grid, k_lo = g.grid, g.start_index
    n = g.n_nodes - 1
    dt = grid.dt
    if abs(cache.step - dt) > 1e-12 * max(1.0, dt):
        raise ValueError("semigroup cache step disagrees with the grid")
    terminal = np.asarray(terminal_values, dtype=float)
    if terminal.shape != (g.n_paths, g.dim):
        raise ValueError("terminal values must be one vector per path")
    if regressions is None:
        regressions = _window_regressions(bm, k_lo, n, basis_degree)
    s_one = cache.power(1)
    y = np.empty_like(g.values)
    z = np.zeros_like(g.values)
    y[n] = terminal
    for k in range(n - 1, -1, -1):
        base, kern = regressions[k]
        try:
            propagated = y[k + 1] @ s_one.T
            fit_y = base.fit(propagated)
            z[k] = kern.kernel(propagated)
        except np.linalg.LinAlgError as exc:
            raise RegressionError(str(exc), time_index=k_lo + k) from exc
        y[k] = fit_y.values - dt * g.values[k]
    return (ProcessEnsemble(grid, y, k_lo, adapted=True),
            ProcessEnsemble(grid, z, k_lo, adapted=True))


def picard_solve_interval(problem: BSEIProblem, window: tuple,
                          terminal_values: np.ndarray, schedule: PicardSchedule,
                          cache: SemigroupCache, bm: BrownianEnsemble,
                          basis_degree: int, y_features: bool = False):
    """Fixed-point iteration from the zero triple on one backward window.

    Alternates generator selection and the linear solve until the summed
    difference norm dY + dZ falls below the schedule tolerance (but never
    before ``min_iter`` iterations, so contraction diagnostics have data).
    Ends with one extra selection against the final pair so the inclusion
    holds at the reported iterates.  Raises NonConvergenceError with the
    partial report attached when the iteration cap is hit above tolerance.
    """
    k_lo, k_hi = window
    n = k_hi - k_lo
    grid, m, d = bm.grid, bm.n_paths, problem.dim
    if (k_hi - k_lo) * grid.dt > schedule.delta * (1.0 + 1e-9):
        raise ValueError("window longer than the schedule permits")
    p = problem.exponent
    dt = grid.dt
    regs = _window_regressions(bm, k_lo, n, basis_degree)
    zeros = np.zeros((n + 1, m, d))
    y, z, g = zeros, zeros.copy(), zeros.copy()
    report = WindowReport(index=0, k_lo=k_lo, k_hi=k_hi, iterations=[],
                          converged=False)
    # ridge fallback depends on the design alone, so count it per window
    ridge_total = sum(int(b.ridge_used) + int(k.ridge_used) for b, k in regs)
    prev_sum = None
    for it in range(1, schedule.n_max + 1):
        g_ens = select_generator(
            ProcessEnsemble(grid, g, k_lo), ProcessEnsemble(grid, y, k_lo),
            ProcessEnsemble(grid, z, k_lo), problem.gspec)
        if y_features and it == 2:
            # enrich the basis with the first informative iterate's Y, then
            # freeze it: a basis that moved with the iterate would break the
            # fixed-map contraction the diagnostics certify
            regs = _window_regressions(bm, k_lo, n, basis_degree, extra=y[:n])
            ridge_total += sum(int(b.ridge_used) + int(k.ridge_used)
                               for b, k in regs)
        y_ens, z_ens = solve_linear_bsee(
            g_ens, terminal_values, cache, bm, basis_degree, regressions=regs)
        dy = _lp_l2(y_ens.values - y, dt, p)
        dz = _lp_l2(z_ens.values - z, dt, p)
        dg = _lp_l2(g_ens.values - g, dt, p)
        ratio = (dy + dz) / prev_sum if (it >= 2 and prev_sum) else None
        report.iterations.append(IterationRecord(it, dy, dz, dg, ratio,
                                                 schedule.eps(it)))
        y, z, g = y_ens.values, z_ens.values, g_ens.values
        prev_sum = dy + dz
        if it >= schedule.min_iter and dy + dz <= schedule.tol:
            report.converged = True
            break
    if not report.converged:
        raise NonConvergenceError(
            f"window [{k_lo}, {k_hi}] still above tol after {schedule.n_max} "
            f"iterations (last dY+dZ = {prev_sum:.3e})", report=report)
    final_g = select_generator(
        ProcessEnsemble(grid, g, k_lo), ProcessEnsemble(grid, y, k_lo),
        ProcessEnsemble(grid, z, k_lo), problem.gspec)
    return y, z, final_g.values, report, ridge_total


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


def solve(problem: BSEIProblem, config: SolverConfig = SolverConfig()):
    """Solve the inclusion over the whole horizon by backward concatenation.

    The horizon splits into equal windows no longer than the schedule's
    delta; the last window takes the sampled terminal data, every earlier
    window the computed Y at its right endpoint.  Returns the concatenated
    Solution, which carries the Brownian ensemble and semigroup cache of
    the run, and a SolveReport carrying per-window iteration diagnostics
    and the one residual pass of the run (without the Z cross-check).
    """
    t0 = time.perf_counter()
    a = problem.generator
    horizon = problem.horizon
    probe = SemigroupCache.build(a, horizon / _SCHEDULE_PROBE_STEPS,
                                 _SCHEDULE_PROBE_STEPS)
    schedule = compute_schedule(problem, probe, c_pe=config.c_pe,
                                n_max=config.n_max, tol=config.tol,
                                min_iter=config.min_iter)
    n_win = schedule.n_windows
    n_total = n_win * config.steps_per_window
    _check_memory(n_total, config.n_paths, problem.dim)
    grid = TimeGrid(horizon, n_total)
    bm = simulate_brownian(grid, config.n_paths, config.seed)
    cache = SemigroupCache.build(a, grid.dt, n_total)
    xi = problem.terminal.sample(bm)

    m, d = config.n_paths, problem.dim
    y = np.zeros((n_total + 1, m, d))
    z = np.zeros_like(y)
    g = np.zeros_like(y)
    windows = []
    report = SolveReport(schedule=schedule, windows=windows, seed=config.seed,
                         n_paths=m, n_steps_total=n_total,
                         basis_degree=config.basis_degree)
    terminal = xi
    for w in range(n_win - 1, -1, -1):
        k_lo, k_hi = w * config.steps_per_window, (w + 1) * config.steps_per_window
        try:
            y_loc, z_loc, g_loc, wrep, ridge = picard_solve_interval(
                problem, (k_lo, k_hi), terminal, schedule, cache, bm,
                config.basis_degree, y_features=config.y_features)
        except NonConvergenceError as exc:
            if exc.report is not None:
                exc.report.index = w
                windows.insert(0, exc.report)
            report.runtime_seconds = time.perf_counter() - t0
            raise NonConvergenceError(str(exc), report=report) from exc
        wrep.index = w
        windows.insert(0, wrep)
        report.ridge_events += ridge
        last = w == n_win - 1
        stop = k_hi + 1 if last else k_hi
        y[k_lo:stop] = y_loc[:stop - k_lo]
        z[k_lo:stop] = z_loc[:stop - k_lo]
        g[k_lo:stop] = g_loc[:stop - k_lo]
        terminal = y_loc[0]

    sol = Solution(
        y=ProcessEnsemble(grid, y), z=ProcessEnsemble(grid, z),
        g=ProcessEnsemble(grid, g), bm=bm, cache=cache)
    report.residuals = verify_solution(sol, problem, cache, bm)
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


def _inclusion_residual(sol: Solution, problem: BSEIProblem) -> float:
    gspec = problem.gspec
    centers = gspec.center_batch(sol.g.times, sol.y.values, sol.z.values)
    gv = sol.g.values
    gap = gv - _project_onto_sets(gv, centers, gspec)
    return float(np.max(np.linalg.norm(gap, axis=-1)))


def verify_solution(sol: Solution, problem: BSEIProblem, cache: SemigroupCache,
                    bm: BrownianEnsemble, basis_degree: int = 2,
                    z_check_nodes: int = 0) -> ResidualReport:
    """Pure diagnostics on a completed solution.

    Reports (a) the worst pointwise distance of g to its constraint set,
    (b) the per-node sample norm of the discrete backward-equation residual
    Y[k] + sum_j dt S(t_j - t_k) g[j] + sum_j S(t_j - t_k) Z[j] dW_j
    - S(T - t_k) xi, and (c), on up to ``z_check_nodes`` evenly spaced
    nodes, the mismatch between the solver's Z and the explicit rebuild
    from the representation kernel of g plus the terminal part.  The
    discrete modulus of continuity of Y comes along for free; on a grid
    that is the strongest statement available about time continuity.
    """
    grid = sol.y.grid
    n = grid.n_steps
    dt = grid.dt
    p = problem.exponent
    s_one = cache.power(1)

    inclusion = _inclusion_residual(sol, problem)

    xi = sol.y.values[n]
    u_src = dt * sol.g.values[:n] + sol.z.values[:n] * bm.increments[:, :, None]
    acc = np.zeros_like(xi)
    xi_prop = xi.copy()
    equation = np.empty(n + 1)
    equation[n] = 0.0
    y_modulus = 0.0
    for k in range(n - 1, -1, -1):
        acc = u_src[k] + acc @ s_one.T
        xi_prop = xi_prop @ s_one.T
        res = sol.y.values[k] + acc - xi_prop
        equation[k] = np.mean(np.sum(res**2, axis=1) ** (p / 2.0)) ** (1.0 / p)
        step = sol.y.values[k + 1] - sol.y.values[k]
        y_modulus = max(y_modulus, float(
            np.mean(np.sum(step**2, axis=1) ** (p / 2.0)) ** (1.0 / p)))

    z_checks = (z_crosscheck(sol, cache, bm, basis_degree, z_check_nodes)
                if z_check_nodes > 0 else None)
    return ResidualReport(inclusion_max=inclusion, equation=equation,
                          y_modulus=y_modulus, z_checks=z_checks)


def z_crosscheck(sol: Solution, cache: SemigroupCache, bm: BrownianEnsemble,
                 basis_degree: int, n_nodes: int) -> list:
    """Solver Z against the explicit rebuild on up to ``n_nodes`` evenly
    spaced nodes, as RMS discrepancy and RMS size of Z per node."""
    n = sol.y.grid.n_steps
    if n_nodes <= 0:
        return []
    nodes = sorted(set(np.linspace(0, n - 1, min(n_nodes, n)).astype(int)))
    rebuilt = _rebuild_z(sol, cache, bm, basis_degree, nodes, sol.y.values[n])

    def rms(v):
        return float(np.sqrt(np.mean(np.sum(v**2, axis=1))))
    return [ZCheckEntry(node=int(u), discrepancy=rms(rebuilt[u] - sol.z.values[u]),
                        z_norm=rms(sol.z.values[u])) for u in nodes]


def _rebuild_z(sol: Solution, cache: SemigroupCache, bm: BrownianEnsemble,
               basis_degree: int, nodes, xi) -> dict:
    """Explicit Z at the requested nodes from the representation kernels.

    Z_u = S(T - t_u) Psi_u - sum_{s > u} dt S(t_s - t_u) tau[s][u], where Psi
    represents the terminal data and tau the generator selection; the minus
    sign is the one of the scheme Y[k] = E[S Y[k+1] | F_k] - dt g[k].  Kernels
    and conditional expectations are linear in their targets and commute with
    right-multiplication by S, so the per-source tower chains sum to one
    backward sweep: R[n] = xi, R[k] = E[R[k+1] S(dt)' | F_k] - dt g[k], and
    Z_u = kern_u(R[u+1] S(dt)').  That is one regression fit per node above
    the lowest requested one, and one kernel design per requested node.
    """
    grid = sol.y.grid
    n, dt = grid.n_steps, grid.dt
    wanted = set(int(u) for u in nodes)
    lowest = min(wanted, default=n)
    s_one = cache.power(1)
    rebuilt = {}
    r = xi
    for k in range(n - 1, lowest - 1, -1):
        propagated = r @ s_one.T
        reg = PolynomialRegression(bm.levels[k], basis_degree)
        if k in wanted:
            rebuilt[k] = KernelRegression(reg, bm.increments[k], dt).kernel(propagated)
        if k > lowest:
            r = reg.fit(propagated).values - dt * sol.g.values[k]
    return rebuilt
