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
import time
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NonConvergenceError, ScheduleError
from .geometry import SetValuedSpec, project
from .paths import (
    BrownianEnsemble,
    TimeGrid,
    _check_seed,
    _lp_l2,
    _physical_memory,
    _sample_norm,
    simulate_brownian,
    solve_linear_bsee,
    step_designs,
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
    """Contraction constants governing the window length.

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

    def eps(self, n: int) -> float:
        return (self.beta * math.sqrt(self.delta) / 2.0) ** n


def _beta_field(lipschitz: float, gamma_s: float, horizon: float, c_pe: float,
                lipschitz_field: str) -> str:
    """The config entry behind the largest factor of beta: c_pe, L (from
    ``lipschitz_field``) or gamma (1 + sqrt(T) (1 + gamma)), from A."""
    factors = ((c_pe, "numerics.c_pe"), (lipschitz, lipschitz_field),
               (gamma_s * (1.0 + math.sqrt(horizon) * (1.0 + gamma_s)),
                "problem.generator"))
    return max(factors, key=lambda f: f[0])[1]


def schedule_from_constants(lipschitz: float, gamma_s: float, horizon: float,
                            c_pe: float,
                            lipschitz_field: str = "problem.g.a_y") -> PicardSchedule:
    """The schedule of the constants; a beta that leaves no finite window
    count raises ``ScheduleError`` naming the entry behind its largest factor."""
    if c_pe <= 0.0 or lipschitz < 0.0 or gamma_s < 1.0 or horizon <= 0.0:
        raise ValueError("need c_pe > 0, lipschitz >= 0, gamma_s >= 1, horizon > 0")
    beta = c_pe * lipschitz * gamma_s * (1.0 + math.sqrt(horizon) * (1.0 + gamma_s))
    if beta * beta == 0.0:  # includes subnormal beta whose square underflows
        delta = horizon / 4.0
    else:
        delta = 0.25 * min(1.0 / (beta * beta), horizon)
        while beta * math.sqrt(delta) > 0.5:  # absorb rounding at the margin
            delta = math.nextafter(delta, 0.0)
    if not delta > 0.0 or math.isinf(horizon / delta):  # beta non-finite or huge
        raise ScheduleError(f"beta = {beta} (c_pe = {c_pe}, L = {lipschitz}, "
                            f"gamma(S) = {gamma_s}) leaves no finite window count",
                            field=_beta_field(lipschitz, gamma_s, horizon, c_pe,
                                              lipschitz_field))
    n_windows = max(1, math.ceil(horizon / delta - 1e-12))
    return PicardSchedule(
        gamma_s=gamma_s, c_pe=c_pe, lipschitz=lipschitz, horizon=horizon,
        beta=beta, delta=delta, n_windows=n_windows,
        window_length=horizon / n_windows,
    )


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
    ridge_events: int  # ridge fallbacks of the window's designs


@dataclass
class SolveReport:
    schedule: PicardSchedule
    windows: list
    config: SolverConfig
    n_steps_total: int
    runtime_seconds: float = 0.0
    residuals: ResidualReport | None = None  # None until every window converged

    @property
    def ridge_events(self) -> int:
        return sum(w.ridge_events for w in self.windows)

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
    """Adapted triple (Y, Z, g) as (N + 1, M, d) arrays on the grid of
    ``bm``, the Brownian ensemble it is adapted to; Y at the last node is
    the terminal data exactly, and g is the last projection onto the
    constraint sets evaluated at the final (Y, Z).  ``s_dt`` is S(dt), whose
    powers are every S(t_j - t_k) on the grid, so the checks read it."""

    y: np.ndarray
    z: np.ndarray
    g: np.ndarray
    bm: BrownianEnsemble
    s_dt: np.ndarray

    @property
    def grid(self) -> TimeGrid:
        return self.bm.grid


@dataclass(frozen=True)
class SolverConfig:
    """Numerics of a run.  These defaults are the package's only ones: the
    CLI passes on just the fields a config file sets."""

    steps_per_window: int = 40
    n_paths: int = 10_000
    seed: int = 0
    basis_degree: int = 2
    c_pe: float = 1.0
    tol: float = 1e-3
    n_max: int = 25
    min_iter: int = 2

    def __post_init__(self):
        _check_seed(self.seed)


def select_generator(g_prev: np.ndarray, y_prev: np.ndarray, z_prev: np.ndarray,
                     times: np.ndarray, gspec: SetValuedSpec) -> np.ndarray:
    """Pointwise nearest-point selection g_new[k][m] in G(t_k, Y[k][m], Z[k][m]).

    The three stacks are (n, M, d) arrays on the n nodes ``times``.
    Projection of adapted data through a deterministic map, so the output is
    adapted; the moved distance at each point equals the distance from the
    previous selection to the new constraint set.
    """
    out = np.empty_like(g_prev)
    # every constraint set is the translate c + base of one base set; whole
    # nodes of about _CHUNK_ENTRIES entries are centred, projected and
    # re-centred while they are in cache, so no stack-sized centre is built
    step = max(1, geometry._CHUNK_ENTRIES // max(1, g_prev[0].size))
    for lo in range(0, len(times), step):
        k = slice(lo, lo + step)
        c = gspec.center_batch(times[k], y_prev[k], z_prev[k])
        np.subtract(g_prev[k], c, out=out[k])
        np.add(project(out[k], gspec.base), c, out=out[k])
    return out


def picard_solve_interval(problem: BSEIProblem, index: int,
                          terminal_values: np.ndarray, schedule: PicardSchedule,
                          s_dt: np.ndarray, bm: BrownianEnsemble,
                          config: SolverConfig):
    """Fixed-point iteration from the zero triple on window ``index``, the
    grid nodes k_lo = index * ``config.steps_per_window`` <= k < k_hi =
    k_lo + ``config.steps_per_window``, from Y at k_hi, ``terminal_values``.

    Alternates generator selection and the linear solve until the summed
    difference norm dY + dZ falls below ``config.tol`` (but never before
    ``config.min_iter`` iterations, so contraction diagnostics have data).
    Ends with one extra selection against the final pair so the inclusion
    holds at the reported iterates.  Returns (Y, Z, g, window report).
    Raises NonConvergenceError with the partial report attached when an
    iterate is not finite, or when ``config.n_max`` iterations end above
    tolerance.
    """
    n = config.steps_per_window
    k_lo, k_hi = index * n, (index + 1) * n
    dt = bm.grid.dt
    if n * dt > schedule.delta * (1.0 + 1e-9):
        raise ValueError("window longer than the schedule permits")
    if not 0 <= k_lo < k_hi <= bm.grid.n_steps:
        raise ValueError(f"window {index} leaves the grid of {bm.grid.n_steps} steps")
    p = problem.exponent
    times = bm.grid.nodes[k_lo:k_hi]
    designs = step_designs(bm, k_lo, n, config.basis_degree)
    y = np.zeros((n, bm.n_paths, problem.dim))
    z, g = np.zeros_like(y), np.zeros_like(y)
    # ridge fallback depends on the design alone, so count it per window
    report = WindowReport(
        index=index, k_lo=k_lo, k_hi=k_hi, iterations=[], converged=False,
        ridge_events=sum(int(b.ridge_used) + int(k.ridge_used) for b, k in designs))
    prev_sum = None
    for it in range(1, config.n_max + 1):
        g_new = select_generator(g, y, z, times, problem.gspec)
        y_new, z_new = solve_linear_bsee(g_new, terminal_values, s_dt, dt, designs)
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
        if it >= config.min_iter and dy + dz <= config.tol:
            report.converged = True
            break
    if not report.converged:
        raise NonConvergenceError(
            f"window [{k_lo}, {k_hi}] still above tol after {config.n_max} "
            f"iterations (last dY+dZ = {prev_sum:.3e})", report=report)
    final_g = select_generator(g, y, z, times, problem.gspec)
    return y, z, final_g, report


def _bytes_per_path(n_steps: int, dim: int, config: SolverConfig) -> int:
    """Bytes per path of a solve's arrays: Y, Z, g and W at every node, dW
    per step, and a window's two (Y, Z, g) iterates and designs (three
    arrays of basis_degree + 1 columns per step)."""
    n = config.steps_per_window
    return 8 * ((3 * dim + 1) * (n_steps + 1) + n_steps
                + 6 * dim * n + 3 * n * (config.basis_degree + 1))


def _about(n: int) -> str:
    """An integer of any size in a few characters (exact below 10^7)."""
    digits = str(n)
    return digits if len(digits) <= 7 else f"{digits[0]}.{digits[1:3]}e{len(digits) - 1}"


def _check_memory(n_steps: int, dim: int, config: SolverConfig,
                  steps_field: str) -> None:
    """Raise ScheduleError before allocating when the solve's arrays would
    exceed the machine's physical memory."""
    budget = _physical_memory()
    per_path = _bytes_per_path(n_steps, dim, config)
    need = per_path * config.n_paths
    if budget is not None and need > budget:
        # blame the path count only when the steps alone would fit
        field = "numerics.paths" if per_path <= budget else steps_field
        raise ScheduleError(
            f"the schedule plans {_about(n_steps)} steps x {config.n_paths} paths, "
            f"about {_about(need)} bytes of solver arrays, more than the "
            f"{budget} bytes of physical memory", field=field)


# a non-finite iterate ends the run at its window's finiteness check and an
# overflowing residual is reported as inf: numpy's warnings would repeat them
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: BSEIProblem, config: SolverConfig = SolverConfig()):
    """Solve the inclusion over the whole horizon by backward concatenation.

    The horizon splits into equal windows no longer than the schedule's
    delta; each solves its nodes [k_lo, k_hi) from the Y at k_hi of the
    window after it, the last from node N, set first.  Returns the concatenated
    Solution, which carries the Brownian ensemble and S(dt) of the run,
    and a SolveReport carrying per-window iteration diagnostics
    and the one residual pass of the run.
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
    norms = problem.gspec._norms
    constants = (problem.lipschitz_k, gamma_bound(probe), horizon, config.c_pe,
                 "problem.g.a_z" if norms[1] > norms[0] else "problem.g.a_y")
    schedule = schedule_from_constants(*constants)
    n_win = schedule.n_windows
    n_total = n_win * config.steps_per_window
    _check_memory(n_total, problem.dim, config, _beta_field(*constants))
    grid = TimeGrid(horizon, n_total)
    bm = simulate_brownian(grid, config.n_paths, config.seed)
    # on a uniform grid every S(t_j - t_k) is a power of this one matrix
    s_dt = matrix_exponential(grid.dt * a)

    y = np.zeros((n_total + 1, config.n_paths, problem.dim))
    z = np.zeros_like(y)
    g = np.zeros_like(y)
    report = SolveReport(schedule=schedule, windows=[], config=config,
                         n_steps_total=n_total)
    # node N belongs to no window: (xi, 0) and its selection from g = 0
    end = slice(n_total, None)
    y[end] = problem.terminal.sample(bm)
    g[end] = select_generator(g[end], y[end], z[end], grid.nodes[end], problem.gspec)
    for w in range(n_win - 1, -1, -1):
        k_hi = (w + 1) * config.steps_per_window
        try:
            y_loc, z_loc, g_loc, wrep = picard_solve_interval(
                problem, w, y[k_hi], schedule, s_dt, bm, config)
        except NonConvergenceError as exc:
            report.windows.insert(0, exc.report)
            report.runtime_seconds = time.perf_counter() - t0
            raise NonConvergenceError(str(exc), report=report) from exc
        report.windows.insert(0, wrep)
        window = slice(wrep.k_lo, wrep.k_hi)
        y[window], z[window], g[window] = y_loc, z_loc, g_loc

    sol = Solution(y=y, z=z, g=g, bm=bm, s_dt=s_dt)
    report.residuals = verify_solution(sol, problem)
    report.runtime_seconds = time.perf_counter() - t0
    return sol, report


@dataclass
class ResidualReport:
    inclusion_max: float
    equation: np.ndarray  # (N + 1,) per-node sample norms
    y_modulus: float = 0.0  # max one-step increment of Y in sample L^p

    @property
    def equation_max(self) -> float:
        return float(np.max(self.equation))


@np.errstate(over="ignore")  # an overflowing node is redone in range
def verify_solution(sol: Solution, problem: BSEIProblem) -> ResidualReport:
    """Pure diagnostics on a completed solution, on the Brownian ensemble
    and the S(dt) that it carries.

    Reports (a) the worst pointwise distance of g to its constraint set and
    (b) the per-node sample norm of the discrete backward-equation residual
    Y[k] + sum_j dt S(t_j - t_k) g[j] + sum_j S(t_j - t_k) Z[j] dW_j
    - S(T - t_k) xi, both node by node in one backward pass.  The discrete
    modulus of continuity of Y comes along for free; on a grid that is the
    strongest statement available about time continuity.
    """
    n, dt, nodes = sol.grid.n_steps, sol.grid.dt, sol.grid.nodes
    p, s_dt, gspec = problem.exponent, sol.s_dt, problem.gspec
    y, z, g, dw = sol.y, sol.z, sol.g, sol.bm.increments

    def inclusion_gap(k):
        node = slice(k, k + 1)
        gap = g[k] - select_generator(g[node], y[node], z[node], nodes[node], gspec)[0]
        return np.max(geometry._norm(gap))  # finite for any finite gap

    def node_norm(x):
        # a finite node whose squares overflow is redone in units of the power
        # of two 2^e near its largest |entry|: powers of two scale exactly
        norm = _sample_norm(np.sum(x**2, axis=1), p)
        if not np.isfinite(norm) and np.isfinite(x).all():
            e = int(np.frexp(np.abs(x).max())[1])
            unit = np.ldexp(x, -e)
            norm = float(np.ldexp(_sample_norm(np.sum(unit**2, axis=1), p), e))
        return norm

    # kept per node so that a NaN gap reaches the maximum
    inclusion = np.empty(n + 1)
    inclusion[n] = inclusion_gap(n)
    acc, xi_prop = np.zeros_like(y[n]), y[n].copy()
    equation = np.empty(n + 1)
    equation[n] = 0.0
    y_modulus = 0.0
    for k in range(n - 1, -1, -1):
        inclusion[k] = inclusion_gap(k)
        acc = (dt * g[k] + z[k] * dw[k][:, None]) + acc @ s_dt.T
        xi_prop = xi_prop @ s_dt.T
        equation[k] = node_norm(y[k] + acc - xi_prop)
        y_modulus = max(y_modulus, node_norm(y[k + 1] - y[k]))

    return ResidualReport(inclusion_max=float(np.max(inclusion)),
                          equation=equation, y_modulus=y_modulus)


def _rebuild_z(sol: Solution, basis_degree: int, nodes) -> dict:
    """Explicit Z at the requested nodes, all below N, from the representation kernels.

    No run calls it: it is the tests' reference for an explicit Z, and the
    benchmark tracer (perfbench/tracer.py) binds it by name.

    Z_u = S(T - t_u) Psi_u - sum_{s > u} dt S(t_s - t_u) tau[s][u], where Psi
    represents the terminal data xi = Y[n] and tau the generator selection;
    the minus sign is the one of the scheme Y[k] = E[S Y[k+1] | F_k] - dt g[k].
    Kernels and conditional expectations are linear in their targets and
    commute with right-multiplication by S, so the per-source tower chains
    sum to one backward sweep: R[n] = xi, R[k] = E[R[k+1] S(dt)' | F_k]
    - dt g[k], and Z_u = kern_u(R[u+1] S(dt)').  That is the linear sweep
    ``solve_linear_bsee`` with the final g as its source, from the lowest
    requested node up.
    """
    n = sol.grid.n_steps
    wanted = set(int(u) for u in nodes)
    lo = min(wanted, default=n)
    designs = step_designs(sol.bm, lo, n - lo, basis_degree)
    _, z = solve_linear_bsee(sol.g[lo:n], sol.y[n], sol.s_dt, sol.grid.dt, designs)
    return {u: z[u - lo] for u in wanted}
