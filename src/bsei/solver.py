"""Backward solver for set-valued stochastic evolution equations.

The solution computed is the one whose generator is the minimal-norm
selection g = m(G(t, Y, Z)), m(G) = P_G(0), at every node: each G here is a
translate c0(t) + a_y Y + a_z Z + B of one convex compact B, and m(c + B) =
c + P_B(-c) is 1-Lipschitz in c, so (Y, Z) -> g keeps the schedule's L and
the solution is unique.  In windows short enough for that schedule the
driver alternates selecting m(G) at the current (Y, Z) and solving the
resulting linear backward equation by regression on a fixed path ensemble,
until (Y, Z) stall.  Windows run from the terminal time backwards, each
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
    _path_sums,
    _physical_memory,
    _power_mean,
    simulate_brownian,
    solve_linear_bsee,
    step_designs,
)
from .semigroup import gamma_bound, matrix_exponential


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

    beta = c L gamma (1 + sqrt(T) (1 + gamma)), gamma = ``gamma_bound(A, T)``,
    and delta = min(1/beta^2, T)/4 force beta sqrt(delta) <= 1/2, the margin
    behind the geometric decay of the iteration differences; the slack
    sequence eps(n) = (beta sqrt(delta)/2)^n is kept for reporting.
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
    """The schedule of the constants; a horizon whose quarter underflows, or
    a beta that leaves no finite window count, raises ``ScheduleError``
    naming the horizon or the entry behind beta's largest factor."""
    if c_pe <= 0.0 or lipschitz < 0.0 or gamma_s < 1.0 or horizon <= 0.0:
        raise ValueError("need c_pe > 0, lipschitz >= 0, gamma_s >= 1, horizon > 0")
    if horizon / 4.0 == 0.0:
        raise ScheduleError(f"horizon {horizon} leaves no window length above 0",
                            field="problem.horizon")
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
    """One iteration's dY and dZ, their sum's ratio to the last sum, eps(n)."""
    iteration: int
    dy: float
    dz: float
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
    the terminal data exactly, and g is the minimal-norm point of each
    constraint set at the final (Y, Z).  ``s_dt`` is S(dt), whose
    powers are every S(t_j - t_k) on the grid, so the checks read it.
    ``solve`` builds one only when asked to keep the paths, as it is by
    default: the CLI asks for none and reads the report alone."""

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
    adapted.  From a zero stack it is the minimal-norm selection m(G) that a
    solve reports; from any g, g less it is g's gap to its constraint set.
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
    """Fixed-point iteration of (Y, Z) from zero on window ``index``, the
    grid nodes k_lo = index * ``config.steps_per_window`` <= k < k_hi =
    k_lo + ``config.steps_per_window``, from Y at k_hi, ``terminal_values``.

    Each iteration selects g = m(G(t, Y, Z)) (``select_generator`` from a
    zero stack) and solves the linear equation with it for the next (Y, Z),
    until dY + dZ falls below ``config.tol`` (never before
    ``config.min_iter`` iterations, so contraction diagnostics have data);
    the g returned is m(G) at the final pair.  Returns (Y, Z, g, window
    report).  Raises NonConvergenceError with the partial report attached
    when dY or dZ is not finite, or when ``config.n_max`` iterations end
    above tolerance.
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
    zero = y = z = np.broadcast_to(0.0, (n, bm.n_paths, problem.dim))  # only read
    # ridge fallback depends on the design alone, so count it per window
    report = WindowReport(
        index=index, k_lo=k_lo, k_hi=k_hi, iterations=[], converged=False,
        ridge_events=sum(int(b.ridge_used) + int(k.ridge_used) for b, k in designs))
    prev_sum = None
    for it in range(1, config.n_max + 1):
        # g = m(G(t, Y, Z)) lives for the sweep alone, so no g is carried
        y_new, z_new = solve_linear_bsee(
            select_generator(zero, y, z, times, problem.gspec),
            terminal_values, s_dt, dt, designs)
        dy, dz = _lp_l2(y_new, y, dt, p), _lp_l2(z_new, z, dt, p)
        ratio = (dy + dz) / prev_sum if (it >= 2 and prev_sum) else None
        report.iterations.append(IterationRecord(it, dy, dz, ratio, schedule.eps(it)))
        if not (math.isfinite(dy) and math.isfinite(dz)):  # y and z are finite
            raise NonConvergenceError(f"window [{k_lo}, {k_hi}] iteration {it}: "
                                      "non-finite iterate or norm", report=report)
        y, z, prev_sum = y_new, z_new, dy + dz
        if it >= config.min_iter and dy + dz <= config.tol:
            report.converged = True
            break
    if not report.converged:
        raise NonConvergenceError(
            f"window [{k_lo}, {k_hi}] still above tol after {config.n_max} "
            f"iterations (last dY+dZ = {prev_sum:.3e})", report=report)
    return y, z, select_generator(zero, y, z, times, problem.gspec), report


def _bytes_per_path(n_steps: int, dim: int, config: SolverConfig,
                    keep_paths: bool = True) -> int:
    """Bytes per path of a solve's arrays: W at every node, dW per step, a
    window's designs (basis_degree + 1 columns a step), its two (Y, Z)
    iterates and their g, the last window's (Y, Z, g), held until the next
    window returns, and with ``keep_paths`` Y, Z and g at every node."""
    n = config.steps_per_window
    grids = 3 * dim * (n_steps + 1) if keep_paths else 0
    return 8 * (grids + (n_steps + 1) + n_steps
                + 8 * dim * n + n * (config.basis_degree + 1))


def _about(n: int) -> str:
    """An integer of any size in a few characters (exact below 10^7)."""
    digits = str(n)
    return digits if len(digits) <= 7 else f"{digits[0]}.{digits[1:3]}e{len(digits) - 1}"


def _check_memory(n_steps: int, dim: int, config: SolverConfig,
                  steps_field: str, keep_paths: bool) -> None:
    """Raise ScheduleError before allocating when the solve's arrays would
    exceed the machine's physical memory."""
    budget = _physical_memory()
    per_path = _bytes_per_path(n_steps, dim, config, keep_paths)
    need = per_path * config.n_paths
    if budget is not None and need > budget:
        # blame the path count only when the steps alone would fit
        field = "numerics.paths" if per_path <= budget else steps_field
        raise ScheduleError(
            f"the schedule plans {_about(n_steps)} steps x {config.n_paths} paths, "
            f"about {_about(need)} bytes of solver arrays, more than the "
            f"{budget} bytes of physical memory", field=field)


# a non-finite iterate ends the run at its window's difference norms and an
# overflowing residual is reported as inf: numpy's warnings would repeat them
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: BSEIProblem, config: SolverConfig = SolverConfig(), *,
          keep_paths: bool = True):
    """Solve the inclusion over the whole horizon by backward concatenation.

    The horizon splits into equal windows no longer than the schedule's
    delta; each solves its nodes [k_lo, k_hi) from the Y at k_hi of the
    window after it, the last from node N, set first.  Each window is
    verified as it lands, node N first, so the SolveReport carries
    per-window iteration diagnostics and the one residual pass of the run,
    with the per-node path means of Y and Z.  Returns (Solution, report):
    the concatenated Solution, which carries the Brownian ensemble and
    S(dt) of the run, or None with ``keep_paths=False``, in which case no
    (N + 1) x M x d array is allocated and the memory budget counts none.
    """
    t0 = time.perf_counter()
    a = problem.generator
    horizon = problem.horizon
    norms = problem.gspec._norms
    constants = (problem.lipschitz_k, gamma_bound(a, horizon), horizon, config.c_pe,
                 "problem.g.a_z" if norms[1] > norms[0] else "problem.g.a_y")
    schedule = schedule_from_constants(*constants)
    n_win = schedule.n_windows
    n_total = n_win * config.steps_per_window
    _check_memory(n_total, problem.dim, config, _beta_field(*constants), keep_paths)
    grid = TimeGrid(horizon, n_total)
    bm = simulate_brownian(grid, config.n_paths, config.seed)
    # on a uniform grid every S(t_j - t_k) is a power of this one matrix
    s_dt = matrix_exponential(grid.dt * a)

    report = SolveReport(schedule=schedule, windows=[], config=config,
                         n_steps_total=n_total)
    check = _Verification(problem, bm, s_dt)
    # every node is written: node N below, the windows [0, N)
    grids = [np.empty((n_total + 1, config.n_paths, problem.dim))
             for _ in range(3)] if keep_paths else ()

    def land(k_lo, *triple):  # the nodes from k_lo up, verified and kept
        check.feed(*triple)
        for full, part in zip(grids, triple):
            full[k_lo:k_lo + len(part)] = part

    # node N belongs to no window: (xi, 0) and its selection from g = 0
    y_loc = problem.terminal.sample(bm)[None]
    z_loc = np.zeros_like(y_loc)
    g_loc = select_generator(z_loc, y_loc, z_loc, grid.nodes[n_total:], problem.gspec)
    land(n_total, y_loc, z_loc, g_loc)
    for w in range(n_win - 1, -1, -1):
        # the window above is held until this one returns, as _bytes_per_path
        # counts: freed sooner, glibc trims the heap between windows
        # (singleton_demo: 2.6x minor faults)
        try:
            y_loc, z_loc, g_loc, wrep = picard_solve_interval(
                problem, w, y_loc[0], schedule, s_dt, bm, config)
        except NonConvergenceError as exc:
            report.windows.insert(0, exc.report)
            report.runtime_seconds = time.perf_counter() - t0
            raise NonConvergenceError(str(exc), report=report) from exc
        report.windows.insert(0, wrep)
        land(wrep.k_lo, y_loc, z_loc, g_loc)

    report.residuals = check.report()
    report.runtime_seconds = time.perf_counter() - t0
    sol = Solution(*grids, bm=bm, s_dt=s_dt) if keep_paths else None
    return sol, report


@dataclass
class ResidualReport:
    inclusion_max: float
    equation: np.ndarray  # (N + 1,) per-node sample norms
    y_modulus: float = 0.0  # max one-step increment of Y in sample L^p
    y_mean: np.ndarray | None = None  # (N + 1, d) per-node path means of Y
    z_mean: np.ndarray | None = None  # and of Z

    @property
    def equation_max(self) -> float:
        return float(np.max(self.equation))


def _rows(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The sample norm of a[j] - b[j] for each node j, with dt = 1."""
    return _power_mean(*_path_sums(a[None], b[None]), 1.0, p)


class _Verification:
    """The residual pass as a backward accumulator, fed node ranges from the
    top: node N first, then each range directly below the last.

    Each range is verified in blocks of whole nodes, as many as
    ``select_generator`` puts in a chunk, counted from the range's top, so no
    block straddles two ranges: one selection, one gap norm and one
    sample-norm pass per block, each node's value the bits of its own
    single-node call.  Between ranges it carries u, the recursion below, and
    Y at the lowest node fed; its block buffers live only while a range is
    verified, so a solve does not hold them while its windows iterate.
    """

    def __init__(self, problem: BSEIProblem, bm: BrownianEnsemble, s_dt: np.ndarray):
        n, d = bm.grid.n_steps, problem.dim
        self.problem, self.bm, self.s_dt = problem, bm, s_dt
        self.block = max(1, geometry._CHUNK_ENTRIES // max(1, bm.n_paths * d))
        self.lo = n + 1  # the lowest node fed
        self.u_lo = self.y_lo = None  # u and Y there
        # kept per node so that a NaN gap or step reaches the maximum
        self.inclusion = np.empty(n + 1)
        self.equation = np.zeros(n + 1)  # exact at node N
        self.modulus = np.empty(n)  # the Y step from node k to k + 1
        self.y_mean, self.z_mean = np.empty((n + 1, d)), np.empty((n + 1, d))

    # an overflowing residual is reported as inf; a row of the sample norm
    # whose squares leave the float range is redone in power-of-two units
    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def feed(self, y: np.ndarray, z: np.ndarray, g: np.ndarray) -> None:
        """Verify (Y, Z, g), (n, M, d) stacks on the n nodes below those fed."""
        grid, dw, s_dt = self.bm.grid, self.bm.increments, self.s_dt
        n, dt, p = grid.n_steps, grid.dt, self.problem.exponent
        d = y.shape[2]
        u = np.empty((min(self.block, len(y)),) + y.shape[1:])  # S(T - t_k) xi less the sums
        z_dw = np.empty(y.shape[1:])
        u_above = self.u_lo
        off = self.lo - len(y)  # node of y[0]
        nodes = grid.nodes[off:self.lo]
        for i in range(d):  # a coordinate at a time, as over a whole grid
            self.y_mean[off:self.lo, i] = y[..., i].mean(axis=1)
            self.z_mean[off:self.lo, i] = z[..., i].mean(axis=1)
        if self.lo <= n:  # the step from this range's top into the range above
            self.modulus[self.lo - 1] = _rows(self.y_lo[None], y[-1:], p)[0]
        # blocks in range-local indices; node N's u and residual are exact
        below_n = min(len(y), n - off)
        for hi in range(len(y), 0, -self.block):
            lo = max(0, hi - self.block)
            blk = slice(lo, hi)
            gap = select_generator(g[blk], y[blk], z[blk], nodes[blk], self.problem.gspec)
            np.subtract(g[blk], gap, out=gap)
            # finite for any finite gap
            self.inclusion[off + lo:off + hi] = geometry._norm(gap).max(axis=1)
            # u_k = u_{k+1} S(dt)' - (dt g_k + Z_k dW_k), one matmul per node
            for j in range(hi - 1, lo - 1, -1):
                if off + j == n:
                    u[j - lo] = y[j]
                    continue
                for i in range(d):  # Z_k dW_k a coordinate at a time, not over d
                    np.multiply(z[j][:, i], dw[off + j], out=z_dw[:, i])
                u_next = u[j + 1 - lo] if j + 1 < hi else u_above
                np.subtract(u_next @ s_dt.T, dt * g[j] + z_dw, out=u[j - lo])
            u_above = u[0]  # the block's lowest node
            top = min(hi, below_n)
            if top > lo:
                self.equation[off + lo:off + top] = _rows(y[lo:top], u[:top - lo], p)
            top = min(hi, len(y) - 1)  # steps whose upper node is in this range
            if top > lo:
                self.modulus[off + lo:off + top] = _rows(y[lo + 1:top + 1], y[lo:top], p)
        self.lo, self.u_lo, self.y_lo = off, u_above.copy(), y[0]

    def report(self) -> ResidualReport:
        return ResidualReport(inclusion_max=float(np.max(self.inclusion)),
                              equation=self.equation, y_modulus=float(np.max(self.modulus)),
                              y_mean=self.y_mean, z_mean=self.z_mean)


def verify_solution(sol: Solution, problem: BSEIProblem) -> ResidualReport:
    """Pure diagnostics on a completed solution, on the Brownian ensemble
    and the S(dt) that it carries: the pass ``solve`` makes window by
    window, fed the whole grid at once.

    Reports (a) the worst pointwise distance of g to its constraint set and
    (b) the per-node sample norm of the discrete backward-equation residual
    Y[k] + sum_j dt S(t_j - t_k) g[j] + sum_j S(t_j - t_k) Z[j] dW_j
    - S(T - t_k) xi, in one backward pass over blocks of whole nodes (see
    ``_Verification``), and the per-node path means of Y and Z.  The
    discrete modulus of continuity of Y comes along for free; on a grid that
    is the strongest statement available about time continuity.
    """
    check = _Verification(problem, sol.bm, sol.s_dt)
    check.feed(sol.y, sol.z, sol.g)
    return check.report()


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
