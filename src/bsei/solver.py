"""Backward solver for set-valued stochastic evolution equations.

The solution computed is the one whose generator is the minimal-norm
selection g = m(G(t, Y, Z)), m(G) = P_G(0), at every node: each G here is a
translate c0(t) + a_y Y + a_z Z + B of one convex compact B, and m(c + B) =
c + P_B(-c) is 1-Lipschitz in c, so (Y, Z) -> g keeps the schedule's L and
the solution is unique.  In windows short enough for that schedule the
driver alternates selecting m(G) at the current (Y, Z) and solving the
resulting linear backward equation by regression on a fixed path ensemble,
until (Y, Z) stall, from Y equal to the path mean of the window's terminal
data and Z = 0: a deterministic start, so every iterate is adapted and the
fixed point does not depend on it.  Windows run from the terminal time
backwards, each handing its left-endpoint values to the next as terminal
data.
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
    """Terminal data xi = coeff W_T^k, k the index of ``kind`` in ``_KINDS``."""

    _KINDS = ("constant", "linear", "quadratic")  # not a field: no annotation
    kind: str
    coeff: np.ndarray

    def __post_init__(self):
        if self.kind not in self._KINDS:  # by equality, so a list is refused too
            raise ValueError(f"unknown terminal kind {self.kind!r}")
        object.__setattr__(self, "coeff", geometry.as_point(self.coeff))

    @property
    def dim(self) -> int:
        return self.coeff.size

    def sample(self, w_t: np.ndarray) -> np.ndarray:
        """xi on paths whose W_T is ``w_t``, an (M,) vector: an (M, dim) array."""
        return np.outer(w_t ** self._KINDS.index(self.kind), self.coeff)


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
    ``lipschitz_field``), gamma (1 + gamma) from A, or 1 + sqrt(T) from the
    horizon; the last two bound gamma (1 + sqrt(T) (1 + gamma)) by their product."""
    factors = ((c_pe, "numerics.c_pe"), (lipschitz, lipschitz_field),
               (gamma_s * (1.0 + gamma_s), "problem.generator"),
               (1.0 + math.sqrt(horizon), "problem.horizon"))
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
    CLI passes on just the fields a config file sets.  A ``min_iter`` above
    ``n_max`` could never converge, so it raises ``ValueError``."""

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
        if self.min_iter > self.n_max:
            raise ValueError(f"min_iter {self.min_iter} is above n_max {self.n_max}")


def _nodes_per_chunk(node: np.ndarray) -> int:
    """Whole (M, d) nodes like ``node`` in about ``geometry._CHUNK_ENTRIES`` entries."""
    return max(1, geometry._CHUNK_ENTRIES // max(1, node.size))


def select_generator(g: np.ndarray, y: np.ndarray, z: np.ndarray,
                     times: np.ndarray, gspec: SetValuedSpec) -> np.ndarray:
    """Pointwise nearest-point selection of g[k][m] in G(t_k, Y[k][m], Z[k][m]).

    The three stacks are (n, M, d) arrays on the n nodes ``times``.
    Projection of adapted data through a deterministic map, so the output is
    adapted.  From a zero stack it is the minimal-norm selection m(G) that a
    solve reports; from any g, g less it is g's gap to its constraint set.
    """
    out = np.empty_like(g)
    # every constraint set is the translate c + base of one base set; chunks
    # of whole nodes are centred, projected and re-centred while they are in
    # cache, so no stack-sized centre is built
    step = _nodes_per_chunk(g[0])
    for lo in range(0, len(times), step):
        k = slice(lo, lo + step)
        c = gspec.center_batch(times[k], y[k], z[k])
        np.subtract(g[k], c, out=out[k])
        np.add(project(out[k], gspec.base), c, out=out[k])
    return out


def picard_solve_interval(problem: BSEIProblem, index: int,
                          terminal_values: np.ndarray, schedule: PicardSchedule,
                          s_dt: np.ndarray, bm: BrownianEnsemble,
                          config: SolverConfig, w_lo: np.ndarray):
    """Fixed-point iteration of (Y, Z) on window ``index``, the grid nodes
    k_lo = index * ``config.steps_per_window`` <= k < k_hi = k_lo +
    ``config.steps_per_window``, from Y at k_hi, ``terminal_values``; the
    window's W is rebuilt from its lower edge W[k_lo] = ``w_lo``.

    The iteration starts from Y = the path mean of ``terminal_values`` at
    every node and Z = 0, so a window whose Y stays at its terminal mean
    (constant terminal data) skips the sweep that a zero start spends
    rebuilding it.  Each iteration selects g = m(G(t, Y, Z))
    (``select_generator`` from a zero stack) and solves the linear equation
    with it for the next (Y, Z), until dY + dZ falls below ``config.tol``
    (never before ``config.min_iter`` iterations, so contraction
    diagnostics have data); the g returned is m(G) at the final pair.  Returns (Y, Z, g, window
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
    # the W rows live only while the designs copy them
    designs = step_designs(bm, k_lo, bm.levels_from(w_lo, k_lo, k_hi - 1), config.basis_degree)
    zero = z = np.broadcast_to(0.0, (n, bm.n_paths, problem.dim))  # only read
    # Y starts from the path mean of its terminal data at every node, a
    # deterministic start, so every iterate is adapted; the mean is tiled over
    # the paths once, since a (d,) vector broadcast over them would send the
    # centres and the norms through numpy's length-d inner loop
    y = np.broadcast_to(np.tile(terminal_values.mean(axis=0), (bm.n_paths, 1)), z.shape)
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
    """Bytes per path of a solve's arrays: dW per step, W at the n_win + 1
    window edges and on the n + 1 nodes of one window (the edge pass builds
    each window's W from its lower edge; a window rebuilds its n nodes), a
    window's designs (basis_degree + 1 columns a step), its two (Y, Z)
    iterates and their g, the last window's (Y, Z, g), held until the next
    window returns, the (M, d) tile its Y starts from, and with
    ``keep_paths`` Y, Z and g at every node."""
    n = config.steps_per_window
    grids = 3 * dim * (n_steps + 1) if keep_paths else 0
    return 8 * (grids + n_steps + (n_steps // n + 1) + (n + 1)
                + 8 * dim * n + dim + n * (config.basis_degree + 1))


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
    with the per-node path means of Y and Z.  W is held at the window edges
    alone, one forward pass from W_0 = 0, and each window rebuilds its own
    from its lower edge: ``bm.levels`` is never formed.  Returns (Solution, report):
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

    # W at the window edges k = w n; each window's rows are dropped once its
    # upper edge is read
    n = config.steps_per_window
    edges = np.zeros((n_win + 1, config.n_paths))
    for w in range(n_win):
        edges[w + 1] = bm.levels_from(edges[w], w * n, (w + 1) * n)[-1]
    # node N belongs to no window: (xi, 0) and its selection from g = 0
    y_loc = problem.terminal.sample(edges[-1])[None]
    z_loc = np.zeros_like(y_loc)
    g_loc = select_generator(z_loc, y_loc, z_loc, grid.nodes[n_total:], problem.gspec)
    land(n_total, y_loc, z_loc, g_loc)
    for w in range(n_win - 1, -1, -1):
        # the window above is held until this one returns, as _bytes_per_path
        # counts: freed sooner, glibc trims the heap between windows
        # (singleton_demo: 2.6x minor faults)
        try:
            y_loc, z_loc, g_loc, wrep = picard_solve_interval(
                problem, w, y_loc[0], schedule, s_dt, bm, config, edges[w])
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
    y_modulus: float  # max one-step increment of Y in sample L^p
    y_mean: np.ndarray  # (N + 1, d) per-node path means of Y
    z_mean: np.ndarray  # and of Z

    @property
    def equation_max(self) -> float:
        return float(np.max(self.equation))


def _rows(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The sample norm of a[j] - b[j] for each node j, with dt = 1."""
    return _power_mean(*_path_sums(a[None], b[None]), 1.0, p)


class _Verification:
    """The residual pass as a backward accumulator, fed node ranges from the
    top: node N first, then each range directly below the last.

    Each range is verified in blocks of whole nodes, ``_nodes_per_chunk`` as
    in ``select_generator``, counted from the range's top, so no block
    straddles two ranges: one selection, one gap norm and one sample-norm
    pass per block, each node's value the bits of its own single-node call.
    It carries u, the recursion below, and Y at the lowest node verified;
    a block's buffers live only while it is verified.
    """

    def __init__(self, problem: BSEIProblem, bm: BrownianEnsemble, s_dt: np.ndarray):
        n, d = bm.grid.n_steps, problem.dim
        self.problem, self.bm = problem, bm
        self.s_t = np.ascontiguousarray(s_dt.T)  # np.dot on it is numpy's fast path
        self.lo = n + 1  # the lowest node verified
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
        off = self.lo - len(y)
        for i in range(y.shape[2]):  # a coordinate at a time, as over a whole grid
            self.y_mean[off:self.lo, i] = y[..., i].mean(axis=1)
            self.z_mean[off:self.lo, i] = z[..., i].mean(axis=1)
        if self.y_lo is not None:  # the step from this range's top into the range above
            self.modulus[self.lo - 1] = _rows(self.y_lo[None], y[-1:], self.problem.exponent)[0]
        step = _nodes_per_chunk(y[0])
        for hi in range(len(y), 0, -step):
            lo = max(0, hi - step)
            self._block(y[lo:hi], z[lo:hi], g[lo:hi], y[lo + 1:hi + 1])
        self.y_lo = y[0]

    def _block(self, y: np.ndarray, z: np.ndarray, g: np.ndarray, y_up: np.ndarray) -> None:
        """Verify a block's nodes as the range below those verified; ``y_up``
        is Y one node above each, as far as the caller's range goes."""
        grid, dw, p = self.bm.grid, self.bm.increments, self.problem.exponent
        n, off = grid.n_steps, self.lo - len(y)
        u = select_generator(g, y, z, grid.nodes[off:self.lo], self.problem.gspec)
        np.subtract(g, u, out=u)
        self.inclusion[off:self.lo] = geometry._norm(u).max(axis=1)  # finite for any finite gap
        # the gaps are normed, so their buffer takes u_k = u_{k+1} S(dt)' - (dt g_k
        # + Z_k dW_k), S(T - t_k) xi less the sums, one product per node
        z_dw, u_next = np.empty(y.shape[1:]), self.u_lo
        for j in range(len(y) - 1, -1, -1):
            if off + j == n:  # node N's u and residual are exact
                u[j] = y[j]
            else:
                for i in range(y.shape[2]):  # Z_k dW_k a coordinate at a time, not over d
                    np.multiply(z[j][:, i], dw[off + j], out=z_dw[:, i])
                np.subtract(np.dot(u_next, self.s_t), grid.dt * g[j] + z_dw, out=u[j])
            u_next = u[j]
        top = min(len(y), n - off)  # the nodes below N; _rows of none is empty
        self.equation[off:off + top] = _rows(y[:top], u[:top], p)
        self.modulus[off:off + len(y_up)] = _rows(y_up, y[:len(y_up)], p)
        self.lo, self.u_lo = off, u[0].copy()

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
    designs = step_designs(sol.bm, lo, sol.bm.levels[lo:n], basis_degree)
    _, z = solve_linear_bsee(sol.g[lo:n], sol.y[n], sol.s_dt, sol.grid.dt, designs)
    return {u: z[u - lo] for u in wanted}
